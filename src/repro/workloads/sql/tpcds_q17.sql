-- name: tpcds_q17
SELECT COUNT(*) AS count_star
FROM store_sales AS ss,
     store_returns AS sr,
     catalog_sales AS cs,
     date_dim AS d1,
     date_dim AS d2,
     date_dim AS d3,
     store AS s,
     item AS i
WHERE ss.ss_sold_date_sk = d1.d_date_sk
  AND ss.ss_item_sk = i.i_item_sk
  AND ss.ss_store_sk = s.s_store_sk
  AND sr.sr_item_sk = ss.ss_item_sk
  AND sr.sr_ticket_number = ss.ss_ticket_number
  AND sr.sr_returned_date_sk = d2.d_date_sk
  AND cs.cs_item_sk = sr.sr_item_sk
  AND cs.cs_sold_date_sk = d3.d_date_sk
  AND d1.d_qoy = 1;
