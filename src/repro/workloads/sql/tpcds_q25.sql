-- name: tpcds_q25
SELECT COUNT(*) AS count_star
FROM store_sales AS ss,
     store_returns AS sr,
     catalog_sales AS cs,
     date_dim AS d1,
     date_dim AS d2,
     store AS s,
     item AS i
WHERE ss.ss_sold_date_sk = d1.d_date_sk
  AND ss.ss_item_sk = i.i_item_sk
  AND ss.ss_store_sk = s.s_store_sk
  AND sr.sr_item_sk = ss.ss_item_sk
  AND sr.sr_ticket_number = ss.ss_ticket_number
  AND cs.cs_item_sk = sr.sr_item_sk
  AND cs.cs_sold_date_sk = d2.d_date_sk
  AND (d1.d_moy = 4 AND d1.d_year = 2000)
  AND d2.d_moy BETWEEN 4 AND 10;
