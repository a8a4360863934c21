-- name: tpcds_q65
SELECT COUNT(*) AS count_star
FROM store_sales AS ss,
     date_dim AS d,
     store AS s,
     item AS i
WHERE ss.ss_sold_date_sk = d.d_date_sk
  AND ss.ss_store_sk = s.s_store_sk
  AND ss.ss_item_sk = i.i_item_sk
  AND d.d_week_seq BETWEEN 20 AND 40;
