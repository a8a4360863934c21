-- name: tpcds_q55
SELECT COUNT(*) AS count_star
FROM store_sales AS f,
     date_dim AS d,
     item AS i
WHERE f.ss_sold_date_sk = d.d_date_sk
  AND f.ss_item_sk = i.i_item_sk
  AND d.d_moy = 11
  AND i.i_manufact_id = 28;
