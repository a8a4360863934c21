-- name: tpcds_q43
SELECT COUNT(*) AS count_star
FROM store_sales AS f,
     date_dim AS d,
     store AS s
WHERE f.ss_sold_date_sk = d.d_date_sk
  AND f.ss_store_sk = s.s_store_sk
  AND d.d_year = 2000
  AND s.s_gmt_offset = -5;
