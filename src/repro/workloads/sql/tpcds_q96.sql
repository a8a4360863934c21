-- name: tpcds_q96
SELECT COUNT(*) AS count_star
FROM store_sales AS f,
     time_dim AS t,
     household_demographics AS hd,
     store AS s
WHERE f.ss_sold_time_sk = t.t_time_sk
  AND f.ss_hdemo_sk = hd.hd_demo_sk
  AND f.ss_store_sk = s.s_store_sk
  AND t.t_hour = 20
  AND hd.hd_dep_count = 7;
