-- name: tpcds_q34
SELECT COUNT(*) AS count_star
FROM store_sales AS ss,
     date_dim AS d,
     store AS s,
     household_demographics AS hd,
     customer AS c
WHERE ss.ss_sold_date_sk = d.d_date_sk
  AND ss.ss_store_sk = s.s_store_sk
  AND ss.ss_hdemo_sk = hd.hd_demo_sk
  AND ss.ss_customer_sk = c.c_customer_sk
  AND d.d_dom BETWEEN 1 AND 3
  AND s.s_state IN ('TN', 'GA', 'SC')
  AND hd.hd_vehicle_count > 1;
