-- name: tpcds_q79
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
  AND d.d_year = 1999
  AND s.s_number_employees > 250
  AND hd.hd_dep_count > 5;
