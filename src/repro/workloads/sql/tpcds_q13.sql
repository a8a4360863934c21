-- name: tpcds_q13
SELECT COUNT(*) AS count_star
FROM store_sales AS ss,
     store AS s,
     customer_demographics AS cd,
     household_demographics AS hd,
     customer_address AS ca,
     date_dim AS d
WHERE ss.ss_store_sk = s.s_store_sk
  AND ss.ss_cdemo_sk = cd.cd_demo_sk
  AND ss.ss_hdemo_sk = hd.hd_demo_sk
  AND ss.ss_addr_sk = ca.ca_address_sk
  AND ss.ss_sold_date_sk = d.d_date_sk
  AND ca.ca_country = 'United States'
  AND d.d_year = 2001
  AND ((cd.cd_marital_status = 'M' AND hd.hd_dep_count = 3) OR (cd.cd_marital_status = 'S' AND hd.hd_dep_count = 1));
