-- name: tpcds_q48
SELECT COUNT(*) AS count_star
FROM store_sales AS ss,
     store AS s,
     customer_demographics AS cd,
     customer_address AS ca,
     date_dim AS d
WHERE ss.ss_store_sk = s.s_store_sk
  AND ss.ss_cdemo_sk = cd.cd_demo_sk
  AND ss.ss_addr_sk = ca.ca_address_sk
  AND ss.ss_sold_date_sk = d.d_date_sk
  AND ca.ca_country = 'United States'
  AND d.d_year = 2000
  AND ((cd.cd_education_status = 'College' AND ss.ss_sales_price < 100.0) OR (cd.cd_education_status = 'Primary' AND ss.ss_sales_price > 150.0));
