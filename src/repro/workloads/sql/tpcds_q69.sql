-- name: tpcds_q69
SELECT COUNT(*) AS count_star
FROM customer AS c,
     customer_address AS ca,
     customer_demographics AS cd,
     store_sales AS ss,
     date_dim AS d
WHERE c.c_current_addr_sk = ca.ca_address_sk
  AND c.c_current_cdemo_sk = cd.cd_demo_sk
  AND ss.ss_customer_sk = c.c_customer_sk
  AND ss.ss_sold_date_sk = d.d_date_sk
  AND ca.ca_state IN ('KY', 'GA', 'NM')
  AND (d.d_year = 2001 AND d.d_moy BETWEEN 4 AND 6);
