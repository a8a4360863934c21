-- name: tpcds_q15
SELECT COUNT(*) AS count_star
FROM catalog_sales AS cs,
     customer AS c,
     customer_address AS ca,
     date_dim AS d
WHERE cs.cs_customer_sk = c.c_customer_sk
  AND c.c_current_addr_sk = ca.ca_address_sk
  AND cs.cs_sold_date_sk = d.d_date_sk
  AND ca.ca_state IN ('CA', 'GA', 'TX')
  AND (d.d_qoy = 2 AND d.d_year = 2001);
