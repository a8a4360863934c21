-- name: tpcds_q16
SELECT COUNT(*) AS count_star
FROM catalog_sales AS f,
     date_dim AS d,
     customer_address AS ca,
     call_center AS cc
WHERE f.cs_ship_date_sk = d.d_date_sk
  AND f.cs_addr_sk = ca.ca_address_sk
  AND f.cs_call_center_sk = cc.cc_call_center_sk
  AND d.d_date_sk BETWEEN 900 AND 960
  AND ca.ca_state = 'GA'
  AND cc.cc_county = 'County0';
