-- name: tpcds_q46
SELECT COUNT(*) AS count_star
FROM store_sales AS ss,
     date_dim AS d,
     store AS s,
     household_demographics AS hd,
     customer_address AS ca1,
     customer AS c,
     customer_address AS ca2
WHERE ss.ss_sold_date_sk = d.d_date_sk
  AND ss.ss_store_sk = s.s_store_sk
  AND ss.ss_hdemo_sk = hd.hd_demo_sk
  AND ss.ss_addr_sk = ca1.ca_address_sk
  AND ss.ss_customer_sk = c.c_customer_sk
  AND c.c_current_addr_sk = ca2.ca_address_sk
  AND ca1.ca_city = ca2.ca_city
  AND d.d_dom IN (1, 2, 3)
  AND s.s_city IN ('City0', 'City1')
  AND hd.hd_dep_count > 3;
