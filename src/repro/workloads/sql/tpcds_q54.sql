-- name: tpcds_q54
SELECT COUNT(*) AS count_star
FROM catalog_sales AS cs,
     item AS i,
     date_dim AS d,
     customer AS c,
     customer_address AS ca,
     store_sales AS ss
WHERE cs.cs_item_sk = i.i_item_sk
  AND cs.cs_sold_date_sk = d.d_date_sk
  AND cs.cs_customer_sk = c.c_customer_sk
  AND c.c_current_addr_sk = ca.ca_address_sk
  AND ss.ss_customer_sk = c.c_customer_sk
  AND i.i_category = 'Women'
  AND d.d_moy = 12
  AND ca.ca_state IN ('CA', 'TX');
