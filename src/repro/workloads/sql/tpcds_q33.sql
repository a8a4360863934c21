-- name: tpcds_q33
SELECT COUNT(*) AS count_star
FROM store_sales AS f,
     item AS i,
     date_dim AS d,
     customer_address AS ca
WHERE f.ss_item_sk = i.i_item_sk
  AND f.ss_sold_date_sk = d.d_date_sk
  AND f.ss_addr_sk = ca.ca_address_sk
  AND i.i_category = 'Electronics'
  AND d.d_moy = 5
  AND ca.ca_gmt_offset = -5;
