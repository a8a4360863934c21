-- name: tpcds_q19
SELECT COUNT(*) AS count_star
FROM store_sales AS ss,
     date_dim AS d,
     item AS i,
     customer AS c,
     customer_address AS ca,
     store AS s
WHERE ss.ss_sold_date_sk = d.d_date_sk
  AND ss.ss_item_sk = i.i_item_sk
  AND ss.ss_customer_sk = c.c_customer_sk
  AND c.c_current_addr_sk = ca.ca_address_sk
  AND ss.ss_store_sk = s.s_store_sk
  AND ca.ca_zip = s.s_zip
  AND (d.d_moy = 11 AND d.d_year = 1999)
  AND i.i_manufact_id = 7;
