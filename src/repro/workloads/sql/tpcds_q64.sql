-- name: tpcds_q64
SELECT COUNT(*) AS count_star
FROM store_sales AS ss,
     store_returns AS sr,
     catalog_sales AS cs,
     date_dim AS d1,
     store AS s,
     customer AS c,
     customer_demographics AS cd1,
     customer_demographics AS cd2,
     customer_address AS ca1,
     customer_address AS ca2,
     item AS i
WHERE ss.ss_item_sk = i.i_item_sk
  AND ss.ss_ticket_number = sr.sr_ticket_number
  AND ss.ss_item_sk = sr.sr_item_sk
  AND cs.cs_item_sk = ss.ss_item_sk
  AND ss.ss_sold_date_sk = d1.d_date_sk
  AND ss.ss_store_sk = s.s_store_sk
  AND ss.ss_customer_sk = c.c_customer_sk
  AND ss.ss_cdemo_sk = cd1.cd_demo_sk
  AND c.c_current_cdemo_sk = cd2.cd_demo_sk
  AND ss.ss_addr_sk = ca1.ca_address_sk
  AND c.c_current_addr_sk = ca2.ca_address_sk
  AND cd1.cd_marital_status = cd2.cd_marital_status
  AND d1.d_year = 1999
  AND i.i_color IN ('purple', 'orange', 'pink');
