-- name: tpcds_q24
SELECT COUNT(*) AS count_star
FROM store_sales AS ss,
     store_returns AS sr,
     store AS s,
     item AS i,
     customer AS c,
     customer_address AS ca
WHERE ss.ss_ticket_number = sr.sr_ticket_number
  AND ss.ss_item_sk = sr.sr_item_sk
  AND ss.ss_store_sk = s.s_store_sk
  AND ss.ss_item_sk = i.i_item_sk
  AND ss.ss_customer_sk = c.c_customer_sk
  AND c.c_current_addr_sk = ca.ca_address_sk
  AND s.s_zip = ca.ca_zip
  AND i.i_color = 'red';
