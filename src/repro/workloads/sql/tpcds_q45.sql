-- name: tpcds_q45
SELECT COUNT(*) AS count_star
FROM web_sales AS ws,
     customer AS c,
     customer_address AS ca,
     item AS i,
     date_dim AS d
WHERE ws.ws_customer_sk = c.c_customer_sk
  AND c.c_current_addr_sk = ca.ca_address_sk
  AND ws.ws_item_sk = i.i_item_sk
  AND ws.ws_sold_date_sk = d.d_date_sk
  AND i.i_item_sk < 100
  AND (d.d_qoy = 2 AND d.d_year = 2001);
