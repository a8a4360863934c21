-- name: tpcds_q85
SELECT COUNT(*) AS count_star
FROM web_sales AS ws,
     web_returns AS wr,
     web_page AS wp,
     customer_demographics AS cd1,
     customer_demographics AS cd2,
     customer_address AS ca,
     date_dim AS d,
     reason AS r
WHERE ws.ws_item_sk = wr.wr_item_sk
  AND ws.ws_web_page_sk = wp.wp_web_page_sk
  AND wr.wr_refunded_cdemo_sk = cd1.cd_demo_sk
  AND wr.wr_returning_cdemo_sk = cd2.cd_demo_sk
  AND wr.wr_refunded_addr_sk = ca.ca_address_sk
  AND ws.ws_sold_date_sk = d.d_date_sk
  AND wr.wr_reason_sk = r.r_reason_sk
  AND cd1.cd_marital_status = cd2.cd_marital_status
  AND ca.ca_country = 'United States'
  AND d.d_year = 2000;
