-- name: tpcds_q62
SELECT COUNT(*) AS count_star
FROM web_sales AS f,
     date_dim AS d,
     web_site AS wsite,
     web_page AS wp
WHERE f.ws_ship_date_sk = d.d_date_sk
  AND f.ws_web_site_sk = wsite.web_site_sk
  AND f.ws_web_page_sk = wp.wp_web_page_sk
  AND d.d_date_sk BETWEEN 600 AND 660;
