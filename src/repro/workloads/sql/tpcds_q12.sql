-- name: tpcds_q12
SELECT COUNT(*) AS count_star
FROM web_sales AS f,
     item AS i,
     date_dim AS d
WHERE f.ws_item_sk = i.i_item_sk
  AND f.ws_sold_date_sk = d.d_date_sk
  AND i.i_category IN ('Sports', 'Books', 'Home')
  AND d.d_date_sk BETWEEN 200 AND 230;
