-- name: tpcds_q37
SELECT COUNT(*) AS count_star
FROM catalog_sales AS f,
     item AS i,
     date_dim AS d
WHERE f.cs_item_sk = i.i_item_sk
  AND f.cs_sold_date_sk = d.d_date_sk
  AND i.i_current_price BETWEEN 20.0 AND 50.0
  AND d.d_date_sk BETWEEN 500 AND 560;
