-- name: tpcds_q98
SELECT COUNT(*) AS count_star
FROM store_sales AS f,
     item AS i,
     date_dim AS d
WHERE f.ss_item_sk = i.i_item_sk
  AND f.ss_sold_date_sk = d.d_date_sk
  AND i.i_category IN ('Music', 'Home', 'Shoes')
  AND d.d_date_sk BETWEEN 100 AND 130;
