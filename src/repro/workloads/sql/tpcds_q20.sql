-- name: tpcds_q20
SELECT COUNT(*) AS count_star
FROM catalog_sales AS f,
     item AS i,
     date_dim AS d
WHERE f.cs_item_sk = i.i_item_sk
  AND f.cs_sold_date_sk = d.d_date_sk
  AND i.i_category IN ('Jewelry', 'Men', 'Shoes')
  AND d.d_date_sk BETWEEN 300 AND 330;
