-- name: tpcds_q27
SELECT COUNT(*) AS count_star
FROM store_sales AS f,
     customer_demographics AS cd,
     date_dim AS d,
     store AS s,
     item AS i
WHERE f.ss_cdemo_sk = cd.cd_demo_sk
  AND f.ss_sold_date_sk = d.d_date_sk
  AND f.ss_store_sk = s.s_store_sk
  AND f.ss_item_sk = i.i_item_sk
  AND cd.cd_gender = 'F'
  AND d.d_year = 1999
  AND s.s_state IN ('TN', 'GA');
