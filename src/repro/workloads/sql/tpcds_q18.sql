-- name: tpcds_q18
SELECT COUNT(*) AS count_star
FROM catalog_sales AS f,
     customer_demographics AS cd,
     date_dim AS d,
     item AS i,
     customer AS c
WHERE f.cs_cdemo_sk = cd.cd_demo_sk
  AND f.cs_sold_date_sk = d.d_date_sk
  AND f.cs_item_sk = i.i_item_sk
  AND f.cs_customer_sk = c.c_customer_sk
  AND (cd.cd_gender = 'F' AND cd.cd_education_status = 'College')
  AND d.d_year = 1998;
