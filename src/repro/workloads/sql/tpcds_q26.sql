-- name: tpcds_q26
SELECT COUNT(*) AS count_star
FROM catalog_sales AS f,
     customer_demographics AS cd,
     date_dim AS d,
     item AS i,
     promotion AS p
WHERE f.cs_cdemo_sk = cd.cd_demo_sk
  AND f.cs_sold_date_sk = d.d_date_sk
  AND f.cs_item_sk = i.i_item_sk
  AND f.cs_promo_sk = p.p_promo_sk
  AND cd.cd_marital_status = 'M'
  AND d.d_year = 2000
  AND p.p_channel_event = 'N';
