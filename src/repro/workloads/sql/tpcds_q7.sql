-- name: tpcds_q7
SELECT COUNT(*) AS count_star
FROM store_sales AS f,
     customer_demographics AS cd,
     date_dim AS d,
     item AS i,
     promotion AS p
WHERE f.ss_cdemo_sk = cd.cd_demo_sk
  AND f.ss_sold_date_sk = d.d_date_sk
  AND f.ss_item_sk = i.i_item_sk
  AND f.ss_promo_sk = p.p_promo_sk
  AND (cd.cd_gender = 'M' AND cd.cd_marital_status = 'S')
  AND d.d_year = 2000
  AND p.p_channel_email = 'N';
