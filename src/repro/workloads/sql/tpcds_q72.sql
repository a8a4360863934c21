-- name: tpcds_q72
SELECT COUNT(*) AS count_star
FROM catalog_sales AS cs,
     inventory AS inv,
     warehouse AS w,
     item AS i,
     customer_demographics AS cd,
     household_demographics AS hd,
     date_dim AS d1,
     date_dim AS d2
WHERE cs.cs_item_sk = i.i_item_sk
  AND inv.inv_item_sk = i.i_item_sk
  AND inv.inv_warehouse_sk = w.w_warehouse_sk
  AND cs.cs_cdemo_sk = cd.cd_demo_sk
  AND cs.cs_hdemo_sk = hd.hd_demo_sk
  AND cs.cs_sold_date_sk = d1.d_date_sk
  AND inv.inv_date_sk = d2.d_date_sk
  AND d1.d_week_seq = d2.d_week_seq
  AND cd.cd_marital_status = 'D'
  AND hd.hd_buy_potential = '>10000'
  AND d1.d_year = 1999;
