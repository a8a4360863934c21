-- name: tpcds_q99
SELECT COUNT(*) AS count_star
FROM catalog_sales AS f,
     date_dim AS d,
     warehouse AS w,
     ship_mode AS sm,
     call_center AS cc
WHERE f.cs_ship_date_sk = d.d_date_sk
  AND f.cs_warehouse_sk = w.w_warehouse_sk
  AND f.cs_ship_mode_sk = sm.sm_ship_mode_sk
  AND f.cs_call_center_sk = cc.cc_call_center_sk
  AND d.d_date_sk BETWEEN 400 AND 460;
