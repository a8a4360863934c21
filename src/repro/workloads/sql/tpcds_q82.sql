-- name: tpcds_q82
SELECT COUNT(*) AS count_star
FROM inventory AS inv,
     item AS i,
     date_dim AS d,
     store_sales AS ss
WHERE inv.inv_item_sk = i.i_item_sk
  AND inv.inv_date_sk = d.d_date_sk
  AND ss.ss_item_sk = i.i_item_sk
  AND inv.inv_quantity_on_hand < 500
  AND i.i_current_price BETWEEN 30.0 AND 60.0
  AND d.d_date_sk BETWEEN 700 AND 760;
