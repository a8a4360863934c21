-- name: tpcds_q83
SELECT COUNT(*) AS count_star
FROM store_returns AS sr,
     catalog_returns AS cr,
     web_returns AS wr,
     item AS i,
     date_dim AS d
WHERE sr.sr_item_sk = i.i_item_sk
  AND cr.cr_item_sk = i.i_item_sk
  AND wr.wr_item_sk = i.i_item_sk
  AND sr.sr_returned_date_sk = d.d_date_sk
  AND d.d_moy = 7;
