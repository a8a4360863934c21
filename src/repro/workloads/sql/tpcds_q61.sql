-- name: tpcds_q61
SELECT COUNT(*) AS count_star
FROM store_sales AS f,
     promotion AS p,
     store AS s,
     date_dim AS d,
     customer AS c,
     item AS i
WHERE f.ss_promo_sk = p.p_promo_sk
  AND f.ss_store_sk = s.s_store_sk
  AND f.ss_sold_date_sk = d.d_date_sk
  AND f.ss_customer_sk = c.c_customer_sk
  AND f.ss_item_sk = i.i_item_sk
  AND p.p_channel_email = 'Y'
  AND s.s_gmt_offset = -7
  AND (d.d_year = 1998 AND d.d_moy = 11)
  AND i.i_category = 'Jewelry';
