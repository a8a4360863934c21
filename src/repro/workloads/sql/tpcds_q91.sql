-- name: tpcds_q91
SELECT COUNT(*) AS count_star
FROM catalog_returns AS cr,
     date_dim AS d,
     customer AS c,
     customer_demographics AS cd,
     customer_address AS ca
WHERE cr.cr_returned_date_sk = d.d_date_sk
  AND cr.cr_customer_sk = c.c_customer_sk
  AND c.c_current_cdemo_sk = cd.cd_demo_sk
  AND c.c_current_addr_sk = ca.ca_address_sk
  AND (d.d_year = 1998 AND d.d_moy = 11)
  AND cd.cd_marital_status = 'M'
  AND ca.ca_gmt_offset = -7;
