"""Benchmark workloads: TPC-H, JOB (IMDB), TPC-DS, DSB, and synthetic instances.

Each benchmark module is a data generator (``load``) plus ``query(n)``
lookups into :mod:`repro.workloads.sqlfiles`, whose checked-in ``.sql`` files
are the only definition of the TPC-H, JOB and TPC-DS / DSB queries.
"""

from repro.workloads import dsb, job, sqlfiles, synthetic, tpcds, tpch
from repro.workloads.generator import WorkloadScale

__all__ = ["WorkloadScale", "dsb", "job", "sqlfiles", "synthetic", "tpcds", "tpch"]
