"""Microbenchmarks: one declarative :data:`CASES` table behind one runner.

A :class:`Case` names its set-up, its labelled variants (a thunk each — an
``ExecutionConfig`` variant of ``db.execute`` and a raw kernel call are the
same thing to the runner), the timed quantity (wall seconds or the
execution's own transfer-phase seconds), the counters read off the variants'
outputs, the ratios derived from the medians, and the gates on them.
:func:`run_case` is the only function that times anything: after one untimed
warm-up pass it interleaves the variants within every repeat (order reversed
each repeat, so drift and cache warmth do not favour one side), asserts
identical aggregates, keeps every sample, and returns a plain dict that
:func:`format_case` prints and
:func:`~repro.bench.harness.write_bench_json` stores (``BENCH_micro.json``).

Gates are noise-honest: a timing gate compares medians and *fails* only
when the violation exceeds the recorded spread (interquartile range) of the
two variants; a smaller violation is reported as ``unresolved`` with both
spreads.  An ``overhead`` gate (the variant does everything the base does,
plus more) is also ``unresolved`` when the variant measures *faster* than
the base by more than the gate's own tolerance — noise that large means the
run cannot resolve the gate either way.  Counter checks are exact.

The cases, by what the paper or the engine claims:

* ``bloom_probe`` — Figure 16: blocked Bloom probe vs the hash-join match
  kernel vs the exact semi-join, probe side fixed (sweep ``build_rows``);
* ``semijoin_kernel`` — one-shot ``semi_join_mask`` vs a reused ``HashIndex``;
* ``join_match`` — hash-join build + probe: sorted vs the rule's index, per key regime;
* ``artifact_cache`` — transfer phase with the artifact cache off/cold/warm;
* ``adaptive_low_yield`` / ``adaptive_high_yield`` — adaptive transfer vs static;
* ``scaling`` — serial vs thread vs process backends over a worker sweep;
* ``deadline_overhead`` / ``tracing_overhead`` — the <2% pay-as-you-go gates;
* ``encoding_scan`` / ``encoding_shm`` — code-space scans and encoded shm.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.bloom.bloom_filter import BloomFilter
from repro.engine.database import Database, ExecutionOptions
from repro.engine.modes import ExecutionConfig, ExecutionMode
from repro.errors import BenchmarkError
from repro.exec.kernels import HashIndex, match_keys, semi_join_mask
from repro.exec.process import shutdown_workers
from repro.expr import between, codespace, lt
from repro.query import JoinCondition, QuerySpec, RelationRef

Thunk = Callable[[], Any]
Variants = Dict[str, Thunk]


@dataclass(frozen=True)
class Gate:
    """``median(variant) <= allowed(median(base))``, judged against the noise.

    ``allowed`` is ``factor * base`` — a speedup gate has ``factor < 1``
    (``variant`` at least ``1/factor`` times faster than ``base``) — widened
    to ``base + slack`` seconds when that is larger, so a percentage gate on
    a sub-second run cannot trip on timer noise.  A label ending in ``*``
    stands for the fastest variant with that prefix.  Below ``min_cores``
    the gate is recorded but not judged.
    """

    variant: str
    base: str
    factor: float
    slack: float = 0.0
    overhead: bool = False
    min_cores: int = 1

    def describe(self) -> str:
        text = f"{self.variant} <= {self.factor:.3g} x {self.base}"
        return text + (f" (or +{self.slack * 1e3:.0f}ms)" if self.slack else "")


@dataclass(frozen=True)
class Case:
    """One row of :data:`CASES`: what to set up, time, read, derive and gate."""

    name: str
    title: str
    #: ``setup(**sizes)`` is a context manager yielding ``{label: thunk}``.
    setup: Callable[..., ContextManager[Variants]]
    #: Recorded sizes, and the overrides the tier-1 smoke runs at.
    sizes: Mapping[str, Any]
    small: Mapping[str, Any]
    #: ``"wall"`` seconds around the thunk, or the ``"transfer"``-phase
    #: seconds the execution reports (``result.stats.timings.transfer``).
    timed: str = "wall"
    repeats: int = 3
    #: name -> reader over ``{label: the variant's last output}``.
    counters: Mapping[str, Callable[[Mapping[str, Any]], Any]] = field(default_factory=dict)
    #: name -> (numerator, denominator) labels; the ratio of their medians.
    ratios: Mapping[str, Tuple[str, str]] = field(default_factory=dict)
    gates: Tuple[Gate, ...] = ()
    #: name -> exact predicate over the counters.
    checks: Mapping[str, Callable[[Mapping[str, Any]], bool]] = field(default_factory=dict)
    #: A committed record from fewer cores would say nothing (scaling curves).
    min_record_cores: int = 1


# ---------------------------------------------------------------------------
# Set-ups
# ---------------------------------------------------------------------------
def star_database(
    fact_rows: int, dim_rows: int, num_dims: int, keep_fraction: float, seed: int,
    key_stride: int = 1,
) -> Tuple[Database, QuerySpec]:
    """A star-schema database + query exercising a full transfer phase.

    Dimension attributes are uniform over [0, 1000) and uncorrelated with
    the join keys, so a filter keeping ``keep_fraction`` of each dimension
    leaves every forward pass eliminating ``1 - keep_fraction`` of the fact
    side: 0.5 is the genuinely-reducing shape where per-pass hashing
    dominates; 0.999 prunes ~0.1% per pass, below the adaptive controller's
    1% yield floor.

    Join keys are ``key_stride`` apart.  At the default of 1 the key domain
    is dense and the executor runs every transfer step as an exact bitmap
    semi-join; a stride that spreads ``dim_rows`` keys over more than
    8 x (dim + fact rows) values keeps them Bloom filters.
    """
    rng = np.random.default_rng(seed)
    db = Database()
    fact: Dict[str, np.ndarray] = {"v": np.arange(fact_rows, dtype=np.int64)}
    relations = [RelationRef("f", "fact")]
    joins = []
    bound = max(int(round(1000 * keep_fraction)), 1)
    for d in range(num_dims):
        db.register_dataframe(
            f"dim{d}",
            {
                "id": np.arange(dim_rows, dtype=np.int64) * key_stride,
                "attr": rng.integers(0, 1000, size=dim_rows, dtype=np.int64),
            },
            primary_key=["id"],
        )
        fact[f"d{d}_id"] = rng.integers(0, dim_rows, size=fact_rows, dtype=np.int64) * key_stride
        relations.append(RelationRef(f"d{d}", f"dim{d}", lt("attr", bound)))
        joins.append(JoinCondition("f", f"d{d}_id", f"d{d}", "id"))
    db.register_dataframe("fact", fact)
    return db, QuerySpec(name="star", relations=tuple(relations), joins=tuple(joins))


#: What every star variant pins unless it says otherwise, so a case isolates
#: its own knob whatever ``REPRO_*`` leg the suite runs under.
_PINNED = {"backend": "serial", "artifact_cache": False, "adaptive_transfer": False}


def _star(
    mode: ExecutionMode = ExecutionMode.RPT,
    prepare: Optional[Mapping[str, Callable[[Database], None]]] = None,
    **configs: Mapping[str, Any],
) -> Callable[..., ContextManager[Variants]]:
    """Set-up: one star query, one plan, one ``db.execute`` thunk per config.

    ``configs`` maps a variant label to its ``ExecutionConfig`` fields;
    ``prepare[label]`` runs against the database before each execution of
    that variant (outside the transfer-phase seconds).
    """

    @contextmanager
    def setup(**sizes) -> Iterator[Variants]:
        db, query = star_database(**sizes)
        plan = db.optimizer_plan(query)

        def thunk(label: str) -> Thunk:
            options = ExecutionOptions(execution=ExecutionConfig(**{**_PINNED, **configs[label]}))
            before = (prepare or {}).get(label)

            def run():
                if before is not None:
                    before(db)
                return db.execute(query, mode=mode, plan=plan, options=options)

            return run

        try:
            yield {label: thunk(label) for label in configs}
        finally:
            db.close()
            shutdown_workers()

    return setup


def _scaling(workers: Optional[Tuple[int, ...]] = None, **sizes) -> ContextManager[Variants]:
    """The star under serial, and threads / processes at each worker count
    (default: powers of two up to the machine's core count)."""
    if workers is None:
        workers = tuple(1 << i for i in range((os.cpu_count() or 1).bit_length()))
    configs: Dict[str, Mapping[str, Any]] = {"serial": {}}
    for n in workers:
        configs[f"threads_{n}"] = {"backend": "parallel", "num_threads": n}
        configs[f"process_{n}"] = {"backend": "process", "num_workers": n}
    return _star(**configs)(**sizes)


def _drop_artifacts(db: Database) -> None:
    if db.artifact_cache is not None:
        db.artifact_cache.clear()


def _keys(rng: np.random.Generator, rows: int, key_domain: int) -> np.ndarray:
    return rng.integers(0, key_domain, size=rows, dtype=np.int64)


@contextmanager
def _bloom_probe(build_rows, probe_rows, key_domain, seed) -> Iterator[Variants]:
    """The engine's three membership paths over the same keys."""
    rng = np.random.default_rng(seed)
    probe, build = _keys(rng, probe_rows, key_domain), _keys(rng, build_rows, key_domain)
    bloom = BloomFilter(expected_keys=build_rows)
    bloom.insert(build)
    yield {
        "hash": lambda: match_keys(probe, build),
        "bloom": lambda: bloom.probe(probe),
        "exact": lambda: semi_join_mask(probe, build),
    }


@contextmanager
def _semijoin_kernel(filter_rows, probe_rows, key_domain, seed) -> Iterator[Variants]:
    """A fresh index per call vs the index the transfer phase reuses across
    its forward and backward pass (bitmap for bounded key domains, cached
    sort + ``searchsorted`` otherwise; the warm-up pass builds it)."""
    rng = np.random.default_rng(seed)
    probe, keys = _keys(rng, probe_rows, key_domain), _keys(rng, filter_rows, key_domain)
    index = HashIndex(keys)
    yield {
        "oneshot": lambda: semi_join_mask(probe, keys),
        "reused": lambda: index.contains(probe),
    }


#: The four ``join_match`` regimes, by which index the one domain rule picks.
_JOIN_REGIMES = ("dense_unique", "dense_dup", "sparse", "tiny_wide")


@contextmanager
def _join_match(build_rows, probe_rows, tiny_rows, seed) -> Iterator[Variants]:
    """Build + probe of one hash join: the sorted index vs the index
    :meth:`HashIndex.table_worthwhile` picks, in four key regimes.

    ``dense_unique`` — a permuted id column probed by its foreign keys (the
    PK side of an FK-PK join: the slot table); ``dense_dup`` — the same
    domain with ~4 build rows a key (CSR runs over radix passes);
    ``sparse`` — keys drawn from ``[0, 2^62)``, half the probes present (the
    rule picks the sorted index, so the arms tie); ``tiny_wide`` —
    ``tiny_rows`` build keys scattered over a 60,000-wide range and as few
    probes, eligible only through the rule's 64 k-entry floor (the table
    costs its range, the sort only its rows).  Each thunk returns the index
    it matched through.
    """
    rng = np.random.default_rng(seed)
    dup_domain = build_rows // 4
    sparse_build = _keys(rng, build_rows, 2**62)
    sparse_probe = np.concatenate(
        [rng.choice(sparse_build, probe_rows // 2), _keys(rng, probe_rows // 2, 2**62)]
    )
    sides = {
        "dense_unique": (rng.permutation(build_rows), _keys(rng, probe_rows, build_rows)),
        # A quarter of the probes: each one matches ~4 build rows.
        "dense_dup": (_keys(rng, build_rows, dup_domain), _keys(rng, probe_rows // 4, dup_domain)),
        "sparse": (sparse_build, sparse_probe),
        "tiny_wide": (_keys(rng, tiny_rows, 60_000), _keys(rng, tiny_rows, 60_000)),
    }

    def join(build, probe, force_sorted):
        index = HashIndex(build)
        if force_sorted:
            index._build_sorted()
        index.match(probe)
        return index

    variants: Variants = {}
    for regime, (build, probe) in sides.items():
        variants[f"{regime}_sorted"] = lambda b=build, p=probe: join(b, p, True)
        variants[f"{regime}_rule"] = lambda b=build, p=probe: join(b, p, False)
    yield variants


#: Distinct status strings of the encoded-scan table (64 values keep
#: dictionary codes one byte wide).
_STATUS_NDV = 64


@contextmanager
def _encoding_scan(rows, seed) -> Iterator[Variants]:
    """The same selective filters through ``Expression.evaluate`` (raw) and
    the code-space kernels with zone-map block skipping (encoded).

    A low-NDV random string column — no block skips; the win is one integer
    threshold test instead of materializing every string (~6% selective) —
    and a sorted ``int64`` timestamp column, where zone maps skip every
    block outside a 1% range.  Masks are asserted bit-identical up front.
    """
    rng = np.random.default_rng(seed)
    statuses = [f"status_{i:03d}" for i in range(_STATUS_NDV)]
    db = Database()
    db.register_dataframe(
        "events",
        {
            "ts": np.arange(rows, dtype=np.int64),
            "status": [statuses[i] for i in rng.integers(0, _STATUS_NDV, size=rows)],
        },
    )
    table, store = db.catalog.table("events"), db.catalog.encodings
    exprs = {
        "string": lt("status", statuses[4]),
        "range": between("ts", rows // 2, rows // 2 + rows // 100 - 1),
    }
    variants: Variants = {}
    try:
        for name, expr in exprs.items():
            encoded = codespace.evaluate(expr, table, store)
            raw_mask = np.asarray(expr.evaluate(table), dtype=bool)
            if encoded is None or not np.array_equal(raw_mask, encoded.mask):
                raise BenchmarkError(f"encoded scan diverged from raw evaluation for {expr!r}")
            variants[f"{name}_raw"] = lambda expr=expr: expr.evaluate(table)
            variants[f"{name}_encoded"] = lambda expr=expr: codespace.evaluate(expr, table, store)
        yield variants
    finally:
        db.close()


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------
_STAR_1M = {"fact_rows": 1 << 20, "dim_rows": 1 << 19, "num_dims": 2, "keep_fraction": 0.5, "seed": 31}
_STAR_SMALL = {"fact_rows": 1 << 13, "dim_rows": 1 << 12}
_ADAPTIVE = {
    "setup": _star(static={}, adaptive={"adaptive_transfer": True}),
    "small": {"fact_rows": 1 << 12, "dim_rows": 1 << 9, "num_dims": 2},
    "timed": "transfer",
    "repeats": 2,
    "counters": {
        "steps_skipped": lambda out: out["adaptive"].stats.adaptive_steps_skipped,
        "exact_downgrades": lambda out: min(r.stats.adaptive_exact_downgrades for r in out.values()),
    },
    "ratios": {"skip_speedup": ("static", "adaptive")},
}
_ADAPTIVE_SIZES = {"fact_rows": 1 << 20, "dim_rows": 1 << 16, "num_dims": 3, "seed": 29}


def _shm_reduction(out: Mapping[str, Any]) -> float:
    raw = out["raw"].stats.shm_bytes_mapped
    return 1.0 - out["encoded"].stats.shm_bytes_mapped / raw if raw else 0.0


CASES: Dict[str, Case] = {
    case.name: case
    for case in (
        Case(
            name="bloom_probe",
            title="Figure 16: Bloom probe vs hash probe vs exact semi-join (probe side fixed)",
            setup=_bloom_probe,
            sizes={"build_rows": 1 << 18, "probe_rows": 400_000, "key_domain": 2**30, "seed": 5},
            small={"build_rows": 1 << 10, "probe_rows": 20_000},
            ratios={"bloom_advantage": ("hash", "bloom")},
            # Paper: 2-7x, growing as the build side outgrows the caches.
            gates=(Gate("bloom", "hash", factor=1.0),),
        ),
        Case(
            name="semijoin_kernel",
            title="Semi-join membership: one-shot semi_join_mask vs a reused HashIndex",
            setup=_semijoin_kernel,
            # 2**22 models id / dictionary-code columns (the bitmap path); a
            # huge key_domain measures the sort + searchsorted regime.
            sizes={"filter_rows": 100_000, "probe_rows": 1_000_000, "key_domain": 2**22, "seed": 11},
            small={"filter_rows": 1_000, "probe_rows": 10_000},
            ratios={"reuse_speedup": ("oneshot", "reused")},
        ),
        Case(
            name="join_match",
            title="Hash join, build + probe: sorted index vs the index the domain rule picks",
            setup=_join_match,
            sizes={"build_rows": 1 << 19, "probe_rows": 1 << 20, "tiny_rows": 256, "seed": 13},
            small={"build_rows": 1 << 12, "probe_rows": 1 << 13},
            repeats=3,
            counters={
                f"{regime}_direct": (lambda out, r=regime: out[f"{r}_rule"].match_kind != "sorted")
                for regime in _JOIN_REGIMES
            },
            ratios={
                f"{regime}_speedup": (f"{regime}_sorted", f"{regime}_rule")
                for regime in _JOIN_REGIMES
            },
            # Gated where the table must win; the sparse arms run the same
            # code and tiny_wide is where the table can lose (recorded only).
            gates=(
                Gate("dense_unique_rule", "dense_unique_sorted", factor=1.0),
                Gate("dense_dup_rule", "dense_dup_sorted", factor=1.0),
            ),
            checks={
                "a direct index on dense and tiny-wide keys, the sorted one on sparse keys": (
                    lambda c: c["dense_unique_direct"] and c["dense_dup_direct"]
                    and c["tiny_wide_direct"] and not c["sparse_direct"]
                ),
            },
        ),
        Case(
            name="artifact_cache",
            title="Transfer phase of a repeated star query: artifact cache off vs cold vs warm",
            # Dimensions half the fact side and keys too sparse for a bitmap:
            # the Bloom builds the cache elides are a substantial share of
            # the transfer work.  (On dense keys there is nothing to elide —
            # the uncached arm runs exact bitmap steps and is as fast as the
            # warm one.)
            setup=_star(
                no_artifact={},
                cold={"artifact_cache": True},
                warm={"artifact_cache": True},
                prepare={"cold": _drop_artifacts},
            ),
            sizes={**_STAR_1M, "seed": 23, "key_stride": 64},
            small=_STAR_SMALL,
            timed="transfer",
            counters={
                "warm_artifact_hits": lambda out: out["warm"].stats.artifact_cache_hits,
                "hash_reuse_hits": lambda out: out["warm"].stats.hash_reuse_hits,
                "selection_vector_rows": lambda out: out["warm"].stats.selection_vector_rows,
            },
            ratios={"warm_speedup": ("no_artifact", "warm")},
            gates=(Gate("warm", "no_artifact", factor=1 / 1.2),),
            checks={"warm runs hit the cache": lambda c: c["warm_artifact_hits"] > 0},
        ),
        Case(
            name="adaptive_low_yield",
            title="Adaptive transfer where filters prune ~0.1% per pass: yield-driven skipping vs static",
            sizes={**_ADAPTIVE_SIZES, "keep_fraction": 0.999},
            gates=(Gate("adaptive", "static", factor=1 / 1.5),),
            checks={
                "passes were skipped": lambda c: c["steps_skipped"] > 0,
                "dense domains downgraded on both arms": lambda c: c["exact_downgrades"] > 0,
            },
            **_ADAPTIVE,
        ),
        Case(
            name="adaptive_high_yield",
            title="Adaptive transfer where filters genuinely reduce (50%): must stay out of the way",
            sizes={**_ADAPTIVE_SIZES, "keep_fraction": 0.5},
            gates=(Gate("adaptive", "static", factor=1.15),),
            checks={
                "no pass was skipped": lambda c: c["steps_skipped"] == 0,
                "dense domains downgraded on both arms": lambda c: c["exact_downgrades"] > 0,
            },
            **_ADAPTIVE,
        ),
        Case(
            name="scaling",
            title="One star query end to end: serial vs threads vs processes over a worker sweep",
            setup=_scaling,
            sizes={**_STAR_1M, "workers": None},
            # Large enough that probes fan out past one process morsel.
            small={"fact_rows": 1 << 17, "dim_rows": 1 << 16, "workers": (1, 2)},
            repeats=2,
            counters={
                "shm_bytes_mapped": lambda out: max(
                    r.stats.shm_bytes_mapped for label, r in out.items() if label.startswith("process_")
                ),
            },
            ratios={
                "process_over_threads": ("threads_*", "process_*"),
                "process_over_serial": ("serial", "process_*"),
            },
            # NumPy kernels release the GIL, so threads do scale here; on
            # few cores process dispatch costs more than it buys (0.61-0.85x
            # threads on 2 cores).  The 4x claim is only judged where the
            # process backend was designed to win.
            gates=(Gate("process_*", "threads_*", factor=1 / 4.0, min_cores=8),),
            checks={"morsels crossed the process boundary": lambda c: c["shm_bytes_mapped"] > 0},
            min_record_cores=2,
        ),
        Case(
            name="deadline_overhead",
            title="Deadline checks on the serial star query: no deadline vs a generous one",
            # A deadline switches every long kernel to chunked execution
            # with a cancellation check per chunk; it must stay free.
            setup=_star(no_deadline={}, deadline={"timeout_seconds": 3600.0}),
            sizes=_STAR_1M,
            small=_STAR_SMALL,
            repeats=5,
            ratios={"overhead": ("deadline", "no_deadline")},
            gates=(Gate("deadline", "no_deadline", factor=1.02, slack=0.010, overhead=True),),
        ),
        Case(
            name="tracing_overhead",
            title="Span tracing on the serial star query: untraced vs traced",
            setup=_star(untraced={"tracing": False}, traced={"tracing": True}),
            sizes=_STAR_1M,
            small=_STAR_SMALL,
            repeats=5,
            counters={
                "untraced_span_trees": lambda out: int(out["untraced"].trace is not None),
                "span_count": lambda out: sum(1 for _ in out["traced"].trace.walk()),
                "op_spans": lambda out: len(out["traced"].trace.find("op")),
            },
            ratios={"overhead": ("traced", "untraced")},
            gates=(Gate("traced", "untraced", factor=1.02, slack=0.010, overhead=True),),
            checks={
                "untraced run builds no span tree": lambda c: c["untraced_span_trees"] == 0,
                "traced run records op spans": lambda c: 0 < c["op_spans"] < c["span_count"],
            },
        ),
        Case(
            name="encoding_scan",
            title="Selective scans: raw evaluation vs code-space kernels + zone-map skipping",
            setup=_encoding_scan,
            sizes={"rows": 1 << 20, "seed": 37},
            small={"rows": 1 << 17},
            counters={
                "range_blocks_skipped": lambda out: int(out["range_encoded"].blocks_skipped),
                "range_blocks_total": lambda out: int(out["range_encoded"].blocks_total),
            },
            ratios={
                "string_scan_speedup": ("string_raw", "string_encoded"),
                "range_scan_speedup": ("range_raw", "range_encoded"),
            },
            gates=(
                Gate("string_encoded", "string_raw", factor=1 / 3.0),
                Gate("range_encoded", "range_raw", factor=1 / 2.0),
            ),
            checks={
                "zone maps skip >= 90% of blocks": lambda c: (
                    c["range_blocks_skipped"] >= 0.9 * c["range_blocks_total"] > 0
                ),
            },
        ),
        Case(
            name="encoding_shm",
            title="Process-backend exact probes (YANNAKAKIS): raw vs bit-packed key columns in shm",
            # Exact semi-join probes ship the key column itself through the
            # arena (Bloom probes ship no column); int64 keys pack to 32 bits.
            setup=_star(
                mode=ExecutionMode.YANNAKAKIS,
                raw={"backend": "process", "num_workers": 2, "encodings": False},
                encoded={"backend": "process", "num_workers": 2, "encodings": True},
            ),
            sizes={**_STAR_1M, "seed": 37},
            small={"fact_rows": 1 << 17, "dim_rows": 1 << 16},
            repeats=1,
            counters={
                "raw_shm_bytes": lambda out: out["raw"].stats.shm_bytes_mapped,
                "encoded_shm_bytes": lambda out: out["encoded"].stats.shm_bytes_mapped,
                "shm_reduction": _shm_reduction,
            },
            checks={"shm footprint shrinks >= 30%": lambda c: c["shm_reduction"] >= 0.30},
        ),
    )
}


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------
def run_case(case: Case, repeats: Optional[int] = None, **size_overrides: Any) -> Dict[str, Any]:
    """Run one case and return its JSON-ready record.

    ``{"case", "title", "sizes", "timed", "repeats", "variants": {label:
    {"min", "median", "spread", "samples"}}, "counters", "ratios", "gates":
    [{"gate", "status", ...}], "checks": {name: bool}}``.  Raises
    :class:`BenchmarkError` if two variants that return query results
    disagree on the aggregates.
    """
    sizes = {**case.sizes, **size_overrides}
    repeats = max(repeats or case.repeats, 1)
    with case.setup(**sizes) as variants:
        labels = list(variants)
        # Untimed pass: pools start, caches and lazy indexes fill.
        outputs = {label: variants[label]() for label in labels}
        samples: Dict[str, List[float]] = {label: [] for label in labels}
        for repeat in range(repeats):
            for label in labels if repeat % 2 == 0 else reversed(labels):
                start = time.perf_counter()
                output = variants[label]()
                wall = time.perf_counter() - start
                outputs[label] = output
                samples[label].append(
                    output.stats.timings.transfer if case.timed == "transfer" else wall
                )
        answers = {l: o.aggregates for l, o in outputs.items() if hasattr(o, "aggregates")}
        first = next(iter(answers.values()), None)
        if any(answer != first for answer in answers.values()):
            raise BenchmarkError(f"{case.name}: variants diverged: {answers}")
        counters = {name: read(outputs) for name, read in case.counters.items()}

    summaries = {label: _summarize(values) for label, values in samples.items()}

    def median(label: str) -> float:
        return _fastest(summaries, label)["median"]

    return {
        "case": case.name,
        "title": case.title,
        "sizes": sizes,
        "timed": case.timed,
        "repeats": repeats,
        "variants": summaries,
        "counters": counters,
        "ratios": {
            name: median(top) / max(median(bottom), 1e-12)
            for name, (top, bottom) in case.ratios.items()
        },
        "gates": [_judge(gate, summaries) for gate in case.gates],
        "checks": {name: bool(holds(counters)) for name, holds in case.checks.items()},
    }


def _summarize(samples: List[float]) -> Dict[str, Any]:
    """min / median / spread (interquartile range) of one variant's samples."""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    else:
        q1 = q3 = samples[0]
    return {
        "min": min(samples),
        "median": statistics.median(samples),
        "spread": q3 - q1,
        "samples": list(samples),
    }


def _fastest(summaries: Mapping[str, Mapping[str, Any]], label: str) -> Mapping[str, Any]:
    """The summary under ``label``; ``prefix*`` picks the lowest median."""
    if not label.endswith("*"):
        return summaries[label]
    group = [s for name, s in summaries.items() if name.startswith(label[:-1])]
    return min(group, key=lambda s: s["median"])


def _judge(gate: Gate, summaries: Mapping[str, Mapping[str, Any]]) -> Dict[str, Any]:
    variant, base = _fastest(summaries, gate.variant), _fastest(summaries, gate.base)
    allowed = gate.factor * base["median"]
    if gate.slack:
        allowed = max(allowed, base["median"] + gate.slack)
    violation = variant["median"] - allowed
    tolerance = allowed - base["median"]
    if (os.cpu_count() or 1) < gate.min_cores:
        status = "not judged"
    elif violation > variant["spread"] + base["spread"]:
        status = "fail"
    elif violation > 0 or (gate.overhead and base["median"] - variant["median"] > tolerance):
        status = "unresolved"
    else:
        status = "pass"
    return {
        "gate": gate.describe(),
        "status": status,
        "measured": variant["median"],
        "allowed": allowed,
        "spreads": [variant["spread"], base["spread"]],
    }


def _verdict(g: Mapping[str, Any]) -> str:
    return (
        f"{g['gate']}: {g['status']} ({g['measured']:.4f}s vs allowed {g['allowed']:.4f}s; "
        f"spreads {g['spreads'][0]:.4f}s / {g['spreads'][1]:.4f}s)"
    )


def case_failures(record: Mapping[str, Any]) -> List[str]:
    """The gates that failed beyond their noise and the checks that do not hold."""
    failures = [_verdict(g) for g in record["gates"] if g["status"] == "fail"]
    return failures + [name for name, holds in record["checks"].items() if not holds]


def format_case(record: Mapping[str, Any]) -> str:
    """Render any case record as a table."""
    sizes = " ".join(f"{key}={value}" for key, value in record["sizes"].items())
    lines = [
        f"{record['case']}: {record['title']}",
        f"  {sizes}; {record['timed']} seconds, {record['repeats']} interleaved repeat(s)",
        f"  {'variant':<22} {'min (s)':>10} {'median (s)':>11} {'spread (s)':>11}",
    ]
    for label, s in record["variants"].items():
        lines.append(f"  {label:<22} {s['min']:>10.4f} {s['median']:>11.4f} {s['spread']:>11.4f}")
    for name, value in record["ratios"].items():
        lines.append(f"  {name}: {value:.3f}x")
    if record["counters"]:
        lines.append("  " + " ".join(f"{k}={v:.4g}" for k, v in record["counters"].items()))
    lines += [f"  gate {_verdict(g)}" for g in record["gates"]]
    for name, holds in record["checks"].items():
        lines.append(f"  check {name}: {'ok' if holds else 'FAILED'}")
    return "\n".join(lines)
