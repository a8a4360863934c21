"""Code-space predicate compilation and zone-map skip-scan evaluation.

When block encodings are enabled (``ExecutionConfig.encodings``), base
filters are compiled once per query into *code-space* kernels:

* String predicates never materialize strings.  Ordered comparisons on a
  **sorted** dictionary (the invariant of ``Column.from_values`` /
  ``concat``) become integer threshold tests against ``bisect`` of the
  literal; unsorted dictionaries (possible via ``Column.from_codes``)
  fall back to a boolean lookup table built by evaluating the predicate
  once per *distinct* value — the same trick ``StringPredicate`` already
  uses, extended here to comparisons, BETWEEN and IN.
* Every compiled leaf also carries a zone-map pruning rule: a range test,
  a domain lookup (answered from a prefix sum of the lookup table), or a
  not-this-value test.  Pruning is conservative-exact — a block is only
  skipped when *no* row in it can match — so the produced mask is
  bit-identical to ``Expression.evaluate``.

The module handles conjunctions of simple leaf predicates
(:data:`_SUPPORTED_LEAVES`); anything else returns ``None`` and callers
fall back to plain evaluation.  :func:`rows_upper_bound` runs the pruning
alone to feed the optimizer's cardinality estimator a hard bound on
matching rows.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.expr.expressions import (
    _COMPARATORS,
    And,
    Between,
    Comparison,
    Expression,
    InList,
    IsNull,
    StringPredicate,
)
from repro.storage.datatypes import DataType
from repro.storage.zonemap import BlockSelection, ZoneMap

_I64_MIN = np.iinfo(np.int64).min
_I64_MAX = np.iinfo(np.int64).max

#: Leaf node types a code-space kernel supports.  Anything else (Or, Not,
#: nested arithmetic, ...) makes the conjunction unsupported.
_SUPPORTED_LEAVES = (Comparison, Between, InList, StringPredicate, IsNull)

#: A pruning rule: zone map in, per-block survivor mask out.
_PruneFn = Callable[[ZoneMap], np.ndarray]

#: A code-space row kernel: ``rows=None`` evaluates the whole column,
#: otherwise only the gathered candidate rows.
_RowKernel = Callable[[Optional[np.ndarray]], np.ndarray]


@dataclass(frozen=True)
class CompiledLeaf:
    """One leaf predicate compiled to code space."""

    column: str
    kernel: _RowKernel
    prune: _PruneFn


@dataclass(frozen=True)
class CodeSpaceResult:
    """Result of a zone-map-assisted code-space filter evaluation."""

    mask: np.ndarray
    blocks_skipped: int
    blocks_total: int
    rows_skipped: int


def _prune_all(zone_map: ZoneMap) -> np.ndarray:
    return np.ones(zone_map.num_blocks, dtype=bool)


def _prune_none(zone_map: ZoneMap) -> np.ndarray:
    return np.zeros(zone_map.num_blocks, dtype=bool)


def _is_numeric(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _prune_range(lo, hi) -> _PruneFn:
    """Range pruning; degrades to no pruning on non-numeric bounds."""
    if not (_is_numeric(lo) and _is_numeric(hi)):
        return _prune_all
    return lambda zone_map: zone_map.survivors_range(lo, hi)


def _prune_domain(domain_mask: np.ndarray) -> _PruneFn:
    return lambda zone_map: zone_map.survivors_domain(domain_mask)


def _prune_not_value(value) -> _PruneFn:
    if not _is_numeric(value):
        return _prune_all
    return lambda zone_map: zone_map.survivors_not_value(value)


def _dictionary_sorted(dictionary) -> bool:
    return all(dictionary[i] <= dictionary[i + 1] for i in range(len(dictionary) - 1))


def _strict_bound(value, delta: int):
    """Tighten a strict comparison bound for integer literals; else keep it.

    Keeping the literal itself as the inclusive bound is conservative
    (never skips a matching block) for any real-valued literal.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value) + delta
    return value


def _threshold_kernel(data: np.ndarray, op: str, threshold: int) -> _RowKernel:
    """``codes OP threshold`` over gathered rows (ordered sorted-dict case)."""
    compare = _COMPARATORS[op]

    def kernel(rows: Optional[np.ndarray]) -> np.ndarray:
        values = data if rows is None else data[rows]
        return compare(values, threshold)

    return kernel


def _domain_kernel(data: np.ndarray, domain_mask: np.ndarray) -> _RowKernel:
    def kernel(rows: Optional[np.ndarray]) -> np.ndarray:
        codes = data if rows is None else data[rows]
        return domain_mask[codes]

    return kernel


def compile_leaf(expr: Expression, table) -> Optional[CompiledLeaf]:
    """Compile one supported leaf predicate to code space, or ``None``."""
    if isinstance(expr, Comparison):
        col = table.column(expr.column)
        data = col.data
        if col.dtype is DataType.STRING and expr.op not in ("==", "!="):
            dictionary = col.dictionary
            literal = str(expr.value)
            if _dictionary_sorted(dictionary):
                left = bisect_left(dictionary, literal)
                right = bisect_right(dictionary, literal)
                if expr.op == "<":
                    return CompiledLeaf(
                        expr.column,
                        _threshold_kernel(data, "<", left),
                        _prune_range(_I64_MIN, left - 1),
                    )
                if expr.op == "<=":
                    return CompiledLeaf(
                        expr.column,
                        _threshold_kernel(data, "<", right),
                        _prune_range(_I64_MIN, right - 1),
                    )
                if expr.op == ">":
                    return CompiledLeaf(
                        expr.column,
                        _threshold_kernel(data, ">=", right),
                        _prune_range(right, _I64_MAX),
                    )
                return CompiledLeaf(
                    expr.column,
                    _threshold_kernel(data, ">=", left),
                    _prune_range(left, _I64_MAX),
                )
            compare = _COMPARATORS[expr.op]
            domain_mask = np.asarray([bool(compare(v, literal)) for v in dictionary])
            return CompiledLeaf(
                expr.column, _domain_kernel(data, domain_mask), _prune_domain(domain_mask)
            )
        rhs = col.encode_literal(expr.value)
        compare = _COMPARATORS[expr.op]

        def kernel(rows: Optional[np.ndarray]) -> np.ndarray:
            values = data if rows is None else data[rows]
            return compare(values, rhs)

        if expr.op == "==":
            if col.dtype is DataType.STRING and rhs < 0:
                prune: _PruneFn = _prune_none
            else:
                prune = _prune_range(rhs, rhs)
        elif expr.op == "!=":
            prune = _prune_all if (col.dtype is DataType.STRING and rhs < 0) else _prune_not_value(rhs)
        elif expr.op == "<":
            prune = _prune_range(_I64_MIN, _strict_bound(rhs, -1))
        elif expr.op == "<=":
            prune = _prune_range(_I64_MIN, rhs)
        elif expr.op == ">":
            prune = _prune_range(_strict_bound(rhs, 1), _I64_MAX)
        else:  # ">="
            prune = _prune_range(rhs, _I64_MAX)
        return CompiledLeaf(expr.column, kernel, prune)

    if isinstance(expr, Between):
        col = table.column(expr.column)
        data = col.data
        if col.dtype is DataType.STRING:
            dictionary = col.dictionary
            low, high = str(expr.low), str(expr.high)
            if _dictionary_sorted(dictionary):
                lo_code = bisect_left(dictionary, low)
                hi_code = bisect_right(dictionary, high) - 1

                def kernel(rows: Optional[np.ndarray]) -> np.ndarray:
                    codes = data if rows is None else data[rows]
                    return (codes >= lo_code) & (codes <= hi_code)

                return CompiledLeaf(expr.column, kernel, _prune_range(lo_code, hi_code))
            domain_mask = np.asarray([low <= v <= high for v in dictionary])
            return CompiledLeaf(
                expr.column, _domain_kernel(data, domain_mask), _prune_domain(domain_mask)
            )
        low, high = expr.low, expr.high

        def kernel(rows: Optional[np.ndarray]) -> np.ndarray:
            values = data if rows is None else data[rows]
            return (values >= low) & (values <= high)

        return CompiledLeaf(expr.column, kernel, _prune_range(low, high))

    if isinstance(expr, InList):
        col = table.column(expr.column)
        data = col.data
        if not expr.values:
            return CompiledLeaf(
                expr.column,
                lambda rows: np.zeros(
                    table.num_rows if rows is None else int(rows.shape[0]), dtype=bool
                ),
                _prune_none,
            )
        encoded = np.asarray([col.encode_literal(v) for v in expr.values])
        if col.dtype is DataType.STRING:
            domain_mask = np.zeros(len(col.dictionary), dtype=bool)
            present = encoded[encoded >= 0].astype(np.int64)
            if present.shape[0] == 0:
                return CompiledLeaf(
                    expr.column,
                    lambda rows: np.zeros(
                        table.num_rows if rows is None else int(rows.shape[0]), dtype=bool
                    ),
                    _prune_none,
                )
            domain_mask[present] = True
            return CompiledLeaf(
                expr.column, _domain_kernel(data, domain_mask), _prune_domain(domain_mask)
            )
        from repro.exec.kernels import semi_join_mask

        def kernel(rows: Optional[np.ndarray]) -> np.ndarray:
            values = data if rows is None else data[rows]
            return semi_join_mask(values, encoded)

        if np.issubdtype(encoded.dtype, np.number):
            prune = _prune_range(int(encoded.min()), int(encoded.max()))
        else:
            prune = _prune_all
        return CompiledLeaf(expr.column, kernel, prune)

    if isinstance(expr, StringPredicate):
        col = table.column(expr.column)
        if col.dtype is not DataType.STRING:
            return None  # fall back; Expression.evaluate raises the canonical error
        if expr.mode == "prefix":
            domain_mask = np.asarray([v.startswith(expr.pattern) for v in col.dictionary])
        elif expr.mode == "suffix":
            domain_mask = np.asarray([v.endswith(expr.pattern) for v in col.dictionary])
        else:
            domain_mask = np.asarray([expr.pattern in v for v in col.dictionary])
        return CompiledLeaf(
            expr.column, _domain_kernel(col.data, domain_mask), _prune_domain(domain_mask)
        )

    if isinstance(expr, IsNull):
        table.column(expr.column)  # existence check, as IsNull.evaluate does
        if expr.negated:
            return CompiledLeaf(
                expr.column,
                lambda rows: np.ones(
                    table.num_rows if rows is None else int(rows.shape[0]), dtype=bool
                ),
                _prune_all,
            )
        return CompiledLeaf(
            expr.column,
            lambda rows: np.zeros(
                table.num_rows if rows is None else int(rows.shape[0]), dtype=bool
            ),
            _prune_none,
        )

    return None


def _flatten_conjuncts(expr: Expression) -> Optional[List[Expression]]:
    """Flatten an ``And`` tree into leaf conjuncts; None when unsupported."""
    if isinstance(expr, And):
        leaves: List[Expression] = []
        for operand in expr.operands:
            sub = _flatten_conjuncts(operand)
            if sub is None:
                return None
            leaves.extend(sub)
        return leaves
    if isinstance(expr, _SUPPORTED_LEAVES):
        return [expr]
    return None


def _compile_conjunction(expr: Expression, table) -> Optional[List[CompiledLeaf]]:
    conjuncts = _flatten_conjuncts(expr)
    if conjuncts is None or not conjuncts:
        return None
    compiled: List[CompiledLeaf] = []
    for conjunct in conjuncts:
        leaf = compile_leaf(conjunct, table)
        if leaf is None:
            return None
        compiled.append(leaf)
    return compiled


def _combine_selection(leaves: List[CompiledLeaf], table, store) -> Optional[BlockSelection]:
    """AND every leaf's zone-map pruning into one block selection."""
    survivors: Optional[np.ndarray] = None
    reference: Optional[ZoneMap] = None
    for leaf in leaves:
        zone_map = store.zone_map(table, leaf.column)
        if zone_map is None:
            continue
        pruned = leaf.prune(zone_map)
        if survivors is None:
            survivors, reference = pruned, zone_map
        else:
            survivors = survivors & pruned
    if survivors is None or reference is None:
        return None
    return BlockSelection(zone_map=reference, survivors=survivors)


def evaluate(expr: Expression, table, store) -> Optional[CodeSpaceResult]:
    """Evaluate a filter in code space with zone-map block skipping.

    Returns ``None`` when the expression shape is unsupported (callers
    fall back to ``Expression.evaluate``); otherwise the mask is
    bit-identical to that fallback.
    """
    leaves = _compile_conjunction(expr, table)
    if leaves is None:
        return None
    # The ``column.decode`` fault site: reading the encoded representation
    # failed — callers degrade to raw ``Expression.evaluate`` (bit-identical
    # mask, no block skipping).  Imported lazily to stay off the package
    # initializer path.
    from repro.exec import faults

    faults.fire("column.decode", "injected encoded-filter read failure")
    num_rows = table.num_rows
    selection = _combine_selection(leaves, table, store)
    if selection is None:
        candidates = np.nonzero(np.asarray(leaves[0].kernel(None), dtype=bool))[0]
        remaining = leaves[1:]
        blocks_skipped = blocks_total = rows_skipped = 0
    else:
        initial = selection.candidate_rows()
        blocks_skipped = selection.blocks_skipped
        blocks_total = selection.num_blocks
        rows_skipped = selection.rows_skipped
        first = np.asarray(leaves[0].kernel(initial), dtype=bool)
        candidates = initial[first]
        remaining = leaves[1:]
    for leaf in remaining:
        if candidates.shape[0] == 0:
            break
        sub_mask = np.asarray(leaf.kernel(candidates), dtype=bool)
        candidates = candidates[sub_mask]
    mask = np.zeros(num_rows, dtype=bool)
    mask[candidates] = True
    return CodeSpaceResult(
        mask=mask,
        blocks_skipped=blocks_skipped,
        blocks_total=blocks_total,
        rows_skipped=rows_skipped,
    )


def encoded_bytes_touched(expr: Expression, table, store) -> int:
    """Encoded bytes backing the columns a conjunction touches (0 when raw).

    Feeds the ``[enc ..B]`` op-trace marker: how many encoded buffer bytes
    the filter read in place of the columns' raw ``int64`` arrays.
    """
    conjuncts = _flatten_conjuncts(expr)
    if conjuncts is None:
        return 0
    total = 0
    seen = set()
    for conjunct in conjuncts:
        column = getattr(conjunct, "column", None)
        if column is None or column in seen:
            continue
        seen.add(column)
        encoded = store.encoded(table, column)
        if encoded is not None:
            total += encoded.encoded_bytes
    return total


def rows_upper_bound(expr: Expression, table, store) -> Optional[int]:
    """A hard upper bound on rows matching ``expr``, from zone maps alone.

    ``0`` means the predicate provably matches nothing — every block's
    ``[min, max]`` interval misses it.  ``None`` means no bound is
    available (unsupported expression shape or no zone-mappable column).
    """
    leaves = _compile_conjunction(expr, table)
    if leaves is None:
        return None
    selection = _combine_selection(leaves, table, store)
    return None if selection is None else selection.rows_selected
