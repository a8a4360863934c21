"""Unit and property tests for the vectorized execution kernels."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_match import composite_keys, replay_match
from repro.errors import ExecutionError
from repro.exec.kernels import (
    HashIndex,
    JoinMatches,
    _pack_arithmetically,
    _radix_argsort,
    bloom_probe_cost,
    combine_key_columns_pair,
    densify_key_columns_pair,
    estimate_join_cardinality,
    hash_probe_cost,
    match_keys,
    semi_join_mask,
)

small_ints = st.integers(min_value=-50, max_value=50)

INT64 = np.iinfo(np.int64)

#: Build-side key spans (max - min) on both sides of everything the matcher
#: branches on: one slot, the 2^16 radix digit (one pass / two) which is also
#: the rule's 64 k-entry floor, the 2^24-entry table cap, the 2^32 digit, a
#: sparse domain, and the whole of int64 (offsets wrap).
SPANS = (
    0, 1, 50, 2**16 - 2, 2**16 - 1, 2**16, 2**16 + 1, 2**17,
    2**24 - 1, 2**24, 2**32 - 1, 2**32, 2**62, 2**64 - 1,
)


def _expected_kind(build: np.ndarray, probe_rows: int) -> str:
    """The eligibility rule, stated on its own: a table over an integer key
    range of at most ``max(2^16, 8 * (build rows + probe rows))`` entries,
    capped at 2^24; unique keys get the slot table."""
    key_range = int(build.max()) - int(build.min()) + 1
    if key_range > min(max(1 << 16, 8 * (build.size + probe_rows)), 1 << 24):
        return "sorted"
    return "direct-unique" if np.unique(build).size == build.size else "direct"


def _assert_equals_replay(matches: JoinMatches, probe, build) -> None:
    want_probe, want_build = replay_match(probe, build)
    for got, want in ((matches.probe_indices, want_probe), (matches.build_indices, want_build)):
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


def _bases(span: int) -> list:
    """Where a key range of ``span`` can start: both int64 ends, around zero."""
    candidates = (INT64.min, -(span // 2), 0, 7, INT64.max - span)
    return [b for b in candidates if b >= INT64.min and b + span <= INT64.max]


@st.composite
def join_sides(draw):
    """``(build, probe)`` int64 arrays: duplicates on both sides, probes
    that hit, miss inside the range, fall just outside it, or sit at the
    int64 extremes; the build range is one of :data:`SPANS` wherever it fits."""
    span = draw(st.sampled_from(SPANS))
    base = draw(st.sampled_from(_bases(span)))
    offset = st.one_of(
        st.integers(0, span),
        st.sampled_from(sorted({0, span, span // 2, min(span, 2**16 - 1), min(span, 2**16)})),
    )
    offsets = draw(st.lists(offset, max_size=30, unique=draw(st.booleans())))
    if offsets and draw(st.booleans()):
        offsets += [0, span]  # pin the range to exactly ``span``
    build = [base + o for o in offsets]
    near = st.integers(-3, span + 3).map(lambda o: min(max(base + o, INT64.min), INT64.max))
    choices = [near, st.sampled_from((INT64.min, INT64.max))]
    if build:
        choices.append(st.sampled_from(build))
    probe = draw(st.lists(st.one_of(*choices), max_size=30))
    return np.asarray(build, dtype=np.int64), np.asarray(probe, dtype=np.int64)


class TestMatchKeys:
    def test_simple_match(self):
        matches = match_keys(np.array([1, 2, 3]), np.array([2, 3, 3, 9]))
        pairs = sorted(zip(matches.probe_indices.tolist(), matches.build_indices.tolist()))
        assert pairs == [(1, 0), (2, 1), (2, 2)]
        assert matches.num_matches == 3

    def test_no_matches(self):
        matches = match_keys(np.array([1, 2]), np.array([5, 6]))
        assert matches.num_matches == 0

    def test_empty_inputs(self):
        assert match_keys(np.array([], dtype=np.int64), np.array([1])).num_matches == 0
        assert match_keys(np.array([1]), np.array([], dtype=np.int64)).num_matches == 0

    def test_duplicates_both_sides(self):
        matches = match_keys(np.array([7, 7]), np.array([7, 7, 7]))
        assert matches.num_matches == 6

    @given(join_sides(), st.sampled_from((None, 0, 5_000, 70_000)), st.integers(1, 30))
    @settings(max_examples=300, deadline=None)
    def test_match_equals_the_nested_loop_replay(self, sides, declared_rows, morsel):
        """Array equality, order included, on whichever index the rule picks
        — for one whole-column probe and for the same probe cut into morsels
        after ``prepare_match(total rows)``, as the backends do (a declared
        volume above the real one is how few rows reach a wide table)."""
        build, probe = sides
        total_rows = probe.size if declared_rows is None else declared_rows
        index = HashIndex(build)
        if declared_rows is not None:
            index.prepare_match(declared_rows)
        _assert_equals_replay(index.match(probe), probe.tolist(), build.tolist())
        if build.size and (probe.size or declared_rows is not None):
            assert index.match_kind == _expected_kind(build, total_rows)

        cut = HashIndex(build)
        cut.prepare_match(total_rows)
        empty = [np.zeros(0, dtype=np.int64)]
        parts = [(lo, cut.match(probe[lo : lo + morsel])) for lo in range(0, probe.size, morsel)]
        stitched = JoinMatches(
            np.concatenate([m.probe_indices + lo for lo, m in parts] or empty),
            np.concatenate([m.build_indices for _, m in parts] or empty),
        )
        _assert_equals_replay(stitched, probe.tolist(), build.tolist())
        assert cut.match_kind == (_expected_kind(build, total_rows) if build.size else "")

    @pytest.mark.parametrize(
        "build, declared_rows, kind",
        [
            ([5, 3, 9], 0, "direct-unique"),
            ([5, 3, 5, 9, 3, 3], 0, "direct"),
            ([5, 3, 5, 2**50], 0, "sorted"),
            # The 64 k floor, and the volume budget 8 * (2 + 10_000) = 80_016 beyond it.
            ([0, 2**16 - 1], 0, "direct-unique"),
            ([0, 2**16], 0, "sorted"),
            ([0, 2**16, 2**16], 10_000, "direct"),  # two radix passes
            ([-40, 80_015 - 40], 10_000, "direct-unique"),
            ([-40, 80_016 - 40], 10_000, "sorted"),
            ([INT64.min, INT64.max], 0, "sorted"),
            ([INT64.max - 3, INT64.max, INT64.max], 0, "direct"),
            ([INT64.min, INT64.min + 2], 0, "direct-unique"),
        ],
    )
    def test_every_index_kind_on_pinned_domains(self, build, declared_rows, kind):
        build = np.asarray(build, dtype=np.int64)
        lo, hi = int(build.min()), int(build.max())
        probe = [lo, hi, hi, lo + 1, max(lo - 1, INT64.min), min(hi + 1, INT64.max),
                 INT64.min, INT64.max, 0]
        probe_keys = np.asarray(probe, dtype=np.int64)
        index = HashIndex(build)
        index.prepare_match(declared_rows)
        assert index.match_kind == kind
        _assert_equals_replay(index.match(probe_keys), probe, build.tolist())
        # What a worker process receives: the structures, not the raw keys.
        shipped = pickle.loads(pickle.dumps(index))
        assert shipped.keys is None and shipped.num_keys == build.size
        _assert_equals_replay(shipped.match(probe_keys), probe, build.tolist())

    def test_radix_passes_across_the_digit_boundaries(self):
        rng = np.random.default_rng(3)
        for key_range in (2**16 - 1, 2**16, 2**16 + 1, 2**32 - 1, 2**32, 2**32 + 1, 2**48 + 1):
            edges = [0, key_range - 1, key_range // 2, min(key_range - 1, 2**16),
                     min(key_range - 1, 2**32)]
            offsets = np.concatenate([rng.integers(0, key_range, 500), edges, edges])
            np.testing.assert_array_equal(
                _radix_argsort(offsets, key_range), np.argsort(offsets, kind="stable")
            )

    def test_index_bytes_count_every_built_structure(self):
        keys = np.arange(1_000, dtype=np.int64)
        unique, dup, sparse = HashIndex(keys), HashIndex(keys // 2), HashIndex(keys << 40)
        for index in (unique, dup, sparse):
            assert index.index_bytes() == keys.nbytes
            index.prepare_match(0)
        assert unique.index_bytes() == keys.nbytes + 4 * 1_000  # int32 slots
        assert dup.index_bytes() == keys.nbytes + 4 * 501 + 8 * 1_000  # offsets + permutation
        assert sparse.index_bytes() == 4 * keys.nbytes  # order, sorted keys, run ends
        unique.prepare(1_000)
        assert unique.index_bytes() == keys.nbytes + 4 * 1_000 + 1_000  # + bitmap


class TestSemiJoinMask:
    def test_basic(self):
        mask = semi_join_mask(np.array([1, 2, 3, 4]), np.array([2, 4, 9]))
        assert mask.tolist() == [False, True, False, True]

    def test_empty_filter_removes_all(self):
        assert semi_join_mask(np.array([1, 2]), np.array([], dtype=np.int64)).sum() == 0

    def test_empty_keys(self):
        assert semi_join_mask(np.array([], dtype=np.int64), np.array([1])).shape == (0,)

    @given(st.lists(small_ints, max_size=60), st.lists(small_ints, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_matches_python_membership(self, keys, filter_keys):
        mask = semi_join_mask(np.asarray(keys, dtype=np.int64), np.asarray(filter_keys, dtype=np.int64))
        expected = [k in set(filter_keys) for k in keys]
        assert mask.tolist() == expected


class TestCompositeKeys:
    def test_single_column_passthrough(self):
        col = np.array([4, 5, 6], dtype=np.int64)
        left, right = combine_key_columns_pair([col], [col[:2]])
        assert left.tolist() == [4, 5, 6] and right.tolist() == [4, 5]

    def test_composite_equality_preserved(self):
        left = [np.array([1, 1, 2]), np.array([10, 20, 10])]
        right = [np.array([1, 2, 1]), np.array([20, 10, 30])]
        lk, rk = combine_key_columns_pair(left, right)
        # (1,20) appears at left[1] and right[0]; (2,10) at left[2] and right[1].
        assert lk[1] == rk[0]
        assert lk[2] == rk[1]
        # Distinct composites stay distinct.
        assert lk[0] != rk[0] and lk[0] != rk[2]

    def test_mismatched_column_counts_raise(self):
        with pytest.raises(ExecutionError):
            combine_key_columns_pair([np.array([1])], [np.array([1]), np.array([2])])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_composite_join_equals_tuple_join(self, data):
        """Matching on the combined key is the tuple join, pair for pair, whether
        the column ranges multiply into int64 (arithmetic packing) or not
        (``np.unique`` densification), negative and extreme values included."""
        spans = data.draw(
            st.lists(st.sampled_from((3, 2**20, 2**40, 2**62, 2**64 - 1)), min_size=2, max_size=3)
        )
        columns = []
        for span in spans:
            base = data.draw(st.sampled_from(_bases(span)))
            offset = st.one_of(st.integers(0, min(span, 3)), st.sampled_from((span // 2, span)))
            columns.append(offset.map(lambda o, b=base: b + o))
        rows = st.lists(st.tuples(*columns), max_size=25)
        sides = []
        for side in (data.draw(rows), data.draw(rows)):
            sides.append(
                [np.asarray([row[c] for row in side], dtype=np.int64) for c in range(len(spans))]
            )
        left_cols, right_cols = sides
        capacity = 1
        for left_col, right_col in zip(left_cols, right_cols):
            both = np.concatenate([left_col, right_col])
            capacity *= int(both.max()) - int(both.min()) + 1 if both.size else 1
        assert (_pack_arithmetically(left_cols, right_cols) is None) == (capacity > INT64.max)
        for combine in (combine_key_columns_pair, densify_key_columns_pair):
            lk, rk = combine(left_cols, right_cols)
            assert lk.dtype == rk.dtype == np.int64
            _assert_equals_replay(
                match_keys(lk, rk), composite_keys(left_cols), composite_keys(right_cols)
            )

    def test_empty_sides(self):
        empty, some = np.zeros(0, dtype=np.int64), np.array([3, -9], dtype=np.int64)
        for left, right in (([empty, empty], [some, some]), ([some, some], [empty, empty]),
                            ([empty, empty], [empty, empty])):
            lk, rk = combine_key_columns_pair(left, right)
            assert lk.shape == left[0].shape and rk.shape == right[0].shape
            assert match_keys(lk, rk).num_matches == 0


def _densify_by_sorting(left_columns, right_columns):
    """``densify_key_columns_pair`` as it was: one ``np.unique`` per column."""
    n_left = left_columns[0].shape[0]
    left = np.zeros(n_left, dtype=np.int64)
    right = np.zeros(right_columns[0].shape[0], dtype=np.int64)
    for left_col, right_col in zip(left_columns, right_columns):
        both = np.concatenate([left_col, right_col])
        codes = np.unique(both, return_inverse=True)[1]
        radix = int(codes.max()) + 1 if both.size else 1
        left = left * np.int64(radix) + codes[:n_left].astype(np.int64)
        right = right * np.int64(radix) + codes[n_left:].astype(np.int64)
    return left, right


class TestDensifyRanksThroughATable:
    """Bounded integer columns rank through a presence table, everything else
    through ``np.unique`` — and the codes are the same either way."""

    @pytest.fixture
    def sorted_dtypes(self, monkeypatch):
        """``sorted_dtypes(left, right)``: checks the kernel against the
        reference and returns the dtype of every column it ranked with
        ``np.unique`` (the fallback) rather than through a table."""
        calls = []
        unique = np.unique

        def spy(values, *args, **kwargs):
            calls.append(values.dtype)
            return unique(values, *args, **kwargs)

        def run(left, right):
            expected = _densify_by_sorting(left, right)
            monkeypatch.setattr("repro.exec.kernels.np.unique", spy)
            del calls[:]
            actual = densify_key_columns_pair(left, right)
            monkeypatch.undo()
            for got, want in zip(actual, expected):
                assert got.dtype == want.dtype == np.int64
                np.testing.assert_array_equal(got, want)
            return list(calls)

        return run

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int8, np.uint16])
    def test_bounded_integers_take_the_table(self, sorted_dtypes, dtype):
        rng = np.random.default_rng(5)
        lo, hi = max(np.iinfo(dtype).min, -120), min(np.iinfo(dtype).max, 120)
        left = [rng.integers(lo, hi, size=40, endpoint=True).astype(dtype) for _ in range(3)]
        right = [rng.integers(lo, hi, size=25, endpoint=True).astype(dtype) for _ in range(3)]
        assert sorted_dtypes(left, right) == []

    def test_both_sides_of_the_domain_rule(self, sorted_dtypes):
        """range <= max(2^16, 8 n): one value past it falls back to the sort."""
        other = np.array([0, 5, 5, 2, 0], dtype=np.int64)
        for value_range, sorts in ((1 << 16, []), ((1 << 16) + 1, [np.int64])):
            column = np.array([-3, value_range - 4, 7, 7, -3], dtype=np.int64)
            assert sorted_dtypes([column, other], [column[:2], other[:2]]) == sorts
        # Rows move the bound: 8 n > 2^16 admits a range of 7 n.
        wide = np.arange((1 << 14) + 1, dtype=np.int64) * 7
        assert sorted_dtypes([wide, wide[::-1].copy()], [wide[:9], wide[:9]]) == []
        assert sorted_dtypes([wide * 2, wide], [wide[:9], wide[:9]]) == [np.int64]

    def test_unbounded_and_non_integer_columns_keep_the_sort(self, sorted_dtypes):
        ints = np.array([4, -4, 4], dtype=np.int64)
        for column in (
            np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0], dtype=np.int64),
            np.array([0.5, -1.25, 0.5]),
            np.array([2**64 - 1, 0, 2**63], dtype=np.uint64),
        ):
            assert sorted_dtypes([ints, column], [ints[:1], column[:1]]) == [column.dtype]

    def test_negative_values_and_empty_sides(self, sorted_dtypes):
        negative = np.array([-60_000, -59_990, -60_000, -5], dtype=np.int64)
        empty = np.zeros(0, dtype=np.int64)
        assert sorted_dtypes([negative, negative[::-1].copy()], [negative[:2], negative[2:]]) == []
        assert sorted_dtypes([negative, negative], [empty, empty]) == []
        assert sorted_dtypes([empty, empty], [negative, negative]) == []
        # Nothing to rank on either side: there is no domain to bound.
        assert sorted_dtypes([empty, empty], [empty, empty]) == [np.int64, np.int64]

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_codes_equal_np_unique(self, data):
        spans = data.draw(st.lists(st.sampled_from((4, 300, 70_000, 2**40)), min_size=2, max_size=3))
        sides = []
        for _ in range(2):
            rows = data.draw(st.integers(0, 30))
            sides.append([
                np.asarray(
                    data.draw(st.lists(st.integers(-span, span), min_size=rows, max_size=rows)),
                    dtype=np.int64,
                )
                for span in spans
            ])
        for got, want in zip(densify_key_columns_pair(*sides), _densify_by_sorting(*sides)):
            assert got.dtype == want.dtype == np.int64
            np.testing.assert_array_equal(got, want)


class TestCostHelpers:
    def test_join_cardinality_estimate(self):
        assert estimate_join_cardinality(0, 10, 1, 1) == 0.0
        assert estimate_join_cardinality(100, 200, 50, 100) == pytest.approx(200.0)

    def test_probe_costs_monotone(self):
        assert hash_probe_cost(1000, 10_000_000) > hash_probe_cost(1000, 100)
        assert bloom_probe_cost(1000, 10_000_000) > bloom_probe_cost(1000, 100)
        assert hash_probe_cost(0, 100) == 0.0
        assert bloom_probe_cost(0, 100) == 0.0

    def test_bloom_probe_cheaper_than_hash_probe(self):
        for build in (1_000, 100_000, 10_000_000):
            assert bloom_probe_cost(10_000, build) < hash_probe_cost(10_000, build)
