"""Straight-line replay of a Bloom transfer schedule (test-only reference).

The engine runs PT/RPT transfer through cached hashing passes, row-id
selection vectors, artifact caches, bitmap indexes and morsel backends.
This replay does none of that: per step it gathers the keys and filters the
target, applying the paper's §4.3 rule (skip a step whose source is the
still-unreduced primary-key side of a declared single-attribute PK-FK join).
The engine's ``reduced_rows`` must equal its result exactly — Bloom false
positives included.

A step is *exact* (``np.isin``, no false positives) when the executor's
downgrade rule says a membership table over the source keys is cheap: a
single-attribute step over integer keys whose source key range is at most
``max(2**16, 8 * (build rows + probe rows))``, capped at ``2**26`` — or
whose source already served an exact step and has not been reduced since
(the table is there, so it is used).  Every other step builds a fresh
``BloomFilter(expected_keys=source rows, fpr)`` with ``insert(keys)`` and
filters the target with ``probe(keys)``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.bloom.bloom_filter import DEFAULT_FPR, BloomFilter
from repro.exec.kernels import densify_key_columns_pair


def replay_reduced_rows(db, query, schedule, fpr: float = DEFAULT_FPR) -> Dict[str, int]:
    """Per-alias row counts after replaying every step of ``schedule``."""
    graph = db.join_graph(query)
    masks = db.filter_masks(query)
    tables = {ref.alias: db.table(ref.table) for ref in query.relations}
    rows = {
        alias: np.nonzero(masks[alias])[0] if alias in masks else np.arange(table.num_rows)
        for alias, table in tables.items()
    }
    reduced = {alias for alias in rows if rows[alias].size < tables[alias].num_rows}
    has_table = set()  # sources with a membership table over their current rows
    for step in schedule.steps:
        classes = [graph.attribute_classes[name] for name in step.attributes]
        source, target = tables[step.source], tables[step.target]
        if len(classes) == 1 and step.source not in reduced:
            source_column = classes[0].column_of(step.source)
            target_column = classes[0].column_of(step.target)
            if source.is_primary_key(source_column) and any(
                fk.column == target_column and fk.ref_table == source.name
                for fk in target.foreign_keys
            ):
                continue
        source_keys = [source.column(c.column_of(step.source)).data[rows[step.source]] for c in classes]
        target_keys = [target.column(c.column_of(step.target)).data[rows[step.target]] for c in classes]
        if len(classes) == 1:
            build, probe = source_keys[0], target_keys[0]
        else:
            build, probe = densify_key_columns_pair(source_keys, target_keys)
        if len(classes) == 1 and (step.source in has_table or _dense(build, probe.size)):
            has_table.add(step.source)
            keep = np.isin(probe, build)
        else:
            bloom = BloomFilter(expected_keys=rows[step.source].size, fpr=fpr)
            bloom.insert(build)
            keep = bloom.probe(probe)
        if not keep.all():
            reduced.add(step.target)
        rows[step.target] = rows[step.target][keep]
        has_table.discard(step.target)
    return {alias: int(selected.size) for alias, selected in rows.items()}


def _dense(build: np.ndarray, probe_rows: int) -> bool:
    if build.size == 0 or not np.issubdtype(build.dtype, np.integer):
        return False
    key_range = int(build.max()) - int(build.min()) + 1
    return key_range <= min(max(1 << 16, 8 * (build.size + probe_rows)), 1 << 26)
