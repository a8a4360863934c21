"""Adaptive transfer execution: a runtime feedback loop over the transfer phase.

The transfer phase is compiled statically: every forward/backward step of the
:class:`~repro.core.transfer_schedule.TransferSchedule` becomes a
``BloomBuild``/``BloomProbe`` pair (or a ``SemiJoinReduce``) that always runs
to completion, even when the workload's filters stopped pruning several steps
ago.  Because Bloom transfer is *purely reductive* — a skipped pass can only
leave extra rows for the join phase to eliminate, never change the final
result — the executor is free to stop paying for passes that no longer pay
for themselves.

:class:`AdaptiveTransferController` implements that feedback loop over a
compiled :class:`~repro.plan.physical.PhysicalPlan`:

* **Yield-driven cancellation** — after every executed transfer probe the
  executor reports the step's pruning yield (fraction of target rows
  eliminated).  When a step's yield falls below ``min_yield``, the
  controller cancels the target relation's remaining transfer probes: the
  observed evidence says filters are no longer reducing it, so the remaining
  passes are (probabilistically) pure overhead.
* **Dead-build elimination** — cancelling probes orphans the builds that
  exist only to feed them.  The controller walks the plan's static
  ``provides``/``requires`` dependency metadata: a transfer build whose
  provided ``stage:<id>`` token has no pending non-cancelled consumer is
  cancelled too, so neither the filter construction nor its memory is paid.
* **Wholesale backward-pass skip** — the backward pass reduces each relation
  with its (by then forward-reduced) parent.  If the forward pass left every
  backward-pass build side effectively unreduced (cumulative reduction below
  ``min_yield``), the backward filters carry no information the forward pass
  did not already apply, and the whole pass is skipped at once.

Every decision is made *between* ops — after a probe's morsel results have
been gathered and the relation reduced — so the controller sees identical
inputs under the serial, chunked, and morsel-parallel backends and its
decisions (hence the surviving row sets, hence the final results) are
bit-identical across all of them.

The controller is deliberately execution-agnostic: it never touches
relations or filters, it only answers :meth:`should_skip` and consumes
:meth:`observe` calls.  The :class:`~repro.exec.pipeline.PipelineExecutor`
owns the actual skipping.  (The exact-bitmap downgrade is not this
controller's and not gated on it: the executor takes it on every dense key
domain, because an exact filter is strictly tighter than the Bloom filter it
replaces and so keeps the transfer phase's guarantee — skipping does not.)
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.core.transfer_schedule import TransferPass
from repro.plan.physical import (
    SCOPE_TRANSFER,
    BloomBuild,
    BloomProbe,
    PhysicalPlan,
    SemiJoinReduce,
)

#: Default minimum per-step pruning yield: a transfer step must eliminate at
#: least this fraction of its target's rows for the target to keep receiving
#: passes (~1%, the point where a pass's probe cost stops paying for itself).
DEFAULT_MIN_YIELD = 0.01

#: Pass tag stamped onto backward-pass transfer ops by the compiler
#: (``compile_transfer_ops`` copies ``step.pass_.value``).
_BACKWARD = TransferPass.BACKWARD.value


def _is_transfer_probe(op) -> bool:
    if isinstance(op, SemiJoinReduce):
        return True
    return isinstance(op, BloomProbe) and op.scope == SCOPE_TRANSFER


def _is_transfer_build(op) -> bool:
    return isinstance(op, BloomBuild) and op.scope == SCOPE_TRANSFER


class AdaptiveTransferController:
    """Runtime skip decisions over the transfer ops of one compiled plan.

    One controller serves one plan execution.  The executor asks
    :meth:`should_skip` before running each transfer op and reports each
    executed probe's reduction through :meth:`observe`; both calls happen on
    the coordinator thread at op granularity (the morsel-gather barrier), so
    decisions are deterministic for a given plan and data regardless of
    backend.
    """

    def __init__(self, plan: PhysicalPlan, min_yield: float = DEFAULT_MIN_YIELD) -> None:
        if not 0.0 <= min_yield <= 1.0:
            raise ValueError(f"adaptive min yield must be in [0, 1], got {min_yield}")
        self.min_yield = float(min_yield)
        self._ops = tuple(plan)
        #: Op indices cancelled by an adaptive decision.
        self._cancelled: Set[int] = set()
        #: Step ids whose probe (and possibly build) was cancelled.
        self.cancelled_steps: Set[int] = set()
        #: Human-readable decision log (surfaced in tests / debugging).
        self.decisions: List[str] = []
        #: alias -> rows when first observed as a transfer target.
        self._initial_rows: Dict[str, int] = {}
        #: alias -> rows eliminated from it by executed forward-pass steps.
        self._forward_eliminated: Dict[str, int] = {}
        self._backward_decided = False
        # Static consumer map over the dependency metadata: token -> indices
        # of ops that require it (what dead-build elimination walks).
        self._consumers: Dict[str, List[int]] = {}
        for index, op in enumerate(self._ops):
            for token in op.requires():
                self._consumers.setdefault(token, []).append(index)
        self._backward_sources = frozenset(
            op.source.alias
            for op in self._ops
            if _is_transfer_probe(op) and op.pass_ == _BACKWARD
        )

    # ------------------------------------------------------------------
    # Executor-facing API
    # ------------------------------------------------------------------
    def should_skip(self, index: int, op) -> bool:
        """True when the adaptive controller has cancelled op ``index``.

        The first backward-pass transfer op triggers the wholesale
        backward-pass decision (every earlier forward observation is in by
        then, since ops execute in plan order).
        """
        if (
            not self._backward_decided
            and (_is_transfer_build(op) or _is_transfer_probe(op))
            and op.pass_ == _BACKWARD
        ):
            self._decide_backward(index)
        return index in self._cancelled

    def observe(self, index: int, op, rows_before: int, rows_after: int) -> None:
        """Record one executed transfer probe's reduction and react to it."""
        alias = op.target.alias
        self._initial_rows.setdefault(alias, rows_before)
        eliminated = max(rows_before - rows_after, 0)
        if op.pass_ != _BACKWARD:
            self._forward_eliminated[alias] = (
                self._forward_eliminated.get(alias, 0) + eliminated
            )
        yield_ = (eliminated / rows_before) if rows_before else 0.0
        if yield_ < self.min_yield:
            self._cancel_target(alias, after_index=index)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _cancel_target(self, alias: str, after_index: int) -> None:
        """Cancel ``alias``'s pending transfer probes and the builds feeding only them."""
        newly: List[int] = []
        for index in range(after_index + 1, len(self._ops)):
            op = self._ops[index]
            if index in self._cancelled or not _is_transfer_probe(op):
                continue
            if op.target.alias == alias:
                self._cancelled.add(index)
                self.cancelled_steps.add(op.step_id)
                newly.append(index)
        if newly:
            self.decisions.append(
                f"cancel {len(newly)} pending probe(s) of {alias!r} (yield < {self.min_yield:g})"
            )
            self._cancel_dead_builds(after_index)

    def _cancel_dead_builds(self, after_index: int) -> None:
        """Cancel pending transfer builds whose outputs have no live consumer."""
        for index in range(after_index + 1, len(self._ops)):
            op = self._ops[index]
            if index in self._cancelled or not _is_transfer_build(op):
                continue
            live = [
                consumer
                for token in op.provides()
                for consumer in self._consumers.get(token, ())
                if consumer > after_index and consumer not in self._cancelled
            ]
            if not live:
                self._cancelled.add(index)
                self.cancelled_steps.add(op.step_id)

    def _decide_backward(self, at_index: int) -> None:
        """Skip the backward pass wholesale when its build sides are unreduced.

        "Unreduced" is yield-relative: a build side whose cumulative
        forward-pass reduction stayed below ``min_yield`` of its initial rows
        carries (to within the controller's own tolerance) no new information
        for the relations it would reduce.
        """
        self._backward_decided = True
        for alias in self._backward_sources:
            initial = self._initial_rows.get(alias, 0)
            eliminated = self._forward_eliminated.get(alias, 0)
            if initial and eliminated / initial >= self.min_yield:
                return  # at least one build side was genuinely reduced
        cancelled = 0
        for index in range(at_index, len(self._ops)):
            op = self._ops[index]
            if index in self._cancelled:
                continue
            if (_is_transfer_build(op) or _is_transfer_probe(op)) and op.pass_ == _BACKWARD:
                self._cancelled.add(index)
                self.cancelled_steps.add(op.step_id)
                cancelled += 1
        if cancelled:
            self.decisions.append(
                f"skip backward pass wholesale ({cancelled} op(s); "
                "forward pass left every build side unreduced)"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cancelled_op_count(self) -> int:
        """Number of plan ops cancelled so far."""
        return len(self._cancelled)

    def is_cancelled_step(self, step_id: int) -> bool:
        """True when ``step_id``'s probe or build was adaptively cancelled."""
        return step_id in self.cancelled_steps
