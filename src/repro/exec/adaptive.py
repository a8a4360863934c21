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
* **Whole-step cancellation** — a transfer step is a ``BloomBuild``
  immediately followed by the ``BloomProbe`` with its ``step_id`` (or one
  ``SemiJoinReduce``), and the build's only consumer is that probe.  So the
  controller cancels *step ids*: a cancelled probe takes its build with it,
  and neither the filter construction nor its memory is paid.
* **Wholesale backward-pass skip** — the backward pass reduces each relation
  with its (by then forward-reduced) parent.  If the forward pass left every
  backward-pass build side effectively unreduced (cumulative reduction below
  ``min_yield``), the backward filters carry no information the forward pass
  did not already apply, and the whole pass is skipped at once.

Every decision is made *between* ops — after a probe's morsel results have
been gathered and the relation reduced — so the controller sees identical
inputs under the serial and morsel-parallel backends and its decisions
(hence the surviving row sets, hence the final results) are bit-identical
across both.

The controller is deliberately execution-agnostic: it never touches
relations or filters, it only answers :meth:`should_skip` and consumes
:meth:`observe` calls.  The :class:`~repro.exec.pipeline.PipelineExecutor`
owns the actual skipping.  (The exact-bitmap downgrade is not this
controller's and not gated on it: the executor takes it on every dense key
domain, because an exact filter is strictly tighter than the Bloom filter it
replaces and so keeps the transfer phase's guarantee — skipping does not.)
"""

from __future__ import annotations

from collections import Counter
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


def _is_transfer_op(op) -> bool:
    if isinstance(op, SemiJoinReduce):
        return True
    return isinstance(op, (BloomBuild, BloomProbe)) and op.scope == SCOPE_TRANSFER


class AdaptiveTransferController:
    """Runtime skip decisions over the transfer steps of one compiled plan.

    One controller serves one plan execution.  The executor asks
    :meth:`should_skip` at each transfer step's first op and reports each
    executed probe's reduction through :meth:`observe`; both calls happen on
    the coordinator thread at op granularity (the morsel-gather barrier), so
    decisions are deterministic for a given plan and data regardless of
    backend.
    """

    def __init__(self, plan: PhysicalPlan, min_yield: float = DEFAULT_MIN_YIELD) -> None:
        if not 0.0 <= min_yield <= 1.0:
            raise ValueError(f"adaptive min yield must be in [0, 1], got {min_yield}")
        self.min_yield = float(min_yield)
        transfer_ops = [op for op in plan if _is_transfer_op(op)]
        #: The transfer steps in plan order, each by its reducing op (the
        #: probe or semi-join), and how many ops each step compiled to.
        self._steps = [op for op in transfer_ops if not isinstance(op, BloomBuild)]
        self._position = {op.step_id: i for i, op in enumerate(self._steps)}
        self._step_ops = Counter(op.step_id for op in transfer_ops)
        #: Step ids cancelled by an adaptive decision.
        self.cancelled_steps: Set[int] = set()
        #: Human-readable decision log (surfaced in tests / debugging).
        self.decisions: List[str] = []
        #: alias -> rows when first observed as a transfer target.
        self._initial_rows: Dict[str, int] = {}
        #: alias -> rows eliminated from it by executed forward-pass steps.
        self._forward_eliminated: Dict[str, int] = {}
        self._backward_decided = False
        self._backward_sources = frozenset(
            op.source.alias for op in self._steps if op.pass_ == _BACKWARD
        )

    # ------------------------------------------------------------------
    # Executor-facing API
    # ------------------------------------------------------------------
    def should_skip(self, op) -> bool:
        """True when the adaptive controller has cancelled ``op``'s step.

        The first backward-pass transfer op triggers the wholesale
        backward-pass decision (every earlier forward observation is in by
        then, since ops execute in plan order).
        """
        if not self._backward_decided and op.pass_ == _BACKWARD:
            self._decide_backward(op.step_id)
        return op.step_id in self.cancelled_steps

    def observe(self, op, rows_before: int, rows_after: int) -> None:
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
            self._cancel_target(alias, after_step=op.step_id)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _pending(self, from_position: int) -> List:
        """The not-yet-cancelled steps at or after ``from_position``."""
        return [
            op for op in self._steps[from_position:] if op.step_id not in self.cancelled_steps
        ]

    def _cancel_target(self, alias: str, after_step: int) -> None:
        """Cancel the pending transfer steps that would reduce ``alias``."""
        newly = [
            op.step_id
            for op in self._pending(self._position[after_step] + 1)
            if op.target.alias == alias
        ]
        if newly:
            self.cancelled_steps.update(newly)
            self.decisions.append(
                f"cancel {len(newly)} pending probe(s) of {alias!r} (yield < {self.min_yield:g})"
            )

    def _decide_backward(self, at_step: int) -> None:
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
        newly = [
            op.step_id for op in self._pending(self._position[at_step]) if op.pass_ == _BACKWARD
        ]
        if newly:
            self.cancelled_steps.update(newly)
            cancelled = sum(self._step_ops[step_id] for step_id in newly)
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
        return sum(self._step_ops[step_id] for step_id in self.cancelled_steps)
