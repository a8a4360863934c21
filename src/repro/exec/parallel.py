"""In-order morsel gather shared by the thread and process backends."""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, TypeVar

from repro.exec.faults import CancelToken

_T = TypeVar("_T")


def gather_in_order(
    futures: Sequence["object"],
    cancel: Optional[CancelToken] = None,
    on_drain: Optional[Callable[[], None]] = None,
) -> List[_T]:
    """Gather futures in submission order, checking the cancel token between morsels.

    The in-order gather is what makes the thread and process backends
    bit-identical to serial — morsel results are concatenated in submission
    order regardless of completion order.  This shared helper adds the
    cooperative-cancellation barrier: before blocking on each result the
    token is checked, and on expiry/cancel the remaining futures are
    cancelled (started ones are drained via ``on_drain``) before the typed
    error propagates — no worker is left running against segments the owner
    is about to unlink.
    """
    results: List[_T] = []
    try:
        for future in futures:
            if cancel is not None:
                cancel.check()
            results.append(future.result())  # type: ignore[attr-defined]
    except BaseException:
        for future in futures:
            cancel_fn = getattr(future, "cancel", None)
            if cancel_fn is not None:
                try:
                    cancel_fn()
                except Exception:  # pragma: no cover - future already done
                    pass
        if on_drain is not None:
            on_drain()
        raise
    return results
