"""Pause CPython's cyclic garbage collector across bulk-allocation phases.

The pipeline's batch phases -- ingest (cache decode or parse, then the
k-way merges), index and detection, the registry analyses -- each build
hundreds of thousands of small acyclic objects: slotted
:class:`~repro.logs.parsing.ParsedRecord` instances, their attribute
dicts, per-node lists.  Every few hundred allocations CPython's
generational collector runs, and each young generation that survives
is promoted until a full (generation-2) pass walks the whole, still
growing heap.  None of those passes can free anything -- the records
hold no cycles -- so on a warm run they are a large share of the wall
time (``docs/PERFORMANCE.md`` has the breakdown).

:func:`paused_gc` turns the collector off for the duration of a
``with`` block.  The contract:

* only the main thread pauses; a scope entered on any other thread is
  a no-op.  The collector is process-wide, so a worker's pause would
  also stop collection for every other thread -- in ``repro serve``,
  the event loop answering cache hits -- whenever any worker's scope
  is open, and when garbage is collected, and on whose request's time,
  would follow the timing of requests;
* one process-wide depth counter makes the main thread's scopes
  refcounted: nested scopes compose, and only the outermost exit
  restores the collector;
* the outermost entry records :func:`gc.isenabled` and the outermost
  exit restores exactly that state, on exceptions too -- a caller that
  had the collector disabled keeps it disabled;
* a child forked during a pause starts at depth 0 with the state from
  before the pause (``os.register_at_fork``), so forked workers never
  inherit a scope they cannot close; a scope the child inherited open
  is a no-op when it exits there.

Nothing about a report depends on when the collector runs, so reports
stay byte-identical.  Cyclic garbage made during a pause is freed by
the first collection after the scope ends.  ``gc.freeze`` is
deliberately not used (it would pin the frozen objects for the life of
a long-running ``serve`` or ``watch`` process), and neither is
``gc.set_threshold`` (a process-global knob other code may own).
"""

from __future__ import annotations

import gc
import os
import threading
from typing import Optional

__all__ = ["paused_gc", "pause_depth"]

#: open scopes on the main thread
_depth = 0
#: collector state recorded by the outermost entry
_was_enabled = False
#: bumped in a forked child, so scopes opened before the fork stay inert
_epoch = 0


class _Pause:
    """One scope; the shared state lives in the module."""

    __slots__ = ("_epoch",)

    def __init__(self) -> None:
        #: the fork epoch the scope paused in; None while it pauses nothing
        self._epoch: Optional[int] = None

    def __enter__(self) -> None:
        global _depth, _was_enabled
        if threading.current_thread() is not threading.main_thread():
            return
        if _depth == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _depth += 1
        self._epoch = _epoch

    def __exit__(self, *exc) -> bool:
        global _depth
        if self._epoch != _epoch:
            return False
        _depth -= 1
        if _depth == 0 and _was_enabled:
            gc.enable()
        return False


def paused_gc() -> _Pause:
    """Context manager: no cyclic collection until the outermost scope ends.

    ``with paused_gc(): ...`` is cheap and may nest freely; off the main
    thread it does nothing.  See the module docstring for the full
    contract.
    """
    return _Pause()


def pause_depth() -> int:
    """How many :func:`paused_gc` scopes the main thread has open."""
    return _depth


def _reset_in_child() -> None:
    """Fork hook: the child owns none of its parent's open scopes."""
    global _depth, _epoch
    _epoch += 1
    if _depth:
        _depth = 0
        if _was_enabled:
            gc.enable()


os.register_at_fork(after_in_child=_reset_in_child)
