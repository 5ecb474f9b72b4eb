"""Test-only reference model of the CGMT thread scheduler.

``TimelineCore._ready_threads`` and ``_pick_next_thread`` and the
forward-progress mask's ``others_ready`` expression, verbatim from the
commit before the scheduler was made allocation-free (three list
comprehensions and a set per pick; the production code is one round-robin
pass with an early exit).  The functions take the core as ``self`` so the
bodies are unchanged; nothing here is imported by ``src/``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.base import ThreadContext, ThreadState


def _ready_threads(self, t: int) -> List[ThreadContext]:
    return [th for th in self.threads
            if th.state in (ThreadState.READY, ThreadState.BLOCKED)
            and (th.state == ThreadState.READY or th.ready_at <= t)]


def _pick_next_thread(self, t: int) -> Tuple[Optional[ThreadContext], int]:
    """Round-robin over runnable threads; returns (thread, cycle)."""
    threads = self.threads
    live = [th for th in threads if th.state is not ThreadState.DONE]
    if not live:
        return None, t
    candidates = _ready_threads(self, t)
    if not candidates:
        t = min(th.ready_at for th in live)
        candidates = _ready_threads(self, t)
    ready_tids = {th.tid for th in candidates}
    n = len(threads)
    rr = self._rr_next
    for i in range(n):
        th = threads[(rr + i) % n]
        if th.tid in ready_tids:
            self._rr_next = (th.tid + 1) % n
            return th, t
    return None, t


def others_ready(self, thread: ThreadContext, t_detect: int) -> bool:
    """The forward-progress mask's input: is any *other* thread runnable
    at the cycle the miss is detected?"""
    others_ready = any(th is not thread for th in
                       _ready_threads(self, t_detect))
    return others_ready
