"""Rollback queue: tracks in-flight instructions' register slots (Section 5.1).

After an instruction hits in the tag store, its physical register indices
and a memory-operation flag are pushed.  Commit pops the oldest entry; a
context switch compacts every queued entry into the set of slots whose
commit (C) bits must be reset — exactly the flushed in-flight registers the
LRC policy then retains.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Set, Tuple

from ..stats.counters import Stats

ROLLBACK_DEPTH = 4  # the backend occupancy of the 5-stage pipeline


class RollbackEntry(NamedTuple):
    slots: Tuple[int, ...]
    is_mem: bool


class RollbackQueue:
    """FIFO with depth equal to the maximum backend occupancy.

    The VRMU's per-instruction paths work on ``_queue`` directly
    (``VRMU.access`` / ``on_commit`` / ``on_flush`` carry copies of
    :meth:`push` / :meth:`pop_commit` / :meth:`flush`); the methods state
    the behaviour and are what the test-only reference VRMU calls.
    """

    def __init__(self, depth: int = ROLLBACK_DEPTH, stats: Stats | None = None) -> None:
        self.depth = depth
        self.stats = stats if stats is not None else Stats("rollback")
        #: ``(slots, is_mem)`` per in-flight instruction, oldest first
        self._queue: deque[Tuple[Iterable[int], bool]] = deque()
        #: pending counts (see :meth:`Stats.batch`)
        self._pending = self.stats.batch("flushes")

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, slots: Iterable[int], is_mem: bool) -> None:
        """Record an instruction entering the backend.  The queue keeps
        ``slots`` as handed in (the VRMU passes a list it is done with)."""
        if len(self._queue) >= self.depth:
            # bounded by in-order commit; drop oldest defensively and count it
            self._queue.popleft()
            self.stats.inc("overflow")
        self._queue.append((slots, is_mem))

    def pop_commit(self) -> RollbackEntry | None:
        """Commit stage signal: delete the oldest entry."""
        if self._queue:
            slots, is_mem = self._queue.popleft()
            return RollbackEntry(tuple(slots), is_mem)
        return None

    @property
    def oldest_is_mem(self) -> bool:
        """CSL mask input: is the oldest in-flight instruction a memory op?"""
        return bool(self._queue) and self._queue[0][1]

    def flush(self) -> Set[int]:
        """Context switch: compact all queued slots into a 1-hot reset set."""
        slots: Set[int] = set()
        for entry in self._queue:
            slots.update(entry[0])
        self._queue.clear()
        self._pending[0] += 1
        return slots
