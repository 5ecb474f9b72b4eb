"""Test-only reference model of the replacement policies.

This is the eager numpy arithmetic ``repro/virec/policies.py`` used before
the flat-int rebuild, kept verbatim as the model the production policies
are compared against (``test_reference_model.py``): T/C/A/D live in four
int64 arrays, *every* instruction ages every valid entry with a masked
``np.minimum``, a context switch is three masked array updates, and the
victim is ``argmax`` of a priority array over a boolean candidate mask.

The production code keeps one concatenated word per entry and a lazy age
instead; nothing here is imported by ``src/``.
"""

from __future__ import annotations

from typing import Dict, Type

import numpy as np

A_MAX = 7  # 3-bit age
T_MAX = 7  # 3-bit thread recency

#: policy-name -> reference class; same names as ``repro.virec.POLICIES``
REFERENCE_POLICIES: Dict[str, Type["ReplacementPolicy"]] = {}


def register_policy(cls: Type["ReplacementPolicy"]) -> Type["ReplacementPolicy"]:
    """Class decorator registering a policy under ``cls.name``."""
    REFERENCE_POLICIES[cls.name] = cls
    return cls


class ReplacementPolicy:
    """Base class holding the T/C/A/D metadata arrays."""

    #: registry key, as in ``repro.virec.POLICIES``
    name = "base"
    #: whether the policy consumes dead-on-commit (D) hints — selecting
    #: such a policy is what turns static liveness annotation on
    uses_dead_hints = False
    #: whether the VRMU may skip the BSI spill of a dead victim
    elides_dead_writebacks = False

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("policy capacity must be >= 1")
        self.capacity = capacity
        self.T = np.zeros(capacity, dtype=np.int64)
        self.C = np.ones(capacity, dtype=np.int64)
        self.A = np.zeros(capacity, dtype=np.int64)
        self.D = np.zeros(capacity, dtype=np.int64)  # dead-on-commit hint
        self.stamp = np.zeros(capacity, dtype=np.int64)  # exact recency
        self._clock = 0

    # -- event hooks --------------------------------------------------------
    def on_instruction(self, valid: np.ndarray) -> None:
        """One instruction accessed the register file: age everyone."""
        self._clock += 1
        np.minimum(self.A + 1, A_MAX, out=self.A, where=valid)

    def on_access(self, idx: int) -> None:
        """Entry ``idx`` was referenced by the current instruction."""
        self.A[idx] = 0
        self.C[idx] = 1  # speculative commit initialization (Section 5.1)
        self.T[idx] = 0  # belongs to the running thread by construction
        self.D[idx] = 0  # referenced again: no longer dead
        self.stamp[idx] = self._clock

    def on_insert(self, idx: int) -> None:
        self.on_access(idx)

    def on_flush(self, idxs) -> None:
        """Rollback queue resets the C bit of flushed in-flight registers."""
        for idx in idxs:
            self.C[idx] = 0

    def mark_dead(self, idx: int) -> None:
        """Commit-time liveness hint: this entry's value is never read
        again before redefinition.  Cleared by the next :meth:`on_access`."""
        self.D[idx] = 1

    def on_context_switch(self, owner: np.ndarray, valid: np.ndarray,
                          prev_tid: int, new_tid: int) -> None:
        """Update T bits per Section 5.1."""
        prev_mask = valid & (owner == prev_tid)
        other_mask = valid & (owner != prev_tid)
        self.T[prev_mask] = T_MAX
        np.maximum(self.T - 1, 0, out=self.T, where=other_mask)
        self.T[valid & (owner == new_tid)] = 0

    # -- eviction ------------------------------------------------------------
    def priority(self) -> np.ndarray:
        """Eviction priority per entry (higher = evict first)."""
        raise NotImplementedError

    def select_victim(self, candidates: np.ndarray) -> int | None:
        """Index of the victim among boolean mask ``candidates`` (None if empty)."""
        if not candidates.any():
            return None
        prio = np.where(candidates, self.priority(), np.int64(-1 << 60))
        return int(prio.argmax())


@register_policy
class PLRU(ReplacementPolicy):
    """Age-only pseudo-LRU, as in the NSF [41] — thrashes across threads."""

    name = "plru"

    def priority(self) -> np.ndarray:
        return self.A


@register_policy
class LRU(ReplacementPolicy):
    """Exact recency (perfect LRU) — still scheduling-oblivious."""

    name = "lru"

    def priority(self) -> np.ndarray:
        return self._clock - self.stamp


@register_policy
class MRTPLRU(ReplacementPolicy):
    """Most-Recent-Thread PLRU: T bits concatenated above the PLRU age."""

    name = "mrt-plru"

    def priority(self) -> np.ndarray:
        return (self.T << 3) | self.A


@register_policy
class MRTLRU(ReplacementPolicy):
    """MRT with exact ages (perfect variant of Figure 12)."""

    name = "mrt-lru"

    def priority(self) -> np.ndarray:
        return (self.T << 40) + (self._clock - self.stamp)


@register_policy
class LRC(ReplacementPolicy):
    """Least Recently Committed: T, then C, then A (the paper's policy)."""

    name = "lrc"

    def priority(self) -> np.ndarray:
        return (self.T << 4) | (self.C << 3) | self.A


@register_policy
class DeadFirstLRC(LRC):
    """LRC with compiler dead hints concatenated on top.

    A register the static liveness pass proved dead-on-commit outranks
    every live entry (the full LRC priority is 7 bits, so ``D`` sits at
    bit 7): the cache preferentially reuses slots whose values can never
    be read again, keeping live working sets resident longer.
    """

    name = "dead-first"
    uses_dead_hints = True

    def priority(self) -> np.ndarray:
        return (self.D << 7) | super().priority()


@register_policy
class DeadElideLRC(DeadFirstLRC):
    """Dead-first eviction plus BSI writeback elision.

    In addition to preferring dead victims, the VRMU skips the backing-
    store spill entirely when the evicted register is dead — its value is
    unreadable, so the writeback bandwidth and port occupancy are pure
    waste (the compiler-assisted RF-cache argument from PAPERS.md).
    """

    name = "dead-elide"
    elides_dead_writebacks = True


@register_policy
class SRRIP(ReplacementPolicy):
    """Static Re-Reference Interval Prediction [33], adapted to registers.

    The paper argues (Section 7) that RRIP-class policies "sample cache
    sets to determine whether cache items are recency-friendly or averse
    based on prior access, which does not work for registers as the reuse
    distance depends on the instruction and context switch behavior."
    Implemented here so that claim can be measured: entries insert with a
    long predicted re-reference interval (RRPV = max-1), promote to 0 on a
    hit, and the victim is any entry at max RRPV (aging everyone when none
    is).  Scheduling-oblivious by construction.
    """

    name = "srrip"
    RRPV_MAX = 7  # reuse the 3-bit A field as the RRPV

    def on_access(self, idx: int) -> None:
        super().on_access(idx)
        self.A[idx] = 0                      # promoted on re-reference

    def on_insert(self, idx: int) -> None:
        super().on_insert(idx)
        self.A[idx] = self.RRPV_MAX - 1      # long re-reference prediction

    def on_instruction(self, valid) -> None:
        # RRIP does not age on every access; aging happens at eviction time
        self._clock += 1

    def select_victim(self, candidates: np.ndarray) -> int | None:
        if not candidates.any():
            return None
        # age until some candidate reaches RRPV max, then evict it
        while True:
            at_max = candidates & (self.A >= self.RRPV_MAX)
            if at_max.any():
                return int(np.flatnonzero(at_max)[0])
            np.minimum(self.A + 1, self.RRPV_MAX, out=self.A,
                       where=candidates)

    def priority(self) -> np.ndarray:
        return self.A


@register_policy
class RandomPolicy(ReplacementPolicy):
    """Uniform random replacement — the no-information floor.

    Deterministic (xorshift seeded at construction) so simulations stay
    reproducible.
    """

    name = "random"

    def __init__(self, capacity: int, seed: int = 0x9E3779B9) -> None:
        super().__init__(capacity)
        self._state = seed or 1

    def _next(self) -> int:
        x = self._state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._state = x
        return x

    def select_victim(self, candidates: np.ndarray) -> int | None:
        idxs = np.flatnonzero(candidates)
        if not idxs.size:
            return None
        return int(idxs[self._next() % idxs.size])

    def priority(self) -> np.ndarray:
        # only used for introspection; selection is randomized
        return self.A
