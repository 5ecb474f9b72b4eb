"""VRMU tag store: the CAM mapping (thread, architectural reg) -> physical slot.

The tag store is the content-addressable memory of Section 5.1.  Each of the
``capacity`` physical register-file entries carries: a valid bit, the owning
thread id, the architectural (flat) register number, a dirty bit, and a
``fill_ready`` cycle while a backing-store fill is in flight.  Replacement
metadata (the priority words) lives in the attached policy.

Every per-entry field is a flat Python list indexed by slot.  The match side
of the CAM is indexed the other way: ``rows[tid][flat]`` is the slot holding
(thread, register), -1 when it is not resident — one row of
``NUM_ARCH_REGS`` ints per thread, added when the thread first inserts —
and ``resident`` counts the non-negative cells.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..isa.registers import NUM_ARCH_REGS
from ..stats.counters import Stats
from .policies import A_MAX, T_MASK, ReplacementPolicy


class TagStore:
    """Fully-associative mapping of live architectural registers."""

    def __init__(self, capacity: int, policy: ReplacementPolicy,
                 stats: Optional[Stats] = None) -> None:
        if policy.capacity != capacity:
            raise ValueError("policy capacity mismatch")
        self.capacity = capacity
        self.policy = policy
        self.stats = stats if stats is not None else Stats("tagstore")
        self.valid: List[bool] = [False] * capacity
        self.owner: List[int] = [-1] * capacity
        self.areg: List[int] = [-1] * capacity
        self.dirty: List[bool] = [False] * capacity
        self.fill_ready: List[int] = [0] * capacity
        #: the CAM's match side: ``rows[tid][flat]`` = slot, or -1
        self.rows: List[List[int]] = []
        #: number of valid entries (= non-negative cells of ``rows``)
        self.resident = 0
        #: pending counts (see :meth:`Stats.batch`)
        self._pending = self.stats.batch("evictions")

    # -- lookup ---------------------------------------------------------------
    def row(self, tid: int) -> List[int]:
        """The CAM row of ``tid``, added (all -1) the first time it is
        asked for.  Python would read a negative index as a row counted
        from the end — another thread's — so it is rejected here."""
        if tid < 0:
            raise ValueError(f"thread id {tid} is negative")
        rows = self.rows
        while len(rows) <= tid:
            rows.append([-1] * NUM_ARCH_REGS)
        return rows[tid]

    def lookup(self, tid: int, flat_reg: int) -> Optional[int]:
        """Physical slot of (thread, register), or None if not resident."""
        if tid < 0 or not 0 <= flat_reg < NUM_ARCH_REGS:
            raise ValueError(f"no tag for thread {tid} reg {flat_reg}: need "
                             f"tid >= 0 and 0 <= reg < {NUM_ARCH_REGS}")
        if tid >= len(self.rows):
            return None         # the thread never inserted
        slot = self.rows[tid][flat_reg]
        return slot if slot >= 0 else None

    def mappings(self) -> Iterator[Tuple[int, int, int]]:
        """Every resident ``(tid, flat_reg, slot)``, in row order."""
        for tid, row in enumerate(self.rows):
            for flat_reg, slot in enumerate(row):
                if slot >= 0:
                    yield tid, flat_reg, slot

    def resident_count(self, tid: Optional[int] = None) -> int:
        if tid is None:
            return self.resident
        return self.owner.count(tid)

    def resident_regs(self, tid: int) -> List[int]:
        """Flat register indices of ``tid`` currently resident."""
        if not 0 <= tid < len(self.rows):
            return []
        return [flat_reg for flat_reg, slot in enumerate(self.rows[tid])
                if slot >= 0]

    def occupancy_by_thread(self) -> Dict[int, int]:
        """Current register-cache occupancy per owning thread id.

        Telemetry probe: the per-thread share of the physical register
        cache, the time series the paper's contention story is about.
        """
        occupancy = Counter(self.owner)
        del occupancy[-1]       # the empty slots
        return dict(sorted(occupancy.items()))

    # -- allocation -------------------------------------------------------------
    def free_slot(self) -> Optional[int]:
        """Lowest invalid slot, or None when the cache is full."""
        if self.resident == self.capacity:
            return None
        return self.valid.index(False)

    def select_victim(self, exclude_slots: Sequence[int],
                      now: int) -> Optional[int]:
        """Choose an eviction victim.

        Excludes ``exclude_slots`` (registers of the instruction currently in
        decode — they must not evict each other) and slots whose fill is
        still in flight.  Returns None when nothing is evictable.
        """
        valid, fill_ready = self.valid, self.fill_ready
        policy = self.policy
        fields = policy.priority_fields
        if fields is None:
            return policy.select_victim(
                [slot for slot in range(self.capacity)
                 if valid[slot] and fill_ready[slot] <= now
                 and slot not in exclude_slots])
        # ``policy.priority`` inlined as a branch-and-bound; the first
        # maximum wins, so ties go to the lowest slot.  The fields (word |
        # the owner's T, which bounds the entry's, for a mask that reads T)
        # sit above the age (no mask has a bit under ``shift + 3``), so
        # they decide first, as in a hardware priority tree: an entry whose
        # fields are below the best candidate's cannot outrank it at any
        # age and is dismissed on one AND; equal fields go to the age.
        # Only an eligible entry raises the bound.  Nothing outranks
        # ``ceiling``, so the first candidate to reach it is the answer.
        mask, shift = fields
        zeroed_at, clock = policy.zeroed_at, policy._clock
        t_of = policy.thread_bits() if mask & T_MASK else None
        owner = self.owner
        ceiling = mask >> shift | A_MAX
        victim, highest, bound = None, -1, 0
        for slot, stored in enumerate(policy.word):
            stored = (stored | t_of[owner[slot]] if t_of else stored) & mask
            if (stored >= bound and valid[slot] and fill_ready[slot] <= now
                    and slot not in exclude_slots):
                if (stored & T_MASK and policy.written_at[slot]
                        >= policy.suspended_at[owner[slot]]):
                    stored &= ~T_MASK   # written since the suspension
                age = clock - zeroed_at[slot]
                priority = stored >> shift | (age if age < A_MAX else A_MAX)
                if priority > highest:
                    if priority == ceiling:
                        return slot
                    victim, highest, bound = slot, priority, stored
        return victim

    def evict(self, slot: int) -> Tuple[int, int, bool]:
        """Remove the mapping at ``slot``; returns (tid, flat_reg, dirty)."""
        if not self.valid[slot]:
            raise ValueError(f"evicting invalid slot {slot}")
        tid, reg, dirty = self.owner[slot], self.areg[slot], self.dirty[slot]
        self.rows[tid][reg] = -1
        self.resident -= 1
        self.valid[slot] = False
        self.owner[slot] = -1
        self.areg[slot] = -1
        self.dirty[slot] = False
        self._pending[0] += 1
        return tid, reg, dirty

    def insert(self, slot: int, tid: int, flat_reg: int, now: int,
               fill_ready: int = 0, dirty: bool = False) -> None:
        """Install (tid, flat_reg) at ``slot`` (must be invalid)."""
        if self.valid[slot]:
            raise ValueError(f"inserting into occupied slot {slot}")
        if self.lookup(tid, flat_reg) is not None:
            raise ValueError(f"duplicate mapping for thread {tid} reg {flat_reg}")
        policy = self.policy
        if tid in policy.suspended_at:
            policy.written_at[slot] = policy.switches   # T = 0 from here
        self.valid[slot] = True
        self.owner[slot] = tid
        self.areg[slot] = flat_reg
        self.dirty[slot] = dirty
        self.fill_ready[slot] = fill_ready
        self.row(tid)[flat_reg] = slot
        self.resident += 1
        policy.on_insert(slot)

    def valid_slots(self) -> List[int]:
        """Indices of currently-valid physical slots (fault-injection sites)."""
        return [slot for slot, valid in enumerate(self.valid) if valid]

    def refresh_fill(self, slot: int, ready: int) -> None:
        """Push ``slot``'s fill-ready cycle forward (refill-from-backing
        recovery: the resident value is being re-fetched in place, so the
        mapping survives but reads must wait for the clean copy)."""
        if not self.valid[slot]:
            raise ValueError(f"refreshing invalid slot {slot}")
        self.fill_ready[slot] = max(self.fill_ready[slot], ready)

    def next_fill_done(self, now: int) -> Optional[int]:
        """Earliest cycle after ``now`` at which an in-flight fill settles
        (None when no resident register is still filling)."""
        return min((ready for valid, ready in zip(self.valid, self.fill_ready)
                    if valid and ready > now), default=None)

    # -- state updates ----------------------------------------------------------
    def touch(self, slot: int, is_write: bool) -> None:
        """Record a decode-stage access to a resident register."""
        if is_write:
            self.dirty[slot] = True
        policy = self.policy
        if self.owner[slot] in policy.suspended_at:
            policy.written_at[slot] = policy.switches   # T = 0 from here
        policy.on_access(slot)

    def on_instruction(self) -> None:
        self.policy.on_instruction()

    def on_context_switch(self, prev_tid: int, new_tid: int) -> None:
        self.policy.on_context_switch(self.owner, prev_tid, new_tid)

    # -- invariants (used by property tests and VSan) ---------------------------
    def bijection_violation(self, cycle: int = -1, core_id: int = -1):
        """The first disagreement of the CAM rows and the slot tags as a
        ``tagstore.bijection`` SanitizerViolation, or None."""
        from ..errors import SanitizerViolation

        def violation(message: str, **details) -> SanitizerViolation:
            return SanitizerViolation(message, invariant="tagstore.bijection",
                                      cycle=cycle, core_id=core_id,
                                      details=details)

        mapped = 0
        for tid, areg, slot in self.mappings():
            mapped += 1
            if not 0 <= slot < self.capacity:
                return violation(f"mapping ({tid}, {areg}) points at slot "
                                 f"{slot} outside capacity {self.capacity}",
                                 tid=tid, areg=areg, slot=slot)
            if not self.valid[slot]:
                return violation(f"mapping ({tid}, {areg}) points at invalid "
                                 f"slot {slot} (dangling)",
                                 tid=tid, areg=areg, slot=slot)
            # a slot carries one tag, so two row cells naming the same slot
            # cannot both pass this
            if self.owner[slot] != tid or self.areg[slot] != areg:
                return violation(f"slot {slot} tags ({self.owner[slot]}, "
                                 f"{self.areg[slot]}) disagree with row entry "
                                 f"({tid}, {areg})",
                                 tid=tid, areg=areg, slot=slot)
        valid = sum(self.valid)
        if mapped != valid:
            return violation(f"{mapped} mapped registers but {valid} valid "
                             f"slots", mapped=mapped, valid=valid)
        if mapped != self.resident:
            return violation(f"resident count drifted: {self.resident} "
                             f"stored, {mapped} row entries",
                             mapped=mapped, resident=self.resident)
        return None

    def check_invariants(self) -> None:
        """Raise the :meth:`bijection_violation` (an AssertionError), if any."""
        violation = self.bijection_violation()
        if violation is not None:
            raise violation
