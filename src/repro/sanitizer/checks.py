"""Structural invariant checks over the VRMU / BSI / CSL state.

Each function inspects one structure family and returns the first
:class:`~repro.errors.SanitizerViolation` found (or ``None``), so the
:class:`~repro.sanitizer.Sanitizer` can compose them at any granularity.
All checks are read-only.

Invariant taxonomy (ids appear in the raised violation and in
``docs/correctness.md``):

``tagstore.bijection``
    The CAM rows (thread, arch-reg) -> physical slot and the per-slot tag
    lists must describe the same bijection: no dangling row entries, no
    duplicate slots, tags matching the rows, and the valid count and the
    stored resident count both equal to the number of row entries.
``policy.word``
    LRC/MRT priority-word well-formedness: T in [0, 7], C in {0, 1}, A in
    [0, 7], D in {0, 1} on every valid slot (3/1/3-bit hardware fields,
    Section 5.1), and no stored bit but C and D (the age and T are
    derived on read).
``policy.order``
    Eviction-order consistency: the victim the tag store's search selects
    over the currently evictable slots must carry the maximum eviction
    priority and be the lowest such slot.
``rollback.depth`` / ``rollback.slots``
    The rollback queue never exceeds its depth and only references
    physical slots that exist.
``bsi.bookkeeping``
    BSI/CSL bookkeeping: the busy-until horizon and sysreg ping-pong
    buffer entries must be sane (non-negative cycles, known thread ids).
``backing.bounds``
    The reserved dcache backing region exactly covers the context layout,
    and every architectural register of every thread maps inside it
    (spills can never escape the pinned region).
"""

from __future__ import annotations

from typing import Optional

from ..errors import SanitizerViolation
from ..virec.policies import A_MAX, T_MASK, T_MAX, WORD_MAX


def _v(invariant: str, message: str, cycle: int, core_id: int,
       **details: object) -> SanitizerViolation:
    return SanitizerViolation(message, invariant=invariant, cycle=cycle,
                              core_id=core_id, details=details)


def check_tagstore(core, cycle: int) -> Optional[SanitizerViolation]:
    """Tag-store <-> physical-RF bijection (no duplicates, no danglers;
    see :meth:`~repro.virec.tagstore.TagStore.bijection_violation`)."""
    vrmu = getattr(core, "vrmu", None)
    if vrmu is None:
        return None
    return vrmu.tagstore.bijection_violation(cycle, core.core_id)


def check_policy(core, cycle: int) -> Optional[SanitizerViolation]:
    """Priority-word well-formedness + eviction-order consistency."""
    vrmu = getattr(core, "vrmu", None)
    if vrmu is None:
        return None
    ts = vrmu.tagstore
    pol = ts.policy
    cid = core.core_id
    for slot in ts.valid_slots():
        word, age = pol.word[slot], pol.age(slot)
        if not (not word & ~WORD_MAX and 0 <= pol.t_bits(slot) <= T_MASK
                and 0 <= age <= A_MAX):
            fields = {k: v for k, v in pol.describe(slot).items()
                      if k != "prio"}
            return _v("policy.word",
                      f"slot {slot} priority word {word:#x} out of range: "
                      + " ".join(f"{k}={v}" for k, v in fields.items())
                      + f" (need the stored word within {WORD_MAX:#x}: "
                      f"1-bit C, 1-bit D; 0 <= T <= {T_MAX}; and "
                      f"0 <= A <= {A_MAX})",
                      cycle, cid, slot=slot, **fields)
    # eviction-order consistency: the slot the tag store's search — the
    # one production runs, bounds and early exit included — would evict
    # right now must be the first maximum of ``priority`` over the
    # evictable candidates.  The search mutates nothing for a ranking
    # policy (one that declares ``priority_fields``); SRRIP ages entries
    # and random replacement draws from its PRNG inside their own
    # select_victim, so probing them here would perturb future victim
    # choices.
    if pol.priority_fields is None:
        return None
    now = getattr(core, "now", cycle)
    candidates = [slot for slot in ts.valid_slots()
                  if ts.fill_ready[slot] <= now]
    expected = max(candidates, key=pol.priority, default=None)
    victim = ts.select_victim([], now)
    if victim != expected:
        found, best = (None if slot is None else pol.priority(slot)
                       for slot in (victim, expected))
        return _v("policy.order",
                  f"the victim search picked slot {victim} (priority "
                  f"{found}) but the first evictable slot of maximum "
                  f"priority is {expected} (priority {best})", cycle, cid,
                  victim=victim, victim_priority=found,
                  expected=expected, max_priority=best)
    return None


def check_rollback(core, cycle: int) -> Optional[SanitizerViolation]:
    """Rollback-queue depth bound + slot-range consistency."""
    vrmu = getattr(core, "vrmu", None)
    if vrmu is None:
        return None
    rb = vrmu.rollback
    cid = core.core_id
    if len(rb) > rb.depth:
        return _v("rollback.depth",
                  f"rollback queue holds {len(rb)} entries but depth is "
                  f"{rb.depth}", cycle, cid, entries=len(rb), depth=rb.depth)
    capacity = vrmu.tagstore.capacity
    for slots, _is_mem in rb._queue:
        for slot in slots:
            if not 0 <= slot < capacity:
                return _v("rollback.slots",
                          f"rollback entry references slot {slot} outside "
                          f"capacity {capacity}", cycle, cid,
                          slot=slot, capacity=capacity)
    return None


def check_bsi(core, cycle: int) -> Optional[SanitizerViolation]:
    """CSL/BSI bookkeeping: busy horizon and sysreg buffer sanity."""
    bsi = getattr(core, "bsi", None)
    cid = core.core_id
    if bsi is not None and bsi.busy_until < 0:
        return _v("bsi.bookkeeping",
                  f"BSI busy_until is negative ({bsi.busy_until})",
                  cycle, cid, busy_until=bsi.busy_until)
    sysregs = getattr(core, "sysregs", None)
    if sysregs is not None:
        valid_tids = {th.tid for th in core.threads}
        for tid, ready in sysregs._ready.items():
            if tid not in valid_tids:
                return _v("bsi.bookkeeping",
                          f"sysreg buffer prefetched unknown thread {tid}",
                          cycle, cid, tid=tid)
            if ready < 0:
                return _v("bsi.bookkeeping",
                          f"sysreg prefetch for thread {tid} completes at "
                          f"negative cycle {ready}", cycle, cid,
                          tid=tid, ready=ready)
    return None


def check_backing_bounds(core, cycle: int) -> Optional[SanitizerViolation]:
    """Pinned backing-region bounds: register traffic cannot escape it."""
    layout = getattr(core, "layout", None)
    if layout is None or getattr(core, "bsi", None) is None:
        return None
    cid = core.core_id
    lo, hi = layout.region(len(core.threads))
    region = getattr(core.dcache, "register_region", None)
    if region is None:
        return _v("backing.bounds",
                  "core has a BSI but the dcache has no reserved register "
                  "region", cycle, cid)
    if tuple(region) != (lo, hi):
        return _v("backing.bounds",
                  f"dcache register region {tuple(region)} disagrees with "
                  f"the context layout region ({lo}, {hi})", cycle, cid,
                  dcache_region=tuple(region), layout_region=(lo, hi))
    for th in core.threads:
        for flat in layout.used_regs:
            addr = layout.reg_addr(th.tid, flat)
            if not lo <= addr < hi:
                return _v("backing.bounds",
                          f"register {flat} of thread {th.tid} maps to "
                          f"0x{addr:x} outside the pinned region "
                          f"[0x{lo:x}, 0x{hi:x})", cycle, cid,
                          tid=th.tid, flat=flat, addr=addr)
        sysaddr = layout.sysreg_addr(th.tid)
        if not lo <= sysaddr < hi:
            return _v("backing.bounds",
                      f"sysreg line of thread {th.tid} maps to "
                      f"0x{sysaddr:x} outside the pinned region",
                      cycle, cid, tid=th.tid, addr=sysaddr)
    return None


STRUCTURE_CHECKS = (check_tagstore, check_policy, check_rollback, check_bsi)
