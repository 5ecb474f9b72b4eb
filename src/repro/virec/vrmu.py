"""Virtual Register Management Unit (Section 5.1).

The VRMU sits in the decode stage.  For each instruction it looks up every
architectural register in the tag store; misses trigger victim selection
(via the replacement policy), a posted spill of the victim, and either a
latency-critical fill (source operands) or a dummy fill (destination-only
operands).  The instruction may enter the backend only when all its source
registers are resident — the front-end stall of Figure 4 (A)->(B).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from ..isa.decoded import DecodedOp
from ..isa.instructions import Instruction
from ..stats.counters import Stats
from .bsi import BackingStoreInterface
from .policies import C_BIT, ReplacementPolicy
from .rollback import RollbackQueue
from .tagstore import TagStore


#: cells of the VRMU's :meth:`Stats.batch`, in the order ``__init__``
#: names the keys
ACCESSES, HITS, MISSES, SPILL_EVICTIONS = range(4)


def writes_word(policy: ReplacementPolicy) -> bool:
    """The touch rule: whether ``policy`` leaves the per-operand hooks as
    the base class wrote them, so that its priority word may be written in
    place instead of calling them.  Keyed on the overrides themselves, the
    test ``TimelineCore`` uses for its hooks, so a subclass cannot be
    mistaken for its parent."""
    return all(getattr(type(policy), hook) is getattr(ReplacementPolicy, hook)
               for hook in ("on_instruction", "on_access", "on_insert",
                            "reset_age", "on_flush"))


class CapacityError(ValueError):
    """Register file too small to hold one instruction's operands."""


class VRMU:
    """Decode-stage register virtualization engine."""

    #: most registers one instruction can name (madd: 4) plus slack for
    #: in-flight fills of the neighbouring instructions
    MIN_CAPACITY = 6

    def __init__(self, capacity: int, policy: ReplacementPolicy,
                 bsi: BackingStoreInterface,
                 group_evict: int = 1,
                 stats: Optional[Stats] = None) -> None:
        if capacity < self.MIN_CAPACITY:
            raise CapacityError(
                f"register cache needs >= {self.MIN_CAPACITY} entries, got {capacity}")
        if group_evict < 1:
            raise ValueError("group_evict must be >= 1")
        self.stats = stats if stats is not None else Stats("vrmu")
        #: per-operand and per-miss pending counts (see :meth:`Stats.batch`)
        self._pending = self.stats.batch(
            "accesses", "hits", "misses", "spill_evictions")
        self.tagstore = TagStore(capacity, policy, self.stats.child("tagstore"))
        self.rollback = RollbackQueue(stats=self.stats.child("rollback"))
        self.bsi = bsi
        #: the touch rule (:func:`writes_word`): a policy that leaves the
        #: per-operand hooks as the base class wrote them has its priority
        #: word written in place — here, and for an all-resident op in the
        #: ViReC core's generated step (``repro.isa.compiled``) — the
        #: bodies copied beside each use; a policy that overrides any of
        #: them is called for every operand
        self._writes_word = writes_word(policy)
        #: whether the policy consumes dead-on-commit hints; gates every
        #: hint-path branch so non-hint policies take byte-identical paths
        self.dead_hints: bool = policy.uses_dead_hints
        #: whether spills of dead victims are elided entirely
        self.elide_dead: bool = policy.elides_dead_writebacks
        #: >1 enables group evictions (the paper's future-work item): when a
        #: victim is needed, up to this many same-owner registers are spilled
        #: together, pre-freeing slots for the following misses.
        self.group_evict = group_evict
        #: registers each thread referenced during its latest run segment,
        #: recorded only while ``record_segments`` is set — the core sets it
        #: when something will read them (the optional next-context
        #: prefetch, see ViReCConfig), and then calls :meth:`access` for
        #: every op
        self.segment_regs: dict = {}
        self.record_segments = False
        #: fill-issue cycles the latest :meth:`access` lost to spill port
        #: occupancy (read by the core's profile hook, never fed back into
        #: timing; a generated all-hit step leaves it as the latest call
        #: set it, and the profile hook runs only on the observed step,
        #: which calls :meth:`access` for every op)
        self.last_spill_wait = 0
        #: optional :class:`~repro.faults.FaultInjector` probing physical
        #: register-file slots on every decode-stage read (strictly opt-in;
        #: the owning core's ``fault_hook`` setter hands it over, and the
        #: core then calls :meth:`access` for every op)
        self.fault_hook = None
        #: the observers of the register-cache traffic
        #: (:data:`~repro.core.instrument.REG_EVENTS`) and, on a tuple of
        #: its own, of the per-operand hit: handed over by the owning
        #: core's ``observers`` setter (which then calls :meth:`access`
        #: for every op); purely observational
        self.sinks = ()
        self.hit_sinks = ()

    # -- decode-stage access ------------------------------------------------
    def access(self, tid: int, inst: Union[Instruction, DecodedOp],
               t: int) -> int:
        """Process one instruction's register lookups at decode time ``t``.

        Walks the operand access plan: a stored tuple on the
        :class:`DecodedOp` the engine passes, derived on the spot for a bare
        :class:`Instruction`.  Returns the cycle at which all operands are
        resident and readable.
        """
        plan = inst.plan
        self.last_spill_wait = 0
        if not plan:
            return t
        bsi = self.bsi
        bsi.fill_spill_wait = 0
        ts = self.tagstore
        policy = ts.policy
        # the tag store's lookup() and touch() and the base policy's
        # on_instruction() and on_access(), inlined: this loop runs once per
        # register operand of every simulated instruction
        writes_word = self._writes_word
        if writes_word:
            clock = policy._clock = policy._clock + 1
            word, zeroed_at, stamp = (policy.word, policy.zeroed_at,
                                      policy.stamp)
        else:
            policy.on_instruction()
            on_access = policy.on_access
        try:
            row = ts.rows[tid]
        except IndexError:
            row = ts.row(tid)   # the thread's first access
        dirty, fill_ready = ts.dirty, ts.fill_ready
        fault_hook, sinks, hit_sinks = (self.fault_hook, self.sinks,
                                        self.hit_sinks)
        if self.record_segments:
            self.segment_regs.setdefault(tid, set()).update(
                [operand[1] for operand in plan])

        ready = t
        inst_slots: List[int] = []
        missing = []
        for operand in plan:
            reg, flat, is_dest, is_src = operand
            slot = row[flat]
            if slot >= 0:
                if is_dest:
                    dirty[slot] = True
                if writes_word:
                    word[slot] = C_BIT
                    zeroed_at[slot] = stamp[slot] = clock
                else:
                    on_access(slot)
                if fault_hook is not None:
                    ready = max(ready, fault_hook.on_slot_read(
                        tid, reg, slot, t, is_read=is_src))
                if fill_ready[slot] > ready:
                    ready = fill_ready[slot]
                inst_slots.append(slot)
                if hit_sinks:
                    for sink in hit_sinks:
                        sink.on_reg_hit(tid, flat, t)
            else:
                missing.append(operand)
                if sinks:
                    for sink in sinks:
                        sink.on_reg_miss(tid, flat, t)
        pending = self._pending
        pending[ACCESSES] += len(plan)
        pending[HITS] += len(inst_slots)

        if missing:
            # the tag store's free_slot(), evict() and insert(), inlined: a
            # victim's slot is refilled at once, so its cells go from the
            # victim's values straight to the new register's
            pending[MISSES] += len(missing)
            valid, owner, areg = ts.valid, ts.owner, ts.areg
            rows, evictions = ts.rows, ts._pending
            capacity = ts.capacity
            t_fill = t
            for reg, flat, is_dest, is_src in missing:
                evicted = ts.resident == capacity
                if not evicted:
                    slot = valid.index(False)
                    valid[slot] = True
                    ts.resident += 1
                else:
                    slot = ts.select_victim(inst_slots, t_fill)
                    if slot is not None and self.group_evict > 1:
                        self._group_evict(slot, inst_slots, t_fill)
                    while slot is None:
                        # every candidate is an in-flight fill: wait for
                        # the earliest one to settle, then retry
                        settled = ts.next_fill_done(t_fill)
                        t_fill = settled if settled is not None else t_fill + 1
                        self.stats.inc("victim_wait_cycles")
                        slot = ts.select_victim(inst_slots, t_fill)
                    if sinks:
                        cause = "capacity" if owner[slot] == tid else "thread"
                        for sink in sinks:
                            sink.on_reg_evict(slot, tid, cause, t_fill)
                    # D is cleared by the insert below, so the victim's
                    # deadness is read first
                    victim_dead = self.dead_hints and policy.is_dead(slot)
                    vtid, vreg, vdirty = owner[slot], areg[slot], dirty[slot]
                    rows[vtid][vreg] = -1
                    evictions[0] += 1
                    pending[SPILL_EVICTIONS] += 1
                if is_src:
                    done = bsi.fill(t_fill, tid, flat)
                    if done > ready:
                        ready = done
                    dirty[slot] = is_dest
                else:
                    done = bsi.dummy_fill(t_fill, tid, flat)
                    dirty[slot] = True
                owner[slot] = tid
                areg[slot] = flat
                fill_ready[slot] = done
                row[flat] = slot
                if writes_word:
                    word[slot] = C_BIT
                    zeroed_at[slot] = stamp[slot] = clock
                else:
                    policy.on_insert(slot)
                if sinks:
                    for sink in sinks:
                        sink.on_reg_fill(tid, flat, t_fill, done, not is_src)
                        sink.on_reg_insert(slot, tid, flat, t_fill)
                inst_slots.append(slot)
                # spill after the fill was issued: fills have port priority
                if evicted:
                    if victim_dead:
                        self._spill_victim(t_fill, True, vtid, vreg, vdirty)
                    else:
                        bsi.spill(t_fill, vtid, vreg, vdirty)
                        if sinks:
                            for sink in sinks:
                                sink.on_reg_spill(vtid, vreg, vdirty, t_fill)

        if tid in policy.suspended_at:  # T = 0 (no search read these)
            for slot in inst_slots:
                policy.written_at[slot] = policy.switches
        rollback = self.rollback
        queue = rollback._queue
        if len(queue) >= rollback.depth:    # push(), inlined
            queue.popleft()
            rollback.stats.inc("overflow")
        queue.append((inst_slots, inst.is_mem))
        self.last_spill_wait = bsi.fill_spill_wait
        return ready

    # -- the cold eviction paths (group evictions, context prefetch) ---------
    def _spill_victim(self, t: int, dead: bool, vtid: int, vreg: int,
                      vdirty: bool) -> None:
        """Write back (or elide) one evicted register."""
        if dead:
            self.stats.inc("dead_evictions")
            if self.elide_dead:
                self.stats.inc("elided_writebacks")
                self.bsi.elide_spill(t, vtid, vreg)
                return
        self.bsi.spill(t, vtid, vreg, vdirty)
        for sink in self.sinks:
            sink.on_reg_spill(vtid, vreg, vdirty, t)

    def _group_evict(self, victim: int, inst_slots, t: int) -> None:
        """Spill up to ``group_evict - 1`` additional registers of the
        victim's owning thread, pre-freeing slots for the following misses
        (paper future work: 'improved replacement policies for group
        evictions')."""
        ts = self.tagstore
        victim_owner = ts.owner[victim]
        extra = 0
        while extra < self.group_evict - 1:
            # the owner tag is -1 on empty slots, so it implies validity
            nxt = ts.policy.select_victim(
                [slot for slot, owner in enumerate(ts.owner)
                 if owner == victim_owner and ts.fill_ready[slot] <= t
                 and slot != victim and slot not in inst_slots])
            if nxt is None:
                break
            for sink in self.sinks:
                sink.on_reg_evict(nxt, victim_owner, "group", t)
            dead = self.dead_hints and ts.policy.is_dead(nxt)
            vtid, vreg, vdirty = ts.evict(nxt)
            self._spill_victim(t, dead, vtid, vreg, vdirty)
            self.stats.inc("group_evictions")
            extra += 1

    def prefetch_context(self, tid: int, t: int) -> int:
        """Prefetch the registers ``tid`` used in its last run segment into
        the register cache (paper future work: 'combinations of prefetching
        with ViReC caching').  Returns the last fill completion cycle."""
        ts = self.tagstore
        done = t
        for flat in sorted(self.segment_regs.get(tid, ())):
            if ts.lookup(tid, flat) is not None:
                continue
            slot = ts.free_slot()
            if slot is None:
                victim = ts.select_victim([], t)
                if victim is None or ts.owner[victim] == tid:
                    break  # nothing worth displacing
                for sink in self.sinks:
                    sink.on_reg_evict(victim, tid, "prefetch", t)
                dead = self.dead_hints and ts.policy.is_dead(victim)
                vtid, vreg, vdirty = ts.evict(victim)
                self._spill_victim(t, dead, vtid, vreg, vdirty)
                slot = victim
            fill_done = self.bsi.fill(t, tid, flat)
            ts.insert(slot, tid, flat, t, fill_ready=fill_done)
            for sink in self.sinks:
                sink.on_reg_fill(tid, flat, t, fill_done)
                sink.on_reg_insert(slot, tid, flat, t)
            done = max(done, fill_done)
            self.stats.inc("context_prefetches")
        return done

    # -- backend signals --------------------------------------------------------
    def on_commit(self, tid: Optional[int] = None,
                  op: Optional[DecodedOp] = None) -> None:
        """Commit detection logic: pop the oldest rollback entry.

        With a dead-hint policy selected, the committing op's statically
        computed kill set (registers provably never read again before
        redefinition — see :mod:`repro.analysis.dataflow`) marks the
        matching resident entries dead.  Marking happens at *commit*, not
        decode, so flushed/replayed instructions never plant speculative
        hints; a flushed op's registers keep their normal metadata.
        """
        queue = self.rollback._queue
        if queue:
            queue.popleft()     # pop_commit(), without building the entry
        if not self.dead_hints or op is None or tid is None:
            return
        kills = getattr(op, "kill_flats", None)
        if not kills:
            return
        ts = self.tagstore
        try:
            row = ts.rows[tid]
        except IndexError:
            return              # nothing of this thread was ever resident
        marked = 0
        for flat in kills:
            slot = row[flat]
            if slot >= 0:
                ts.policy.mark_dead(slot)
                marked += 1
        if marked:
            self.stats.inc("dead_marks", marked)

    def on_flush(self, tid: int,
                 flushed_insts: Sequence[Union[Instruction, DecodedOp]],
                 flats: Optional[Sequence[int]] = None) -> None:
        """Context switch flush: reset C bits of in-flight registers.

        ``flushed_insts`` is the missing load plus the younger instructions
        already in the frontend; the youngsters' resident registers were
        accessed by decode just before the switch, so they are marked
        recently-used and in-flight (C=0) — the retention effect of
        Section 4.2.  (Fills for non-resident youngster registers are
        squashed with the flush and not modelled.)  The registers of the
        entries in the rollback queue lose C too.  ``flats`` is the
        distinct flat registers the window names (the core passes the
        tuple it built once per pc); derived from the plans when omitted.
        """
        ts = self.tagstore
        policy = ts.policy
        rollback = self.rollback
        queue = rollback._queue
        rollback._pending[0] += 1           # flush(), inlined
        try:
            row = ts.rows[tid]
        except IndexError:
            row = ts.row(tid)   # never accessed: nothing of it is resident
        if not self._writes_word:
            # a policy that overrides the hooks is called: one reset_age
            # per flushed operand, then on_flush with every distinct slot
            slots = set()
            for queued, _is_mem in queue:
                slots.update(queued)
            queue.clear()
            reset_age = policy.reset_age
            for inst in flushed_insts:
                for operand in inst.plan:
                    slot = row[operand[1]]
                    if slot >= 0:
                        reset_age(slot)
                        slots.add(slot)
            policy.on_flush(slots)
            self.stats.inc("flush_resets", len(slots))
            return
        # the tag store's lookup() and the base policy's reset_age() and
        # on_flush(), inlined under the touch rule of ``__init__``: one
        # pass over the window's distinct registers clears C and zeroes
        # the age.  C then marks what is left to count: every slot in the
        # rollback queue was written C=1 by the access that queued it, and
        # only a flush (which empties the queue) clears C, so a queued
        # slot still holding C is one the window did not name, met for
        # the first time
        if flats is None:
            flats = dict.fromkeys(operand[1] for inst in flushed_insts
                                  for operand in inst.plan)
        word, zeroed_at, clock = policy.word, policy.zeroed_at, policy._clock
        not_c = ~C_BIT
        resets = 0
        for flat in flats:
            slot = row[flat]
            if slot >= 0:
                word[slot] &= not_c
                zeroed_at[slot] = clock
                resets += 1
        for queued, _is_mem in queue:
            for slot in queued:
                w = word[slot]
                if w & C_BIT:
                    word[slot] = w ^ C_BIT
                    resets += 1
        queue.clear()
        self.stats.inc("flush_resets", resets)

    def on_context_switch(self, prev_tid: int, new_tid: int) -> None:
        ts = self.tagstore
        ts.policy.on_context_switch(ts.owner, prev_tid, new_tid)

    # -- reporting -----------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.stats["hits"] + self.stats["misses"]
        return self.stats["hits"] / total if total else 1.0
