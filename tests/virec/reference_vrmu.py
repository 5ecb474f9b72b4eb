"""Test-only reference model of the VRMU's decode-stage and flush paths.

``VRMU.access`` (hit loop, then per miss: ``free_slot()`` /
``select_victim()`` / ``_victim_dead()`` / ``evict()`` / fill /
``insert()`` / ``_spill_victim()``), ``_group_evict``, ``prefetch_context``,
``on_commit``, ``on_flush`` and ``on_context_switch``, verbatim from the
commit before the miss half was flattened into one body: every tag-store
read and update goes through the public
:class:`~repro.virec.tagstore.TagStore` methods and every policy event
through a policy method, and the run-segment register sets are recorded
whether or not anything reads them.  The event calls are the observer
bus's (``sinks`` / ``hit_sinks``), which replaced the old probe's calls
one for one.  ``test_reference_vrmu.py`` drives this and the production VRMU
with the same random instruction streams.  Nothing here is imported by
``src/``.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.isa.decoded import DecodedOp
from repro.isa.instructions import Instruction
from repro.virec.vrmu import ACCESSES, HITS, MISSES, SPILL_EVICTIONS, VRMU


class ReferenceVRMU(VRMU):
    """The production constructor and state, the previous method bodies."""

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
        policy.on_instruction()
        # the tag store's touch(), inlined
        slot_of, on_access = ts.lookup, policy.on_access
        dirty, fill_ready = ts.dirty, ts.fill_ready
        fault_hook, sinks = self.fault_hook, self.sinks
        segment = self.segment_regs.get(tid)
        if segment is None:
            segment = self.segment_regs[tid] = set()

        ready = t
        inst_slots: List[int] = []
        missing = []
        for operand in plan:
            reg, flat, is_dest, is_src = operand
            segment.add(flat)
            slot = slot_of(tid, flat)
            if slot is not None:
                if is_dest:
                    dirty[slot] = True
                on_access(slot)
                if fault_hook is not None:
                    ready = max(ready, fault_hook.on_slot_read(
                        tid, reg, slot, t, is_read=is_src))
                if fill_ready[slot] > ready:
                    ready = fill_ready[slot]
                inst_slots.append(slot)
                for sink in self.hit_sinks:
                    sink.on_reg_hit(tid, flat, t)
            else:
                missing.append(operand)
                for sink in sinks:
                    sink.on_reg_miss(tid, flat, t)
        pending = self._pending
        pending[ACCESSES] += len(plan)
        pending[HITS] += len(inst_slots)
        pending[MISSES] += len(missing)

        t_fill = t
        for reg, flat, is_dest, is_src in missing:
            victim_info = None
            victim_dead = False
            slot = ts.free_slot()
            if slot is None:
                victim = ts.select_victim(inst_slots, t_fill)
                if victim is not None and self.group_evict > 1:
                    self._group_evict(victim, inst_slots, t_fill)
                while victim is None:
                    # every candidate is an in-flight fill: wait for the
                    # earliest one to settle, then retry
                    settled = ts.next_fill_done(t_fill)
                    t_fill = settled if settled is not None else t_fill + 1
                    self.stats.inc("victim_wait_cycles")
                    victim = ts.select_victim(inst_slots, t_fill)
                cause = "capacity" if ts.owner[victim] == tid else "thread"
                for sink in sinks:
                    sink.on_reg_evict(victim, tid, cause, t_fill)
                # D is cleared when the slot is re-inserted below, so the
                # victim's deadness must be captured before the insert
                victim_dead = self._victim_dead(victim)
                victim_info = ts.evict(victim)
                slot = victim
                pending[SPILL_EVICTIONS] += 1
            if is_src:
                done = bsi.fill(t_fill, tid, flat)
                ready = max(ready, done)
                ts.insert(slot, tid, flat, t_fill, fill_ready=done,
                          dirty=is_dest)
            else:
                done = bsi.dummy_fill(t_fill, tid, flat)
                ts.insert(slot, tid, flat, t_fill, fill_ready=done, dirty=True)
            for sink in sinks:
                sink.on_reg_fill(tid, flat, t_fill, done, not is_src)
                sink.on_reg_insert(slot, tid, flat, t_fill)
            inst_slots.append(slot)
            # spill after the fill was issued: fills have port priority
            if victim_info is not None:
                vtid, vreg, vdirty = victim_info
                self._spill_victim(t_fill, victim_dead, vtid, vreg, vdirty)

        self.rollback.push(inst_slots, inst.is_mem)
        self.last_spill_wait = bsi.fill_spill_wait
        return ready

    # -- dead-hint plumbing (inert unless a dead-* policy is selected) -------
    def _victim_dead(self, victim: int) -> bool:
        """Whether the chosen victim carries a dead-on-commit hint."""
        if not self.dead_hints:
            return False
        return self.tagstore.policy.is_dead(victim)

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
            dead = self._victim_dead(nxt)
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
                dead = self._victim_dead(victim)
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
        self.rollback.pop_commit()
        if not self.dead_hints or op is None or tid is None:
            return
        kills = getattr(op, "kill_flats", None)
        if not kills:
            return
        ts = self.tagstore
        marked = 0
        for flat in kills:
            slot = ts.lookup(tid, flat)
            if slot is not None:
                ts.policy.mark_dead(slot)
                marked += 1
        if marked:
            self.stats.inc("dead_marks", marked)

    def on_flush(self, tid: int,
                 flushed_insts: List[Union[Instruction, DecodedOp]]) -> None:
        """Context switch flush: reset C bits of in-flight registers.

        ``flushed_insts`` is the missing load plus the younger instructions
        already in the frontend; the youngsters' resident registers were
        accessed by decode just before the switch, so they are marked
        recently-used and in-flight (C=0) — the retention effect of
        Section 4.2.  (Fills for non-resident youngster registers are
        squashed with the flush and not modelled.)
        """
        ts = self.tagstore
        policy = ts.policy
        slots = self.rollback.flush()
        for inst in flushed_insts:
            for _reg, flat, _is_dest, _is_src in inst.plan:
                slot = ts.lookup(tid, flat)
                if slot is not None:
                    policy.reset_age(slot)
                    slots.add(slot)
        policy.on_flush(slots)
        self.stats.inc("flush_resets", len(slots))

    def on_context_switch(self, prev_tid: int, new_tid: int) -> None:
        self.tagstore.on_context_switch(prev_tid, new_tid)
