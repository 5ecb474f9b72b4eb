"""Test-only reference model of the per-instruction step: the oracle the
generated step table is held byte-identical to.

``TimelineCore._reference_step``, ``FGMTCore._reference_step`` and
``FGMTCore._operand_ready``, verbatim from the commit before the generated
table (``repro/isa/compiled.py``) became the only step engine: each pipeline
family's timing rules as one interpreted body that evaluates the
instruction with ``instructions.evaluate`` and dispatches the fault hook and
the :class:`~repro.core.instrument.Observer` events itself.  The functions
take the core as ``self`` so the bodies are unchanged, apart from
``Observer.on_commit`` no longer being handed the ``ExecResult`` and a
load's slot being ``heappush``-ed (``load_slots`` is a min-heap); nothing
here is imported by ``src/``.

:func:`bind_steps` records every core built inside a ``with`` block and,
asked for the reference, binds these bodies on each of them — through
every later instrument attach, ``shared`` mark and task-pool wrapper — so
one ``run_config`` call runs on the oracle.
"""

from __future__ import annotations

import types
from contextlib import contextmanager
from heapq import heappush
from typing import Iterator, List

from repro.core.base import ThreadContext, TimelineCore
from repro.core.fgmt import FGMTCore
from repro.isa.decoded import DecodedOp
from repro.isa.instructions import MASK64, evaluate
from repro.isa.registers import RegClass
from repro.memory.cache import CacheBusy


def timeline_step(self, thread: ThreadContext) -> None:
    """One instruction through the pipeline: the fault hook at fetch,
    the observer events where they happen, ``on_commit`` once."""
    fault_hook = self._fault_hook
    observers = self._observers

    d = self._dops[thread.pc]
    inst = d.inst
    config = self.config
    stats = self.stats

    # fetch
    fetch_avail = self.fetch_avail
    decode_free = self.decode_free
    t_d = fetch_avail if fetch_avail > decode_free else decode_free
    icache_missed = False
    if d.line != self._last_fetch_line:
        self._last_fetch_line = d.line
        icache = self.icache
        t_fetch = max(0, t_d - icache.config.latency)
        while True:   # a refused fetch is re-presented when it can be taken
            try:
                fetched, ic_hit, _ = icache.access(t_fetch, d.addr,
                                                   requestor=self.core_id)
                break
            except CacheBusy as busy:
                t_fetch = busy.retry_at
        if not ic_hit:
            stats.inc("icache_miss_stalls")
            icache_missed = True
        if fetched > t_d:
            t_d = fetched
    if fault_hook is not None:
        t_d = fault_hook.on_instruction(thread, inst, t_d)

    # decode: operand scoreboard + register-residency hook (VRMU)
    scoreboard = self.scoreboard
    t_ops = t_d
    for flat in d.src_flats:
        w = scoreboard.get(flat, 0)
        if w > t_ops:
            t_ops = w
    if d.reads_flags and self.flags_ready > t_ops:
        t_ops = self.flags_ready
    t_regs = (self.decode_regs_ready(thread, d, t_d)
              if self._has_reg_hook else t_d)
    t_issue = max(t_d + 1, t_ops, t_regs)
    self.decode_free = t_issue
    self.fetch_avail = max(fetch_avail + 1, t_d + 1)

    # execute
    ex_free = self.ex_free
    t_ex_start = t_issue if t_issue > ex_free else ex_free
    t_ex_done = t_ex_start + d.ex_latency
    self.ex_free = t_ex_done

    xregs = thread.xregs
    dregs = thread.dregs
    srcvals = {}
    for reg, is_x, idx in d.src_reads:
        srcvals[reg] = xregs[idx] if is_x else dregs[idx]
    result = evaluate(inst, srcvals, thread.flags, thread.pc)

    data_at = t_ex_done
    load_missed = False
    if d.is_load:
        t_m = self._load_slot_wait(t_ex_done)
        t_issue_mem, data_at, hit, switch = self.dcache_request(
            t_m, result.addr, is_load_data=True)
        if (config.switch_on_miss and switch
                and len(self.threads) > 1):
            if self._handle_miss_switch(thread, t_issue_mem, data_at):
                return  # thread suspended; load replays on resume
            # switch suppressed (no commits since last switch): stall here
            stats.inc("switches_suppressed")
            for observer in observers:
                observer.on_stall(thread.tid, t_issue_mem, data_at,
                                  "suppressed-switch")
        heappush(self.load_slots, data_at)
        if not hit:
            stats.inc("load_miss_stalls")
            load_missed = True
    elif d.is_store:
        data_at = self._sq_insert(t_ex_done, result.addr)
        self.memory.store(result.addr, result.store_value)

    # commit (in-order, one per cycle)
    t_c = self.commit_tail + 1
    if data_at > t_c:
        t_c = data_at
    self.commit_tail = t_c
    self.commits_since_switch += 1
    thread.fruitless = 0
    if not result.halt:
        thread.instructions += 1
    self.now = t_c

    # architectural update at commit
    writes = result.writes
    if writes:
        for reg, value in writes.items():
            if reg.rclass is RegClass.X:
                xregs[reg.index] = int(value) & MASK64
            else:
                dregs[reg.index] = float(value)
            scoreboard[reg.flat] = t_ex_done
    if d.is_load:
        rd = d.rd
        value = self.memory.load(result.addr)
        if rd.rclass is RegClass.X:
            xregs[rd.index] = int(value) & MASK64
        else:
            dregs[rd.index] = float(value)
        scoreboard[rd.flat] = data_at
    if result.new_flags is not None:
        thread.flags = result.new_flags
        self.flags_ready = t_ex_done
    if self._has_commit_hook:
        self.on_commit(thread, d, t_c)
    # the one commit point: observers see exactly the committed state,
    # with the instruction's own pc
    for observer in observers:
        observer.on_commit(thread, d, t_d, t_ops, t_regs, t_issue,
                           t_ex_done, data_at, t_c, icache_missed,
                           load_missed)

    if result.halt:
        self._halt_thread(thread)
        for observer in observers:
            observer.on_thread_done(thread.tid, t_c)
        return
    thread.pc = result.target if result.taken else thread.pc + 1
    if result.taken:
        self.fetch_avail = t_ex_done + 1 + config.redirect_penalty
        stats.inc("taken_branches")


def _operand_ready(self, thread: ThreadContext, d: DecodedOp) -> int:
    """Cycle the operands (and flags, if read) of ``d`` are written."""
    board = self._boards[thread.tid]
    t = 0
    for flat in d.src_flats:
        w = board.get(flat, 0)
        if w > t:
            t = w
    if d.reads_flags:
        fr = self._flags_ready[thread.tid]
        if fr > t:
            t = fr
    return t


def barrel_step(self, thread: ThreadContext) -> None:
    """The barrel pipeline's one interpreted body (the counterpart of
    :func:`timeline_step`, same roles): issue, execute, mem, commit, then
    the successor's operand-ready peek."""
    dops = self._dops
    d = dops[thread.pc]
    inst = d.inst
    tid = thread.tid
    board = self._boards[tid]
    stats = self.stats
    issue_ready = self._issue_ready
    fault_hook = self._fault_hook
    observers = self._observers
    if fault_hook is not None:
        issue_ready[tid] = fault_hook.on_instruction(
            thread, inst, issue_ready[tid])

    # issue slot: one instruction per cycle shared by all threads
    t_ops = _operand_ready(self, thread, d)
    t_issue = max(t_ops, self.decode_free + 1, issue_ready[tid])
    self.decode_free = t_issue

    ex_free = self.ex_free
    t_ex_start = t_issue if t_issue > ex_free else ex_free
    t_ex_done = t_ex_start + d.ex_latency
    self.ex_free = t_ex_done

    xregs = thread.xregs
    dregs = thread.dregs
    srcvals = {}
    for reg, is_x, idx in d.src_reads:
        srcvals[reg] = xregs[idx] if is_x else dregs[idx]
    result = evaluate(inst, srcvals, thread.flags, thread.pc)

    data_at = t_ex_done
    load_missed = False
    if d.is_load:
        t_m = self._load_slot_wait(t_ex_done)
        _, data_at, hit, _ = self.dcache_request(t_m, result.addr,
                                                 is_load_data=True)
        if not hit:
            stats.inc("load_miss_stalls")
            load_missed = True
    elif d.is_store:
        data_at = self._sq_insert(t_ex_done, result.addr)
        self.memory.store(result.addr, result.store_value)

    t_c = max(self.commit_tail + 1, data_at)
    self.commit_tail = t_c
    if not result.halt:
        thread.instructions += 1
    self.now = min(issue_ready.values())

    for reg, value in result.writes.items():
        thread.write(reg, value)
        board[reg.flat] = t_ex_done
    if d.is_load:
        thread.write(d.rd, self.memory.load(result.addr))
        board[d.rd.flat] = data_at
    if result.new_flags is not None:
        thread.flags = result.new_flags
        self._flags_ready[tid] = t_ex_done

    # the one commit point, as in timeline_step.  The barrel has no decode
    # stage: an op is "in decode" the cycle before it issues, and its
    # operands and registers are ready at issue
    for observer in observers:
        observer.on_commit(thread, d, t_issue - 1, t_issue, t_issue,
                           t_issue, t_ex_done, data_at, t_c, False,
                           load_missed)

    if result.halt:
        # the inherited bookkeeping; ``current`` is never set here
        self._halt_thread(thread)
        for observer in observers:
            observer.on_thread_done(tid, t_c)
        return
    thread.pc = result.target if result.taken else thread.pc + 1
    # peek the next instruction's operand readiness so the scheduler
    # lets other threads run while this one waits on a load
    t_next = max(t_issue + 1, _operand_ready(self, thread, dops[thread.pc]))
    if result.taken and t_ex_done + self.config.redirect_penalty > t_next:
        # barrel cores still pay the fetch redirect for taken branches
        t_next = t_ex_done + self.config.redirect_penalty
    issue_ready[tid] = t_next


# engine bodies: a later recompile may rebind over them (never over an
# external wrapper such as the task pool's)
timeline_step._engine_step = True
barrel_step._engine_step = True


def reference_step_of(core: TimelineCore):
    """The interpreted body of ``core``'s pipeline family."""
    return barrel_step if isinstance(core, FGMTCore) else timeline_step


@contextmanager
def bind_steps(reference: bool) -> Iterator[List[TimelineCore]]:
    """Record every core built inside the block (yielded as a list); with
    ``reference``, bind each one's interpreted body in place of the
    generated table, after every ``_recompile_step`` as well."""
    recompile = TimelineCore._recompile_step
    cores: List[TimelineCore] = []

    def recompile_and_record(core: TimelineCore) -> None:
        recompile(core)
        if core not in cores:
            cores.append(core)
        if reference:
            impl = core._step_impl = types.MethodType(
                reference_step_of(core), core)
            current = core.__dict__.get("_process_instruction")
            if getattr(current, "_engine_step", False):
                core._process_instruction = impl

    TimelineCore._recompile_step = recompile_and_record
    try:
        yield cores
    finally:
        TimelineCore._recompile_step = recompile
