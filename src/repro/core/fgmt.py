"""Fine-grain multithreaded (barrel) core — the Tera-style alternative [6].

Where CGMT switches threads only on dcache misses (flushing the pipeline),
a barrel core rotates among ready threads potentially every cycle with zero
switch cost, paying instead with a full register bank per thread (like the
banked CGMT design) and lower single-thread performance.  The paper's
related work cites this class of multithreading ([4, 6, 52]); implementing
it lets the evaluation compare ViReC against *both* classic MT styles.

Timeline formulation: each step processes one instruction from the thread
that can issue earliest (its operand-ready peek), so dependent instructions
of one thread interleave naturally with other threads' work and a load
miss never stalls the core while any other thread can issue.  Shared
resources (decode slot, EX pipe, dcache port, in-order-per-thread commit)
are the same timestamps the CGMT cores use.

**Fidelity caveat**: this model is *idealized* — it charges no
thread-select or per-thread fetch-buffer conflicts, so it upper-bounds what
barrel multithreading could achieve.  Its register storage is the full
banked file (one bank per thread), so on the Figure 1 axes it sits at the
banked design's area with better latency hiding; ViReC's area argument is
unaffected, which is presumably why the paper contrasts against CGMT
banking rather than FGMT.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..isa.compiled import EngineVariant
from ..isa.decoded import DecodedOp
from ..isa.instructions import evaluate
from ..memory.main_memory import LINE_BYTES
from .base import CoreConfig, ThreadContext, ThreadState, TimelineCore
from .cgmt import ContextLayout


class FGMTCore(TimelineCore):
    """Barrel processor: per-thread state, zero-cost rotation."""

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("config", CoreConfig(
            name="fgmt", switch_on_miss=False, max_outstanding_loads=8))
        super().__init__(*args, **kwargs)
        self.layout = self.layout or ContextLayout()
        if len(self.threads) > 8:
            raise ValueError("barrel core supports at most 8 register banks")
        #: per-thread writer scoreboards, keyed by flat register index
        self._boards: Dict[int, Dict[int, int]] = {
            th.tid: {} for th in self.threads}
        self._flags_ready: Dict[int, int] = {th.tid: 0 for th in self.threads}
        #: earliest cycle each thread could issue its next instruction
        self._issue_ready: Dict[int, int] = {th.tid: 0 for th in self.threads}

    # barrel rotation: no pipeline flush, no refill cost
    def _pick_barrel_thread(self) -> Optional[ThreadContext]:
        best, best_t = None, None
        for th in self.threads:
            if th.state == ThreadState.DONE:
                continue
            t = max(self._issue_ready[th.tid], th.ready_at)
            if best_t is None or t < best_t or (t == best_t and th.tid < best.tid):
                best, best_t = th, t
        return best

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

    def step(self):
        thread = self._pick_barrel_thread()
        if thread is None:
            return False
        if not thread.started:
            thread.started = True
            self._issue_ready[thread.tid] = self.thread_start_cost(
                thread, self._issue_ready[thread.tid])
        return self._process_instruction(thread) or True

    def _engine_variant(self) -> EngineVariant:
        # the barrel step uses none of the timeline subclass hooks, the
        # miss-switch path or chaining, so every FGMT core shares one
        # variant regardless of configuration
        return EngineVariant(family="barrel")

    # run() is inherited: the base watchdog loop drives the overridden
    # step(), and commit_tail advances per instruction here as well, so
    # both the instruction budget and the cycle watchdog apply unchanged.

    def thread_start_cost(self, thread: ThreadContext, t: int) -> int:
        """Fetch the offloaded context into the thread's bank (as banked)."""
        done = t
        base = self.layout.base + thread.tid * self.layout.bytes_per_thread
        lines = list(self.layout.touched_gp_lines) + [self.layout.GP_LINES]
        for i, line in enumerate(lines):
            _, r = self.dcache_request(t + i, base + line * LINE_BYTES)
            done = max(done, r.complete_at)
        self.stats.inc("context_fetches")
        return done

    # ------------------------------------------------------------------
    def _reference_step(self, thread: ThreadContext) -> None:
        """The barrel pipeline's one interpreted body (the counterpart of
        :meth:`TimelineCore._reference_step`, same roles): issue, execute,
        mem, commit, then the successor's operand-ready peek."""
        dops = self._dops
        d = dops[thread.pc]
        inst = d.inst
        tid = thread.tid
        board = self._boards[tid]
        stats = self.stats
        issue_ready = self._issue_ready
        bus = self.bus
        if bus.faults is not None:
            issue_ready[tid] = bus.faults.on_instruction(
                thread, inst, issue_ready[tid])

        # issue slot: one instruction per cycle shared by all threads
        t_ops = self._operand_ready(thread, d)
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
            _, r = self.dcache_request(t_m, result.addr, is_load_data=True)
            data_at = r.complete_at
            if not r.hit:
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
        if bus.telemetry is not None:
            bus.telemetry.on_commit(t_c)
        if bus.metrics is not None:
            bus.metrics.on_commit(thread, d, t_c)
        if bus.profile is not None:
            # barrel commits interleave threads on one commit clock; the
            # attributor tiles (prev commit, t_c] off these bounds alone
            bus.profile.on_barrel_commit(tid, thread.pc, d, t_issue,
                                         t_ex_done, data_at, t_c, load_missed)

        for reg, value in result.writes.items():
            thread.write(reg, value)
            board[reg.flat] = t_ex_done
        if d.is_load:
            thread.write(d.rd, self.memory.load(result.addr))
            board[d.rd.flat] = data_at
        if result.new_flags is not None:
            thread.flags = result.new_flags
            self._flags_ready[tid] = t_ex_done

        if bus.sanitizer is not None:
            # after the architectural update, before pc advances — the same
            # commit-point contract as the TimelineCore step bodies
            bus.sanitizer.on_commit(thread, inst, result, t_c)
        if bus.tracer is not None and not result.halt:
            # the barrel has no decode stage: an op is "in decode" the
            # cycle before it issues
            bus.tracer.record(tid, thread.pc, inst.text or
                              inst.opcode.name.lower(), t_issue - 1, t_issue,
                              t_ex_done, data_at, t_c)

        if result.halt:
            # the inherited bookkeeping; ``current`` is never set here
            self._halt_thread(thread)
            if bus.telemetry is not None:
                bus.telemetry.on_thread_done(tid, t_c)
            return
        thread.pc = result.target if result.taken else thread.pc + 1
        # peek the next instruction's operand readiness so the scheduler
        # lets other threads run while this one waits on a load
        t_next = max(t_issue + 1, self._operand_ready(thread, dops[thread.pc]))
        if result.taken and t_ex_done + self.config.redirect_penalty > t_next:
            # barrel cores still pay the fetch redirect for taken branches
            t_next = t_ex_done + self.config.redirect_penalty
        issue_ready[tid] = t_next


# recompile-safety marker: the barrel reference body is an engine body,
# so _recompile_step may rebind over it (but never over external wrappers)
FGMTCore._reference_step._engine_step = True
