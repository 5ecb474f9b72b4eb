"""Timeline-based single-issue in-order pipeline engine.

Every core model in the reproduction (single-thread InO, banked CGMT,
software context switching, RF-prefetch, ViReC) is built on
:class:`TimelineCore`.  The engine processes one instruction at a time in
program/commit order, carrying explicit cycle timestamps for each shared
pipeline resource (fetch, decode, execute unit, dcache port, store queue,
outstanding-load slots, in-order commit).  For a single-issue in-order
machine this timeline formulation is cycle-equivalent to a per-cycle stage
simulation — every stall has a unique dominating resource whose timestamp we
track — while being an order of magnitude faster in Python.

Functional execution happens at *commit*: instructions flushed by a context
switch never update architectural state and are replayed when their thread
resumes, exactly like the pipeline flush in Figure 4 of the paper.

The engine runs over a :class:`~repro.isa.decoded.DecodedProgram` — static
per-instruction metadata (operand tuples, flag behaviour, classification,
execute latency, icache line) pre-computed once per program — and keeps all
observation layers behind one :class:`~repro.core.instrument.InstrumentBus`.
The pipeline's rules are interpreted in exactly one place,
:meth:`TimelineCore._reference_step`.  With nothing attached and the
(default) compiled engine, the per-instruction step is instead a table of
generated closures containing zero instrumentation branches
(:mod:`repro.isa.compiled`); attaching any instrument (``fault_hook`` /
``telemetry`` / ``metrics`` / ``profile`` / ``sanitizer`` / ``tracer``)
rebinds the step to the reference body with the fixed dispatch order
faults -> telemetry -> metrics -> profile -> sanitizer -> tracer.

Subclass hooks (all optional):

``decode_regs_ready(thread, op, t_decode)``
    Cycle at which the instruction's architectural registers are readable.
    Receives the :class:`~repro.isa.decoded.DecodedOp` (which carries the
    operand tuples plus any static liveness hints).  The ViReC core
    implements the VRMU here (fills/evictions); banked cores return
    ``t_decode``.
``on_commit(thread, op, t_commit)``
    Commit detection logic (rollback-queue pop, C-bit confirm, dead-hint
    marking).  Also receives the :class:`~repro.isa.decoded.DecodedOp`.
``on_flush(thread, ops, t)``
    Pipeline flush on a context switch; receives the flushed instructions'
    :class:`~repro.isa.decoded.DecodedOp` records (the missing load plus
    the younger instructions already in decode).
``switch_in(thread, t)``
    Returns the cycle the new thread's first instruction can enter decode
    (context restore cost lives here).
``switch_extra_wait(t)``
    CSL mask input: extra cycles to hold a pending switch (e.g. BSI busy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Dict, List, Optional, Tuple

from ..errors import DeadlockError
from ..isa.compiled import EngineVariant, compile_program
from ..isa.decoded import DecodedOp, DecodedProgram
from ..isa.instructions import MASK64, Flags, evaluate
from ..isa.program import Program
from ..isa.registers import NUM_FP_REGS, NUM_INT_REGS, Reg, RegClass
from ..memory.cache import Cache
from ..memory.main_memory import MainMemory
from ..stats.counters import Stats
from .engine import resolve_engine
from .instrument import DISPATCH_ORDER, InstrumentBus

#: cells of the core's :meth:`Stats.batch`, in ``__init__``'s key order
CONTEXT_SWITCHES, FLUSHED_INSTRUCTIONS = range(2)

__all__ = ["CoreConfig", "DeadlockError", "InstrumentBus", "ThreadContext",
           "ThreadState", "TimelineCore"]


class ThreadState(Enum):
    """Lifecycle of a hardware thread (offload -> run -> block -> done)."""

    READY = auto()
    RUNNING = auto()
    BLOCKED = auto()
    DONE = auto()


_READY, _BLOCKED, _DONE = (ThreadState.READY, ThreadState.BLOCKED,
                           ThreadState.DONE)   # the scheduler's locals


@dataclass
class ThreadContext:
    """Architectural state of one hardware thread."""

    tid: int
    pc: int = 0
    xregs: List[int] = field(default_factory=lambda: [0] * NUM_INT_REGS)
    dregs: List[float] = field(default_factory=lambda: [0.0] * NUM_FP_REGS)
    flags: Flags = field(default_factory=Flags)
    state: ThreadState = ThreadState.READY
    ready_at: int = 0          # cycle a BLOCKED thread becomes READY
    started: bool = False      # has run at least once (context fetched)
    instructions: int = 0
    fruitless: int = 0         # consecutive runs with zero commits

    def read(self, reg: Reg):
        if reg.rclass == RegClass.X:
            return self.xregs[reg.index]
        return self.dregs[reg.index]

    def write(self, reg: Reg, value) -> None:
        if reg.rclass == RegClass.X:
            self.xregs[reg.index] = int(value) & MASK64
        else:
            self.dregs[reg.index] = float(value)


@dataclass
class CoreConfig:
    """Microarchitectural parameters shared by the in-order cores (Table 1)."""

    name: str = "core"
    sq_entries: int = 5
    max_outstanding_loads: int = 1
    redirect_penalty: int = 2      # taken-branch fetch redirect bubble
    switch_on_miss: bool = False   # CGMT behaviour
    #: pipeline refill after a context switch before the first decode
    switch_refill: int = 2
    #: simulated-cycle watchdog on the commit clock (``commit_tail``);
    #: ``None`` disables it.  Historical note: before the guard split this
    #: field was (mis)used as an *instruction* budget — committed
    #: instructions were counted against it.  It is now a true cycle
    #: watchdog; since every commit advances ``commit_tail`` by at least
    #: one cycle, any run bounded by the old interpretation is still
    #: bounded by the new one, so existing configs keep terminating.
    max_cycles: Optional[int] = 50_000_000
    #: committed-instruction budget (the guard the old ``max_cycles``
    #: actually implemented); ``None`` disables it
    max_instructions: Optional[int] = None


class TimelineCore:
    """Single-issue in-order core over a Program + memory hierarchy."""

    def __init__(self, program: Program, icache: Cache, dcache: Cache,
                 memory: MainMemory, threads: List[ThreadContext],
                 config: Optional[CoreConfig] = None,
                 stats: Optional[Stats] = None, core_id: int = 0,
                 layout=None, engine: Optional[str] = None) -> None:
        #: optional :class:`~repro.core.cgmt.ContextLayout` describing the
        #: thread-context save area (unused by cores with on-chip contexts)
        self.layout = layout
        self.program = program
        self.icache = icache
        self.dcache = dcache
        self.memory = memory
        # the scheduler ring, the context layout, every BSI address and the
        # VRMU's CAM rows all index by thread id
        for position, thread in enumerate(threads):
            if thread.tid != position:
                raise ValueError(
                    f"thread at position {position} has tid {thread.tid}; "
                    f"thread ids must be 0..{len(threads) - 1} in order")
        self.threads = threads
        self.config = config or CoreConfig()
        self.stats = stats if stats is not None else Stats(self.config.name)
        self.core_id = core_id

        #: pre-decoded static instruction metadata (shared per program)
        self.dprog = DecodedProgram.of(program, icache.config.line_bytes)
        self._dops = self.dprog.ops

        # shared pipeline resources (cycle timestamps)
        self.now = 0
        self.fetch_avail = 0       # cycle next instruction reaches decode
        self.decode_free = 0
        self.ex_free = 0
        self.commit_tail = 0
        self.dcache_port_free = 0  # shared LSQ/BSI port, 1 request/cycle
        self.load_slots: List[int] = []   # completion cycles of in-flight loads
        self.store_queue: List[int] = []  # drain-completion cycles
        self._last_fetch_line = -1

        self.current: Optional[ThreadContext] = None
        #: the unified instrumentation seam; see
        #: :class:`~repro.core.instrument.InstrumentBus`.  ``fault_hook``,
        #: ``telemetry``, ``metrics``, ``profile``, ``sanitizer`` and
        #: ``tracer`` are attributes over its slots (:class:`_BusSlot`),
        #: so subsystem ``attach()`` entry points are unchanged.
        self.bus = InstrumentBus()
        self.commits_since_switch = 0
        #: last-writer completion cycle per register, keyed by flat
        #: register index in every engine (so a mid-run engine switch
        #: carries the in-flight writers over as they are)
        self.scoreboard: Dict[int, int] = {}
        self.flags_ready = 0
        self._rr_next = 0
        #: flushed window per missing-load pc (see :meth:`_flushed_window`)
        self._windows: Dict[int, Tuple[DecodedOp, ...]] = {}
        #: per-switch pending counts (see :meth:`Stats.batch`)
        self._pending = self.stats.batch("context_switches",
                                         "flushed_instructions")
        #: which subclass hooks are actually overridden (the fast path
        #: skips the no-op base implementations entirely)
        cls = type(self)
        self._has_reg_hook = (cls.decode_regs_ready
                              is not TimelineCore.decode_regs_ready)
        self._has_commit_hook = cls.on_commit is not TimelineCore.on_commit
        #: which step engine drives this core; ``None`` resolves to
        #: :data:`~repro.core.engine.DEFAULT_ENGINE`, as it does for a
        #: ``RunConfig``
        self._engine = resolve_engine(engine)
        self._ccode = None     # compiled closure table (engine "compiled")
        #: superop chaining permission — :meth:`set_step_chaining` turns
        #: it off for cores inside a multi-core node (the node interleaves
        #: cores per step, so a chained step would batch one core's
        #: shared-memory traffic ahead of its peers)
        self._chain_steps = True
        self._recompile_step()

    # ----------------------------------------------------- instrument bus
    def _recompile_step(self) -> None:
        """Bind the per-instruction step for the current engine and bus.

        Called at construction and on every bus attach/detach, engine
        switch and chaining change.  An empty bus under the compiled
        engine binds the generated closure table (superop chains, zero
        instrumentation branches); everything else — the interpreted
        engine, or any instrument attached under either engine — binds
        :meth:`_reference_step`.  See :mod:`repro.core.engine`.

        ``_step_impl`` always names the currently bound body; external
        wrappers of ``_process_instruction`` (the task-pool redispatcher)
        call through it so an attach after wrapping still takes effect, and
        the recompile never clobbers such a wrapper (it only rebinds
        ``_process_instruction`` while it is one of the engine bodies).
        """
        if self._engine == "compiled" and self.bus.empty:
            self._ccode = compile_program(self.dprog,
                                          self._engine_variant()).code
            impl = self._process_instruction_compiled
        else:
            impl = self._reference_step
        self._step_impl = impl
        current = self.__dict__.get("_process_instruction")
        if current is None or getattr(current, "_engine_step", False):
            self._process_instruction = impl

    def _engine_variant(self) -> EngineVariant:
        """The compile key for this core's step closures (see
        :class:`~repro.isa.compiled.EngineVariant`)."""
        return EngineVariant(
            family="timeline",
            reg_hook=self._has_reg_hook,
            commit_hook=self._has_commit_hook,
            miss_switch=(self.config.switch_on_miss
                         and len(self.threads) > 1),
            chained=self._chain_steps)

    def _process_instruction_compiled(self, thread: ThreadContext) -> int:
        """Threaded-code dispatch: one call into the closure chain."""
        return self._ccode[thread.pc](self, thread)

    @property
    def engine(self) -> str:
        """Which step engine drives this core ("compiled"/"interpreted")."""
        return self._engine

    def set_engine(self, engine: str) -> None:
        """Swap the step engine, mid-run safe (the R^4-style runtime
        reconfiguration seam): both engines keep the same pipeline state
        — scoreboards included — so only the step body is rebound."""
        engine = resolve_engine(engine)
        if engine != self._engine:
            self._engine = engine
            self._recompile_step()

    def set_step_chaining(self, enabled: bool) -> None:
        """Allow or forbid superop chains in the compiled engine.

        Multi-core nodes must turn chaining off: the node driver
        interleaves cores one :meth:`step` at a time in local-clock
        order, and a chained step commits a whole branch-free run —
        batching this core's crossbar/DRAM requests ahead of its
        peers and changing contention order versus the interpreted
        engine.  Chains are stateless, so flipping mid-run is safe.
        """
        if enabled != self._chain_steps:
            self._chain_steps = enabled
            self._recompile_step()

    def _halt_thread(self, thread: ThreadContext) -> None:
        """Commit-time halt bookkeeping (shared with the compiled closures,
        which cannot name ThreadState without an import cycle)."""
        thread.state = ThreadState.DONE
        self.current = None
        self.stats.inc("threads_completed")

    # ------------------------------------------------------------------ hooks
    def decode_regs_ready(self, thread: ThreadContext, op: DecodedOp,
                          t_decode: int) -> int:
        return t_decode

    def decode_spill_wait(self) -> int:
        """Cycles of the latest ``decode_regs_ready`` wait caused by spill
        writebacks holding the register port (profiling only; cores with a
        residency hook override this so the attributor can split the
        ``vrmu_refill`` slice into its spill-induced part)."""
        return 0

    def on_commit(self, thread: ThreadContext, op: DecodedOp, t_commit: int) -> None:
        pass

    def on_flush(self, thread: ThreadContext, ops: Tuple[DecodedOp, ...],
                 t: int) -> None:
        pass

    def switch_in(self, thread: ThreadContext, t: int) -> int:
        """Cycle the new thread's first instruction can enter decode."""
        return t + self.config.switch_refill

    def switch_extra_wait(self, t: int) -> int:
        return t

    def thread_start_cost(self, thread: ThreadContext, t: int) -> int:
        """One-time context-establishment cost when a thread first runs."""
        return t

    # ----------------------------------------------------------- dcache port
    def dcache_request(self, t: int, addr: int, is_write: bool = False,
                       is_load_data: bool = False, is_register: bool = False,
                       pin_delta: int = 0):
        """Issue one request through the shared dcache port (LSQ/BSI arbiter).

        Retries transparently on MSHR-full.  Returns ``(t_issue, result)``.
        """
        while True:
            port_free = self.dcache_port_free
            t_issue = t if t > port_free else port_free
            result = self.dcache.access(t_issue, addr, is_write, self.core_id,
                                        is_load_data, is_register, pin_delta)
            self.dcache_port_free = t_issue + 1
            if result.retry_at is None:
                return t_issue, result
            t = max(result.retry_at, t_issue + 1)
            self.stats.inc("dcache_retries")

    # ----------------------------------------------------------- store queue
    def _sq_insert(self, t: int, addr: int) -> int:
        """Insert a store at cycle ``t``; returns cycle the SQ accepted it."""
        self.store_queue = [c for c in self.store_queue if c > t]
        while len(self.store_queue) >= self.config.sq_entries:
            t = min(self.store_queue)
            self.store_queue = [c for c in self.store_queue if c > t]
            self.stats.inc("sq_full_stalls")
        t_issue, result = self.dcache_request(t, addr, is_write=True)
        self.store_queue.append(result.complete_at)
        return t

    # ------------------------------------------------------------ load slots
    def _load_slot_wait(self, t: int) -> int:
        self.load_slots = [c for c in self.load_slots if c > t]
        while len(self.load_slots) >= self.config.max_outstanding_loads:
            t = min(self.load_slots)
            self.load_slots = [c for c in self.load_slots if c > t]
            self.stats.inc("load_slot_stalls")
        return t

    # ------------------------------------------------------------- scheduler
    def _pick_next_thread(self, t: int) -> Tuple[Optional[ThreadContext], int]:
        """Round-robin over runnable threads; returns (thread, cycle): the
        first thread around the ring from ``_rr_next`` runnable at ``t``,
        else the first one ready at the earliest ``ready_at`` of a live
        thread (the cycle the core idles to)."""
        threads = self.threads
        n = len(threads)
        ring = range(self._rr_next, self._rr_next + n)
        wake = None
        for i in ring:
            th = threads[i % n]
            state = th.state
            if state is _DONE:
                continue
            ready_at = th.ready_at
            if state is _READY or (state is _BLOCKED and ready_at <= t):
                self._rr_next = (th.tid + 1) % n
                return th, t
            if wake is None or ready_at < wake:
                wake = ready_at
        if wake is None:
            return None, t          # every thread is DONE
        for i in ring:
            th = threads[i % n]
            if th.state is _BLOCKED and th.ready_at <= wake:
                self._rr_next = (th.tid + 1) % n
                return th, wake
        return None, wake  # pragma: no cover - a live thread is BLOCKED

    def _another_thread_ready(self, thread: ThreadContext, t: int) -> bool:
        """Forward-progress mask input: could a thread other than
        ``thread`` run at cycle ``t``?"""
        for th in self.threads:
            state = th.state
            if (state is _READY or (state is _BLOCKED and th.ready_at <= t)) \
                    and th is not thread:
                return True
        return False

    def _schedule(self, t: int) -> bool:
        """Switch in the next runnable thread at cycle >= t."""
        t_req = t
        thread, t = self._pick_next_thread(t)
        if thread is None:
            return False
        thread.state = ThreadState.RUNNING
        self.current = thread
        self.scoreboard = {}
        self.flags_ready = t
        profile = self.bus.profile
        if profile is not None:
            # (cursor, t_req] is switch drain, (t_req, t] is idle wait for
            # a runnable thread; the window up to switch-in completion is
            # posted below once switch_in/thread_start_cost have run
            profile.on_schedule(thread.tid, t_req, t)
        if not thread.started:
            thread.started = True
            t = self.thread_start_cost(thread, t)
        self.fetch_avail = self.switch_in(thread, t)
        self.decode_free = t
        self.ex_free = t
        self.commit_tail = max(self.commit_tail, t)
        self._last_fetch_line = -1
        telemetry = self.bus.telemetry
        if telemetry is not None:
            telemetry.on_run_begin(thread.tid, t)
        if profile is not None:
            profile.on_switch_in(thread.tid, self.fetch_avail)
        return True

    # ---------------------------------------------------------------- running
    @property
    def done(self) -> bool:
        return all(th.state == ThreadState.DONE for th in self.threads)

    def step(self):
        """Process one instruction — or, under the threaded-code engine,
        one superop chain — scheduling a thread first if needed.

        Returns a falsy value (False) once every thread has completed,
        otherwise the number of engine steps consumed (the interpreted
        bodies return None, normalized to True == 1; a compiled superop
        returns its chain length so the run-loop watchdogs count exactly
        what the interpreted engine counts).  The multi-processor driver
        (Figure 11) interleaves cores by repeatedly stepping the core with
        the smallest local clock.
        """
        if self.current is None:
            if self.done:
                return False
            if not self._schedule(self.commit_tail):
                raise DeadlockError(
                    "no runnable thread", commit_tail=self.commit_tail,
                    committed=sum(th.instructions for th in self.threads))
        return self._process_instruction(self.current) or True

    def run(self) -> Stats:
        """Run all threads to completion; returns the stats namespace.

        Two independent watchdogs guard against a wedged simulation:
        ``config.max_instructions`` bounds *committed instructions* (the
        guard the engine historically mislabelled "max_cycles") and
        ``config.max_cycles`` bounds the *simulated commit clock*
        (``commit_tail``), which is what the name always promised.
        """
        config = self.config
        max_instructions = config.max_instructions
        max_cycles = config.max_cycles
        committed = 0
        while (n := self.step()):
            committed += n       # True == 1 for the interpreted engine
            if max_instructions is not None and committed > max_instructions:
                raise DeadlockError(
                    f"instruction budget exceeded ({committed} > "
                    f"max_instructions={max_instructions})",
                    commit_tail=self.commit_tail, committed=committed)
            if max_cycles is not None and self.commit_tail > max_cycles:
                raise DeadlockError(
                    f"cycle budget exceeded (commit clock {self.commit_tail}"
                    f" > max_cycles={max_cycles})",
                    commit_tail=self.commit_tail, committed=committed)
        self.finalize_stats()
        return self.stats

    def finalize_stats(self) -> None:
        self.stats.set("cycles", self.commit_tail)
        total = sum(th.instructions for th in self.threads)
        self.stats.set("instructions", total)
        self.stats.set("ipc", total / self.commit_tail if self.commit_tail else 0.0)

    # ---------------------------------------------------- per-instruction step
    #
    # The one interpreted statement of the pipeline's timing rules (the
    # barrel core has its own, FGMTCore._reference_step).  It is the
    # oracle the generated closures of repro.isa.compiled are held
    # byte-identical to, the body of engine="interpreted", the body every
    # instrumented run uses under either engine, and what a compiled
    # table falls back to for an op its lowering declines.  With nothing
    # attached every probe below is a not-taken ``is not None`` test, and
    # observational instruments never change a timestamp — the noop
    # suites under tests/ enforce cycle identity with the compiled table.

    def _reference_step(self, thread: ThreadContext) -> None:
        """One instruction through the pipeline, bus dispatched at every
        probe point.

        Dispatch order is fixed: faults (front end) -> telemetry (commit
        clock) -> metrics (commit counters) -> profile (cycle attribution)
        -> sanitizer (post-architectural-update) -> tracer (record).
        """
        bus = self.bus
        faults = bus.faults
        telemetry = bus.telemetry
        metrics = bus.metrics
        profile = bus.profile
        sanitizer = bus.sanitizer
        tracer = bus.tracer

        d = self._dops[thread.pc]
        inst = d.inst
        config = self.config
        stats = self.stats
        pc0 = thread.pc

        # fetch
        fetch_avail = self.fetch_avail
        decode_free = self.decode_free
        t_d = fetch_avail if fetch_avail > decode_free else decode_free
        icache_missed = False
        if d.line != self._last_fetch_line:
            self._last_fetch_line = d.line
            icache = self.icache
            r = icache.access(max(0, t_d - icache.config.latency), d.addr,
                              requestor=self.core_id)
            if not r.hit:
                stats.inc("icache_miss_stalls")
                icache_missed = True
            if r.complete_at > t_d:
                t_d = r.complete_at
        if faults is not None:
            t_d = faults.on_instruction(thread, inst, t_d)

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
            t_issue_mem, r = self.dcache_request(
                t_m, result.addr, is_load_data=True)
            data_at = r.complete_at
            if (config.switch_on_miss and r.switch_signal
                    and len(self.threads) > 1):
                if self._handle_miss_switch(thread, t_issue_mem, r):
                    return  # thread suspended; load replays on resume
                # switch suppressed (no commits since last switch): stall here
                stats.inc("switches_suppressed")
                if telemetry is not None:
                    telemetry.on_stall_in_place(
                        thread.tid, t_issue_mem, data_at, "suppressed-switch")
            self.load_slots.append(data_at)
            if not r.hit:
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
        if telemetry is not None:
            telemetry.on_commit(t_c)
        if metrics is not None:
            metrics.on_commit(thread, d, t_c)
        if profile is not None:
            spill_wait = self.decode_spill_wait() if self._has_reg_hook else 0
            profile.on_commit_timing(thread.tid, pc0, d, t_d, t_ops, t_regs,
                                     t_ex_done, data_at, t_c, icache_missed,
                                     load_missed, spill_wait)

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
        if sanitizer is not None:
            # after the architectural update, before pc advances: the
            # sanitizer sees exactly the committed state
            sanitizer.on_commit(thread, inst, result, t_c)
        if tracer is not None and not result.halt:
            tracer.record(thread.tid, thread.pc, inst.text or
                          inst.opcode.name.lower(), t_d, t_issue,
                          t_ex_done, data_at, t_c)

        if result.halt:
            self._halt_thread(thread)
            if telemetry is not None:
                telemetry.on_thread_done(thread.tid, t_c)
            return
        thread.pc = result.target if result.taken else thread.pc + 1
        if result.taken:
            self.fetch_avail = t_ex_done + 1 + config.redirect_penalty
            stats.inc("taken_branches")

    # -------------------------------------------------------- context switch
    def _flushed_window(self, pc: int) -> Tuple[DecodedOp, ...]:
        """The missing load at ``pc`` plus the younger instructions already
        in the frontend — a function of ``pc`` alone, built once per pc."""
        window = self._windows.get(pc)
        if window is None:
            dops = self._dops
            flushed = [dops[pc]]
            for nxt in dops[pc + 1:pc + 3]:  # frontend depth MEM -> decode
                flushed.append(nxt)
                if nxt.is_branch or nxt.is_halt:
                    break
            window = self._windows[pc] = tuple(flushed)
        return window

    def _handle_miss_switch(self, thread: ThreadContext, t_mem_issue: int,
                            access_result) -> bool:
        """CSL decision on a demand-load dcache miss.

        Returns True when a context switch was performed (caller must stop
        processing this thread), False when the switch is masked and the
        thread stalls in place waiting for the miss.
        """
        t_detect = t_mem_issue + self.dcache.config.latency
        # Forward-progress mask (Section 5.2): a thread whose run made no
        # commits (its replayed load missed again) may switch away once —
        # overlapping the refetch with other ready threads — but a second
        # consecutive fruitless run stalls in place until the miss returns,
        # so the core never cycles threads without covering latency.
        if self.commits_since_switch == 0:
            thread.fruitless += 1
            if (thread.fruitless > 1
                    or not self._another_thread_ready(thread, t_detect)):
                return False
        # mask: let older long-latency instructions drain (rollback-queue
        # oldest-is-not-memory signal); older commits are bounded by
        # commit_tail, so waiting for it implements the mask exactly.
        t_sw = max(t_detect, self.commit_tail)
        t_hold = self.switch_extra_wait(t_sw)
        profile = self.bus.profile
        if profile is not None:
            # (t_sw, t_hold] is the BSI-busy hold — posted spill writebacks
            # blocking the switch (ViReC); zero-width for other cores
            profile.on_switch_hold(thread.tid, t_sw, t_hold)
        t_sw = t_hold

        flushed = self._flushed_window(thread.pc)
        self.on_flush(thread, flushed, t_sw)
        pending = self._pending
        pending[CONTEXT_SWITCHES] += 1
        pending[FLUSHED_INSTRUCTIONS] += len(flushed)
        telemetry = self.bus.telemetry
        if telemetry is not None:
            telemetry.on_switch(thread.tid, t_sw,
                                access_result.complete_at, len(flushed))

        thread.state = ThreadState.BLOCKED
        thread.ready_at = access_result.complete_at
        # replay from the missing load when rescheduled (pc unchanged)
        self.current = None
        self.commits_since_switch = 0
        self._schedule(t_sw)
        return True


class _BusSlot:
    """``core.<attr>`` as a view of one :class:`InstrumentBus` slot.

    Reading returns the attached instrument (or None); assigning attaches
    or detaches it and re-selects the step body, which is all a subsystem
    ``attach()`` has to do.  What each slot is for is documented on
    :class:`~repro.core.instrument.InstrumentBus`."""

    def __init__(self, slot: str) -> None:
        self.slot = slot

    def __get__(self, core, owner=None):
        return self if core is None else getattr(core.bus, self.slot)

    def __set__(self, core, value) -> None:
        setattr(core.bus, self.slot, value)
        core._recompile_step()


for _slot in DISPATCH_ORDER:
    # the fault injector's slot keeps its historical attribute name
    setattr(TimelineCore, "fault_hook" if _slot == "faults" else _slot,
            _BusSlot(_slot))

# the recompile-safety marker read by TimelineCore._recompile_step (bound
# methods forward attribute reads to their underlying function)
TimelineCore._reference_step._engine_step = True
TimelineCore._process_instruction_compiled._engine_step = True
