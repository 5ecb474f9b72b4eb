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
execute latency, icache line) pre-computed once per program — and carries
two instrument attributes: ``fault_hook`` and the ``observers`` tuple of
:class:`~repro.core.instrument.Observer` sinks.  The per-instruction step
is a table of generated closures (:mod:`repro.isa.compiled`), where the
pipeline's timing rules are stated once per pipeline family.  With nothing
attached the table contains zero instrumentation code; assigning either
attribute recompiles it to the observed variant, which calls the fault
hook at fetch and dispatches the observer events in attach order.  The
two setters are the only attach points: assigning ``observers`` also
hands the parts the core owns (the dcache; a ViReC core's VRMU and
sysreg buffer) the observers of their events.

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
``on_flush(thread, ops, t, flats)``
    Pipeline flush on a context switch; receives the flushed instructions'
    :class:`~repro.isa.decoded.DecodedOp` records (the missing load plus
    the younger instructions already in decode) and the distinct flat
    registers they name, in first-named order.
``switch_in(thread, t)``
    Returns the cycle the new thread's first instruction can enter decode
    (context restore cost lives here).
``switch_extra_wait(t)``
    CSL mask input: extra cycles to hold a pending switch (e.g. BSI busy).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import DeadlockError
from ..isa.compiled import EngineVariant, compile_program
from ..isa.decoded import DecodedOp, DecodedProgram
from ..isa.func_sim import ArchState
from ..isa.program import Program
from ..memory.cache import Cache, CacheBusy
from ..memory.main_memory import MainMemory
from ..stats.counters import Stats
from .instrument import Observer, sinks_for

#: cells of the core's :meth:`Stats.batch`, in ``__init__``'s key order
CONTEXT_SWITCHES, FLUSHED_INSTRUCTIONS = range(2)

__all__ = ["CoreConfig", "DeadlockError", "ThreadContext", "ThreadState",
           "TimelineCore"]


class ThreadState(Enum):
    """Lifecycle of a hardware thread (offload -> run -> block -> done)."""

    READY = auto()
    RUNNING = auto()
    BLOCKED = auto()
    DONE = auto()


_READY, _RUNNING, _BLOCKED, _DONE = (
    ThreadState.READY, ThreadState.RUNNING, ThreadState.BLOCKED,
    ThreadState.DONE)   # the scheduler's locals


@dataclass(kw_only=True)
class ThreadContext(ArchState):
    """One hardware thread: its architectural context plus scheduling state."""

    tid: int
    state: ThreadState = ThreadState.READY
    ready_at: int = 0          # cycle a BLOCKED thread becomes READY
    started: bool = False      # has run at least once (context fetched)
    instructions: int = 0
    fruitless: int = 0         # consecutive runs with zero commits


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
                 layout=None) -> None:
        #: optional :class:`~repro.core.cgmt.ContextLayout` describing the
        #: thread-context save area (unused by cores with on-chip contexts)
        self.layout = layout
        self.program = program
        self.icache = icache
        self.dcache = dcache
        #: the dcache's hit latency, read by the switch decision
        self._dcache_latency = dcache.config.latency
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
        # min-heaps (heapq): completion cycles of in-flight loads, and
        # drain-completion cycles of queued stores
        self.load_slots: List[int] = []
        self.store_queue: List[int] = []
        self._last_fetch_line = -1

        self.current: Optional[ThreadContext] = None
        # the two instruments behind the ``fault_hook`` / ``observers``
        # properties (see repro/core/instrument.py)
        self._fault_hook = None
        self._observers: Tuple[Observer, ...] = ()
        #: the observers of each of the core's switch-path events, handed
        #: out with the parts' tuples (see :meth:`_hand_sinks`)
        self._on_schedule = self._on_switch_in = self._on_switch = ()
        self._on_stall = self._on_thread_done = ()
        self._on_context_move = self._on_spill_window = ()
        self.commits_since_switch = 0
        #: last-writer completion cycle per register, keyed by flat
        #: register index
        self.scoreboard: Dict[int, int] = {}
        self.flags_ready = 0
        self._rr_next = 0
        #: flushed window per missing-load pc (see :meth:`_flushed_window`)
        self._windows: Dict[int, Tuple[Tuple[DecodedOp, ...],
                                       Tuple[int, ...]]] = {}
        #: per-switch pending counts (see :meth:`Stats.batch`)
        self._pending = self.stats.batch("context_switches",
                                         "flushed_instructions")
        #: which subclass hooks are actually overridden (the fast path
        #: skips the no-op base implementations entirely)
        cls = type(self)
        self._has_reg_hook = (cls.decode_regs_ready
                              is not TimelineCore.decode_regs_ready)
        self._has_commit_hook = cls.on_commit is not TimelineCore.on_commit
        self._ccode = None     # the generated step table
        self._shared = False   # see the ``shared`` property
        self._recompile_step()

    # -------------------------------------------------------- instruments
    @property
    def fault_hook(self):
        """The fault injector called at fetch (``None``: detached)."""
        return self._fault_hook

    @fault_hook.setter
    def fault_hook(self, hook) -> None:
        self._fault_hook = hook
        self._recompile_step()

    @property
    def observers(self) -> Tuple[Observer, ...]:
        """The :class:`~repro.core.instrument.Observer` sinks, dispatched
        in attach order (``core.observers += (sink,)``)."""
        return self._observers

    @observers.setter
    def observers(self, observers) -> None:
        self._observers = tuple(observers)
        self._hand_sinks()
        self._recompile_step()

    def _hand_sinks(self) -> None:
        """Hand each part this core owns the observers that override its
        events (see :mod:`repro.core.instrument`): here the dcache's
        demand misses; a subclass with more parts extends it.  The
        core's own switch-path events get a tuple each, so the scheduler
        and the observed step call only the observers that record them."""
        observers = self._observers
        self.dcache.sinks = sinks_for(observers, "on_dcache_miss")
        self._on_schedule = sinks_for(observers, "on_schedule")
        self._on_switch_in = sinks_for(observers, "on_switch_in")
        self._on_switch = sinks_for(observers, "on_switch")
        self._on_stall = sinks_for(observers, "on_stall")
        self._on_thread_done = sinks_for(observers, "on_thread_done")
        self._on_context_move = sinks_for(observers, "on_context_move")
        self._on_spill_window = sinks_for(observers, "on_spill_window")

    @property
    def shared(self) -> bool:
        """Whether this core shares its crossbar with peer cores.  A
        multi-core :class:`~repro.system.node.NearMemoryNode` sets it; a
        shared core's superops chain only the ops no peer can observe
        (see :func:`repro.isa.compiled._build_code`)."""
        return self._shared

    @shared.setter
    def shared(self, shared: bool) -> None:
        self._shared = shared
        self._recompile_step()

    def _recompile_step(self) -> None:
        """Compile the step table for the current instruments and bind it.

        Called at construction, on every instrument attach/detach and
        when a node marks the core ``shared``: no fault hook and no
        observers selects the bare variant (zero instrumentation code),
        anything attached the observed one (see :meth:`_engine_variant`).

        ``_step_impl`` always names the bound body; external wrappers of
        ``_process_instruction`` (the task-pool redispatcher) call through
        it so an attach after wrapping still takes effect, and the
        recompile never clobbers such a wrapper (it only rebinds
        ``_process_instruction`` while that is an engine body).
        """
        self._ccode = compile_program(self.dprog,
                                      self._engine_variant()).code
        impl = self._step_impl = self._process_instruction_compiled
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
            shared=self._shared,
            observed=self._fault_hook is not None or bool(self._observers))

    # The per-instruction step.  The pipeline's timing rules are stated
    # once per family, in the stage templates of repro.isa.compiled; the
    # interpreted bodies the table is held byte-identical to are the test
    # oracle (tests/core/reference_step.py).  Observers never change a
    # timestamp: the noop suites under tests/ hold an observed run
    # cycle-identical to a bare one.

    def _process_instruction_compiled(self, thread: ThreadContext) -> int:
        """Threaded-code dispatch: one call into the closure chain."""
        return self._ccode[thread.pc](self, thread)

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
                 t: int, flats: Tuple[int, ...]) -> None:
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
                       pin_delta: int = 0) -> Tuple[int, int, bool, bool]:
        """Issue one request through the shared dcache port (LSQ/BSI arbiter).

        Re-presents a refused request (:class:`CacheBusy`) at its
        ``retry_at``.  Returns ``(t_issue, complete_at, hit, switch_signal)``.
        """
        while True:
            port_free = self.dcache_port_free
            t_issue = t if t > port_free else port_free
            self.dcache_port_free = t_issue + 1
            try:
                done, hit, switch = self.dcache.access(
                    t_issue, addr, is_write, self.core_id, is_load_data,
                    is_register, pin_delta)
            except CacheBusy as busy:
                t = max(busy.retry_at, t_issue + 1)
                self.stats.inc("dcache_retries")
                continue
            return t_issue, done, hit, switch

    def dcache_stream(self, t: int, base: int, offsets: Sequence[int],
                      is_write: bool = False) -> Tuple[int, int]:
        """Move a register context through the dcache port from cycle ``t``.

        Word ``base + off`` is requested the cycle after the previous word
        issued, under :meth:`dcache_request`'s port rule, as one
        ``Cache.access`` each.  Returns ``(t_next, done)``: the cycle after
        the last issue, and ``t`` or the latest completion if later.
        """
        access, core_id = self.dcache.access, self.core_id
        port_free = self.dcache_port_free
        done = t
        for off in offsets:
            t_issue = t if t > port_free else port_free
            while True:
                try:
                    complete = access(t_issue, base + off, is_write, core_id)[0]
                    break
                except CacheBusy as busy:
                    t_issue = max(busy.retry_at, t_issue + 1)
                    self.stats.inc("dcache_retries")
            port_free = t = t_issue + 1
            if complete > done:
                done = complete
        self.dcache_port_free = port_free
        return t, done

    # ----------------------------------------------------------- store queue
    def _sq_insert(self, t: int, addr: int) -> int:
        """Insert a store at cycle ``t``; returns cycle the SQ accepted it.

        The queue is a min-heap of drain-completion cycles; an entry
        leaves once its cycle is ``<= t``.  The generated ``str`` step does
        the common case inline and calls this only when the queue is
        full."""
        sq = self.store_queue
        while sq and sq[0] <= t:
            heappop(sq)
        while len(sq) >= self.config.sq_entries:
            t = sq[0]
            while sq and sq[0] <= t:
                heappop(sq)
            self.stats.inc("sq_full_stalls")
        heappush(sq, self.dcache_request(t, addr, True)[1])
        return t

    # ------------------------------------------------------------ load slots
    def _load_slot_wait(self, t: int) -> int:
        """Cycle from ``t`` a load finds a free outstanding-load slot.

        ``load_slots`` is a min-heap of completion cycles (writers
        ``heappush``); a slot frees once its cycle is ``<= t``.  The
        generated ``ldr`` step does the common case inline and calls this
        only when every slot is taken."""
        slots = self.load_slots
        while slots and slots[0] <= t:
            heappop(slots)
        while len(slots) >= self.config.max_outstanding_loads:
            t = slots[0]
            while slots and slots[0] <= t:
                heappop(slots)
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
        thread.state = _RUNNING
        self.current = thread
        self.scoreboard.clear()
        self.flags_ready = t
        if self._on_schedule:
            for observer in self._on_schedule:
                observer.on_schedule(thread.tid, t_req, t)
        if not thread.started:
            thread.started = True
            t = self.thread_start_cost(thread, t)
        self.fetch_avail = t_fetch = self.switch_in(thread, t)
        self.decode_free = t
        self.ex_free = t
        if t > self.commit_tail:
            self.commit_tail = t
        self._last_fetch_line = -1
        if self._on_switch_in:
            for observer in self._on_switch_in:
                observer.on_switch_in(thread.tid, t, t_fetch)
        return True

    # ---------------------------------------------------------------- running
    @property
    def done(self) -> bool:
        return all(th.state == ThreadState.DONE for th in self.threads)

    def step(self):
        """Process one instruction — or one superop chain — scheduling a
        thread first if needed.

        Returns a falsy value (False) once every thread has completed,
        otherwise the number of instructions processed (a superop returns
        its chain length; a step wrapper that returns None counts as
        True == 1).  The multi-processor driver
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
            committed += n       # True == 1 for a wrapper returning None
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

    # -------------------------------------------------------- context switch
    def _flushed_window(self, pc: int) -> Tuple[Tuple[DecodedOp, ...],
                                                Tuple[int, ...]]:
        """The missing load at ``pc`` plus the younger instructions already
        in the frontend, and the distinct flat registers they name in
        first-named order — a function of ``pc`` alone, built once per
        pc."""
        window = self._windows.get(pc)
        if window is None:
            dops = self._dops
            flushed = [dops[pc]]
            for nxt in dops[pc + 1:pc + 3]:  # frontend depth MEM -> decode
                flushed.append(nxt)
                if nxt.is_branch or nxt.is_halt:
                    break
            flats = dict.fromkeys(operand[1] for op in flushed
                                  for operand in op.plan)
            window = self._windows[pc] = (tuple(flushed), tuple(flats))
        return window

    def _handle_miss_switch(self, thread: ThreadContext, t_mem_issue: int,
                            data_at: int) -> bool:
        """CSL decision on a demand-load dcache miss.

        Returns True when a context switch was performed (caller must stop
        processing this thread), False when the switch is masked and the
        thread stalls in place waiting for the miss.
        """
        t_detect = t_mem_issue + self._dcache_latency
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
        t_req = self.commit_tail
        if t_detect > t_req:
            t_req = t_detect
        # (t_req, t_sw] is the BSI-busy hold — posted spill writebacks
        # blocking the switch (ViReC); zero-width for other cores
        t_sw = self.switch_extra_wait(t_req)

        flushed, flats = self._flushed_window(thread.pc)
        self.on_flush(thread, flushed, t_sw, flats)
        pending = self._pending
        pending[CONTEXT_SWITCHES] += 1
        pending[FLUSHED_INSTRUCTIONS] += len(flushed)
        if self._on_switch:
            for observer in self._on_switch:
                observer.on_switch(thread.tid, t_req, t_sw, data_at,
                                   len(flushed))

        thread.state = _BLOCKED
        thread.ready_at = data_at
        # replay from the missing load when rescheduled (pc unchanged)
        self.current = None
        self.commits_since_switch = 0
        self._schedule(t_sw)
        return True


# the recompile-safety marker read by TimelineCore._recompile_step (bound
# methods forward attribute reads to their underlying function)
TimelineCore._process_instruction_compiled._engine_step = True
