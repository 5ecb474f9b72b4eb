"""The ViReC core: CGMT pipeline + VRMU register cache + BSI + pinned dcache.

Assembles the full system architecture of Figure 7 on top of the timeline
CGMT engine:

* decode-stage VRMU lookups gate instruction issue (register fills stall the
  front end, Figure 4 A->B);
* the dcache doubles as the register backing store — the reserved register
  region is pinned and data-load misses inside it never trigger context
  switches (Section 5.3);
* the CSL masks switches while the BSI has outstanding fills and prefetches
  system registers through the ping-pong buffer (Section 5.2).

:func:`make_nsf_core` builds the Named-State-Register-File baseline of
Section 6.1: the same register-cache datapath but with the PLRU policy, a
blocking BSI, and none of ViReC's miss-penalty optimizations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..analysis.dataflow import annotate
from ..core.base import CoreConfig, ThreadContext, TimelineCore
from ..core.cgmt import ContextLayout
from ..core.instrument import REG_EVENTS, sinks_for
from ..isa.compiled import EngineVariant
from ..isa.decoded import DecodedOp
from ..stats.counters import Stats
from .bsi import BackingStoreInterface
from .csl import SysRegBuffer
from .policies import make_policy
from .vrmu import VRMU, writes_word


@dataclass
class ViReCConfig:
    """ViReC-specific parameters on top of :class:`CoreConfig`."""

    rf_size: int = 32                 # physical register-cache entries
    policy: str = "lrc"
    blocking_bsi: bool = False
    dummy_fill: bool = True
    pinning: bool = True
    sysreg_buffer: bool = True
    #: spill up to this many same-thread registers per eviction (paper
    #: future work: group evictions); 1 = the paper's evaluated design
    group_evict: int = 1
    #: prefetch the next thread's last-segment registers during the current
    #: run (paper future work: prefetching combined with ViReC caching)
    context_prefetch: bool = False


class ViReCCore(TimelineCore):
    """Near-memory CGMT core with a virtualized register file."""

    def __init__(self, program, icache, dcache, memory, threads,
                 virec: Optional[ViReCConfig] = None,
                 layout: Optional[ContextLayout] = None,
                 config: Optional[CoreConfig] = None,
                 stats: Optional[Stats] = None, core_id: int = 0) -> None:
        config = config or CoreConfig(name="virec", switch_on_miss=True)
        vc = self.vconfig = virec or ViReCConfig()
        policy = make_policy(vc.policy, vc.rf_size)
        # known before the first (and only) compile of the step table
        self._vrmu_inline = self._inline_stage(policy)
        super().__init__(program, icache, dcache, memory, threads,
                         config=config, stats=stats, core_id=core_id,
                         layout=layout)
        self.layout = self.layout or ContextLayout()

        self.bsi = BackingStoreInterface(
            self.dcache_request, self.layout,
            blocking=vc.blocking_bsi, dummy_fill_enabled=vc.dummy_fill,
            pinning_enabled=vc.pinning, stats=self.stats.child("bsi"))
        self.vrmu = VRMU(vc.rf_size, policy, self.bsi,
                         group_evict=vc.group_evict,
                         stats=self.stats.child("vrmu"))
        # the only reader of a thread's run-segment register set
        self.vrmu.record_segments = vc.context_prefetch
        self.sysregs = (SysRegBuffer(self.bsi, len(threads),
                                     self.stats.child("sysreg"))
                        if vc.sysreg_buffer else None)
        self._prev_tid: Optional[int] = None

        # compiler-assisted register caching: a dead-hint policy turns the
        # static liveness annotation on (filling the DecodedOp hint slots);
        # for every other policy the decode stays untouched, keeping
        # existing configs byte-identical
        if self.vrmu.dead_hints:
            annotate(self.dprog)
            self.bsi.unpin = self.dcache.unpin

        # reserve + pin the register region in the backing store
        self.dcache.register_region = self.layout.region(len(threads))

    # -- instruments -------------------------------------------------------
    @TimelineCore.fault_hook.setter
    def fault_hook(self, hook) -> None:
        """The fault injector probes register-file slots in the VRMU and
        backing-store lines in the BSI as well as fetch."""
        self.vrmu.fault_hook = self.bsi.fault_hook = hook
        TimelineCore.fault_hook.fset(self, hook)

    def _hand_sinks(self) -> None:
        super()._hand_sinks()
        observers = self._observers
        self.vrmu.sinks = sinks_for(observers, *REG_EVENTS)
        self.vrmu.hit_sinks = sinks_for(observers, "on_reg_hit")
        if self.sysregs is not None:
            self.sysregs.sinks = sinks_for(observers, "on_sysreg")

    # -- the step table ----------------------------------------------------
    def _inline_stage(self, policy) -> str:
        """How much of the register stage the bare step generates (see
        :class:`~repro.isa.compiled.EngineVariant`'s ``vrmu_inline``): the
        all-resident lookup when this class's hooks are ViReCCore's and
        the policy's touch is written in place with no segment recording
        (context prefetch), the commit pop too without dead hints."""
        cls = type(self)
        if (cls.decode_regs_ready is not ViReCCore.decode_regs_ready
                or cls.on_commit is not ViReCCore.on_commit
                or not writes_word(policy) or self.vconfig.context_prefetch):
            return ""
        return "hit" if policy.uses_dead_hints else "hit+commit"

    def _engine_variant(self) -> EngineVariant:
        """The timeline variant, with the register stage generated into a
        bare step.  An observed core calls the hooks (the fault hook and
        the VRMU's sinks sit in ``VRMU.access``), and so does a core whose
        ``vrmu.access`` is rebound per instance: a wrapper that then calls
        :meth:`_recompile_step` (``AccessTraceRecorder``) sees every
        access."""
        variant = super()._engine_variant()
        vrmu = getattr(self, "vrmu", None)      # built after the compile
        if (not self._vrmu_inline or variant.observed
                or (vrmu is not None and "access" in vars(vrmu))):
            return variant
        return replace(variant, vrmu_inline=self._vrmu_inline)

    # -- TimelineCore hooks ------------------------------------------------
    def decode_regs_ready(self, thread: ThreadContext, op: DecodedOp,
                          t_decode: int) -> int:
        return self.vrmu.access(thread.tid, op, t_decode)

    def decode_spill_wait(self) -> int:
        return self.vrmu.last_spill_wait

    def on_commit(self, thread: ThreadContext, op: DecodedOp,
                  t_commit: int) -> None:
        if op.has_regs:
            self.vrmu.on_commit(thread.tid, op)

    def on_flush(self, thread: ThreadContext, ops: Tuple[DecodedOp, ...],
                 t: int, flats: Tuple[int, ...]) -> None:
        self.vrmu.on_flush(thread.tid, ops, flats)

    def switch_extra_wait(self, t: int) -> int:
        # CSL mask: no switch while a register fill/spill is outstanding
        busy = self.bsi.busy_until
        return busy if busy > t else t

    def switch_in(self, thread: ThreadContext, t: int) -> int:
        tid = thread.tid
        vrmu = self.vrmu
        if self._prev_tid is not None and self._prev_tid != tid:
            vrmu.on_context_switch(self._prev_tid, tid)
        self._prev_tid = tid
        if self.sysregs is not None:
            t = self.sysregs.switch_to(tid, t)
        else:
            t = self.bsi.sysreg_read(t, tid)
        if self.vconfig.context_prefetch and len(self.threads) > 1:
            # warm the round-robin successor's last-segment registers while
            # this thread executes (overlapped; fills ride the BSI)
            nxt = self.threads[(tid + 1) % len(self.threads)]
            if nxt.state is not None and nxt is not thread:
                vrmu.prefetch_context(nxt.tid, t)
        # the incoming thread starts a fresh run segment
        segment = vrmu.segment_regs.get(tid)
        if segment:
            segment.clear()
        return t + self.config.switch_refill

    def drop_thread_registers(self, thread: ThreadContext) -> None:
        """Invalidate a finished task's registers without spilling them
        (task-pool redispatch support: the dead context's values must not
        reach the backing store)."""
        ts, sinks = self.vrmu.tagstore, self.vrmu.sinks
        tid = thread.tid
        # the CAM row, ascending flat (evict() clears only the cell visited)
        for slot in ts.rows[tid] if tid < len(ts.rows) else ():
            if slot >= 0:
                for sink in sinks:
                    sink.on_reg_evict(slot, tid, "task-drop", self.now)
                ts.evict(slot)
        self.vrmu.segment_regs.pop(tid, None)
        self.stats.inc("task_context_drops")

    # -- reporting -------------------------------------------------------------
    def finalize_stats(self) -> None:
        super().finalize_stats()
        self.stats.set("rf_hit_rate", self.vrmu.hit_rate)
        self.stats.set("rf_size", self.vconfig.rf_size)


def make_nsf_core(program, icache, dcache, memory, threads,
                  rf_size: int = 32, layout: Optional[ContextLayout] = None,
                  stats: Optional[Stats] = None,
                  core_id: int = 0) -> ViReCCore:
    """Named State Register File baseline [41] (Section 6.1 comparison).

    Same register-cache datapath as ViReC but: PLRU replacement, blocking
    BSI, no register-line pinning, no dummy-fill optimization, and no
    system-register prefetch buffer.
    """
    vcfg = ViReCConfig(rf_size=rf_size, policy="plru", blocking_bsi=True,
                       dummy_fill=False, pinning=False, sysreg_buffer=False)
    return ViReCCore(program, icache, dcache, memory, threads, virec=vcfg,
                     layout=layout, config=CoreConfig(name="nsf", switch_on_miss=True),
                     stats=stats, core_id=core_id)
