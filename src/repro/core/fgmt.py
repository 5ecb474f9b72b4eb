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
        # variant per instrument state, regardless of configuration
        return EngineVariant(
            family="barrel",
            observed=self._fault_hook is not None or bool(self._observers))

    # run() is inherited: the base watchdog loop drives the overridden
    # step(), and commit_tail advances per instruction here as well, so
    # both the instruction budget and the cycle watchdog apply unchanged.

    def thread_start_cost(self, thread: ThreadContext, t: int) -> int:
        """Fetch the offloaded context into the thread's bank (as banked)."""
        done = t
        base = self.layout.base + thread.tid * self.layout.bytes_per_thread
        lines = list(self.layout.touched_gp_lines) + [self.layout.GP_LINES]
        for i, line in enumerate(lines):
            done = max(done, self.dcache_request(
                t + i, base + line * LINE_BYTES)[1])
        self.stats.inc("context_fetches")
        return done
