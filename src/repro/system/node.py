"""Multi-processor near-memory node (the Figure 11 system).

N near-memory processors share the crossbar and DRAM.  Each processor runs
its own instance of the workload (its own offloaded task batch); an address
skew decorrelates per-core data regions in the shared DRAM mapping, exactly
as distinct physical allocations would.

Cores advance in a smallest-local-clock-first interleaving: the node steps
the live core with the smallest ``now`` (the first such core in core order
on a tie), so the cores present their crossbar and DRAM requests in the
order of their clocks.  One step is one instruction or a superop chain of
ops no peer can observe: the node marks every core ``shared``, which ends
a chain before any ``ldr``/``str`` or icache line crossing and keeps
cores with VRMU hooks or observers to single-op steps.
:func:`repro.isa.compiled._build_code` states the rule and why it keeps
the single-op request order.  The clocks are kept in a list beside the
live cores and only the stepped core's entry is refreshed, which is exact
because a core's ``now`` is written by its own step and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..errors import DeadlockError
from ..memory.hierarchy import NDPMemorySystem
from ..stats.counters import Stats


class AddressSkew:
    """Per-core address offset between the L1s and the shared crossbar."""

    def __init__(self, next_level, core_id: int, skew_bytes: int = 1 << 28) -> None:
        self.next_level = next_level
        self.offset = core_id * skew_bytes

    def access(self, now: int, line_addr: int, is_write: bool = False,
               requestor: int = 0) -> int:
        return self.next_level.access(now, line_addr + self.offset,
                                      is_write, requestor)


@dataclass
class NodeResult:
    stats: Stats
    cores: list
    cycles: int
    instructions: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class NearMemoryNode:
    """Builds and runs N cores over a shared NDP memory system.

    ``core_factory(core_id, icache, dcache) -> core`` constructs each
    processor (the factory owns workload instantiation so every core gets
    its own task batch).
    """

    def __init__(self, n_cores: int, memsys: NDPMemorySystem,
                 core_factory: Callable, stats: Optional[Stats] = None) -> None:
        self.stats = stats if stats is not None else Stats("node")
        self.memsys = memsys
        self.cores = []
        for cid in range(n_cores):
            ports = memsys.ports(cid)
            # interpose the skew between each L1 and the shared crossbar;
            # core 0's offset is zero, so its L1s take the crossbar itself
            level = (AddressSkew(memsys.crossbar, cid) if cid
                     else memsys.crossbar)
            ports.icache.next_level = level
            ports.dcache.next_level = level
            core = core_factory(cid, ports.icache, ports.dcache)
            if n_cores > 1:
                core.shared = True
            self.cores.append(core)

    def run(self, max_cycles: Optional[int] = None) -> NodeResult:
        """Interleave cores by local clock until all complete.

        ``max_cycles`` is a per-run watchdog: once the slowest core's local
        clock exceeds it the run aborts with :class:`DeadlockError` (the
        resilient sweep runner turns that into a structured RunFailure
        instead of hanging a multi-hour grid on one bad configuration).
        It is checked once per step, so once per superop chain, as
        :meth:`~repro.core.base.TimelineCore.run` checks its own.
        """
        live = list(self.cores)
        # the live cores' ``now`` in ``live`` order; ``list.index`` finds
        # the first minimum, the tie rule of ``min(live, key=now)``
        clocks = [c.now for c in live]
        while live:
            now = min(clocks)
            i = clocks.index(now)
            core = live[i]
            if max_cycles is not None and now > max_cycles:
                raise DeadlockError(
                    f"cycle budget exceeded ({now} > {max_cycles})",
                    commit_tail=int(getattr(core, "commit_tail", now)),
                    committed=sum(
                        int(getattr(th, "instructions", 0))
                        for c in self.cores
                        for th in getattr(c, "threads", ())))
            if core.step():
                clocks[i] = core.now
            else:
                core.finalize_stats()
                del live[i], clocks[i]
        cycles = max(int(c.stats["cycles"]) for c in self.cores)
        instructions = sum(int(c.stats["instructions"]) for c in self.cores)
        self.stats.set("cycles", cycles)
        self.stats.set("instructions", instructions)
        self.stats.set("ipc", instructions / cycles if cycles else 0.0)
        return NodeResult(stats=self.stats, cores=self.cores, cycles=cycles,
                          instructions=instructions)
