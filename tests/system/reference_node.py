"""Test-only reference interleave: the ``NearMemoryNode.run`` loop of
``repro/system/node.py`` as it was before it kept a clock list, kept
verbatim as the model the production loop is compared against
(``test_node_interleave.py``).

Each turn scans every live core with ``min(live, key=lambda c: c.now)``;
the production loop reads the same minimum off a list of the live cores'
clocks it updates after each step.  Nothing here is imported by ``src/``.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import DeadlockError
from repro.system.node import NodeResult


def run(self, max_cycles: Optional[int] = None) -> NodeResult:
    """Interleave cores by local clock until all complete.

    ``max_cycles`` is a per-run watchdog: once the slowest core's local
    clock exceeds it the run aborts with :class:`DeadlockError` (the
    resilient sweep runner turns that into a structured RunFailure
    instead of hanging a multi-hour grid on one bad configuration).
    """
    live = list(self.cores)
    while live:
        core = min(live, key=lambda c: c.now)
        if max_cycles is not None and core.now > max_cycles:
            raise DeadlockError(
                f"cycle budget exceeded ({core.now} > {max_cycles})",
                commit_tail=int(getattr(core, "commit_tail", core.now)),
                committed=sum(
                    int(getattr(th, "instructions", 0))
                    for c in self.cores
                    for th in getattr(c, "threads", ())))
        if not core.step():
            core.finalize_stats()
            live.remove(core)
    cycles = max(int(c.stats["cycles"]) for c in self.cores)
    instructions = sum(int(c.stats["instructions"]) for c in self.cores)
    self.stats.set("cycles", cycles)
    self.stats.set("instructions", instructions)
    self.stats.set("ipc", instructions / cycles if cycles else 0.0)
    return NodeResult(stats=self.stats, cores=self.cores, cycles=cycles,
                      instructions=instructions)
