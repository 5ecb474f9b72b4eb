"""Host-side wall-clock profiler: where does *simulator* time go?

Separate from the simulated-cycle instruments: this measures the
reproduction tool itself (phase wall-clock, simulated instructions per
host second) so simulator performance regressions are visible run-over-run
— every result carries them as ``host_profile``, the run ledger keeps the
rate per digest (``repro inspect``), and ``python -m bench`` sums the
phases per workload.

Wall-clock numbers never feed back into simulated timing and are excluded
from deterministic artifacts (manifest digests, metrics JSONL).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Optional


class HostProfiler:
    """Named-phase wall-clock accumulator."""

    def __init__(self) -> None:
        self.phases: Dict[str, float] = {}
        self._order = []
        self._t0 = time.perf_counter()

    @contextmanager
    def phase(self, name: str):
        """Accumulate the body's wall-clock under ``name``."""
        if name not in self.phases:
            self.phases[name] = 0.0
            self._order.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] += time.perf_counter() - start

    @property
    def total_s(self) -> float:
        return time.perf_counter() - self._t0

    def as_dict(self, instructions: Optional[int] = None,
                cycles: Optional[int] = None,
                events: Optional[int] = None) -> Dict:
        """Phase table plus derived throughput rates."""
        total = self.total_s
        out: Dict = {
            "total_s": round(total, 6),
            "phases_s": {name: round(self.phases[name], 6)
                         for name in self._order},
        }
        sim = self.phases.get("simulate")
        if sim and instructions is not None:
            out["instr_per_s"] = round(instructions / sim, 1)
        if sim and cycles is not None:
            out["cycles_per_s"] = round(cycles / sim, 1)
        if sim and events is not None:
            out["events_per_s"] = round(events / sim, 1)
        return out
