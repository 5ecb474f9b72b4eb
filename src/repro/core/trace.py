"""Per-instruction pipeline tracing (debug/teaching aid).

Attach a :class:`PipelineTracer` to any timeline core (it is an
:class:`~repro.core.instrument.Observer`: ``core.observers += (tracer,)``)
and every committed instruction produces a record with its stage
timestamps and a stall attribution — which resource dominated the
instruction's latency.  The formatted trace reads like a classic pipeline
diagram dump:

    [t0] 12: ldr x9, [x6, x8, lsl #3]   D@105 I@106 X@107 M@109 C@155  mem+46

Tracing costs simulation speed; attach it only for short diagnostic runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from .instrument import Observer


@dataclass
class TraceRecord:
    tid: int
    pc: int
    text: str
    t_decode: int
    t_issue: int
    t_ex_done: int
    t_data: int
    t_commit: int

    @property
    def decode_stall(self) -> int:
        """Cycles spent waiting for operands / register residency."""
        return max(0, self.t_issue - (self.t_decode + 1))

    @property
    def mem_stall(self) -> int:
        """Cycles the memory system added past execute."""
        return max(0, self.t_data - self.t_ex_done)

    @property
    def dominant_stall(self) -> str:
        if self.mem_stall >= max(4, self.decode_stall):
            return f"mem+{self.mem_stall}"
        if self.decode_stall >= 2:
            return f"regs+{self.decode_stall}"
        return ""

    def format(self) -> str:
        return (f"[t{self.tid}] {self.pc:4d}: {self.text:<34} "
                f"D@{self.t_decode} I@{self.t_issue} X@{self.t_ex_done} "
                f"M@{self.t_data} C@{self.t_commit}  {self.dominant_stall}")


class PipelineTracer(Observer):
    """Bounded ring of trace records; attach with
    ``core.observers += (tracer,)``.

    A true ring: once ``limit`` records exist, each new record overwrites
    the oldest, so a long run always retains the most recent ``limit``
    committed instructions (``dropped`` counts the overwritten ones).
    Every commit but a HALT is recorded as eight fields;
    :attr:`records` builds the :class:`TraceRecord` objects when it is
    read.
    """

    def __init__(self, limit: int = 10_000) -> None:
        if limit < 1:
            raise ValueError("tracer limit must be >= 1")
        self.limit = limit
        self._recorded = 0
        self._ring: Deque[tuple] = deque(maxlen=limit)

    @property
    def records(self) -> List[TraceRecord]:
        """Retained records in chronological (commit) order."""
        return [TraceRecord(*fields) for fields in self._ring]

    @property
    def dropped(self) -> int:
        """Records overwritten by later ones: recorded minus retained."""
        return self._recorded - len(self._ring)

    def on_commit(self, thread, d, t_d, t_ops, t_regs, t_issue, t_ex_done,
                  data_at, t_c, icache_missed, load_missed) -> None:
        if not d.is_halt:
            # :meth:`record`'s body, inline: this runs once per commit
            inst = d.inst
            self._recorded += 1
            self._ring.append((thread.tid, thread.pc,
                               inst.text or inst.opcode.name.lower(), t_d,
                               t_issue, t_ex_done, data_at, t_c))

    def record(self, tid: int, pc: int, text: str, t_decode: int,
               t_issue: int, t_ex_done: int, t_data: int,
               t_commit: int) -> None:
        self._recorded += 1
        self._ring.append((tid, pc, text, t_decode, t_issue,
                           t_ex_done, t_data, t_commit))

    def format(self, last: Optional[int] = None) -> str:
        records = self.records
        rows = records[-last:] if last else records
        out = [r.format() for r in rows]
        if self.dropped:
            out.append(f"... {self.dropped} older records overwritten "
                       f"(ring limit {self.limit})")
        return "\n".join(out)

    def stall_summary(self) -> dict:
        """Aggregate stall attribution over the retained trace window."""
        records = self.records
        total = len(records) or 1
        mem = sum(r.mem_stall for r in records)
        regs = sum(r.decode_stall for r in records)
        return {
            "instructions": len(records),
            "dropped": self.dropped,
            "mem_stall_cycles": mem,
            "reg_stall_cycles": regs,
            "mem_stall_per_inst": mem / total,
            "reg_stall_per_inst": regs / total,
        }
