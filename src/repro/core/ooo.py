"""Simplified out-of-order core (Arm N1-class host, Figure 1 comparison).

A dataflow-limited reservation model rather than a full O3 pipeline: each
instruction dispatches in order (bounded by fetch width and ROB occupancy),
issues when its operands and a function unit are ready, and commits in
order.  Branches are assumed perfectly predicted — the near-memory kernels
are short counted loops where a real N1 predictor is essentially perfect —
so the model's performance ceiling is exactly the paper's point: dependent
loads limit ILP no matter how wide the machine is.

Table 1 parameters: 2 GHz 8-wide (2 LD, 2 FP/VEC, 4 ALU pipes), 384 physical
registers, 224 ROB entries, 113 LQ / 120 SQ.  The 2 GHz clock (vs 1 GHz NDP
cores) is applied by the experiment driver as a frequency ratio.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

from ..errors import DeadlockError
from ..isa.func_sim import ArchState, arch_step
from ..isa.instructions import Instruction
from ..isa.program import Program
from ..isa.registers import Reg
from ..memory.cache import Cache, CacheBusy
from ..memory.main_memory import MainMemory
from ..stats.counters import Stats


@dataclass
class OoOConfig:
    name: str = "ooo"
    width: int = 8
    rob_entries: int = 224
    lq_entries: int = 113
    sq_entries: int = 120
    alu_units: int = 4
    fp_units: int = 2
    ld_units: int = 2
    max_instructions: int = 50_000_000


class _UnitPool:
    """k pipelined function units; issue occupies a unit for one cycle."""

    def __init__(self, k: int) -> None:
        self.free_at = [0] * k

    def reserve(self, t: int) -> int:
        i = min(range(len(self.free_at)), key=self.free_at.__getitem__)
        start = max(t, self.free_at[i])
        self.free_at[i] = start + 1
        return start


class OoOCore:
    """Out-of-order timing model for a single thread."""

    def __init__(self, program: Program, icache: Cache, dcache: Cache,
                 memory: MainMemory, config: Optional[OoOConfig] = None,
                 stats: Optional[Stats] = None, core_id: int = 0) -> None:
        self.program = program
        self.icache = icache
        self.dcache = dcache
        self.memory = memory
        self.config = config or OoOConfig()
        self.stats = stats if stats is not None else Stats(self.config.name)
        self.core_id = core_id

        #: the thread's architectural context, stepped as the run times it
        self.state = ArchState(pc=program.entry)
        self.reg_ready: Dict[Reg, int] = {}
        self.flags_ready = 0
        self.rob: Deque[int] = deque()   # commit cycles of in-flight entries
        self.lq: Deque[int] = deque()
        self.sq: Deque[int] = deque()
        self.alu = _UnitPool(self.config.alu_units)
        self.fp = _UnitPool(self.config.fp_units)
        self.ld = _UnitPool(self.config.ld_units)
        self.fetched = 0
        self.commit_tail = 0
        self.commit_slots_used = 0

    def _queue_space(self, q: Deque[int], limit: int, t: int) -> int:
        while q and q[0] <= t:
            q.popleft()
        while len(q) >= limit:
            t = q.popleft()
        return t

    def run(self, init_regs: Optional[dict] = None,
            max_cycles: Optional[int] = None) -> Stats:
        """Run to HALT; ``init_regs`` maps Reg -> initial value (offload args).

        ``max_cycles`` is the cycle watchdog in this core's own (host)
        clock: once the commit clock passes it the run aborts with
        :class:`DeadlockError`, as the timeline cores' watchdog does.
        """
        cfg = self.config
        state = self.state
        for reg, value in (init_regs or {}).items():
            state.write(reg, value)
        instructions = 0
        # exhaustive commit-clock accounting: every commit_tail advance is
        # charged to exactly one cause, so sum(causes) == final cycles
        causes = {"commit_bw": 0, "load_wait": 0, "dataflow": 0}

        while True:
            if instructions > cfg.max_instructions:
                raise DeadlockError(
                    f"instruction budget exceeded ({instructions} > "
                    f"max_instructions={cfg.max_instructions})",
                    commit_tail=self.commit_tail, committed=instructions)
            if max_cycles is not None and self.commit_tail > max_cycles:
                raise DeadlockError(
                    f"cycle budget exceeded (host commit clock {self.commit_tail}"
                    f" > {max_cycles})",
                    commit_tail=self.commit_tail, committed=instructions)
            inst: Instruction = self.program[state.pc]

            # dispatch: width per cycle, bounded by ROB space
            t_fetch = self.fetched // cfg.width
            self.fetched += 1
            t_disp = self._queue_space(self.rob, cfg.rob_entries, t_fetch)

            # operand readiness
            t_ops = t_disp
            for reg in inst.srcs:
                t_ops = max(t_ops, self.reg_ready.get(reg, 0))
            if inst.reads_flags:
                t_ops = max(t_ops, self.flags_ready)

            result = arch_step(state, inst, self.memory)

            if inst.is_load:
                t_ops = self._queue_space(self.lq, cfg.lq_entries, t_ops)
                t_issue = self.ld.reserve(t_ops)
                while True:
                    try:
                        done = self.dcache.access(
                            t_issue, result.addr, requestor=self.core_id,
                            is_load_data=True)[0]
                        break
                    except CacheBusy as busy:
                        t_issue = self.ld.reserve(
                            max(busy.retry_at, t_issue + 1))
                self.lq.append(done)
            elif inst.is_store:
                t_ops = self._queue_space(self.sq, cfg.sq_entries, t_ops)
                t_issue = self.ld.reserve(t_ops)
                try:
                    ordered = self.dcache.access(t_issue, result.addr, True,
                                                 self.core_id)[0]
                except CacheBusy:
                    ordered = t_issue + 4
                self.sq.append(ordered)
                done = t_issue + 1
            else:
                pool = self.fp if inst.opcode.name.startswith("F") else self.alu
                t_issue = pool.reserve(t_ops)
                done = t_issue + inst.ex_latency

            # writeback / wakeup
            for reg in result.writes:
                self.reg_ready[reg] = done
            if inst.is_load:
                self.reg_ready[inst.rd] = done
            if result.new_flags is not None:
                self.flags_ready = done

            # in-order commit, width per cycle
            t_c = max(done, self.commit_tail)
            if t_c == self.commit_tail:
                self.commit_slots_used += 1
                if self.commit_slots_used >= cfg.width:
                    self.commit_tail += 1
                    self.commit_slots_used = 0
                    causes["commit_bw"] += 1
            else:
                causes["load_wait" if inst.is_load else "dataflow"] += (
                    t_c - self.commit_tail)
                self.commit_tail = t_c
                self.commit_slots_used = 1
            self.rob.append(self.commit_tail)

            if result.halt:
                break
            instructions += 1

        self.stats.set("cycles", self.commit_tail)
        self.stats.set("instructions", instructions)
        self.stats.set("ipc", instructions / self.commit_tail if self.commit_tail else 0.0)
        cause_stats = self.stats.child("cycle_causes")
        for cause, count in causes.items():
            cause_stats.set(cause, count)
        return self.stats
