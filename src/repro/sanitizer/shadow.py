"""Shadow architectural register file (VSan's ground truth).

One :class:`ShadowCore` per simulated core keeps an independent
:class:`~repro.isa.func_sim.ArchState` per thread — registers, flags, pc —
advanced by :func:`~repro.isa.func_sim.arch_step`, the functional model's
own step, in store-check mode at every timing-model commit.  Because the
timeline engine commits in program order per thread and performs
functional execution at commit, a healthy simulation keeps the two copies
bit-identical; any divergence means timing-model state was corrupted (an
injected soft error, or a register-virtualization bug that let a stale or
mis-mapped value commit).

Comparisons are bit-exact: float values are compared by their IEEE-754
pattern, so a sign flip on ``0.0`` or a NaN-payload flip cannot hide behind
Python's ``==``.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Set, Tuple

from ..core.base import ThreadContext
from ..errors import SanitizerViolation
from ..isa.func_sim import ArchState, arch_step
from ..isa.instructions import MASK64, Instruction
from ..isa.registers import NUM_FP_REGS, NUM_INT_REGS, D, Reg, X
from ..memory.main_memory import MainMemory


def _bits(value: object) -> int:
    """Canonical 64-bit pattern of a register value (int or float)."""
    if isinstance(value, float):
        return struct.unpack("<Q", struct.pack("<d", value))[0]
    return int(value) & MASK64


def _fmt(value: object) -> str:
    return f"{value!r} (0x{_bits(value):016x})"


class ShadowCore:
    """Per-core shadow register file + commit-time functional replay."""

    def __init__(self, core_id: int, threads: List[ThreadContext],
                 memory: MainMemory) -> None:
        self.core_id = core_id
        self.memory = memory
        self.shadows: Dict[int, ArchState] = {
            th.tid: ArchState.copy(th) for th in threads}
        self.halted: Set[int] = set()
        #: threads whose control flow diverged: the shadow can no longer
        #: follow the timing model's instruction stream, so it freezes at
        #: the divergence point instead of absorbing wrong-path state
        self.frozen: Set[int] = set()
        #: first divergence seen while checks were deferred (interval/run
        #: granularity); raised at the next check boundary
        self.pending: Optional[SanitizerViolation] = None
        self.commits = 0

    # -- violation plumbing -------------------------------------------------
    def _violation(self, invariant: str, message: str, cycle: int,
                   details: Dict) -> SanitizerViolation:
        return SanitizerViolation(message, invariant=invariant, cycle=cycle,
                                  core_id=self.core_id, details=details)

    def _defer(self, violation: SanitizerViolation) -> None:
        if self.pending is None:
            self.pending = violation

    # -- commit-time shadow stepping ---------------------------------------
    def step_commit(self, thread: ThreadContext, inst: Instruction,
                    t_commit: int,
                    check_now: bool) -> Optional[SanitizerViolation]:
        """Advance ``thread``'s shadow past one committed instruction.

        The shadow recomputes everything from its own state.  When
        ``check_now`` the divergence checks run inline and the first
        violation is returned; otherwise divergences are recorded and
        surfaced at the next check boundary.  Never raises and never writes
        simulator state: VSan is purely observational.
        """
        tid = thread.tid
        sh = self.shadows.get(tid)
        if sh is None or tid in self.frozen or tid in self.halted:
            return self.pending if check_now else None
        self.commits += 1

        # control-flow integrity: the committed pc must be exactly where
        # the shadow's functional execution says this thread is
        if thread.pc != sh.pc:
            self.frozen.add(tid)
            v = self._violation(
                "shadow.pc",
                f"thread {tid} committed pc {thread.pc} but shadow "
                f"expects pc {sh.pc}", t_commit,
                {"tid": tid, "pc": thread.pc, "shadow_pc": sh.pc,
                 "inst": repr(inst)})
            self._defer(v)
            return v if check_now else None

        res = arch_step(sh, inst, self.memory, store=False)
        if res.halt:
            self.halted.add(tid)

        violation: Optional[SanitizerViolation] = None
        if inst.is_store and res.addr is not None:
            stored = self.memory.load(res.addr)
            if _bits(stored) != _bits(res.store_value):
                violation = self._violation(
                    "shadow.store",
                    f"thread {tid} stored {_fmt(stored)} at "
                    f"0x{res.addr:x} but shadow computed "
                    f"{_fmt(res.store_value)}", t_commit,
                    {"tid": tid, "addr": res.addr, "inst": repr(inst)})
                self._defer(violation)

        if violation is None:
            violation = self.check_thread(thread, t_commit,
                                          regs=inst.regs) or self.pending
        if check_now:
            return violation
        return None

    # -- state comparison ---------------------------------------------------
    def check_thread(self, thread: ThreadContext, cycle: int,
                     regs: Optional[Tuple[Reg, ...]] = None,
                     ) -> Optional[SanitizerViolation]:
        """Compare one thread's registers (all, or just ``regs``) + flags."""
        sh = self.shadows.get(thread.tid)
        if sh is None or thread.tid in self.frozen:
            return None
        if regs is None:
            regs = tuple(X(i) for i in range(NUM_INT_REGS)) + \
                tuple(D(i) for i in range(NUM_FP_REGS))
        for reg in regs:
            have, want = thread.read(reg), sh.read(reg)
            if _bits(have) != _bits(want):
                v = self._violation(
                    "shadow.reg",
                    f"thread {thread.tid} register {reg.name} holds "
                    f"{_fmt(have)} but shadow has {_fmt(want)}", cycle,
                    {"tid": thread.tid, "reg": reg.name, "flat": reg.flat,
                     "value": repr(have), "shadow": repr(want)})
                self._defer(v)
                return v
        tf, sf = thread.flags, sh.flags
        if (tf.n, tf.z, tf.c, tf.v) != (sf.n, sf.z, sf.c, sf.v):
            v = self._violation(
                "shadow.flags",
                f"thread {thread.tid} flags NZCV="
                f"{int(tf.n)}{int(tf.z)}{int(tf.c)}{int(tf.v)} but shadow "
                f"has {int(sf.n)}{int(sf.z)}{int(sf.c)}{int(sf.v)}", cycle,
                {"tid": thread.tid})
            self._defer(v)
            return v
        return None

    def check_all(self, threads: List[ThreadContext], cycle: int,
                  regs: Optional[Tuple[Reg, ...]] = None,
                  ) -> Optional[SanitizerViolation]:
        """Sweep every thread (``regs`` subset, or all 64) against shadow."""
        if self.pending is not None:
            return self.pending
        for th in threads:
            v = self.check_thread(th, cycle, regs=regs)
            if v is not None:
                return v
        return None
