"""Parameterized synthetic kernel generator.

The named kernels pin down specific points in workload space; this module
generates kernels *anywhere* in it, controlled by three knobs:

``working_set``
    registers kept live in the inner loop (2-16) — the x-axis of the
    register-provisioning study;
``alu_per_load``
    arithmetic intensity: ALU ops executed per load (0-16);
``indirection``
    False = streaming load (``data[i]``), True = indirect (``data[idx[i]]``).

The generated inner loop rotates through ``working_set`` accumulator
registers so each is genuinely live across iterations (a register allocator
could not shrink the set), which makes the generator a precise instrument
for ViReC sizing questions: at what provisioned fraction of
``threads x working_set`` does the hit rate collapse?
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..isa import X
from ..isa.instructions import MASK64
from ..memory.main_memory import MainMemory
from .registry import (
    WorkloadInstance,
    WorkloadSpec,
    array_base,
    make_instance,
    register,
)

#: registers available for accumulators: x8..x23 (x0-x7 are kernel plumbing)
_ACC_BASE = 8
_MAX_WORKING_SET = 16


def build_synthetic(n_threads: int = 8, n_per_thread: int = 64,
                    working_set: int = 6, alu_per_load: int = 2,
                    indirection: bool = True,
                    footprint_words: int = 4096,
                    seed: int = 71) -> WorkloadInstance:
    """Generate a kernel with the requested register/arithmetic profile.

    Semantics: accumulators ``a0..a{w-1}`` start at 0; iteration ``i``
    loads ``v`` (direct or indirect), then performs ``alu_per_load``
    additions rotating through the accumulators (``a[(i*alu+j) % w] += v+j``
    in spirit — exact reference computed by the oracle below); at the end
    each thread stores the xor-sum of its accumulators.
    """
    if not 2 <= working_set <= _MAX_WORKING_SET:
        raise ValueError(f"working_set must be in [2, {_MAX_WORKING_SET}]")
    if alu_per_load < 0:
        raise ValueError("alu_per_load must be >= 0")
    n = n_threads * n_per_thread
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, footprint_words, size=n)
    data = rng.integers(1, 1 << 20, size=footprint_words)

    mem = MainMemory()
    sym = {"idx": array_base(0), "data": array_base(1),
           "out": array_base(2), "chunk": n_per_thread}
    mem.write_array(sym["idx"], idx)
    mem.write_array(sym["data"], data)

    accs = [X(_ACC_BASE + i) for i in range(working_set)]
    load_tmp = X(_ACC_BASE + _MAX_WORKING_SET)      # x24
    idx_tmp = X(7)

    lines: List[str] = ["start:",
                        "    mov  x2, #chunk",
                        "    mul  x3, x0, x2",
                        "    add  x4, x3, x2",
                        "    adr  x5, idx",
                        "    adr  x6, data"]
    for acc in accs:
        lines.append(f"    mov  {acc.name}, #0")
    lines.append("loop:")
    if indirection:
        lines.append(f"    ldr  {idx_tmp.name}, [x5, x3, lsl #3]")
        lines.append(f"    ldr  {load_tmp.name}, [x6, {idx_tmp.name}, lsl #3]")
    else:
        lines.append(f"    ldr  {load_tmp.name}, [x6, x3, lsl #3]")
    for j in range(alu_per_load):
        acc = accs[j % working_set]
        lines.append(f"    add  {acc.name}, {acc.name}, {load_tmp.name}")
    if alu_per_load == 0:
        lines.append(f"    add  {accs[0].name}, {accs[0].name}, "
                     f"{load_tmp.name}")
    lines.append("    add  x3, x3, #1")
    lines.append("    cmp  x3, x4")
    lines.append("    b.lt loop")
    # epilogue: combine accumulators and store per-thread result
    lines.append(f"    mov  {idx_tmp.name}, #0")
    for acc in accs:
        lines.append(f"    add  {idx_tmp.name}, {idx_tmp.name}, {acc.name}")
    lines.append("    adr  x6, out")
    lines.append(f"    str  {idx_tmp.name}, [x6, x0, lsl #3]")
    lines.append("    halt")
    src = "\n".join(lines)

    # oracle
    eff_alu = max(1, alu_per_load)
    expected = []
    for tid in range(n_threads):
        lo, hi = tid * n_per_thread, (tid + 1) * n_per_thread
        vals = data[idx[lo:hi]] if indirection else data[lo:hi]
        total = int(vals.sum()) * eff_alu
        expected.append(total & MASK64)

    def check(m: MainMemory) -> bool:
        return m.read_array(sym["out"], n_threads) == expected

    plumbing = [X(i).flat for i in (0, 2, 3, 4, 5, 6, 7)]
    used = tuple(sorted(set(plumbing + [a.flat for a in accs]
                            + [load_tmp.flat])))
    active = tuple(sorted({X(3).flat, X(4).flat, X(5).flat, X(6).flat,
                           X(7).flat, load_tmp.flat}
                          | {a.flat for a in accs}))
    return make_instance("synthetic", src, sym, mem, n_threads, used,
                         active, check)


register(WorkloadSpec("synthetic", "generator",
                      "parameterized register/arithmetic profile kernel",
                      build_synthetic, loads_per_iter=2, pattern="tunable"))
