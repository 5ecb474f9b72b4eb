"""Workload framework: near-memory kernels with generators and checkers.

Each workload corresponds to a kernel family from the benchmark suites the
paper evaluates (Spatter [36], Arm meabo [7], CORAL-2 [1], PrIM [28]) and
provides:

* assembly source for the mini-ISA, written so every hardware thread
  partitions the iteration space by its thread id (``x0``) — the task-level
  offload convention of Section 6;
* a deterministic data generator (seeded numpy);
* an output checker computed independently with numpy;
* register metadata: ``used_regs`` (the whole context the kernel touches,
  after compiler register reduction of outer-loop values, Section 4.2) and
  ``active_regs`` (the inner-loop working set that drives Figure 2 and the
  ViReC context-percentage sweeps).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.cgmt import ContextLayout, make_threads
from ..isa import Program, X, assemble
from ..memory.main_memory import MainMemory


@dataclass
class WorkloadInstance:
    """A fully materialized run: program + initialized memory + expectations."""

    name: str
    program: Program
    memory: MainMemory
    n_threads: int
    init_regs: List[Dict]                    # per-thread offloaded context
    used_regs: Tuple[int, ...]               # flat indices, whole kernel
    active_regs: Tuple[int, ...]             # flat indices, inner loop
    checker: Callable[[MainMemory], bool]
    symbols: Dict[str, int] = field(default_factory=dict)

    def layout(self, base: int = 0x8000_0000) -> ContextLayout:
        return ContextLayout(base=base, used_regs=self.used_regs)

    def threads(self):
        return make_threads(self.n_threads, entry_pc=self.program.entry,
                            init_regs=self.init_regs)

    def check(self) -> bool:
        """Verify the kernel's outputs in memory against the numpy oracle."""
        return self.checker(self.memory)


@dataclass(frozen=True)
class WorkloadSpec:
    """Registered workload: metadata + builder."""

    name: str
    suite: str                      # spatter / meabo / coral-2 / prim
    description: str
    build: Callable[..., WorkloadInstance]
    #: loads in the innermost loop (characterization, Table/figure text)
    loads_per_iter: int
    #: qualitative access pattern tag
    pattern: str


_REGISTRY: Dict[str, WorkloadSpec] = {}


def register(spec: WorkloadSpec) -> WorkloadSpec:
    """Add a workload to the global registry (module-import time)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"duplicate workload {spec.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> WorkloadSpec:
    """Look up a registered workload by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown workload {name!r}; available: {sorted(_REGISTRY)}")


def all_workloads() -> List[WorkloadSpec]:
    """Every registered workload, sorted by name."""
    return [spec for _, spec in sorted(_REGISTRY.items())]


def names() -> List[str]:
    """Sorted names of all registered workloads."""
    return sorted(_REGISTRY)


# -- builds shared within one sweep ---------------------------------------------
#: the memo of the sweep task running in this context (None outside one)
_MEMO: ContextVar[Optional["BuildMemo"]] = ContextVar("build_memo",
                                                      default=None)


def build_key(name: str, n_threads: int, n_per_thread: int, seed: int,
              kwargs: Dict) -> Optional[str]:
    """Canonical JSON of one build's arguments; None when a value does not
    serialize (that build is never shared)."""
    try:
        return json.dumps([name, n_threads, n_per_thread, seed, kwargs],
                          sort_keys=True)
    except (TypeError, ValueError):
        return None


class BuildMemo:
    """Workload builds shared by the tasks of one sweep call.

    ``needs`` holds, per task, the :func:`build_key` of every build the
    task makes.  A key two or more tasks need is built once, and its
    template is dropped when the last of them takes its instance.  Every
    run gets the template's program, decode and metadata read-only and
    its own copy of the memory image, so no run can see another's stores.
    """

    def __init__(self, needs: Iterable[Iterable[Optional[str]]]) -> None:
        self._left: Dict[str, int] = {}
        for keys in needs:
            for key in keys:
                if key is not None:
                    self._left[key] = self._left.get(key, 0) + 1
        self._templates: Dict[str, WorkloadInstance] = {}

    @contextmanager
    def active(self):
        """Serve :func:`build` calls from this memo for the body's span."""
        token = _MEMO.set(self)
        try:
            yield
        finally:
            _MEMO.reset(token)

    def instance(self, key: Optional[str],
                 make: Callable[[], WorkloadInstance]) -> WorkloadInstance:
        """One use of ``key``: a copy of its template, built by ``make()``
        on the first of several uses; a single use gets ``make()`` itself."""
        left = self._left.pop(key, 0)
        if left > 1:
            self._left[key] = left - 1
            template = self._templates.get(key)
            if template is None:
                template = self._templates[key] = make()
        else:
            template = self._templates.pop(key, None)
            if template is None:
                return make()
        return replace(template, memory=template.memory.copy())


def build(name: str, n_threads: int, n_per_thread: int, seed: int,
          kwargs: Dict) -> WorkloadInstance:
    """``get(name).build(...)``, shared through the active
    :class:`BuildMemo` when a sweep task runs in this context.

    ``kwargs["schedule"] = True`` is not a builder argument: it replaces
    the built program by its basic-block list schedule
    (:func:`repro.compiler.schedule_program`)."""
    def make() -> WorkloadInstance:
        args = dict(kwargs)
        schedule = args.pop("schedule", False)
        inst = get(name).build(n_threads=n_threads,
                               n_per_thread=n_per_thread, seed=seed, **args)
        if schedule:
            from ..compiler import schedule_program
            inst = replace(inst, program=schedule_program(inst.program).program)
        return inst
    memo = _MEMO.get()
    if memo is None:
        return make()
    return memo.instance(
        build_key(name, n_threads, n_per_thread, seed, kwargs), make)


# -- shared helpers -----------------------------------------------------------

DATA_BASE = 0x0100_0000     # workload arrays live well below the register region


def array_base(k: int) -> int:
    """Byte address for the k-th array of a workload.

    Arrays are 1 MiB apart plus a 7-line stagger so same-index elements of
    different arrays do not alias onto one dcache set (the padding any real
    allocator/benchmark uses to avoid pathological set conflicts)."""
    return DATA_BASE + k * 0x10_0000 + k * 0x1C0


def flats(*regs) -> Tuple[int, ...]:
    """Flat indices of a register list (accepts Reg objects)."""
    return tuple(sorted(r.flat for r in regs))


def partition_header(chunk_sym: str = "chunk") -> str:
    """Standard prologue: compute [start, end) from tid in x0."""
    return f"""
start:
    mov  x2, #{chunk_sym}
    mul  x3, x0, x2        ; i = tid * chunk
    add  x4, x3, x2        ; end = i + chunk
"""


def make_instance(name, src, symbols, mem, n_threads, used, active, checker,
                  extra_init=None) -> WorkloadInstance:
    """Assemble a kernel and wrap it with per-thread contexts + metadata."""
    program = assemble(src, symbols=symbols, name=name)
    init = []
    for tid in range(n_threads):
        regs = {X(0): tid, X(1): n_threads}
        if extra_init:
            regs.update(extra_init(tid))
        init.append(regs)
    return WorkloadInstance(
        name=name, program=program, memory=mem, n_threads=n_threads,
        init_regs=init, used_regs=tuple(sorted(used)),
        active_regs=tuple(sorted(active)), checker=checker, symbols=symbols)
