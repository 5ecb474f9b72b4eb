"""Top-level simulation driver: RunConfig -> stats.

This is the single entry point used by the experiment drivers, the
benchmarks, and the examples.  It instantiates the workload, memory system,
and core(s) described by a :class:`~repro.system.config.RunConfig`, runs to
completion, verifies functional correctness against the workload's numpy
oracle, and returns a result record.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from .. import workloads
from ..core.cgmt import BankedCore, SoftwareSwitchCore
from ..errors import FunctionalCheckError, RunFailure
from ..core.fgmt import FGMTCore
from ..core.inorder import InOrderCore
from ..core.ooo import OoOCore
from ..core.prefetch import ExactPrefetchCore, FullContextPrefetchCore
from ..memory.hierarchy import HostMemorySystem, NDPMemorySystem
from ..stats.counters import Stats
from ..subsystems import requested
from ..virec import ViReCConfig, ViReCCore, make_nsf_core
from .config import OOO_CLOCK_RATIO, RunConfig, ndp_dcache, ndp_icache, table1_dram
from .node import NearMemoryNode, NodeResult
from .offload import offload_contexts
from .profiler import HostProfiler


@dataclass
class RunResult:
    """Outcome of one simulated configuration."""

    config: RunConfig
    cycles: int
    instructions: int
    ipc: float
    stats: Stats
    rf_hit_rate: Optional[float] = None
    correct: bool = True
    #: the run's :class:`~repro.telemetry.TelemetrySession` when the
    #: config's ``telemetry`` field is set (None otherwise).  Workers drop
    #: it before shipping a result across a process boundary.
    telemetry: Optional[object] = None
    #: the run's :class:`~repro.sanitizer.Sanitizer` when the config asked
    #: for one (None otherwise); a returned result means no violation fired
    sanitizer: Optional[object] = None
    #: the same session when the ``metrics`` field is set (None
    #: otherwise).  Workers replace it with its plain
    #: ``registry.snapshot()`` dict before shipping a result.
    metrics: Optional[object] = None
    #: the same session when the ``profile`` field is set (None
    #: otherwise); carries the verified per-cause/per-thread/per-PC cycle
    #: attribution.  Workers replace it with its plain
    #: :meth:`~repro.telemetry.TelemetrySession.profile_snapshot` dict.
    profile: Optional[object] = None
    #: host-side wall-clock profile (phase seconds + instr/s); always
    #: collected — it never feeds back into simulated timing
    host_profile: Optional[Dict] = None


def _make_core(cfg: RunConfig, instance, icache, dcache, core_id=0, stats=None):
    threads = instance.threads()
    layout = instance.layout()
    if cfg.core_type != "inorder":
        from ..core.base import ThreadState
        offload_contexts(instance.memory, layout, threads,
                         instance.init_regs, stagger=cfg.offload_stagger)
        if cfg.offload_stagger:
            for th in threads:
                th.state = ThreadState.BLOCKED

    common = dict(stats=stats, core_id=core_id, layout=layout)
    if cfg.core_type == "banked":
        return BankedCore(instance.program, icache, dcache, instance.memory,
                          threads, **common)
    if cfg.core_type == "fgmt":
        return FGMTCore(instance.program, icache, dcache, instance.memory,
                        threads, **common)
    if cfg.core_type == "swctx":
        return SoftwareSwitchCore(instance.program, icache, dcache,
                                  instance.memory, threads, **common)
    if cfg.core_type == "virec":
        rf = cfg.resolve_rf_size(len(instance.active_regs))
        vc = ViReCConfig(rf_size=rf, policy=cfg.policy, **(cfg.virec or {}))
        return ViReCCore(instance.program, icache, dcache, instance.memory,
                         threads, virec=vc, **common)
    if cfg.core_type == "nsf":
        rf = cfg.resolve_rf_size(len(instance.active_regs))
        return make_nsf_core(instance.program, icache, dcache, instance.memory,
                             threads, rf_size=rf, layout=layout,
                             stats=stats, core_id=core_id)
    if cfg.core_type == "prefetch-full":
        return FullContextPrefetchCore(instance.program, icache, dcache,
                                       instance.memory, threads, **common)
    if cfg.core_type == "prefetch-exact":
        return ExactPrefetchCore(instance.program, icache, dcache,
                                 instance.memory, threads,
                                 active_regs=instance.active_regs, **common)
    if cfg.core_type == "inorder":
        if len(threads) != 1:
            raise ValueError("inorder runs n_threads=1")
        return InOrderCore(instance.program, icache, dcache, instance.memory,
                           threads, **common)
    raise ValueError(cfg.core_type)  # pragma: no cover


def core_build(cfg: RunConfig, core_id: int = 0) -> tuple:
    """Core ``core_id``'s workload build: the arguments of
    :func:`repro.workloads.build`, whose key a sweep's build memo uses.
    The ``ooo`` host runs the whole problem as one thread."""
    if cfg.core_type == "ooo":
        return (cfg.workload, 1, cfg.n_per_thread * cfg.n_threads, cfg.seed,
                cfg.workload_kwargs)
    return (cfg.workload, cfg.n_threads, cfg.n_per_thread,
            cfg.seed + core_id, cfg.workload_kwargs)


def run_config(cfg: RunConfig, check: bool = True) -> RunResult:
    """Simulate one configuration and return its result record."""
    profiler = HostProfiler()
    if cfg.core_type == "ooo":
        return _run_ooo(cfg, check, profiler)

    stats = Stats("system")
    with profiler.phase("build"):
        if cfg.dram_preset == "hbm":
            from ..memory.dram import hbm_like_config
            dram = hbm_like_config()
        else:
            dram = replace(table1_dram(), channels=cfg.dram_channels,
                           banks_per_channel=cfg.dram_banks)
        memsys = NDPMemorySystem(
            n_cores=cfg.n_cores,
            dcache=ndp_dcache(cfg.dcache_kb, cfg.dcache_latency),
            icache=ndp_icache(), dram=dram,
            crossbar_latency=cfg.crossbar_latency, stats=stats.child("mem"))

        instances = []

        def factory(core_id, icache, dcache):
            # shared read-only with the sweep's other runs, memory copied
            inst = workloads.build(*core_build(cfg, core_id))
            instances.append(inst)
            return _make_core(cfg, inst, icache, dcache, core_id=core_id,
                              stats=stats.child(f"core{core_id}"))

        node = NearMemoryNode(cfg.n_cores, memsys, factory,
                              stats=stats.child("node"))
        # the opt-in layers the config asks for, in table order (see
        # repro/subsystems.py); a layer that is off wires nothing
        wired = [(row, module.wire(conf, cfg, node, instances))
                 for row, module, conf in requested(cfg)]

    with profiler.phase("simulate"):
        result = node.run(max_cycles=cfg.max_cycles)
        # run-end checks that may raise (VSan's sweep, the attribution
        # sum) are simulation outcomes, so they belong to this phase
        for row, handle in reversed(wired):
            if row.verify:
                handle.verify()
    for row, handle in reversed(wired):
        if row.finalize:
            handle.finalize()

    with profiler.phase("check"):
        correct = all(inst.check() for inst in instances) if check else True
    if not correct:
        raise FunctionalCheckError(
            f"functional check failed: {cfg.workload} on {cfg.core_type}")

    hit = None
    core0 = node.cores[0]
    if hasattr(core0, "vrmu"):
        hits = sum(c.vrmu.stats["hits"] for c in node.cores)
        total = hits + sum(c.vrmu.stats["misses"] for c in node.cores)
        hit = hits / total if total else 1.0
    run = RunResult(config=cfg, cycles=result.cycles,
                    instructions=result.instructions, ipc=result.ipc,
                    stats=stats, rf_hit_rate=hit, correct=correct,
                    **{name: handle for row, handle in wired
                       for field, name in zip(row.fields, row.results)
                       if name and getattr(cfg, field) is not None})
    session = run.telemetry
    run.host_profile = profiler.as_dict(
        instructions=result.instructions, cycles=result.cycles,
        events=session.event_count if session is not None else None)
    return run


def _run_ooo(cfg: RunConfig, check: bool, profiler: HostProfiler) -> RunResult:
    """Single OoO host core over the full (unpartitioned) problem."""
    # the ooo host core does not run on the timeline engine: there are no
    # observers, hook or commit clock for an opt-in layer to attach to
    asked = [field for row, _, _ in requested(cfg) for field in row.fields
             if getattr(cfg, field) is not None]
    if asked:
        raise ValueError("core_type 'ooo' does not run on the timeline "
                         "engine, so it runs none of the opt-in layers; "
                         f"drop {', '.join(asked)}")
    with profiler.phase("build"):
        inst = workloads.build(*core_build(cfg))
        host = HostMemorySystem(dram=table1_dram())
        stats = Stats("ooo-system")
        core = OoOCore(inst.program, host.icache, host.dcache, inst.memory,
                       stats=stats.child("core0"))
    with profiler.phase("simulate"):
        core_stats = core.run(
            inst.init_regs[0] if inst.init_regs else None,
            # the field is in NDP cycles; the host clock runs at twice that
            max_cycles=(int(cfg.max_cycles * OOO_CLOCK_RATIO)
                        if cfg.max_cycles is not None else None))
    with profiler.phase("check"):
        if check and not inst.check():
            raise FunctionalCheckError(
                f"functional check failed: {cfg.workload} on ooo")
    # normalize to NDP cycles: the host runs at 2 GHz
    cycles = int(core_stats["cycles"] / OOO_CLOCK_RATIO)
    instructions = int(core_stats["instructions"])
    return RunResult(config=cfg, cycles=cycles, instructions=instructions,
                     ipc=instructions / cycles if cycles else 0.0,
                     stats=stats, correct=True,
                     host_profile=profiler.as_dict(instructions=instructions,
                                                   cycles=cycles))


class ResultList(List[Optional[RunResult]]):
    """A list of per-config results that also carries structured failures.

    Behaves exactly like a plain list (so existing callers are unaffected);
    isolated-error sweeps leave ``None`` at a failed config's position —
    keeping results aligned with the input configs — and append the
    corresponding :class:`~repro.errors.RunFailure` to ``failures``.
    """

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.failures: List[RunFailure] = []


def sweep(configs: List[RunConfig], check: bool = True,
          on_error: str = "raise", jobs: Optional[int] = None,
          backend=None, ledger=None) -> List[RunResult]:
    """Run a list of configurations (the experiment drivers' workhorse).

    A fold over :func:`repro.system.sweeps.run_outcomes`, the runner
    :func:`~repro.system.sweeps.run_grid` folds into rows, that keeps the
    results themselves.

    ``on_error="raise"`` (default) is fail-fast: a serial sweep stops at
    the first failing config, a parallel one raises the first failure in
    config order once the batch is back.  ``on_error="isolate"`` records
    each failing config as a RunFailure on the returned :class:`ResultList`
    (with ``None`` as its placeholder entry) and keeps going, so one bad
    configuration cannot abort a grid.

    ``jobs``/``backend`` select the execution backend (see
    :mod:`repro.exec`): the default is serial, in-process; ``jobs=N``
    fans the configs out over N spawn workers with results returned in
    config order — parallel and serial sweeps of the same list produce
    identical result digests.

    ``ledger`` (a path or open :class:`~repro.ledger.Recorder`) appends
    every successful result to the run ledger (``source="sweep"``); when
    ``backend`` is a :class:`~repro.ledger.CachedBackend` the argument is
    ignored — the cache records its own misses.
    """
    if on_error not in ("raise", "isolate"):
        raise ValueError(f"on_error must be 'raise' or 'isolate', "
                         f"not {on_error!r}")
    from ..exec import resolve_backend
    from .manifest import config_key
    from .sweeps import run_outcomes
    backend = resolve_backend(jobs, backend)
    recorder = owns_recorder = None
    if ledger is not None:
        from ..ledger.store import open_recorder
        recorder, owns_recorder = open_recorder(ledger, backend)
    todo = [(i, cfg, config_key(cfg)) for i, cfg in enumerate(configs)]
    results = ResultList()
    try:
        for result, failure, exc in run_outcomes(todo, check, backend):
            if failure is not None:
                if on_error == "raise":
                    raise exc
                results.failures.append(failure)
            elif recorder is not None:
                recorder.record_result(result, source="sweep", checked=check)
            results.append(result)
        return results
    finally:
        if owns_recorder and recorder is not None:
            recorder.close()
