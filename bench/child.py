"""Measure one workload in this interpreter; print one JSON object.

The parent (:mod:`bench.harness`) starts a fresh ``python -m bench.child``
per workload so that set-up time, peak RSS and module-level caches belong
to that workload alone.  Everything here is one process, one config at a
time, on the serial exec backend.

Order of work: calibration slice, set-up (imports, configs, work dir, one
untimed warm-up pass), calibration slice, timed repetitions with a slice
between every two configs, warm-ledger replay (``fig_sweep``), and with
``--trace 1`` a traced pass, a cProfile pass and the per-sink A/B rounds
(``virec_observed``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional

from . import calib
from .workloads import BY_NAME, OBSERVED_SINKS, n_of, observed_bare

_pc = time.perf_counter

#: rounds of the per-sink A/B comparison on ``virec_observed``
AB_ROUNDS = 3
#: configs per ``run_many`` call on ``fig_sweep``
SWEEP_CHUNK = 8


def stats_digest(result) -> str:
    """Canonical digest of everything a run observed.

    Same recipe as ``tests/core/test_engine_equivalence.py::stats_digest``.
    """
    payload = {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "ipc": round(result.ipc, 9),
        "rf_hit_rate": result.rf_hit_rate,
        "correct": result.correct,
        "stats": sorted((k, v) for k, v in result.stats.flat()),
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def label(cfg) -> str:
    parts = [cfg.workload, cfg.core_type, f"t{cfg.n_threads}"]
    if cfg.n_cores > 1:
        parts.append(f"c{cfg.n_cores}")
    if cfg.core_type in ("virec", "nsf"):
        parts.append(f"{int(cfg.context_fraction * 100)}%")
        parts.append(cfg.policy)
    return "/".join(parts)


def quartiles(values: List[float]):
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class PassResult:
    """One pass of the workload: every config once."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.norm = 0.0
        self.results: List = []

    @property
    def complete(self) -> bool:
        return bool(self.results) and all(r is not None for r in self.results)

    @property
    def instructions(self) -> int:
        return sum(r.instructions for r in self.results if r is not None)

    def phase_s(self, phase: Optional[str]) -> float:
        """Sum of a HostProfiler phase (None: the run total) over the pass."""
        total = 0.0
        for r in self.results:
            host = (r.host_profile or {}) if r is not None else {}
            total += (host.get("total_s", 0.0) if phase is None
                      else host.get("phases_s", {}).get(phase, 0.0))
        return total

    def summary(self) -> Dict:
        """The numbers kept of a repetition once its results are dropped."""
        return {"wall": self.wall, "norm": self.norm,
                "complete": self.complete,
                "instructions": self.instructions,
                "run_config_s": self.phase_s(None),
                "build_s": self.phase_s("build"),
                "simulate_s": self.phase_s("simulate"),
                "check_s": self.phase_s("check")}


class Runner:
    """Runs passes of one workload and keeps the failure ledger."""

    def __init__(self, workload, configs, workdir: str) -> None:
        from repro.experiments.common import run_many
        from repro.system import simulator

        self.workload = workload
        self.configs = configs
        self.workdir = workdir
        self._simulator = simulator
        self._run_many = run_many
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.slices: List[float] = []
        self.last_slice: Optional[float] = None
        #: first digest seen per config; later runs must reproduce it
        self.digests: Dict[int, str] = {}
        self.ledger: Optional[str] = None

    # -- timing ----------------------------------------------------------------
    def slice(self) -> float:
        self.last_slice = calib.slice_s()
        self.slices.append(self.last_slice)
        return self.last_slice

    def op(self, what: str, fn: Callable, calibrate: bool = True):
        """Run ``fn`` between two calibration slices.

        Returns ``(value, wall, normalised)``; a raising ``fn`` yields
        ``None`` and one typed line in :attr:`errors`.
        """
        if calibrate:
            before = self.last_slice if self.last_slice is not None \
                else self.slice()
        t0 = _pc()
        try:
            value = fn()
        except Exception as exc:   # boundary: the benchmark must keep running
            value = None
            text = str(exc).splitlines()[0] if str(exc) else ""
            self.errors.append(f"{self.workload.name} {what}: "
                               f"{type(exc).__name__}: {text}")
        wall = _pc() - t0
        if not calibrate:
            return value, wall, wall
        after = self.slice()
        return value, wall, calib.normalise(wall, before, after)

    # -- checking --------------------------------------------------------------
    def _check_digest(self, index: int, result) -> bool:
        digest = stats_digest(result)
        first = self.digests.setdefault(index, digest)
        if digest != first:
            self.errors.append(
                f"{self.workload.name} {label(self.configs[index])}: "
                f"DigestMismatch: {digest[:12]} after {first[:12]}")
            return False
        return True

    def _account(self, results: List) -> None:
        for index, result in enumerate(results):
            self.attempted += 1
            if result is None or not self._check_digest(index, result):
                self.failed += 1

    # -- passes ----------------------------------------------------------------
    def fresh_ledger(self) -> str:
        """An empty ledger in its own directory (SQLite adds -wal/-shm)."""
        if self.ledger is not None:
            shutil.rmtree(os.path.dirname(self.ledger))
        self.ledger = os.path.join(
            tempfile.mkdtemp(prefix="ledger-", dir=self.workdir), "ledger.db")
        return self.ledger

    def run_config(self, cfg):
        # looked up per call: the traced pass swaps the module attribute
        return self._simulator.run_config(cfg, check=True)

    def _steps(self):
        """``(what, config count, fn -> results)`` per timed stretch of a pass."""
        if not self.workload.sweep:
            for cfg in self.configs:
                yield label(cfg), 1, lambda cfg=cfg: [self.run_config(cfg)]
            return
        # the whole grid goes through run_many and one ledger, a chunk at a
        # time so that no timed stretch is far from a calibration slice
        ledger = self.fresh_ledger()
        for lo in range(0, len(self.configs), SWEEP_CHUNK):
            chunk = self.configs[lo:lo + SWEEP_CHUNK]
            yield (f"sweep[{lo}:{lo + len(chunk)}]", len(chunk),
                   lambda chunk=chunk: list(self._run_many(chunk,
                                                           cache=ledger)))

    def run_pass(self, calibrate: bool = True) -> PassResult:
        out = PassResult()
        for what, count, fn in self._steps():
            results, wall, norm = self.op(what, fn, calibrate)
            out.results += results if results is not None else [None] * count
            out.wall += wall
            out.norm += norm
        self._account(out.results)
        return out

    def warm_replay(self, cold: PassResult) -> float:
        """Replay the sweep from the ledger the last pass filled.

        Every replayed row must equal the cold run's row; each differing
        row is a failed op.  Returns the replay's normalised seconds.
        """
        ledger = self.ledger
        results, _wall, norm = self.op(
            "warm-replay", lambda: self._run_many(self.configs, cache=ledger))
        if results is None:
            results = [None] * len(self.configs)
        for index, (warm, ref) in enumerate(zip(results, cold.results)):
            self.attempted += 1
            if warm is None or ref is None or row_of(warm) != row_of(ref):
                self.failed += 1
                if warm is not None:
                    self.errors.append(
                        f"{self.workload.name} "
                        f"{label(self.configs[index])}: ReplayMismatch: "
                        f"warm row differs from the cold run")
        return norm

    def digest(self) -> str:
        blob = "".join(self.digests.get(i, "missing")
                       for i in range(len(self.configs)))
        return hashlib.sha256(blob.encode()).hexdigest()


def row_of(result):
    """What a figure driver reads from a result, plus the stats digest."""
    return (result.cycles, result.instructions, result.ipc,
            result.rf_hit_rate, stats_digest(result))


# -- simulated (exact) metrics ------------------------------------------------

def _total(results, pattern: str) -> float:
    """Sum of every flat stat whose dotted key matches ``pattern``."""
    rx = re.compile(pattern)
    return sum(v for r in results for k, v in r.stats.flat() if rx.search(k))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def simulated_metrics(results) -> Dict[str, float]:
    cycles = sum(r.cycles for r in results)
    instr = sum(r.instructions for r in results)
    hits = _total(results, r"core\d+\.vrmu\.hits$")
    misses = _total(results, r"core\d+\.vrmu\.misses$")
    d_acc = _total(results, r"mem\.dcache\d+\.(reads|writes)$")
    rows = _total(results, r"mem\.dram\.row_(hits|empty|misses)$")
    return {
        "core.sim_cycles": cycles,
        "core.sim_instructions": instr,
        "core.ipc": _ratio(instr, cycles),
        "core.context_switches": _total(results,
                                        r"core\d+\.context_switches$"),
        "virec.rf_hit_rate": _ratio(hits, hits + misses),
        "virec.spill_evictions": _total(results,
                                        r"core\d+\.vrmu\.spill_evictions$"),
        "virec.victim_wait_cycles": _total(
            results, r"core\d+\.vrmu\.victim_wait_cycles$"),
        "memory.icache_access_calls": _total(
            results, r"mem\.icache\d+\.(reads|writes)$"),
        "memory.dcache_access_calls": d_acc,
        "memory.dcache_miss_rate": _ratio(
            _total(results, r"mem\.dcache\d+\.misses$"), d_acc),
        "memory.dram_row_hit_rate": _ratio(
            _total(results, r"mem\.dram\.row_hits$"), rows),
    }


def experiment_metrics(configs, results) -> Dict[str, float]:
    """The Fig 9 / Fig 12 numbers the sweep's own rows give.

    Slice values (two workloads, one workload) for orientation beside the
    paper's full-suite numbers; computed as the figure drivers do —
    speedup = banked cycles / cycles, geometric mean over the cells.
    """
    from repro.experiments.common import geomean

    banked = None
    speedup = {80: [], 40: []}
    fig12 = {}
    for cfg, r in zip(configs, results):
        if cfg.workload == "pointer_chase":
            fig12[(int(cfg.context_fraction * 100), cfg.policy)] = r
        elif cfg.core_type == "banked":
            banked = r.cycles
        elif cfg.core_type == "virec":
            pct = int(cfg.context_fraction * 100)
            if pct in speedup:
                speedup[pct].append(banked / r.cycles)
    lrc, plru = fig12[(80, "lrc")], fig12[(80, "plru")]
    return {
        "experiments.fig9_virec80_vs_banked": geomean(speedup[80]),
        "experiments.fig9_virec40_vs_banked": geomean(speedup[40]),
        "experiments.fig12_lrc_hit80": lrc.rf_hit_rate,
        "experiments.fig12_lrc_vs_plru80": plru.cycles / lrc.cycles,
    }


# -- traced / profiled passes -------------------------------------------------

_LAYER_OF_FILE = (("/repro/virec/", "virec"), ("/repro/memory/", "memory"))


def profile_pass(runner: Runner):
    """cProfile one pass: (total calls, Stats.inc calls by calling layer)."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        runner.run_pass(calibrate=False)
    finally:
        profiler.disable()
    table = pstats.Stats(profiler).stats
    total = sum(nc for (_cc, nc, _tt, _ct, _callers) in table.values())
    inc_by_layer = {"virec": 0, "memory": 0, "other": 0}
    for (filename, _line, name), entry in table.items():
        if name != "inc" or not filename.replace(os.sep, "/").endswith(
                "/repro/stats/counters.py"):
            continue
        for (caller_file, _l, _n), caller in entry[4].items():
            caller_file = caller_file.replace(os.sep, "/")
            layer = next((layer for part, layer in _LAYER_OF_FILE
                          if part in caller_file), "other")
            inc_by_layer[layer] += caller[1]
    return total, inc_by_layer


def traced_metrics(runner: Runner, untraced_norm: float,
                   spans_path: Optional[str]) -> Dict[str, float]:
    from .trace import Tracer, stats_inc_ns

    tracer = Tracer()
    tracer.install({cfg.workload for cfg in runner.configs})
    try:
        gc.collect()
        traced = runner.run_pass()
        if runner.workload.sweep:
            runner.warm_replay(traced)
    finally:
        tracer.remove()
    if spans_path:
        with open(spans_path, "w") as fh:
            json.dump({"workload": runner.workload.name,
                       "configs": [label(c) for c in runner.configs],
                       "spans": tracer.span_dicts()}, fh)

    gc.collect()
    total_calls, inc_by_layer = profile_pass(runner)
    inc_calls = sum(inc_by_layer.values())
    inc_ns = stats_inc_ns()
    instr = traced.instructions

    vrmu_events = ("VRMU.on_commit", "VRMU.on_flush", "VRMU.on_context_switch")
    bsi = ("BSI.fill", "BSI.dummy_fill", "BSI.spill")
    virec_self = tracer.self_s("VRMU.access", "TagStore.select_victim",
                               *bsi, *vrmu_events)
    memory_self = tracer.self_s("Cache.access", "Crossbar.access",
                                "DRAM.access")
    run_self = tracer.self_s("NearMemoryNode.run")
    #: simulate time of the traced pass with the wrappers' own cost removed
    sim_net = run_self + virec_self + memory_self
    dispatch_self = max(run_self - inc_by_layer["other"] * inc_ns * 1e-9, 0.0)

    cache_calls = tracer.calls("Cache.access")
    out = {
        "system.trace_overhead_x": _ratio(traced.norm, untraced_norm),
        "system.py_calls_per_instr": _ratio(total_calls, instr),
        "workloads.build_s": tracer.self_s("WorkloadSpec.build"),
        "workloads.build_calls": tracer.calls("WorkloadSpec.build"),
        "workloads.check_s": tracer.incl_s("WorkloadInstance.check"),
        "isa.assemble_s": tracer.incl_s("assemble"),
        "isa.decode_s": tracer.incl_s("DecodedProgram.of"),
        "isa.compile_s": tracer.incl_s("compile_program"),
        "isa.compile_calls": tracer.calls("compile_program"),
        "core.dispatch_self_s": dispatch_self,
        "core.dispatch_share": _ratio(dispatch_self, sim_net),
        "core.us_per_instr": _ratio(dispatch_self, instr) * 1e6,
        "virec.vrmu_access_calls": tracer.calls("VRMU.access"),
        "virec.vrmu_access_self_s": tracer.self_s("VRMU.access"),
        "virec.vrmu_access_ns": _ratio(tracer.self_s("VRMU.access"),
                                       tracer.calls("VRMU.access")) * 1e9,
        "virec.select_victim_calls": tracer.calls("TagStore.select_victim"),
        "virec.select_victim_s": tracer.self_s("TagStore.select_victim"),
        "virec.bsi_calls": tracer.calls(*bsi),
        "virec.bsi_self_s": tracer.self_s(*bsi),
        "virec.commit_flush_s": tracer.self_s(*vrmu_events),
        "virec.share": _ratio(virec_self, sim_net),
        "memory.cache_access_self_s": tracer.self_s("Cache.access"),
        "memory.cache_access_ns": _ratio(tracer.self_s("Cache.access"),
                                         cache_calls) * 1e9,
        "memory.crossbar_self_s": tracer.self_s("Crossbar.access"),
        "memory.dram_access_calls": tracer.calls("DRAM.access"),
        "memory.dram_self_s": tracer.self_s("DRAM.access"),
        "memory.share": _ratio(memory_self, sim_net),
        "stats.inc_calls": inc_calls,
        "stats.inc_per_instr": _ratio(inc_calls, instr),
        "stats.inc_ns": inc_ns,
        "stats.share_est": _ratio(inc_calls * inc_ns * 1e-9, sim_net),
    }
    if traced.complete:
        # every Cache.access bumps exactly one of reads/writes, so the
        # wrapper's count must equal the simulator's own
        sim = simulated_metrics(traced.results)
        counted = (sim["memory.icache_access_calls"]
                   + sim["memory.dcache_access_calls"])
        if counted != cache_calls:
            runner.failed += 1
            runner.errors.append(
                f"{runner.workload.name} trace: TraceMismatch: wrapped "
                f"Cache.access calls {cache_calls} != simulated {counted:.0f}")
    if runner.workload.sweep:
        out.update({
            "exec.map_self_s": tracer.self_s("backend.map"),
            "ledger.record_s": tracer.incl_s("Recorder.record_result"),
            "ledger.record_calls": tracer.calls("Recorder.record_result"),
            "ledger.lookup_s": tracer.incl_s("LedgerReader.lookup_result"),
        })
    return out


def sink_overheads(runner: Runner, seed: int, size, rounds: int):
    """Each observability sink alone against the bare config, interleaved."""
    # half size: the sanitizer alone is ~6x the bare run
    bare = observed_bare(seed, lambda n: max(2, size(n) // 2))
    variants = [("bare", bare)] + [(name, bare.with_(**fields))
                                   for name, fields in OBSERVED_SINKS.items()]
    ratios: Dict[str, List[float]] = {name: [] for name in OBSERVED_SINKS}
    events_per_instr = 0.0
    for _ in range(rounds):
        gc.collect()
        norms = {}
        for name, cfg in variants:
            result, _wall, norm = runner.op(
                f"{label(cfg)}+{name}", lambda: runner.run_config(cfg))
            runner.attempted += 1
            if result is None:
                runner.failed += 1
                continue
            norms[name] = norm
            if name == "telemetry":
                events_per_instr = _ratio(result.telemetry.event_count,
                                          result.instructions)
        for name in ratios:
            if name in norms and "bare" in norms:
                ratios[name].append(norms[name] / norms["bare"])
    out = {f"{name}.overhead_x": statistics.median(vals) if vals else 0.0
           for name, vals in ratios.items()}
    out["telemetry.events_per_instr"] = events_per_instr
    return out


# -- entry point --------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench.child")
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-reps", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    # ---- set-up: everything before the first timed repetition
    c0 = calib.slice_s()
    t0 = _pc()
    workload = BY_NAME[args.workload]
    size = n_of(args.smoke)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=args.workdir)
    try:
        # untimed warm-up pass at smoke size: imports every module the
        # workload touches and fills module-level caches
        warm = Runner(workload, workload.configs(args.seed, n_of(True)),
                      workdir)
        warm.run_pass(calibrate=False)
        runner = Runner(workload, workload.configs(args.seed, size), workdir)
        setup_raw = _pc() - t0
        c1 = runner.slice()
        out = {"setup_s": calib.normalise(setup_raw, c0, c1)}
        if not args.setup_only:
            out.update(measure(runner, args, size))
        out.update(attempted=warm.attempted + runner.attempted,
                   failed=warm.failed + runner.failed,
                   errors=warm.errors + runner.errors)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


def measure(runner: Runner, args, size) -> Dict:
    workload = runner.workload
    reps: List[Dict] = []
    started = _pc()
    while len(reps) < args.min_reps or _pc() - started < args.seconds:
        # only summaries outlive a repetition: results kept across the loop
        # would make peak RSS grow with the number of repetitions
        last = None
        gc.collect()
        last = runner.run_pass()
        reps.append(last.summary())
    good = [r for r in reps if r["complete"]] or reps
    norms = [r["norm"] for r in good]
    q1, norm_s, q3 = quartiles(norms)
    instr = good[-1]["instructions"]
    layer: Dict[str, float] = {}

    if workload.sweep:
        layer["ledger.warm_replay_s"] = runner.warm_replay(last)
        layer["ledger.db_bytes"] = os.path.getsize(runner.ledger)

    out = {
        "digest": runner.digest(),
        "instructions": instr,
        "reps": len(reps),
        "norm_s": {"value": norm_s, "q1": q1, "q3": q3, "samples": norms},
        "sim_kips": {"value": _ratio(instr, norm_s) / 1e3,
                     "q1": _ratio(instr, q3) / 1e3,
                     "q3": _ratio(instr, q1) / 1e3,
                     "samples": [_ratio(instr, n) / 1e3 for n in norms]},
        # read before the traced passes: spans and cProfile tables are the
        # benchmark's memory, not the workload's
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        for key in ("run_config_s", "build_s", "simulate_s", "check_s"):
            layer[f"system.{key}"] = statistics.median(r[key] for r in good)
        layer["system.wall_s_raw"] = statistics.median(r["wall"] for r in good)
        layer["system.noise_iqr_pct"] = _ratio(q3 - q1, norm_s) * 100.0
        if last.complete:
            layer.update(simulated_metrics(last.results))
            if workload.sweep:
                layer.update(experiment_metrics(runner.configs, last.results))
        last = None
        layer.update(traced_metrics(runner, norm_s, args.spans))
        if workload.observed:
            layer.update(sink_overheads(runner, args.seed, size,
                                        1 if args.smoke else AB_ROUNDS))
        layer["system.calib_s"] = statistics.median(runner.slices)
        out["per_layer"] = layer
    return out


if __name__ == "__main__":
    sys.exit(main())
