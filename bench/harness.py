"""Parent side of the benchmark: one fresh child interpreter per workload.

Children run one after another (the host has two cores; nothing here runs
in parallel).  Set-up is timed several times per workload — two set-up-only
children before the measuring child — because it happens once per process
and a single sample cannot give a median.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import Dict, List, Optional

from . import calib
from .child import quartiles

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
#: scratch space for temp ledgers; inside the checkout, git-ignored
WORK_ROOT = os.path.join(BENCH_DIR, ".work")

#: set-up-only children started before the measuring child
SETUP_PROBES = 2
#: fewest timed repetitions whatever ``--seconds`` says
MIN_REPS = 3
#: the driver's hard limit per run is 180 s
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def load_spec() -> Dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _child(workload: str, seed: int, seconds: float, min_reps: int,
           trace: int, smoke: bool, setup_only: bool = False,
           spans: Optional[str] = None) -> Dict:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise BenchError(f"no simulator to measure: {src}/repro is missing")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "bench.child", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--min-reps", str(min_reps), "--trace", str(trace),
           "--workdir", WORK_ROOT]
    if smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: child exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 probes: int, smoke: bool = False,
                 spans: Optional[str] = None) -> Dict:
    """Measure one workload; returns its record for the output file.

    ``probes`` set-up-only children run first, then the measuring child:
    ``seconds`` of untraced repetitions and, with ``trace=1``, the traced,
    cProfile and A/B passes after them.  ``smoke`` shrinks every size and
    runs exactly two repetitions.
    """
    min_reps = MIN_REPS
    if smoke:
        seconds, min_reps = 0.0, 2
    os.makedirs(WORK_ROOT, exist_ok=True)
    try:
        setups = [_child(name, seed, 0.0, 0, 0, smoke,
                         setup_only=True)["setup_s"] for _ in range(probes)]
        child = _child(name, seed, seconds, min_reps, trace, smoke,
                       spans=spans)
    finally:
        shutil.rmtree(WORK_ROOT, ignore_errors=True)
    setups.append(child["setup_s"])
    q1, med, q3 = quartiles(setups)
    rss = child["peak_rss_mb"]
    attempted, failed = child["attempted"], child["failed"]
    record = {
        "digest": child["digest"],
        "instructions": child["instructions"],
        "reps": child["reps"],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "errors": child["errors"],
        "end_to_end": {
            "norm_s": child["norm_s"],
            "sim_kips": child["sim_kips"],
            "setup_s": {"value": med, "q1": q1, "q3": q3, "samples": setups},
            "peak_rss_mb": {"value": rss, "q1": rss, "q3": rss,
                            "samples": [rss]},
        },
    }
    if "per_layer" in child:
        record["per_layer"] = child["per_layer"]
    return record


# -- driver mode: one workload, one JSON line ---------------------------------

def driver_line(spec: Dict, record: Dict, trace: int) -> str:
    """The contract's result object for one run.

    Every declared metric is present.  A per-layer metric that does not
    exist on this workload (``*.overhead_x`` off ``virec_observed``,
    ``ledger.*`` off ``fig_sweep``) reads 0.
    """
    if trace:
        have = record["per_layer"]
        metrics = {m["name"]: {"value": have.get(m["name"], 0.0),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": record["end_to_end"][m["name"]]["value"],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return json.dumps({"correct": record["failed"] == 0,
                       "attempted": record["attempted"],
                       "failed": record["failed"],
                       "metrics": metrics})


# -- human mode: every workload, tables ---------------------------------------

def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 10:
        return f"{int(value)}"
    if abs(value) >= 100:
        return f"{value:.1f}"
    if abs(value) >= 1:
        return f"{value:.3f}"
    return f"{value:.5f}"


def print_report(spec: Dict, report: Dict, out=sys.stdout) -> None:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    w = out.write
    w(f"bench: seed {report['seed']}"
      f"{' (smoke)' if report['smoke'] else ''}, "
      f"CALIB_REF_S {report['calib_ref_s']} s; host-time metrics are "
      f"reference-host seconds\n\n")
    w("== end to end (tracing off; median [q1, q3] n) ==\n")
    for name, rec in report["workloads"].items():
        w(f"{name}  digest {rec['digest'][:16]}  "
          f"{rec['instructions']} instr/pass\n")
        for metric, m in rec["end_to_end"].items():
            w(f"  {metric:<12} {_fmt(m['value']):>10} {units[metric]:<9}"
              f" [{_fmt(m['q1'])}, {_fmt(m['q3'])}] n={len(m['samples'])}\n")
        w(f"  {'fail_ratio':<12} {rec['fail_ratio']:>10.4f} "
          f"{'ratio':<9} {rec['failed']} of {rec['attempted']} ops\n")
        for line in rec["errors"]:
            w(f"  ERROR {line}\n")
        noise = rec.get("per_layer", {}).get("system.noise_iqr_pct")
        if (noise is not None and not report["smoke"]
                and noise > 50.0 * bounds["norm_s"]):
            w(f"  NOTE system.noise_iqr_pct {noise:.1f} % is over half the "
              f"norm_s bound: lengthen the pass, do not widen the bound\n")
    names = [n for n, r in report["workloads"].items() if "per_layer" in r]
    if not names:
        return
    w("\n== per layer (traced pass; never gated) ==\n")
    w(f"{'metric':<36}{'unit':<9}"
      + "".join(f"{n[:14]:>15}" for n in names) + "\n")
    for m in spec["per_layer"]:
        cells = [report["workloads"][n]["per_layer"].get(m["name"])
                 for n in names]
        w(f"{m['name']:<36}{m['unit']:<9}"
          + "".join(f"{'-' if c is None else _fmt(c):>15}" for c in cells)
          + "\n")


def run_all(names: List[str], seed: int, seconds: float, smoke: bool,
            out_path: Optional[str]) -> Dict:
    """Human mode: every named workload, untraced window then traced passes."""
    report = {"schema": 1, "seed": seed, "smoke": smoke, "seconds": seconds,
              "calib_ref_s": calib.CALIB_REF_S, "workloads": {}}
    for name in names:
        spans = None
        if out_path:
            stem = out_path[:-5] if out_path.endswith(".json") else out_path
            spans = os.path.abspath(f"{stem}.spans.{name}.json")
        report["workloads"][name] = run_workload(
            name, seed, seconds, trace=1,
            probes=0 if smoke else SETUP_PROBES, smoke=smoke, spans=spans)
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=1)
    return report
