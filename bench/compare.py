"""``python -m bench compare A.json B.json``: is B worse than A?

For every workload x end-to-end metric: both medians, the ratio B/A (A is
the base), the bound from ``BENCHMARK.json`` and a verdict —

``ok``          B's median is no worse than A's by more than the bound;
``worse``       it is;
``unresolved``  the median of either side is itself uncertain by more than
                the bound, so the two cannot be told apart — unless every
                sample of B reads better than every sample of A, which is
                ``ok``.  The uncertainty is the run-to-run spread a median
                of n repetitions has: 1.2533 x IQR / sqrt(n), over the
                median (the IQR of the median's sampling distribution for
                near-normal samples; it matched the spread of ten real runs
                when the benchmark was defined).

``fail_ratio`` has an absolute bound of 0: any failed operation in B that A
did not have is ``worse``.  A workload whose ``digest`` differs gets its own
line: a simulator-speed change must leave it identical, a model change is
expected to move it and says so.  Exit status 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Dict, List

from . import harness


def _spread(metric: Dict) -> float:
    """Run-to-run spread of the reported median, as a share of it."""
    iqr = metric["q3"] - metric["q1"]
    return 1.2533 * iqr / math.sqrt(len(metric["samples"])) / metric["value"]


def verdict(a: Dict, b: Dict, better: str, bound: float) -> str:
    lower = better == "lower"
    if max(_spread(a), _spread(b)) > bound:
        if lower and max(b["samples"]) < min(a["samples"]):
            return "ok"
        if not lower and min(b["samples"]) > max(a["samples"]):
            return "ok"
        return "unresolved"
    worse_by = (b["value"] - a["value"]) / a["value"]
    if not lower:
        worse_by = -worse_by
    return "worse" if worse_by > bound else "ok"


def compare(spec: Dict, a: Dict, b: Dict) -> List[Dict]:
    rows = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for m in spec["end_to_end"]:
            ma, mb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            rows.append({"workload": name, "metric": m["name"],
                         "unit": m["unit"], "a": ma["value"],
                         "b": mb["value"], "ratio": mb["value"] / ma["value"],
                         "bound": m["bound"],
                         "verdict": verdict(ma, mb, m["better"], m["bound"])})
        rows.append({"workload": name, "metric": "fail_ratio",
                     "unit": "ratio", "a": wa["fail_ratio"],
                     "b": wb["fail_ratio"], "ratio": None, "bound": 0.0,
                     "verdict": ("worse" if wb["fail_ratio"] > wa["fail_ratio"]
                                 else "ok")})
    return rows


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python -m bench compare A.json B.json", file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path) as fh:
            reports.append(json.load(fh))
    a, b = reports
    rows = compare(harness.load_spec(), a, b)
    print(f"{'workload':<16}{'metric':<13}{'A':>11}{'B':>11}"
          f"{'B/A':>8}{'bound':>8}  verdict")
    for r in rows:
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3f}"
        bound = ("0 abs" if r["metric"] == "fail_ratio"
                 else f"{r['bound'] * 100:.0f} %")
        print(f"{r['workload']:<16}{r['metric']:<13}{r['a']:>11.4f}"
              f"{r['b']:>11.4f}{ratio:>8}{bound:>8}  {r['verdict']}")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is not None and wb["digest"] != wa["digest"]:
            print(f"DIGEST {name}: {wa['digest'][:16]} -> {wb['digest'][:16]}"
                  f" (simulated results changed)")
    if a.get("seed") != b.get("seed") or a.get("smoke") != b.get("smoke"):
        print("NOTE the two reports differ in seed or size; digests and "
              "times are not comparable")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0
