"""Longitudinal analytics over the run ledger (``repro inspect``).

The ledger's append-only row sequence is a time axis; this module folds it
into the three views the CLI exposes:

* **trajectories** — per-digest series of host rate / cycles / wall-clock,
  rendered with the shared unicode sparkline so trends read at a glance;
* **compare** — per-counter deltas between the newest rows of two digests
  (the "what did this policy change buy" question, answered from history
  instead of a fresh A/B sweep);
* **check** — trajectory-aware regression gating: the newest host rate of
  each digest against the *median of its last N predecessors*, graded
  ``ok``/``warn``/``regression`` by :func:`classify_delta`; a regression
  exits :data:`EXIT_REGRESSION`.  Median-of-N is the change-point half of
  the design: one noisy CI host perturbs a single sample, not the median,
  so the gate fires on sustained shifts rather than flukes.

``check`` also carries a determinism alarm: two rows sharing a digest,
engine key, and schema version that disagree on ``cycles`` mean the
"digest fully determines results" contract broke somewhere — graded
``regression`` unconditionally, because no threshold makes that OK.

Everything here consumes plain row dicts from
:class:`~repro.ledger.store.LedgerReader` — no pickled blobs are touched,
so history stays readable across schema versions.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from ..stats.reporting import sparkline
from .store import LedgerReader, counters_of

__all__ = ["DEFAULT_THRESHOLD", "EXIT_REGRESSION", "check_history",
           "classify_delta", "compare_digests", "history_series",
           "render_check_text", "render_compare_text", "render_history_text",
           "render_trajectory_text", "trajectory"]

#: ``repro inspect --check`` exit code on a gated regression (2 = usage
#: error, 3 = sweep failures, as elsewhere in the CLI)
EXIT_REGRESSION = 4

#: default relative regression threshold for ``--check`` (generous: host
#: rates are wall-clock and CI hosts vary; tighten only on pinned hardware)
DEFAULT_THRESHOLD = 0.5

#: how many predecessor samples the --check median window folds
DEFAULT_WINDOW = 5

#: minimum rows (with a host rate) a digest needs before --check grades it
DEFAULT_MIN_RUNS = 3

_SEVERITY_RANK = {"ok": 0, "warn": 1, "regression": 2}


def classify_delta(current: Optional[float], baseline: Optional[float],
                   threshold: float = DEFAULT_THRESHOLD,
                   higher_is_better: bool = True) -> Dict:
    """One tracked metric's delta, graded ``ok`` / ``warn`` / ``regression``.

    ``warn`` fires at half the regression threshold.  Missing or
    non-positive baselines grade ``ok`` (nothing to compare against).
    """
    entry = {"current": current, "baseline": baseline, "delta": None,
             "severity": "ok"}
    if current is None or baseline is None or baseline <= 0:
        return entry
    delta = (current - baseline) / baseline
    if not higher_is_better:
        delta = -delta
    entry["delta"] = delta
    if delta < -threshold:
        entry["severity"] = "regression"
    elif delta < -threshold / 2:
        entry["severity"] = "warn"
    return entry


# -- data folds ---------------------------------------------------------------
def trajectory(reader: LedgerReader, digest: str,
               limit: Optional[int] = None) -> Dict:
    """One digest's run history, oldest first, plus derived series."""
    rows = reader.runs(digest=digest, limit=limit)
    return {
        "digest": digest,
        "rows": rows,
        "rates": [r["host_rate"] for r in rows
                  if r["host_rate"] is not None],
        "cycles": [r["cycles"] for r in rows if r["cycles"] is not None],
        "walls": [r["wall_s"] for r in rows if r["wall_s"] is not None],
    }


def history_series(reader: LedgerReader,
                   max_digests: int = 8) -> List[Dict]:
    """Per-digest host-rate series for trend displays (report History §).

    Most-recently-active digests first; digests with no host-rate samples
    are skipped (nothing to draw a trend from).
    """
    out: List[Dict] = []
    for summary in reader.digests():
        if len(out) >= max_digests:
            break
        traj = trajectory(reader, summary["digest"])
        if not traj["rates"]:
            continue
        label = " ".join(str(p) for p in
                         (summary.get("workload"), summary.get("core_type"))
                         if p) or summary["digest"]
        out.append({
            "digest": summary["digest"],
            "label": label,
            "runs": summary["runs"],
            "rates": traj["rates"],
            "last_rate": traj["rates"][-1],
            "last_seen": summary.get("last"),
        })
    return out


def compare_digests(reader: LedgerReader, digest_a: str,
                    digest_b: str) -> Dict:
    """Per-counter deltas between the newest rows of two digests.

    Counters absent on one side delta against 0 (the writer only stores
    non-zero counters, so absence *means* zero).  Scalar columns (cycles,
    instructions, ipc, rf_hit_rate) are compared the same way.
    """
    rows_a = reader.runs(digest=digest_a, limit=1)
    rows_b = reader.runs(digest=digest_b, limit=1)
    out: Dict = {"digest_a": digest_a, "digest_b": digest_b,
                 "found_a": bool(rows_a), "found_b": bool(rows_b),
                 "scalars": [], "counters": []}
    if not rows_a or not rows_b:
        return out
    a, b = rows_a[-1], rows_b[-1]
    for name in ("cycles", "instructions", "ipc", "rf_hit_rate"):
        out["scalars"].append(_delta_row(name, a.get(name), b.get(name)))
    ca, cb = counters_of(a), counters_of(b)
    for name in sorted(set(ca) | set(cb)):
        out["counters"].append(
            _delta_row(name, ca.get(name, 0), cb.get(name, 0)))
    return out


def _delta_row(name: str, va, vb) -> Dict:
    row = {"name": name, "a": va, "b": vb, "delta": None, "rel": None}
    if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
        row["delta"] = vb - va
        if va:
            row["rel"] = (vb - va) / abs(va)
    return row


def check_history(reader: LedgerReader, *,
                  threshold: float = DEFAULT_THRESHOLD,
                  window: int = DEFAULT_WINDOW,
                  min_runs: int = DEFAULT_MIN_RUNS,
                  digest: Optional[str] = None) -> Dict:
    """Grade every digest's newest host rate against its own history.

    Returns ``{"findings": [...], "worst": severity, "checked": n}``;
    ``worst`` is what the CLI turns into an exit code.  Digests with fewer
    than ``min_runs`` rated rows are skipped (a trajectory of one or two
    points has no median worth gating on).
    """
    findings: List[Dict] = []
    checked = 0
    summaries = ([{"digest": digest}] if digest else reader.digests())
    for summary in summaries:
        rows = reader.runs(digest=summary["digest"])
        findings.extend(_determinism_findings(summary["digest"], rows))
        rated = [r for r in rows if isinstance(r.get("host_rate"),
                                               (int, float))]
        if len(rated) < min_runs:
            continue
        checked += 1
        current = float(rated[-1]["host_rate"])
        history = [float(r["host_rate"]) for r in rated[:-1]][-window:]
        baseline = statistics.median(history)
        entry = classify_delta(current, baseline, threshold)
        findings.append({
            "kind": "host_rate", "digest": summary["digest"],
            "workload": rated[-1].get("workload"),
            "core_type": rated[-1].get("core_type"),
            "source": rated[-1].get("source"),
            "runs": len(rated), "window": len(history),
            **entry,
        })
    worst = "ok"
    for f in findings:
        if _SEVERITY_RANK[f["severity"]] > _SEVERITY_RANK[worst]:
            worst = f["severity"]
    findings.sort(key=lambda f: -_SEVERITY_RANK[f["severity"]])
    return {"findings": findings, "worst": worst, "checked": checked}


def _determinism_findings(digest: str, rows: List[Dict]) -> List[Dict]:
    """Rows sharing a full cache key must agree on cycle counts."""
    by_key: Dict = {}
    for r in rows:
        if r.get("cycles") is None:
            continue
        by_key.setdefault((r["engine_key"], r["schema_version"]),
                          set()).add(r["cycles"])
    out = []
    for (engine_key, schema_version), cycle_values in sorted(by_key.items()):
        if len(cycle_values) > 1:
            out.append({
                "kind": "determinism", "digest": digest,
                "engine_key": engine_key, "schema_version": schema_version,
                "cycles_seen": sorted(cycle_values),
                "severity": "regression",
            })
    return out


# -- text renderers -----------------------------------------------------------
def _fmt_rate(v: Optional[float]) -> str:
    if v is None:
        return "-"
    return f"{v:,.0f}" if v >= 100 else f"{v:.3g}"


def render_history_text(reader: LedgerReader,
                        limit: Optional[int] = None) -> str:
    """The digest overview table with one trend sparkline per digest."""
    lines = [f"run ledger: {reader.path} ({reader.count()} rows)", ""]
    header = (f"{'digest':<18} {'runs':>4}  {'source':<6} "
              f"{'workload':<10} {'core':<8} {'rate':>10}  trend")
    lines.append(header)
    lines.append("-" * len(header))
    shown = reader.digests()
    if limit is not None:
        shown = shown[:limit]
    for summary in shown:
        traj = trajectory(reader, summary["digest"])
        rate = traj["rates"][-1] if traj["rates"] else None
        lines.append(
            f"{summary['digest']:<18} {summary['runs']:>4}  "
            f"{(summary.get('source') or '-'):<6} "
            f"{(summary.get('workload') or '-'):<10} "
            f"{(summary.get('core_type') or '-'):<8} "
            f"{_fmt_rate(rate):>10}  "
            f"{sparkline(traj['rates'], width=20)}")
    return "\n".join(lines)


def render_trajectory_text(traj: Dict) -> str:
    """One digest's full row-by-row trajectory."""
    lines = [f"digest {traj['digest']}: {len(traj['rows'])} runs"]
    if traj["rates"]:
        lines.append(f"  host rate trend: "
                     f"{sparkline(traj['rates'], width=40)}  "
                     f"(last {_fmt_rate(traj['rates'][-1])}/s)")
    header = (f"  {'when (utc)':<20} {'source':<6} {'engine':<8} "
              f"{'cycles':>10} {'instr':>10} {'rate':>10} {'sha':<10}")
    lines.append(header)
    for r in traj["rows"]:
        lines.append(
            f"  {(r.get('created_utc') or '-'):<20} "
            f"{(r.get('source') or '-'):<6} "
            f"{(r.get('engine_key') or '-'):<8} "
            f"{(r['cycles'] if r.get('cycles') is not None else '-'):>10} "
            f"{(r['instructions'] if r.get('instructions') is not None else '-'):>10} "
            f"{_fmt_rate(r.get('host_rate')):>10} "
            f"{(r.get('git_sha') or '-'):<10}")
    return "\n".join(lines)


def render_compare_text(cmp: Dict) -> str:
    lines = [f"compare {cmp['digest_a']} (A) vs {cmp['digest_b']} (B)"]
    for side, found in (("A", cmp["found_a"]), ("B", cmp["found_b"])):
        if not found:
            lines.append(f"  digest {side} has no ledger rows")
    if not (cmp["found_a"] and cmp["found_b"]):
        return "\n".join(lines)

    def table(title, rows):
        if not rows:
            return
        lines.append(f"  {title}:")
        for row in rows:
            rel = (f"{row['rel']:+.1%}" if row["rel"] is not None else "")
            lines.append(f"    {row['name']:<40} {row['a']!s:>12} -> "
                         f"{row['b']!s:>12}  {rel}")

    table("scalars", cmp["scalars"])
    changed = [r for r in cmp["counters"] if r["delta"]]
    table(f"counters ({len(changed)} differ)", changed)
    if not changed:
        lines.append("  counters: identical")
    return "\n".join(lines)


def render_check_text(check: Dict) -> str:
    lines = [f"history check: {check['checked']} digest(s) graded, "
             f"worst severity: {check['worst']}"]
    for f in check["findings"]:
        if f["kind"] == "determinism":
            lines.append(
                f"  [regression] determinism: digest {f['digest']} "
                f"(engine {f['engine_key']}, schema "
                f"v{f['schema_version']}) recorded differing cycle "
                f"counts {f['cycles_seen']}")
            continue
        delta = (f"{f['delta']:+.1%}" if f.get("delta") is not None
                 else "n/a")
        label = " ".join(str(p) for p in
                         (f.get("workload"), f.get("core_type")) if p)
        lines.append(
            f"  [{f['severity']}] {f['digest']} {label}: rate "
            f"{_fmt_rate(f['current'])}/s vs median-of-{f['window']} "
            f"{_fmt_rate(f['baseline'])}/s ({delta})")
    return "\n".join(lines)
