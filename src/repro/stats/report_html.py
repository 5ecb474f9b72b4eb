"""HTML reports from run and sweep directories.

``repro inspect <dir> --html PATH`` folds a directory's artifacts —
``manifest.json`` (configs, deterministic result summaries, host
profiles), ``metrics.json`` (the fleet
:class:`~repro.telemetry.MetricsRegistry` snapshot), ``sweep_events.jsonl``
and ``profile.json`` — into one **self-contained** HTML file: inline
CSS, inline SVG sparklines, no external assets, so the file can be
archived as a CI artifact and opened anywhere.

Sections rendered (each skipped gracefully when its artifact is absent):

* sweep summary (rows ok/failed/resumed, rate, wall-clock);
* per-row IPC / cycles / RF-hit-rate tables with sparkline history
  across the grid;
* per-stage host wall-clock breakdown (the ``phases_s`` of the
  manifest's ``host_profiles``, summed per stage);
* VRMU hit-rate / cycle tables per core (from the per-run metrics
  snapshots merged into the fleet registry);
* cycle attribution (from a ``profile.json`` snapshot written by
  ``repro run --observe profile --out <dir>``): a per-cause stacked bar
  plus the hottest per-PC rows;
* host-rate history per digest (from a run ledger).

The report renders; it does not gate.  The two performance gates are
``python -m bench compare`` (two benchmark outputs) and ``repro inspect
--check`` (a digest's newest host rate against its own trajectory, see
:mod:`repro.ledger.history`).
"""

from __future__ import annotations

import html
import json
import os
from typing import Dict, List, Optional, Sequence

__all__ = ["build_report", "render_html", "svg_sparkline", "write_report"]


# -- building blocks ---------------------------------------------------------
def svg_sparkline(values: Sequence[float], width: int = 140,
                  height: int = 28, color: str = "#2a6fb0") -> str:
    """An inline-SVG sparkline of ``values`` (safe on degenerate series).

    Empty series render an empty frame; single-point and constant series
    render a centered flat line (no divide-by-zero on a flat range).
    """
    finite = [float(v) for v in values
              if isinstance(v, (int, float)) and v == v
              and v not in (float("inf"), float("-inf"))]
    pad = 2.0
    if not finite:
        return (f'<svg class="spark" width="{width}" height="{height}" '
                f'viewBox="0 0 {width} {height}"></svg>')
    lo, hi = min(finite), max(finite)
    span = hi - lo
    usable_h = height - 2 * pad
    usable_w = width - 2 * pad

    def y_of(v: float) -> float:
        if span == 0:
            return height / 2.0
        return pad + usable_h * (1.0 - (v - lo) / span)

    if len(finite) == 1:
        xs = [width / 2.0]
    else:
        step = usable_w / (len(finite) - 1)
        xs = [pad + i * step for i in range(len(finite))]
    points = " ".join(f"{x:.1f},{y_of(v):.1f}" for x, v in zip(xs, finite))
    last_x, last_y = xs[-1], y_of(finite[-1])
    return (f'<svg class="spark" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">'
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>'
            f'<circle cx="{last_x:.1f}" cy="{last_y:.1f}" r="2" '
            f'fill="{color}"/></svg>')


# -- report assembly ---------------------------------------------------------
def _load_json(path: str) -> Optional[Dict]:
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def _metric_series(metrics: Optional[Dict], name: str) -> Dict[str, object]:
    if not metrics:
        return {}
    entry = metrics.get("metrics", {}).get(name)
    return entry.get("series", {}) if entry else {}


def _label_value(series_key: str, label: str) -> Optional[str]:
    """Extract one label's value from a rendered series key."""
    for part in series_key.split(","):
        k, _, v = part.partition("=")
        if k == label:
            return v.strip('"')
    return None


def _row_label(cfg: Dict) -> str:
    bits = [str(cfg.get("workload", "?")), str(cfg.get("core_type", "?")),
            f"t{cfg.get('n_threads', '?')}"]
    cf = cfg.get("context_fraction")
    if cf not in (None, 1.0):
        bits.append(f"cf{cf}")
    seed = cfg.get("seed")
    if seed not in (None, 7):
        bits.append(f"s{seed}")
    return "/".join(bits)


def _history_section(ledger_path: str) -> List[Dict]:
    """Per-digest host-rate trend entries from a run ledger (may be [])."""
    from ..ledger import LedgerReader, history_series

    with LedgerReader(ledger_path) as reader:
        return history_series(reader)


def build_report(sweep_dir: str, ledger: Optional[str] = None) -> Dict:
    """Everything the HTML needs, as one plain dict (JSON-serializable).

    Pure data assembly — rendering is :func:`render_html` — so tests can
    assert on the sections without parsing HTML.  ``ledger`` names a
    run-ledger file feeding the History section (default: auto-detect
    ``ledger.sqlite`` inside the sweep directory, then cwd).
    """
    from ..system.monitor import (MANIFEST_NAME, METRICS_NAME, PROFILE_NAME,
                                  read_state)

    manifest = _load_json(os.path.join(sweep_dir, MANIFEST_NAME))
    metrics = _load_json(os.path.join(sweep_dir, METRICS_NAME))
    state = read_state(sweep_dir)

    report: Dict = {
        "sweep_dir": os.path.abspath(sweep_dir),
        "summary": {
            "total": state.total, "ok": state.ok, "failed": state.failed,
            "resumed": state.resumed, "rate": round(state.rate, 3),
            "elapsed_s": round(state.elapsed_s, 3),
            "finished": state.finished,
            "workers": len(state.workers),
        },
        "rows": [], "stages": [], "vrmu": [], "history": [],
        "attribution": None,
    }

    if ledger is None:
        for candidate in (os.path.join(sweep_dir, "ledger.sqlite"),
                          "ledger.sqlite"):
            if os.path.exists(candidate):
                ledger = candidate
                break
    if ledger and os.path.exists(ledger):
        report["ledger_path"] = os.path.abspath(ledger)
        report["history"] = _history_section(ledger)

    profile = _load_json(os.path.join(sweep_dir, PROFILE_NAME))
    if profile:
        causes = profile.get("causes", {})
        total = sum(causes.values())
        order = [c for c in profile.get("taxonomy", sorted(causes))
                 if causes.get(c)]
        order += [c for c in sorted(causes) if causes[c] and c not in order]
        report["attribution"] = {
            "cycles": profile.get("cycles", 0),
            "total": total,
            "causes": [{"cause": c, "cycles": causes[c],
                        "share": (round(causes[c] / total, 4)
                                  if total else None)}
                       for c in order],
            "hotspots": profile.get("hotspots", [])[:10],
        }

    stage_s: Dict[str, float] = {}   # host seconds by simulator stage
    if manifest:
        configs = manifest.get("configs", [])
        summaries = manifest.get("results_summary", [])
        profiles = manifest.get("host_profiles", []) or []
        report["results_digest"] = manifest.get("results_digest", "")
        for i, (cfg, summary) in enumerate(zip(configs, summaries)):
            prof = profiles[i] if i < len(profiles) else None
            row = {"label": _row_label(cfg),
                   "cycles": summary.get("cycles"),
                   "instructions": summary.get("instructions"),
                   "ipc": summary.get("ipc"),
                   "rf_hit_rate": summary.get("rf_hit_rate"),
                   "instr_per_s": (prof or {}).get("instr_per_s"),
                   "total_s": (prof or {}).get("total_s")}
            report["rows"].append(row)
        for prof in profiles:
            for name, secs in ((prof or {}).get("phases_s") or {}).items():
                stage_s[name] = stage_s.get(name, 0.0) + float(secs)
    total_stage = sum(stage_s.values()) or None
    for name in sorted(stage_s):
        secs = stage_s[name]
        report["stages"].append({
            "stage": name, "seconds": round(secs, 4),
            "share": round(secs / total_stage, 4) if total_stage else None})

    hits = _metric_series(metrics, "sim_vrmu_hits")
    misses = _metric_series(metrics, "sim_vrmu_misses")
    cycles = _metric_series(metrics, "sim_cycles")
    for key in sorted(set(hits) | set(misses)):
        core = _label_value(key, "core") or "?"
        h = float(hits.get(key, 0))
        m = float(misses.get(key, 0))
        report["vrmu"].append({
            "core": core, "hits": int(h), "misses": int(m),
            "hit_rate": round(h / (h + m), 4) if h + m else None,
            "cycles": (int(float(cycles[key]))
                       if key in cycles else None)})

    return report


# -- rendering ---------------------------------------------------------------
_CSS = """
body { font: 14px/1.45 system-ui, sans-serif; color: #1c2733;
       margin: 2em auto; max-width: 62em; padding: 0 1em; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: .6em 0; }
th, td { border: 1px solid #d5dde5; padding: .25em .6em; text-align: right; }
th { background: #eef2f6; } td.l, th.l { text-align: left; }
.spark { vertical-align: middle; }
.meta { color: #5a6a7a; font-size: .92em; }
.stack { display: flex; height: 20px; width: 100%; max-width: 56em;
         border: 1px solid #d5dde5; border-radius: 3px; overflow: hidden; }
.stack span { display: block; height: 100%; }
.swatch { display: inline-block; width: .8em; height: .8em;
          border-radius: 2px; margin-right: .35em; vertical-align: baseline; }
"""

#: stacked-bar palette, cycled per cause (taxonomy display order)
_CAUSE_COLORS = ("#2a6fb0", "#8ab4d8", "#c0392b", "#e67e22", "#8e44ad",
                 "#d4a017", "#2e8b57", "#73c6a2", "#1f8a8a", "#b24d6e",
                 "#7f8c8d", "#bcc6cc")


def _esc(value) -> str:
    return html.escape(str(value))


def _fmt(value, digits: int = 4) -> str:
    if value is None:
        return "&ndash;"
    if isinstance(value, float):
        return f"{value:,.{digits}g}" if abs(value) >= 1 else f"{value:.{digits}f}"
    return _esc(value)


def render_html(report: Dict) -> str:
    """The report dict as one self-contained HTML page."""
    s = report["summary"]
    parts: List[str] = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>repro sweep report</title>",
        f"<style>{_CSS}</style></head><body>",
        "<h1>Sweep report</h1>",
        f"<p class='meta'>{_esc(report['sweep_dir'])}"
        + (f" &middot; digest <code>{_esc(report['results_digest'])}</code>"
           if report.get("results_digest") else "") + "</p>",
        "<h2>Summary</h2>",
        f"<p>{s['ok']} ok / {s['failed']} failed / {s['resumed']} resumed "
        f"of {s['total']} rows &middot; {s['rate']} rows/s &middot; "
        f"{s['elapsed_s']} s elapsed &middot; {s['workers']} worker(s) "
        f"&middot; {'finished' if s['finished'] else 'in progress'}</p>",
    ]

    rows = report["rows"]
    if rows:
        parts.append("<h2>Per-row results</h2>")
        for metric, digits in (("ipc", 4), ("cycles", 6),
                               ("rf_hit_rate", 4), ("instr_per_s", 6)):
            series = [r.get(metric) for r in rows]
            if not any(v is not None for v in series):
                continue
            parts.append(f"<p class='l'><b>{_esc(metric)}</b> across the "
                         f"grid {svg_sparkline([v for v in series if v is not None])}</p>")
        parts.append("<table><tr><th class='l'>config</th><th>cycles</th>"
                     "<th>instr</th><th>ipc</th><th>rf hit</th>"
                     "<th>instr/s (host)</th></tr>")
        for r in rows:
            parts.append(
                f"<tr><td class='l'>{_esc(r['label'])}</td>"
                f"<td>{_fmt(r['cycles'])}</td>"
                f"<td>{_fmt(r['instructions'])}</td>"
                f"<td>{_fmt(r['ipc'])}</td>"
                f"<td>{_fmt(r['rf_hit_rate'])}</td>"
                f"<td>{_fmt(r['instr_per_s'], 6)}</td></tr>")
        parts.append("</table>")

    if report["stages"]:
        parts.append("<h2>Host wall-clock by stage</h2>"
                     "<table><tr><th class='l'>stage</th><th>seconds</th>"
                     "<th>share</th></tr>")
        for st in report["stages"]:
            share = (f"{st['share'] * 100:.1f}%"
                     if st["share"] is not None else "&ndash;")
            parts.append(f"<tr><td class='l'>{_esc(st['stage'])}</td>"
                         f"<td>{_fmt(st['seconds'])}</td>"
                         f"<td>{share}</td></tr>")
        parts.append("</table>")

    if report["vrmu"]:
        parts.append("<h2>VRMU register cache (fleet totals)</h2>"
                     "<table><tr><th class='l'>core</th><th>hits</th>"
                     "<th>misses</th><th>hit rate</th><th>cycles</th></tr>")
        for v in report["vrmu"]:
            parts.append(f"<tr><td class='l'>{_esc(v['core'])}</td>"
                         f"<td>{_fmt(v['hits'])}</td>"
                         f"<td>{_fmt(v['misses'])}</td>"
                         f"<td>{_fmt(v['hit_rate'])}</td>"
                         f"<td>{_fmt(v['cycles'])}</td></tr>")
        parts.append("</table>")

    attribution = report.get("attribution")
    if attribution and attribution["causes"]:
        parts.append(
            f"<h2>Cycle attribution</h2>"
            f"<p class='meta'>{attribution['total']} attributed cycles "
            f"(run clock {attribution['cycles']}); taxonomy from "
            f"<code>repro run --observe profile</code></p>")
        bar, legend = [], []
        for i, entry in enumerate(attribution["causes"]):
            color = _CAUSE_COLORS[i % len(_CAUSE_COLORS)]
            share = entry["share"] or 0.0
            bar.append(f"<span style='width:{share * 100:.2f}%;"
                       f"background:{color}' title='{_esc(entry['cause'])} "
                       f"{entry['cycles']}'></span>")
            legend.append(f"<span class='swatch' "
                          f"style='background:{color}'></span>"
                          f"{_esc(entry['cause'])} {share * 100:.1f}%")
        parts.append(f"<div class='stack'>{''.join(bar)}</div>"
                     f"<p class='meta'>{' &middot; '.join(legend)}</p>")
        parts.append("<table><tr><th class='l'>cause</th><th>cycles</th>"
                     "<th>share</th></tr>")
        for entry in attribution["causes"]:
            share = (f"{entry['share'] * 100:.1f}%"
                     if entry["share"] is not None else "&ndash;")
            parts.append(f"<tr><td class='l'>{_esc(entry['cause'])}</td>"
                         f"<td>{_fmt(entry['cycles'])}</td>"
                         f"<td>{share}</td></tr>")
        parts.append("</table>")
        if attribution["hotspots"]:
            parts.append("<h2>Hotspots (per-PC attributed cycles)</h2>"
                         "<table><tr><th>core</th><th>pc</th>"
                         "<th class='l'>label</th><th class='l'>source</th>"
                         "<th>cycles</th></tr>")
            for row in attribution["hotspots"]:
                pc = row["pc"] if row.get("pc", 0) >= 0 else "&ndash;"
                parts.append(f"<tr><td>{_fmt(row.get('core'))}</td>"
                             f"<td>{pc}</td>"
                             f"<td class='l'>{_esc(row.get('label', ''))}</td>"
                             f"<td class='l'><code>"
                             f"{_esc(row.get('text', ''))}</code></td>"
                             f"<td>{_fmt(row.get('cycles'))}</td></tr>")
            parts.append("</table>")

    if report.get("history"):
        parts.append(
            f"<h2>History</h2>"
            f"<p class='meta'>host-rate trajectories from the run ledger "
            f"{_esc(report.get('ledger_path', '?'))} &middot; see "
            f"<code>repro inspect</code> for compares and the "
            f"trajectory-aware <code>--check</code> gate</p>"
            "<table><tr><th class='l'>digest</th><th class='l'>config</th>"
            "<th>runs</th><th>last instr/s</th><th class='l'>trend</th>"
            "<th class='l'>last seen (utc)</th></tr>")
        for h in report["history"]:
            parts.append(
                f"<tr><td class='l'><code>{_esc(h['digest'])}</code></td>"
                f"<td class='l'>{_esc(h['label'])}</td>"
                f"<td>{_fmt(h['runs'])}</td>"
                f"<td>{_fmt(h['last_rate'], 6)}</td>"
                f"<td class='l'>{svg_sparkline(h['rates'])}</td>"
                f"<td class='l'>{_esc(h.get('last_seen') or '')}</td></tr>")
        parts.append("</table>")

    parts.append("</body></html>")
    return "".join(parts)


def write_report(sweep_dir: str, out_path: str,
                 ledger: Optional[str] = None) -> Dict:
    """Build + render + write in one call; returns the report dict."""
    report = build_report(sweep_dir, ledger=ledger)
    with open(out_path, "w") as f:
        f.write(render_html(report))
    return report
