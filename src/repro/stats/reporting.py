"""Report generation: turn Stats trees and experiment rows into artifacts.

Provides the export surface a downstream user needs to get simulator data
out of Python: flat CSV/JSON dumps of stats trees, side-by-side comparison
tables between runs, and simple text histograms for quick terminal
inspection (the simulator has no plotting dependency by design).
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Dict, Iterable, List, Optional, Sequence

from .counters import Stats


def stats_to_dict(stats: Stats) -> Dict[str, float]:
    """Flatten a stats tree into a plain dict (dotted keys)."""
    return stats.as_dict()


def stats_to_json(stats: Stats, indent: int = 1) -> str:
    """Flattened stats tree as a JSON object string."""
    return json.dumps(stats_to_dict(stats), indent=indent, sort_keys=True)


def stats_to_csv(stats: Stats) -> str:
    """Two-column CSV: counter path, value."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["counter", "value"])
    for key, value in sorted(stats_to_dict(stats).items()):
        writer.writerow([key, value])
    return buf.getvalue()


def rows_to_csv(rows: Sequence[Dict]) -> str:
    """Experiment rows (list of dicts) to CSV with the union of columns."""
    if not rows:
        return ""
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def compare(runs: Dict[str, Stats], keys: Optional[Iterable[str]] = None,
            baseline: Optional[str] = None) -> str:
    """Side-by-side comparison table of several runs' counters.

    ``runs`` maps run labels to stats trees.  ``keys`` restricts the rows
    (default: union of all counters).  With ``baseline`` set, every other
    column also shows the ratio to the baseline run.
    """
    flats = {label: stats_to_dict(s) for label, s in runs.items()}
    if keys is None:
        all_keys: List[str] = []
        for flat in flats.values():
            for key in flat:
                if key not in all_keys:
                    all_keys.append(key)
        keys = sorted(all_keys)
    labels = list(runs)
    header = ["counter"] + labels
    lines = []
    for key in keys:
        row = [key]
        for label in labels:
            value = flats[label].get(key)
            if value is None:
                row.append("--")
            elif baseline and label != baseline and flats[baseline].get(key):
                row.append(f"{value:g} ({value / flats[baseline][key]:.2f}x)")
            else:
                row.append(f"{value:g}")
        lines.append(row)
    widths = [max(len(r[i]) for r in [header] + lines) for i in range(len(header))]
    out = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in lines:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


#: eight-level block ramp used by :func:`sparkline`
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: Optional[int] = None,
              lo: Optional[float] = None, hi: Optional[float] = None) -> str:
    """Render a numeric series as a one-line unicode sparkline.

    ``width`` resamples the series (bucket means) to at most that many
    characters; ``lo``/``hi`` pin the scale (default: the series range),
    letting several sparklines share one axis.

    Degenerate inputs render rather than raise: an empty series gives
    ``""``; constant and single-point series give flat baselines (a zero
    span never divides); ``width < 1`` is clamped to one column; NaN/inf
    samples are excluded from autoscaling and drawn as baseline blocks.
    """
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if width is not None:
        width = max(1, int(width))
        if len(vals) > width:
            per = len(vals) / width
            vals = [sum(vals[int(i * per):max(int(i * per) + 1,
                                              int((i + 1) * per))])
                    / max(1, int((i + 1) * per) - int(i * per))
                    for i in range(width)]
    finite = [v for v in vals if math.isfinite(v)]
    if not finite:
        return _SPARK_BLOCKS[0] * len(vals)
    lo = min(finite) if lo is None else lo
    hi = max(finite) if hi is None else hi
    span = hi - lo
    if span <= 0 or not math.isfinite(span):
        return _SPARK_BLOCKS[0] * len(vals)
    out = []
    for v in vals:
        if not math.isfinite(v):
            out.append(_SPARK_BLOCKS[0])
            continue
        idx = int((v - lo) / span * (len(_SPARK_BLOCKS) - 1) + 0.5)
        out.append(_SPARK_BLOCKS[max(0, min(len(_SPARK_BLOCKS) - 1, idx))])
    return "".join(out)


def render_intervals(rows: Sequence[Dict], columns: Sequence[str],
                     width: int = 60, label_width: int = 22) -> str:
    """Sparkline panel over interval-sampler rows (one line per metric).

    ``rows`` are the dicts produced by
    :class:`repro.telemetry.IntervalSampler`; ``columns`` names the numeric
    fields to plot.  Fields absent from every row are skipped.
    """
    if not rows:
        return "(no interval samples)"
    lines = []
    c0, c1 = rows[0].get("cycle", 0), rows[-1].get("cycle", 0)
    lines.append(f"{len(rows)} intervals, cycles {c0}..{c1}")
    for col in columns:
        series = [row[col] for row in rows if col in row
                  and isinstance(row[col], (int, float))]
        if not series:
            continue
        spark = sparkline(series, width=width)
        lines.append(f"{col:<{label_width}} {spark}  "
                     f"min={min(series):g} max={max(series):g} "
                     f"last={series[-1]:g}")
    return "\n".join(lines)


def render_attribution_table(snapshot: Dict, top: int = 10,
                             bar_width: int = 24) -> str:
    """Terminal view of a profiling snapshot (``repro run --observe
    profile``, ``repro inspect``).

    ``snapshot`` is the plain-data dict produced by
    :meth:`repro.telemetry.TelemetrySession.profile_snapshot`: a per-cause cycle
    table (taxonomy display order, shares, unicode bars) followed by the
    ``top`` hottest per-PC rows mapped to kernel source.
    """
    cycles = snapshot.get("cycles", 0) or 0
    causes = snapshot.get("causes", {})
    total = sum(causes.values())
    lines = [f"cycle attribution: {total} cycles over "
             f"{len(snapshot.get('cores', []))} core(s)"]
    order = [c for c in snapshot.get("taxonomy", sorted(causes)) if c in causes]
    order += [c for c in sorted(causes) if c not in order]
    peak = max(causes.values(), default=0)
    for cause in order:
        n = causes[cause]
        share = n / total if total else 0.0
        bar = "█" * (n * bar_width // peak if peak else 0)
        lines.append(f"  {cause:<16} {n:>10} {share:>7.1%}  {bar}")
    lines.append(f"  {'total':<16} {total:>10} {1:>7.1%}"
                 if total else "  (no attributed cycles)")
    if cycles and total != cycles:
        lines.append(f"  WARNING: attributed {total} != run cycles {cycles}")

    hotspots = snapshot.get("hotspots", [])[:top] if top else []
    if hotspots:
        lines.append("")
        lines.append(f"top {len(hotspots)} hotspots (per-PC attributed cycles)")
        lines.append(f"  {'core':>4} {'pc':>4} {'label':<14} {'cycles':>8} "
                     f"{'share':>7}  source / top causes")
        # ties in taxonomy order, whatever order the snapshot's dicts are
        # in (profile.json stores them with sorted keys)
        rank = {cause: i for i, cause in enumerate(order)}
        for row in hotspots:
            top_causes = sorted(row.get("causes", {}).items(),
                                key=lambda kv: (-kv[1],
                                                rank.get(kv[0], 0)))[:3]
            causes_txt = ", ".join(f"{c} {n}" for c, n in top_causes)
            share = row["cycles"] / total if total else 0.0
            pc = row["pc"] if row["pc"] >= 0 else "--"
            lines.append(f"  {row['core']:>4} {pc!s:>4} {row['label']:<14} "
                         f"{row['cycles']:>8} {share:>7.1%}  "
                         f"{row['text']}  [{causes_txt}]")
    return "\n".join(lines)


def render_attribution_diff(diff: Dict, base_label: str = "base",
                            other_label: str = "other",
                            top: int = 10) -> str:
    """Terminal view of :func:`repro.telemetry.diff_snapshots` output.

    Positive deltas mean the second (``other``) config spends more cycles
    on that cause or pc; causes print largest absolute delta first.
    """
    lines = [f"cycle delta: {base_label} {diff.get('cycles_base', 0)} -> "
             f"{other_label} {diff.get('cycles_other', 0)} "
             f"({diff.get('cycles_delta', 0):+d} cycles)"]
    by_cause = diff.get("by_cause", {})
    if by_cause:
        lines.append(f"  {'cause':<16} {'delta':>10}")
        for cause in sorted(by_cause, key=lambda c: -abs(by_cause[c])):
            if by_cause[cause]:
                lines.append(f"  {cause:<16} {by_cause[cause]:>+10d}")
    dominant = diff.get("dominant", [])
    if dominant:
        lines.append(f"dominant causes: {', '.join(dominant[:5])}")
    by_pc = diff.get("by_pc", {})
    if by_pc and top:
        hot = sorted(by_pc.items(), key=lambda kv: -abs(kv[1]))[:top]
        lines.append(f"top {len(hot)} per-PC deltas")
        for pc, delta in hot:
            name = "<scheduler>" if str(pc) == "-1" else f"pc{pc}"
            lines.append(f"  {name:<12} {delta:>+10d}")
    return "\n".join(lines)


def text_histogram(values: Sequence[float], bins: int = 10, width: int = 40,
                   title: str = "") -> str:
    """ASCII histogram for terminal inspection of a metric distribution."""
    if not values:
        return f"{title}\n(no data)"
    lo, hi = min(values), max(values)
    if lo == hi:
        hi = lo + 1
    counts = [0] * bins
    for v in values:
        idx = min(bins - 1, int((v - lo) / (hi - lo) * bins))
        counts[idx] += 1
    peak = max(counts)
    lines = [title] if title else []
    for i, c in enumerate(counts):
        left = lo + (hi - lo) * i / bins
        right = lo + (hi - lo) * (i + 1) / bins
        bar = "#" * (c * width // peak if peak else 0)
        lines.append(f"[{left:10.3f}, {right:10.3f})  {c:6d}  {bar}")
    return "\n".join(lines)
