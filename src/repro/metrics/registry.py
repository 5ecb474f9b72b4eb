"""Typed metric families with label sets and deterministic merge.

The fleet-observability counterpart of :class:`repro.stats.counters.Stats`:
where a ``Stats`` tree belongs to *one* simulated component inside one run,
a :class:`MetricsRegistry` aggregates across runs, cores, and worker
processes.  Three metric kinds are supported:

:class:`Counter`
    Monotonically increasing totals (``rows_total``, ``instructions``).
:class:`Gauge`
    Point-in-time values; cross-process merge keeps the configured
    aggregate (``max`` by default, or ``sum``/``last``).
:class:`Histogram`
    Fixed-bound bucket counts plus sum/count, so latency distributions
    merge exactly (bucket-wise addition, same discipline as
    :meth:`Stats.merge`).

Determinism contract: :meth:`MetricsRegistry.snapshot` is a pure JSON
value with sorted keys, label sets are canonicalized (sorted by label
name), and :meth:`MetricsRegistry.merge` is associative and commutative
for counters and histograms — merging N worker snapshots produces the
same registry in any order.  Snapshots therefore ship safely across
process boundaries and diff cleanly run-over-run.  Like the manifest's
``host_profiles``, metric values live *outside* reproducibility digests.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS"]

#: default histogram upper bounds (powers of two, cycles/seconds agnostic)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    """Canonical (sorted, stringified) form of one label set.

    Rejects what :func:`_render_labels` / :func:`_parse_labels` cannot
    carry through a snapshot: ``,`` or ``"`` in a value, those or ``=`` in
    a name.
    """
    key = tuple(sorted((k, str(v)) for k, v in labels.items()))
    for name, value in key:
        if ("," in value or '"' in value
                or "," in name or '"' in name or "=" in name):
            raise ValueError(
                f"label {name!r}={value!r} would not survive a snapshot: "
                f"no ',' or '\"' in a label value, nor those or '=' in a name")
    return key


def _render_labels(key: LabelKey) -> str:
    """``a="1",b="x"`` — the stable series identifier used in snapshots."""
    return ",".join(f'{k}="{v}"' for k, v in key)


def _parse_labels(text: str) -> LabelKey:
    if not text:
        return ()
    pairs = []
    for part in text.split(","):
        name, _, value = part.partition("=")
        pairs.append((name, value.strip('"')))
    return tuple(pairs)


class Metric:
    """Base of one named metric family (all series share the name/kind)."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not name or any(c in name for c in ' {}",\n'):
            raise ValueError(f"bad metric name {name!r}")
        self.name = name
        self.help = help

    def series(self) -> Dict[str, object]:
        """Snapshot payload: ``{rendered-labels: value}`` (sorted later)."""
        raise NotImplementedError

    def merge_series(self, series: Dict[str, object]) -> None:
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing total, one value per label set.

    Each series lives in a one-float cell; :meth:`bind` hands the cell out
    so a per-event recorder canonicalises its labels once and then does
    ``cell[0] += n`` (with ``n >= 0`` — the guard is :meth:`inc`'s).
    """

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._cells: Dict[LabelKey, List[float]] = {}

    def _cell(self, key: LabelKey) -> List[float]:
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = [0.0]
        return cell

    def bind(self, **labels) -> List[float]:
        """The series' cell, created at 0 (so the series now exists)."""
        return self._cell(_label_key(labels))

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self._cell(_label_key(labels))[0] += amount

    def value(self, **labels) -> float:
        cell = self._cells.get(_label_key(labels))
        return cell[0] if cell is not None else 0.0

    def total(self) -> float:
        """Sum over every label set."""
        return sum(cell[0] for cell in self._cells.values())

    def series(self) -> Dict[str, object]:
        return {_render_labels(k): cell[0] for k, cell in self._cells.items()}

    def merge_series(self, series: Dict[str, object]) -> None:
        for text, value in series.items():
            self._cell(_parse_labels(text))[0] += float(value)


class Gauge(Metric):
    """Point-in-time value; ``agg`` picks the cross-snapshot merge rule.

    ``max`` (the default) is deterministic regardless of merge order and is
    the right call for peaks (occupancy, queue depth); ``sum`` suits
    partitionable quantities; ``last`` keeps whatever merged most recently
    (order-dependent — only for single-writer gauges).
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "", agg: str = "max") -> None:
        super().__init__(name, help)
        if agg not in ("max", "sum", "last"):
            raise ValueError(f"unknown gauge agg {agg!r}")
        self.agg = agg
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels) -> None:
        self._values[_label_key(labels)] = float(value)

    def value(self, **labels) -> Optional[float]:
        return self._values.get(_label_key(labels))

    def series(self) -> Dict[str, object]:
        return {_render_labels(k): v for k, v in self._values.items()}

    def merge_series(self, series: Dict[str, object]) -> None:
        for text, value in series.items():
            key = _parse_labels(text)
            value = float(value)
            if key not in self._values or self.agg == "last":
                self._values[key] = value
            elif self.agg == "max":
                if value > self._values[key]:
                    self._values[key] = value
            else:  # sum
                self._values[key] += value


class Histogram(Metric):
    """Fixed-bound bucket counts; merges bucket-wise across processes."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds
        #: per label set: [per-bucket counts incl. +Inf overflow, sum, n]
        self._series: Dict[LabelKey, List] = {}

    def _slot(self, key: LabelKey) -> List:
        slot = self._series.get(key)
        if slot is None:
            slot = self._series[key] = [[0] * (len(self.buckets) + 1), 0.0, 0]
        return slot

    def bind(self, **labels) -> List:
        """The series' slot for :meth:`observe_into`, created empty."""
        return self._slot(_label_key(labels))

    def observe_into(self, slot: List, value: float) -> None:
        """Record ``value`` in a slot :meth:`bind` handed out."""
        if value != value:
            raise ValueError(f"histogram {self.name!r}: NaN has no bucket")
        # first bound >= value; past the last one is the +Inf bucket
        slot[0][bisect_left(self.buckets, value)] += 1
        slot[1] += float(value)
        slot[2] += 1

    def observe(self, value: float, **labels) -> None:
        self.observe_into(self._slot(_label_key(labels)), value)

    def count(self, **labels) -> int:
        key = _label_key(labels)
        return self._series[key][2] if key in self._series else 0

    def mean(self, **labels) -> Optional[float]:
        key = _label_key(labels)
        if key not in self._series or not self._series[key][2]:
            return None
        return self._series[key][1] / self._series[key][2]

    def series(self) -> Dict[str, object]:
        return {_render_labels(k): {"counts": list(counts), "sum": total,
                                    "count": n}
                for k, (counts, total, n) in self._series.items()}

    def merge_series(self, series: Dict[str, object]) -> None:
        for text, payload in series.items():
            key = _parse_labels(text)
            counts = payload["counts"]
            if len(counts) != len(self.buckets) + 1:
                raise ValueError(
                    f"histogram {self.name!r}: snapshot has "
                    f"{len(counts)} buckets, registry has "
                    f"{len(self.buckets) + 1}")
            slot = self._slot(key)
            for i, c in enumerate(counts):
                slot[0][i] += int(c)
            slot[1] += float(payload["sum"])
            slot[2] += int(payload["count"])


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A named collection of metric families with snapshot/merge."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # -- family constructors (idempotent by name) --------------------------
    def _family(self, cls, name: str, help: str, **kw) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(f"metric {name!r} already registered as "
                                 f"{existing.kind}")
            return existing
        metric = cls(name, help, **kw)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._family(Counter, name, help)

    def gauge(self, name: str, help: str = "", agg: str = "max") -> Gauge:
        g = self._family(Gauge, name, help, agg=agg)
        if g.agg != agg:
            raise ValueError(f"gauge {name!r} already registered with "
                             f"agg={g.agg!r}")
        return g

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._family(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # -- snapshot / merge ---------------------------------------------------
    def snapshot(self) -> Dict:
        """The whole registry as a deterministic JSON value.

        Stable across processes and interpreter runs given the same
        recorded values: metric names and label sets are sorted, floats
        are emitted as-is (the recorder controls rounding).
        """
        out: Dict = {}
        for name in sorted(self._metrics):
            m = self._metrics[name]
            entry: Dict = {"kind": m.kind, "help": m.help,
                           "series": dict(sorted(m.series().items()))}
            if isinstance(m, Histogram):
                entry["buckets"] = list(m.buckets)
            if isinstance(m, Gauge):
                entry["agg"] = m.agg
            out[name] = entry
        return {"metrics": out}

    def merge(self, other) -> "MetricsRegistry":
        """Fold another registry or a :meth:`snapshot` value into this one.

        Families absent here are created from the snapshot's declared kind;
        families present in both must agree on kind (and bucket count for
        histograms).  Counter/histogram series add; gauges combine by their
        declared ``agg``.  Returns ``self`` for chaining.
        """
        snap = other.snapshot() if isinstance(other, MetricsRegistry) else other
        if not snap:
            return self
        for name, entry in snap.get("metrics", {}).items():
            kind = entry.get("kind", "counter")
            if kind not in _KINDS:
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
            metric = self._metrics.get(name)
            if metric is None:
                if kind == "histogram":
                    metric = self.histogram(name, entry.get("help", ""),
                                            entry.get("buckets",
                                                      DEFAULT_BUCKETS))
                elif kind == "gauge":
                    metric = self.gauge(name, entry.get("help", ""),
                                        entry.get("agg", "max"))
                else:
                    metric = self.counter(name, entry.get("help", ""))
            elif metric.kind != kind:
                raise ValueError(f"metric {name!r}: cannot merge {kind} "
                                 f"snapshot into {metric.kind}")
            metric.merge_series(entry.get("series", {}))
        return self

    @classmethod
    def from_snapshot(cls, snap: Dict) -> "MetricsRegistry":
        return cls().merge(snap)

    # -- human-readable exposition -----------------------------------------
    def render_text(self) -> str:
        """Prometheus-flavoured text exposition (for terminals and logs)."""
        lines: List[str] = []
        snap = self.snapshot()["metrics"]
        for name, entry in snap.items():
            if entry["help"]:
                lines.append(f"# HELP {name} {entry['help']}")
            lines.append(f"# TYPE {name} {entry['kind']}")
            for labels, value in entry["series"].items():
                tag = f"{{{labels}}}" if labels else ""
                if entry["kind"] == "histogram":
                    lines.append(f"{name}_count{tag} {value['count']}")
                    lines.append(f"{name}_sum{tag} {value['sum']:g}")
                else:
                    lines.append(f"{name}{tag} {value:g}")
        return "\n".join(lines)
