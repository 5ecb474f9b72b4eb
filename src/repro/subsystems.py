"""The opt-in layers a run can carry, stated once.

A layer is one ``RunConfig`` field (``None`` = off, and then nothing of the
layer is imported, wired or dispatched) and one package exporting

* ``CONFIG`` — its config dataclass, with a ``from_spec`` classmethod and
  an ``enabled`` property, and
* ``wire(conf, cfg, node, instances) -> handle | None`` — attach to every
  core of ``node``; the handle lands on ``RunResult.<result>``.

The driver (``repro.system.simulator.run_config``) wires the rows of
:data:`SUBSYSTEMS` top to bottom and ends the run bottom to top, in two
stages: ``handle.verify()`` for rows with ``verify`` inside the simulate
phase (it may raise: a ``SanitizerViolation`` or ``AttributionError`` is a
simulation outcome), then ``handle.finalize()`` for rows with ``finalize``
after it.

The order is a contract.  It is the order every core dispatches its
``observers`` in (each layer attaches with ``core.observers += ...``).
Fault injection is wired first: telemetry's ``attach`` must find
``core.fault_hook`` already there to route fault events into its ring, and
VSan must see injected corruption.  At run end
VSan's sweep comes before the attribution-sum check, and
``ProfileSession.finalize`` (it emits ``cycle_causes`` into the telemetry
ring) before ``TelemetrySession.finalize``.

This module imports nothing from the package, so ``RunConfig`` and the five
``*Config.from_spec`` classmethods can use it without a cycle.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import fields
from importlib import import_module
from typing import List, NamedTuple, Optional, Tuple

__all__ = ["SUBSYSTEMS", "Subsystem", "parse_spec", "requested"]


class Subsystem(NamedTuple):
    """One row of :data:`SUBSYSTEMS`."""

    #: the ``RunConfig`` field holding the layer's spec
    field: str
    #: the package exporting ``CONFIG`` and ``wire``
    package: str
    #: the ``RunResult`` field the handle lands on (None: no handle kept)
    result: Optional[str]
    #: run end, inside the simulate phase: ``handle.verify()``
    verify: bool
    #: run end, after the simulate phase: ``handle.finalize()``
    finalize: bool


SUBSYSTEMS: Tuple[Subsystem, ...] = (
    Subsystem("faults", "repro.faults", None, False, False),
    Subsystem("telemetry", "repro.telemetry", "telemetry", False, True),
    Subsystem("metrics", "repro.metrics", "metrics", False, True),
    Subsystem("profile", "repro.profiling", "profile", True, True),
    Subsystem("sanitize", "repro.sanitizer", "sanitizer", True, False),
)


def parse_spec(cls, spec, noun: str, accepts_true: bool = True):
    """A layer's spec as an instance of its config dataclass ``cls``.

    ``True`` gives the defaults (where the layer accepts it), an instance
    is returned as it is, a mapping is checked against the fields of
    ``cls``.  ``None`` is each ``from_spec``'s own line: what "all off"
    means differs per layer.
    """
    if spec is True and accepts_true:
        return cls()
    if isinstance(spec, cls):
        return spec
    if isinstance(spec, Mapping):
        known = sorted(f.name for f in fields(cls))
        unknown = sorted(set(spec) - set(known))
        if unknown:
            raise ValueError(f"unknown {noun} field(s) {unknown}; "
                             f"choose from {known}")
        return cls(**spec)
    raise TypeError(f"{noun} spec must be a {cls.__name__} or a mapping of "
                    f"its fields{', or True' if accepts_true else ''}, "
                    f"not {type(spec).__name__}")


def requested(cfg) -> List[tuple]:
    """``(row, module, conf)`` for every layer ``cfg`` asks for, in order.

    A layer is asked for when its field is not ``None`` and the spec parses
    to an enabled config; parsing is what validates the spec.  A package is
    imported only when its field is set.
    """
    out = []
    for row in SUBSYSTEMS:
        spec = getattr(cfg, row.field)
        if spec is not None:
            module = import_module(row.package)
            conf = module.CONFIG.from_spec(spec)
            if conf.enabled:
                out.append((row, module, conf))
    return out
