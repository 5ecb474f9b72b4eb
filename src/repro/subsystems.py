"""The opt-in layers a run can carry, stated once.

A layer is one or more ``RunConfig`` fields (all ``None`` = off, and then
nothing of the layer is imported, wired or dispatched) and one package
exporting

* ``CONFIG`` — its config dataclass, whose ``from_spec`` classmethod takes
  the specs of the layer's fields in row order, and
* ``wire(conf, cfg, node, instances) -> handle | None`` — attach to every
  core of ``node``; the handle lands on the ``RunResult`` fields named by
  the row for the ``RunConfig`` fields that are set.

The driver (``repro.system.simulator.run_config``) wires the rows of
:data:`SUBSYSTEMS` top to bottom and ends the run bottom to top, in two
stages: ``handle.verify()`` for rows with ``verify`` inside the simulate
phase (it may raise: a ``SanitizerViolation`` or ``AttributionError`` is a
simulation outcome), then ``handle.finalize()`` for rows with ``finalize``
after it.

The order is a contract.  It is the order every core dispatches its
``observers`` in (each layer attaches with ``core.observers += ...``, and
the core hands its parts the observers of their events in the same
order).  Fault injection is wired first, so that VSan sees injected
corruption; the injector reports each fault through the core's
``observers``, whenever those are attached.  At run end VSan's sweep
comes before the attribution-sum check.

This module imports nothing from the package, so ``RunConfig`` and the
``*Config.from_spec`` classmethods can use it without a cycle.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import fields
from importlib import import_module
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

__all__ = ["SUBSYSTEMS", "Subsystem", "parse_spec", "requested",
           "spec_fields"]


class Subsystem(NamedTuple):
    """One row of :data:`SUBSYSTEMS`."""

    #: the ``RunConfig`` fields holding the layer's specs
    fields: Tuple[str, ...]
    #: the package exporting ``CONFIG`` and ``wire``
    package: str
    #: per field, the ``RunResult`` field the handle lands on when that
    #: field is set (None: no handle kept)
    results: Tuple[Optional[str], ...]
    #: run end, inside the simulate phase: ``handle.verify()``
    verify: bool
    #: run end, after the simulate phase: ``handle.finalize()``
    finalize: bool


SUBSYSTEMS: Tuple[Subsystem, ...] = (
    Subsystem(("faults",), "repro.faults", (None,), False, False),
    Subsystem(("telemetry", "metrics", "profile"), "repro.telemetry",
              ("telemetry", "metrics", "profile"), True, True),
    Subsystem(("sanitize",), "repro.sanitizer", ("sanitizer",), True, False),
)


def spec_fields(spec, noun: str, known: Sequence[str],
                accepts_true: bool = True, cls=None) -> Dict:
    """A layer field's spec as a dict of the field names ``known``.

    ``True`` gives the defaults (an empty dict, where the field accepts
    it); a mapping is checked against ``known``.  ``cls`` names the config
    class an instance of which the field also accepts, for the message.
    """
    if spec is True and accepts_true:
        return {}
    if isinstance(spec, Mapping):
        unknown = sorted(set(spec) - set(known))
        if unknown:
            raise ValueError(f"unknown {noun} field(s) {unknown}; "
                             f"choose from {sorted(known)}")
        return dict(spec)
    instance = f"a {cls.__name__} or " if cls is not None else ""
    raise TypeError(f"{noun} spec must be {instance}a mapping of its "
                    f"fields{', or True' if accepts_true else ''}, "
                    f"not {type(spec).__name__}")


def parse_spec(cls, spec, noun: str, accepts_true: bool = True):
    """A layer's spec as an instance of its config dataclass ``cls``.

    An instance is returned as it is; anything else goes through
    :func:`spec_fields` against the fields of ``cls``.  ``None`` is each
    ``from_spec``'s own line: what "all off" means differs per layer.
    """
    if isinstance(spec, cls):
        return spec
    return cls(**spec_fields(spec, noun, [f.name for f in fields(cls)],
                             accepts_true, cls))


def requested(cfg) -> List[tuple]:
    """``(row, module, conf)`` for every layer ``cfg`` asks for, in order.

    A layer is asked for when one of its fields is not ``None`` and the
    specs parse to a config that is not disabled (a config without an
    ``enabled`` property is on); parsing is what validates the specs.  A
    package is imported only when one of its fields is set.
    """
    out = []
    for row in SUBSYSTEMS:
        specs = [getattr(cfg, name) for name in row.fields]
        if any(spec is not None for spec in specs):
            module = import_module(row.package)
            conf = module.CONFIG.from_spec(*specs)
            if getattr(conf, "enabled", True):
                out.append((row, module, conf))
    return out
