"""Simulated-hardware fault injection (soft errors in register state).

See :mod:`repro.faults.injector` for the model and
``docs/architecture.md`` ("Fault model & resilience") for the design notes.
"""

from .injector import SITES, FaultConfig, FaultInjector
from .schemes import SCHEMES, ProtectionScheme, get_scheme

__all__ = ["FaultConfig", "FaultInjector", "ProtectionScheme", "SCHEMES",
           "SITES", "get_scheme"]


CONFIG = FaultConfig


def wire(conf, cfg, node, instances):
    """Attach a per-core FaultInjector (the ``faults`` row of
    :data:`repro.subsystems.SUBSYSTEMS`); no handle is kept."""
    for cid, (core, inst) in enumerate(zip(node.cores, instances)):
        FaultInjector.attach(
            core, conf.reseeded(conf.seed + 1009 * cid + cfg.seed),
            stats=core.stats.child("faults"), regs=inst.active_regs)
