"""Per-figure experiment drivers (shared by benchmarks/ and examples/)."""

from . import (ablation, compiler_study, fault_study, fig01, sizing, fig02,
               fig09, fig10, fig11, fig12, fig13, fig14, throughput)
from .common import SUITE, ExperimentResult, geomean, scale_to_n, simulate

#: every driver module by name; those with ``grid`` + ``fold`` simulate
#: through RunConfigs (see :func:`~repro.experiments.common.simulate`)
DRIVERS = {module.__name__.rsplit(".", 1)[1]: module for module in (
    ablation, compiler_study, fault_study, fig01, fig02, fig09, fig10, fig11,
    fig12, fig13, fig14, sizing, throughput)}
ALL_EXPERIMENTS = {name: driver.run for name, driver in DRIVERS.items()}

__all__ = ["ALL_EXPERIMENTS", "DRIVERS", "ExperimentResult", "SUITE",
           "ablation", "fault_study", "geomean", "scale_to_n", "fig01",
           "fig02", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
           "simulate", "throughput"]
