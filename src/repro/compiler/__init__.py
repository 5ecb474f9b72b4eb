"""Compiler support: loop/register analysis and the register-reduction pass."""

from .liveness import (
    Loop,
    UtilizationReport,
    find_loops,
    inner_loop_regs,
    innermost_loops,
    outer_only_regs,
    used_regs,
    utilization,
)
from .scheduler import ScheduleResult, schedule_program
from .regreduce import (
    ReduceResult,
    RegReduceError,
    SPILL_BASE_REG,
    TEMP_REGS,
    reduce_registers,
)

__all__ = [
    "Loop", "ReduceResult", "RegReduceError", "SPILL_BASE_REG",
    "ScheduleResult", "TEMP_REGS", "UtilizationReport", "find_loops",
    "inner_loop_regs", "innermost_loops", "outer_only_regs",
    "reduce_registers", "schedule_program", "used_regs", "utilization",
]
