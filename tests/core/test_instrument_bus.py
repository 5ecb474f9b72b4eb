"""The InstrumentBus contract of the timeline engine.

Three things must hold (see ``repro/core/instrument.py``):

* **Compiled fast path** — with nothing attached the engine binds the
  generated closure table; any attach binds the reference body, under
  either engine, and detaching the last instrument restores the table.
* **Fixed dispatch order** — attached instruments fire per instruction as
  faults -> telemetry -> metrics -> profile -> sanitizer -> tracer, at
  their pipeline positions.
* **Cycle identity** — observational instruments never change a timestamp:
  the reference body commits on exactly the compiled table's clock.
"""

import pytest

from repro.core.base import TimelineCore
from repro.core.cgmt import BankedCore
from repro.core.instrument import DISPATCH_ORDER, InstrumentBus
from repro.core.trace import PipelineTracer

from ..helpers import build_gather_core


def build_core(**kw):
    kw.setdefault("n_threads", 4)
    kw.setdefault("n", 32)
    core, _, _, _ = build_gather_core(BankedCore, **kw)
    return core


# ------------------------------------------------------ recording instruments
class Log(list):
    """Shared event log; each instrument appends (slot, event) tuples."""


class RecordingFaults:
    def __init__(self, log):
        self.log = log

    def on_instruction(self, thread, inst, t_fetch):
        self.log.append(("faults", "on_instruction"))
        return t_fetch  # observational here: adds no recovery cycles


class RecordingTelemetry:
    def __init__(self, log):
        self.log = log

    def on_run_begin(self, tid, t):
        self.log.append(("telemetry", "on_run_begin"))

    def on_commit(self, t_c):
        self.log.append(("telemetry", "on_commit"))

    def on_stall_in_place(self, tid, t_from, t_to, reason):
        self.log.append(("telemetry", "on_stall_in_place"))

    def on_switch(self, tid_out, t, tid_in, reason):
        self.log.append(("telemetry", "on_switch"))

    def on_thread_done(self, tid, t_c):
        self.log.append(("telemetry", "on_thread_done"))

    def on_context_move(self, kind, tid, t, done):
        self.log.append(("telemetry", "on_context_move"))


class RecordingMetrics:
    def __init__(self, log):
        self.log = log

    def on_commit(self, thread, d, t_c):
        self.log.append(("metrics", "on_commit"))


class RecordingProfile:
    def __init__(self, log):
        self.log = log

    def on_schedule(self, tid, t_req, t_sched):
        self.log.append(("profile", "on_schedule"))

    def on_switch_in(self, tid, t_fetch):
        self.log.append(("profile", "on_switch_in"))

    def on_switch_hold(self, tid, t_sw, t_hold):
        self.log.append(("profile", "on_switch_hold"))

    def on_spill_window(self, tid, done):
        self.log.append(("profile", "on_spill_window"))

    def on_commit_timing(self, tid, pc0, d, t_d, t_ops, t_regs, t_ex_done,
                         data_at, t_c, icache_missed, load_missed,
                         spill_wait=0):
        self.log.append(("profile", "on_commit_timing"))


class RecordingSanitizer:
    def __init__(self, log):
        self.log = log

    def on_commit(self, thread, inst, result, t_c):
        self.log.append(("sanitizer", "on_commit"))


class RecordingTracer:
    def __init__(self, log):
        self.log = log

    def record(self, tid, pc, text, t_d, t_issue, t_ex, t_mem, t_c):
        self.log.append(("tracer", "record"))


def attach_all(core, log):
    core.fault_hook = RecordingFaults(log)
    core.telemetry = RecordingTelemetry(log)
    core.metrics = RecordingMetrics(log)
    core.profile = RecordingProfile(log)
    core.sanitizer = RecordingSanitizer(log)
    core.tracer = RecordingTracer(log)


# ------------------------------------------------------------- compiled step
def step_body(core):
    return core._process_instruction.__func__


COMPILED = TimelineCore._process_instruction_compiled
REFERENCE = TimelineCore._reference_step


def test_fast_path_bound_when_bus_empty():
    core = build_core()
    assert core.bus.empty and core.engine == "compiled"   # the default
    assert step_body(core) is COMPILED
    # the interpreted engine has one body, whatever the bus holds
    assert step_body(build_core(engine="interpreted")) is REFERENCE


def test_attach_rebinds_to_instrumented_and_back():
    core = build_core()
    core.tracer = PipelineTracer()
    assert not core.bus.empty
    assert step_body(core) is REFERENCE
    core.tracer = None
    assert core.bus.empty
    assert step_body(core) is COMPILED


@pytest.mark.parametrize("slot,attr", [("faults", "fault_hook"),
                                       ("telemetry", "telemetry"),
                                       ("metrics", "metrics"),
                                       ("profile", "profile"),
                                       ("sanitizer", "sanitizer"),
                                       ("tracer", "tracer")])
def test_legacy_attributes_delegate_to_bus(slot, attr):
    core = build_core()
    probe = object()
    setattr(core, attr, probe)
    assert getattr(core.bus, slot) is probe
    assert getattr(core, attr) is probe
    assert step_body(core) is REFERENCE
    setattr(core, attr, None)
    assert getattr(core.bus, slot) is None
    assert step_body(core) is COMPILED


def test_bus_set_checks_slot_name():
    bus = InstrumentBus()
    with pytest.raises(ValueError, match="unknown instrument slot"):
        bus.set("profiler", object())
    bus.set("tracer", probe := object())
    assert bus.tracer is probe


def test_attached_lists_in_dispatch_order():
    core = build_core()
    log = Log()
    attach_all(core, log)
    assert [name for name, _ in core.bus.attached()] == list(DISPATCH_ORDER)
    assert DISPATCH_ORDER == ("faults", "telemetry", "metrics", "profile",
                              "sanitizer", "tracer")


def test_external_step_wrapper_survives_recompile():
    """An externally installed wrapper (the task-pool idiom) must not be
    clobbered by attach/detach; instruments reach it via ``_step_impl``."""
    core = build_core()
    calls = []

    def wrapper(thread):
        calls.append(thread.tid)
        core._step_impl(thread)

    core._process_instruction = wrapper
    core.tracer = PipelineTracer()          # recompile under the wrapper
    assert core._process_instruction is wrapper
    assert core._step_impl.__func__ is REFERENCE
    core.run()
    assert calls, "wrapper was bypassed"
    assert core.tracer.records, "instrument attached after wrapping was lost"


# ------------------------------------------------------------ dispatch order
def test_dispatch_order_per_instruction():
    core = build_core(n_threads=1)
    log = Log()
    attach_all(core, log)
    core.run()

    # the banked core schedules and charges the initial context fetch
    # (profile sees the schedule first), then the run begins
    assert ("telemetry", "on_run_begin") in log[:3]
    body = [e for e in log if e[1] in ("on_instruction", "on_commit",
                                       "on_commit_timing", "record")]
    # every committed instruction dispatches faults -> telemetry ->
    # metrics -> profile -> sanitizer -> tracer; the halt commits without
    # a tracer record
    per_inst = [("faults", "on_instruction"), ("telemetry", "on_commit"),
                ("metrics", "on_commit"), ("profile", "on_commit_timing"),
                ("sanitizer", "on_commit"), ("tracer", "record")]
    n = core.threads[0].instructions
    assert body[:6 * n] == per_inst * n
    assert body[6 * n:] == per_inst[:5]     # the halt: no tracer record
    assert log[-1] == ("telemetry", "on_thread_done")


# ------------------------------------------------------------- cycle identity
def test_instrumented_path_is_cycle_identical_to_fast_path():
    bare = build_core()
    bare.run()

    instrumented = build_core()
    attach_all(instrumented, Log())
    instrumented.run()

    assert instrumented.commit_tail == bare.commit_tail
    assert instrumented.stats.as_dict() == bare.stats.as_dict()
    for a, b in zip(instrumented.threads, bare.threads):
        assert a.instructions == b.instructions
        assert a.xregs == b.xregs


def test_mid_run_attach_detach_keeps_the_clock():
    """Flipping between the compiled table and the reference body mid-run
    must not disturb the timeline: a run that toggles a tracer on and off
    commits on the same clock as an untouched run."""
    bare = build_core()
    bare.run()

    toggled = build_core()
    for i in range(40):
        if not toggled.step():
            break
        if i == 10:
            toggled.tracer = PipelineTracer()
        elif i == 20:
            toggled.tracer = None
    while toggled.step():
        pass
    toggled.finalize_stats()
    assert toggled.commit_tail == bare.commit_tail
    assert toggled.stats.as_dict() == bare.stats.as_dict()
