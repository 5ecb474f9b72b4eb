"""The observer contract of the timeline engine.

A core has two instrument attributes (see ``repro/core/instrument.py``):
``fault_hook``, called at fetch, and ``observers``, a tuple of
:class:`~repro.core.instrument.Observer` sinks dispatched in attach order.
Four things must hold:

* **One step engine, two variants** — the generated table is always the
  bound step; with no fault hook and no observers it is the bare variant,
  assigning either recompiles it to the observed variant, and clearing it
  restores the bare one.
* **One commit point** — per instruction the fault hook fires, then each
  observer's ``on_commit`` in attach order; the HALT commits, then every
  observer gets ``on_thread_done``.
* **Every event is live** — each of the eight events has a dispatch site
  some run reaches, in the timeline steps and the barrel steps alike.
* **Cycle identity** — observers never change a timestamp: the observed
  variant commits on exactly the bare variant's clock.
"""

import pytest

from repro.core.base import TimelineCore
from repro.core.cgmt import BankedCore
from repro.core.instrument import Observer
from repro.core.trace import PipelineTracer
from repro.isa.compiled import compile_program
from repro.system import NearMemoryNode, RunConfig, run_config

from ..helpers import build_gather_core

#: the whole observational hook surface, in declaration order
EVENTS = tuple(name for name in vars(Observer) if name.startswith("on_"))


def build_core(**kw):
    kw.setdefault("n_threads", 4)
    kw.setdefault("n", 32)
    core, _, _, _ = build_gather_core(BankedCore, **kw)
    return core


# ------------------------------------------------------ recording instruments
class Log(list):
    """Shared event log; each instrument appends (name, event) tuples."""


class RecordingFaults:
    def __init__(self, log):
        self.log = log

    def on_instruction(self, thread, inst, t_fetch):
        self.log.append(("faults", "on_instruction"))
        return t_fetch  # observational here: adds no recovery cycles


class Recorder(Observer):
    """Logs every event it receives as ``(name, event)``."""

    def __init__(self, log, name="observer"):
        self.log = log
        self.name = name


def _recording(event):
    def record(self, *args):
        self.log.append((self.name, event))
    return record


for _event in EVENTS:
    setattr(Recorder, _event, _recording(_event))


def attach_all(core, log):
    core.fault_hook = RecordingFaults(log)
    core.observers += (Recorder(log, "first"), Recorder(log, "second"))


# ----------------------------------------------------------- the step table
def step_body(core):
    return core._process_instruction.__func__


COMPILED = TimelineCore._process_instruction_compiled


def bound_variant(core):
    """The variant of the table the core runs (checked to be the one
    compiled for its current instruments)."""
    variant = core._engine_variant()
    assert core._ccode is compile_program(core.dprog, variant).code
    return variant


def test_fast_path_bound_when_bus_empty():
    core = build_core()
    assert core.fault_hook is None and core.observers == ()
    assert step_body(core) is COMPILED
    assert not bound_variant(core).observed


def test_attach_rebinds_to_instrumented_and_back():
    core = build_core()
    core.observers += (PipelineTracer(),)
    assert step_body(core) is COMPILED
    assert bound_variant(core).observed
    core.observers = ()
    assert step_body(core) is COMPILED
    assert not bound_variant(core).observed
    core.fault_hook = RecordingFaults(Log())
    assert step_body(core) is COMPILED
    assert bound_variant(core).observed
    core.fault_hook = None
    assert step_body(core) is COMPILED
    assert not bound_variant(core).observed


def test_external_step_wrapper_survives_recompile():
    """An externally installed wrapper (the task-pool idiom) must not be
    clobbered by attach/detach; instruments reach it via ``_step_impl``."""
    core = build_core()
    calls = []

    def wrapper(thread):
        calls.append(thread.tid)
        core._step_impl(thread)

    core._process_instruction = wrapper
    tracer = PipelineTracer()
    core.observers += (tracer,)              # recompile under the wrapper
    assert core._process_instruction is wrapper
    assert core._step_impl.__func__ is COMPILED
    assert bound_variant(core).observed
    core.run()
    assert calls, "wrapper was bypassed"
    assert tracer.records, "instrument attached after wrapping was lost"


# ------------------------------------------------------------ dispatch order
def test_the_surface_is_eight_events():
    assert EVENTS == ("on_schedule", "on_switch_in", "on_switch", "on_stall",
                      "on_context_move", "on_spill_window", "on_commit",
                      "on_thread_done")


def test_dispatch_order_per_instruction():
    core = build_core(n_threads=1)
    log = Log()
    attach_all(core, log)
    core.run()

    body = [e for e in log if e[1] in ("on_instruction", "on_commit",
                                       "on_thread_done")]
    # every committed instruction, the HALT included, calls the fault hook
    # and then commits once per observer, in attach order
    per_inst = [("faults", "on_instruction"), ("first", "on_commit"),
                ("second", "on_commit")]
    n = core.threads[0].instructions + 1
    assert body[:3 * n] == per_inst * n
    assert body[3 * n:] == [("first", "on_thread_done"),
                            ("second", "on_thread_done")]
    assert log[-2:] == body[3 * n:]


#: runs that together reach every event: the banked core's context fetch,
#: the software save/restore, a register-cache core, the barrel body, and
#: a masked switch (a second fruitless run stalls in place)
LIVE_SITES = {
    "banked": RunConfig(workload="gather", core_type="banked", n_threads=4,
                        n_per_thread=16),
    "swctx": RunConfig(workload="gather", core_type="swctx", n_threads=4,
                       n_per_thread=16),
    "virec": RunConfig(workload="gather", core_type="virec", n_threads=4,
                       n_per_thread=16, rf_size=12),
    "fgmt": RunConfig(workload="gather", core_type="fgmt", n_threads=4,
                      n_per_thread=16),
    "masked-switch": RunConfig(workload="gather_scatter", core_type="banked",
                               n_threads=3, n_per_thread=16, dcache_kb=1),
}


def test_every_event_has_a_live_dispatch_site(monkeypatch):
    init = NearMemoryNode.__init__
    log = Log()

    def recording_init(self, *args, **kw):
        init(self, *args, **kw)
        for core in self.cores:
            core.observers += (Recorder(log),)

    monkeypatch.setattr(NearMemoryNode, "__init__", recording_init)
    seen = {}
    for key, cfg in LIVE_SITES.items():
        del log[:]
        result = run_config(cfg)
        seen[key] = {event for _, event in log}
        # both pipeline families commit every instruction and every HALT
        commits = sum(1 for _, event in log if event == "on_commit")
        assert commits == result.instructions + cfg.n_threads, key
        assert "on_thread_done" in seen[key], key
    assert set().union(*seen.values()) == set(EVENTS)
    assert "on_stall" in seen["masked-switch"]
    assert seen["fgmt"] == {"on_commit", "on_thread_done"}


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
    """Flipping between the bare and the observed variant mid-run must
    not disturb the timeline: a run that toggles a tracer on and off
    commits on the same clock as an untouched run."""
    bare = build_core()
    bare.run()

    toggled = build_core()
    for i in range(40):
        if not toggled.step():
            break
        if i == 10:
            toggled.observers = (PipelineTracer(),)
        elif i == 20:
            toggled.observers = ()
    while toggled.step():
        pass
    toggled.finalize_stats()
    assert toggled.commit_tail == bare.commit_tail
    assert toggled.stats.as_dict() == bare.stats.as_dict()
