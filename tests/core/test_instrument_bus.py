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
* **Every event is live** — each of the seventeen events has a dispatch
  site some run reaches: the core's own in the timeline steps and the
  barrel steps alike, the parts' (VRMU, sysreg buffer, dcache, fault
  injector) in the parts, and every eviction cause.
* **Cycle identity** — observers never change a timestamp: the observed
  variant commits on exactly the bare variant's clock.

A fifth holds by construction and is checked on the source: the core's
two instrument setters are the only attach points, so nothing outside
the core classes writes a part's hook slot.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.core.base import TimelineCore
from repro.core.cgmt import BankedCore, SoftwareSwitchCore
from repro.core.instrument import Observer, sinks_for
from repro.core.trace import PipelineTracer
from repro.isa.compiled import compile_program
from repro.system import NearMemoryNode, RunConfig, run_config, taskpool
from repro.virec import ViReCCore

from ..helpers import build_gather_core

#: the whole observational hook surface, in declaration order
EVENTS = tuple(name for name in vars(Observer) if name.startswith("on_"))
#: the events of the parts a core owns and of the fault injector
PART_EVENTS = ("on_reg_hit", "on_reg_miss", "on_reg_evict", "on_reg_fill",
               "on_reg_insert", "on_reg_spill", "on_sysreg",
               "on_dcache_miss", "on_fault")
EVICT_CAUSES = {"capacity", "thread", "group", "prefetch", "task-drop"}


def build_core(cls=BankedCore, **kw):
    kw.setdefault("n_threads", 4)
    kw.setdefault("n", 32)
    core, _, _, _ = build_gather_core(cls, **kw)
    return core


# ------------------------------------------------------ recording instruments
class Log(list):
    """Shared event log; each instrument appends (name, event) tuples,
    and the eviction causes it saw land in ``causes``."""

    def __init__(self):
        super().__init__()
        self.causes = set()


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


def _record_evict(self, slot, tid, cause, t):
    self.log.append((self.name, "on_reg_evict"))
    self.log.causes.add(cause)


Recorder.on_reg_evict = _record_evict


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
def test_the_surface_is_seventeen_events():
    assert EVENTS == ("on_schedule", "on_switch_in", "on_switch", "on_stall",
                      "on_context_move", "on_spill_window", "on_commit",
                      "on_thread_done") + PART_EVENTS


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
#: the software save/restore, a register-cache core, the barrel body, a
#: masked switch (a second fruitless run stalls in place), injected faults
#: with context prefetch and group evictions, and a task pool (a finished
#: task's registers are dropped); a mapping is ``run_taskpool``'s keywords
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
    "faults-prefetch-group": RunConfig(
        workload="gather", core_type="virec", n_threads=4, n_per_thread=16,
        context_fraction=0.4, faults={"rf_rate": 1e-4, "seed": 3},
        virec={"context_prefetch": True, "group_evict": 2}),
    "taskpool": dict(workload="gather", core_type="virec", hw_threads=4,
                     n_tasks=8, n_per_task=16, context_fraction=0.4),
}


def _run_site(cfg):
    """``(committed instructions, HALTs)`` of one live site's run."""
    if isinstance(cfg, RunConfig):
        return run_config(cfg).instructions, cfg.n_threads
    stats, _ = taskpool.run_taskpool(**cfg)
    return stats["instructions"], cfg["n_tasks"]


def test_every_event_has_a_live_dispatch_site(monkeypatch):
    init, attach_pool = NearMemoryNode.__init__, taskpool.attach_pool
    log = Log()

    def recording_init(self, *args, **kw):
        init(self, *args, **kw)
        for core in self.cores:
            core.observers += (Recorder(log),)

    def recording_attach_pool(core, pool):
        core.observers += (Recorder(log),)
        attach_pool(core, pool)

    monkeypatch.setattr(NearMemoryNode, "__init__", recording_init)
    monkeypatch.setattr(taskpool, "attach_pool", recording_attach_pool)
    seen, causes = {}, {}
    for key, cfg in LIVE_SITES.items():
        del log[:]
        log.causes.clear()
        instructions, halts = _run_site(cfg)
        seen[key] = {event for _, event in log}
        causes[key] = set(log.causes)
        # both pipeline families commit every instruction and every HALT
        commits = sum(1 for _, event in log if event == "on_commit")
        assert commits == instructions + halts, key
        assert "on_thread_done" in seen[key], key
    assert set().union(*seen.values()) == set(EVENTS)
    assert set().union(*causes.values()) == EVICT_CAUSES
    assert "on_stall" in seen["masked-switch"]
    # the barrel steps dispatch the core's commit events; its dcache its own
    assert seen["fgmt"] - set(PART_EVENTS) == {"on_commit", "on_thread_done"}
    assert "on_fault" in seen["faults-prefetch-group"]
    assert {"group", "prefetch"} <= causes["faults-prefetch-group"]
    assert "task-drop" in causes["taskpool"]
    # only register-cache cores report register-cache traffic
    for key in ("banked", "swctx", "fgmt", "masked-switch"):
        assert not seen[key] & {"on_reg_hit", "on_reg_miss", "on_sysreg"}


def test_parts_get_only_the_observers_of_their_events():
    """The core's ``observers`` setter hands each part the observers that
    override its events, and an empty tuple when none do."""
    core = build_core()
    core.observers += (PipelineTracer(),)
    assert core.dcache.sinks == ()
    recorder = Recorder(Log())
    core.observers += (recorder,)
    assert core.dcache.sinks == (recorder,)
    core.observers = ()
    assert core.dcache.sinks == ()


#: the core's own events that go to a tuple of their observers
SWITCH_EVENTS = ("on_schedule", "on_switch_in", "on_switch", "on_stall",
                 "on_thread_done", "on_context_move", "on_spill_window")


def test_the_switch_path_events_go_only_to_their_observers(monkeypatch):
    """Each of the core's switch-path events gets the observers that
    override it, and an empty tuple when none do, as the parts do.  The
    banked and the software-switch core move contexts: a run of each calls
    no observer's inherited no-op for a move or a spill window."""
    inherited = []
    for event in ("on_context_move", "on_spill_window"):
        monkeypatch.setattr(Observer, event,
                            lambda self, *args, event=event:
                            inherited.append(event))

    class SwitchesOnly(Observer):
        def on_switch(self, tid, t_req, t_sw, ready_at, flushed):
            pass

    class MovesOnly(Observer):
        def on_context_move(self, kind, tid, t, done):
            self.moves.append(kind)

    class SpillWindowsOnly(Observer):
        def on_spill_window(self, tid, t_to):
            self.windows.append(tid)

    for cls in (BankedCore, SoftwareSwitchCore):
        core = build_core(cls)
        switches, moves, windows = (SwitchesOnly(), MovesOnly(),
                                    SpillWindowsOnly())
        moves.moves, windows.windows = [], []
        observers = (PipelineTracer(), switches, moves, windows)
        core.observers += observers
        tuples = {event: getattr(core, "_" + event)
                  for event in SWITCH_EVENTS}
        assert tuples == {event: sinks_for(observers, event)
                          for event in SWITCH_EVENTS}
        assert tuples["on_switch"][-1] is switches
        assert all(switches not in tuples[event]
                   for event in SWITCH_EVENTS if event != "on_switch")
        assert tuples["on_context_move"][-1] is moves
        assert tuples["on_spill_window"] == (windows,)
        core.run()
        assert moves.moves and inherited == []
        assert bool(windows.windows) == (cls is SoftwareSwitchCore)
        core.observers = ()
        assert all(getattr(core, "_" + event) == ()
                   for event in SWITCH_EVENTS)


def test_a_virec_core_hands_its_vrmu_sysregs_and_bsi_their_instruments():
    core, _, _, _ = build_gather_core(ViReCCore, n_threads=4, n=32)
    vrmu = core.vrmu
    assert (vrmu.sinks, vrmu.hit_sinks, core.sysregs.sinks) == ((), (), ())

    class HitsOnly(Observer):
        def on_reg_hit(self, tid, reg, t):
            pass

    hits, recorder = HitsOnly(), Recorder(Log())
    core.observers += (PipelineTracer(), hits, recorder)
    assert vrmu.sinks == core.sysregs.sinks == core.dcache.sinks == (
        recorder,)
    assert vrmu.hit_sinks == (hits, recorder)
    injector = RecordingFaults(Log())
    core.fault_hook = injector
    assert core.fault_hook is vrmu.fault_hook is core.bsi.fault_hook is (
        injector)
    core.fault_hook = None
    assert vrmu.fault_hook is None and core.bsi.fault_hook is None
    assert bound_variant(core).observed


#: attributes only a core class may write on another object: the parts'
#: sink tuples and fault hooks (a core's own ``fault_hook`` is written as
#: ``core.fault_hook``); and the side hook slots the bus replaced
HANDED = {"sinks", "hit_sinks", "fault_hook"}
GONE = {"probe", "event_hook", "event_sink"}
CORE_CLASSES = {"core/base.py", "virec/core.py"}


def test_only_the_core_classes_write_a_parts_hook_slot():
    src = Path(repro.__file__).parent
    offenders = []
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                owner = (target.value.id
                         if isinstance(target.value, ast.Name) else None)
                if target.attr in GONE or (
                        target.attr in HANDED and owner != "self"
                        and rel not in CORE_CLASSES
                        and (owner, target.attr) != ("core", "fault_hook")):
                    offenders.append(f"{rel}:{node.lineno} "
                                     f"{ast.unparse(target)}")
    assert offenders == []


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
