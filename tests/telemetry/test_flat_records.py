"""Flat event records: what the engine's call stores, what a reader gets.

An event named in ``EVENT_ARGS`` is recorded as its argument values, not as
a dict; ``events`` / ``chrome_trace()`` zip the schema's keys back on.  Held
here, against every event the per-core telemetry sinks emit:

* the decoded ``args`` are the dict the sink used to build per event, key
  order included (the evict keys end with the policy's ``FIELD_NAMES``);
* every such event has a schema entry of the arity it is emitted with, and
  a category;
* after an observed ViReC run at 40 % context no retained record of a
  schema'd event holds a dict.
"""

import pytest

from repro.core.instrument import Observer
from repro.system import RunConfig, run_config
from repro.telemetry import BSI_TRACK, CTRL_TRACK, DCACHE_TRACK, EventTracer
from repro.telemetry.events import EVENT_ARGS, EVENT_CATEGORIES
from repro.telemetry.probes import HitTracingTelemetry
from repro.virec.policies import C_BIT, D_SHIFT, FIELD_NAMES, T_SHIFT


@pytest.fixture(scope="module")
def observed():
    """A finished observed ViReC run at 40 % context, every sink on."""
    return run_config(RunConfig(
        workload="gather", core_type="virec", n_threads=4, n_per_thread=16,
        context_fraction=0.4, seed=7,
        telemetry={"events": True, "verbose_hits": True, "interval": 100,
                   "pipeline_trace": True},
        metrics=True, profile=True))


def _evict_args(ts, slot, cause, residency):
    """The evict dict as the sink built it per event before records went
    flat: the entry's fields, then the policy's ``describe`` written out."""
    pol = ts.policy
    w = pol.word[slot]
    return {"owner": int(ts.owner[slot]), "reg": int(ts.areg[slot]),
            "cause": cause, "residency": residency,
            "dirty": bool(ts.dirty[slot]),
            "T": pol.t_bits(slot) >> T_SHIFT, "C": int(bool(w & C_BIT)),
            "A": pol.age(slot), "D": w >> D_SHIFT,
            "prio": pol.priority(slot)}


def _cases(ct):
    """``(hook, call, [(name, track, args), ...])``: one call of each hook
    the sink overrides, and the events it must emit, in order."""
    ts = ct.tagstore
    slot = ts.valid_slots()[0]
    tid, reg = int(ts.owner[slot]), int(ts.areg[slot])

    def evict():
        ct.on_reg_insert(slot, tid, reg, 100)
        ct.on_reg_evict(slot, tid, "thread", 137)

    def run_then(hook, *args):
        def call():
            ct.on_switch_in(1, 5, 6)
            getattr(ct, hook)(*args)
        return call

    return [
        ("on_switch_in", lambda: ct.on_switch_in(1, 5, 6), []),
        ("on_switch", run_then("on_switch", 1, 9, 10, 30, 2),
         [("run", 1, {"reason": "miss-switch"}),
          ("ctx_switch", CTRL_TRACK, {"tid": 1, "flushed": 2}),
          ("stall", 1, {"cause": "dcache-miss"})]),
        ("on_stall", lambda: ct.on_stall(2, 3, 8, "store-queue"),
         [("stall", 2, {"cause": "store-queue"})]),
        ("on_thread_done", run_then("on_thread_done", 1, 40),
         [("run", 1, {"reason": "done"}),
          ("thread_done", CTRL_TRACK, {"tid": 1})]),
        ("on_context_move", lambda: ct.on_context_move("ctx_save", 3, 4, 9),
         [("ctx_save", CTRL_TRACK, {"tid": 3})]),
        ("on_reg_hit", lambda: ct.on_reg_hit(1, 7, 3),
         [("vrmu_hit", BSI_TRACK, {"tid": 1, "reg": 7})]),
        ("on_reg_miss", lambda: ct.on_reg_miss(1, 7, 3),
         [("vrmu_miss", BSI_TRACK, {"tid": 1, "reg": 7})]),
        ("on_reg_insert", lambda: ct.on_reg_insert(slot, tid, reg, 3), []),
        ("on_reg_evict", evict,
         [("evict", BSI_TRACK, _evict_args(ts, slot, "thread", 37))]),
        ("on_reg_fill", lambda: ct.on_reg_fill(1, 7, 3, 9),
         [("fill", BSI_TRACK, {"tid": 1, "reg": 7}),
          ("fill_flow", 1, None), ("fill_flow", BSI_TRACK, None)]),
        ("on_reg_fill", lambda: ct.on_reg_fill(1, 7, 3, 9, dummy=True),
         [("dummy_fill", BSI_TRACK, {"tid": 1, "reg": 7})]),
        ("on_reg_spill", lambda: ct.on_reg_spill(1, 7, 1, 3),
         [("spill", BSI_TRACK, {"tid": 1, "reg": 7, "dirty": True}),
          ("spill_flow", 1, None), ("spill_flow", BSI_TRACK, None)]),
        ("on_dcache_miss", lambda: ct.on_dcache_miss(3, 0x40, 1, 9, 0),
         [("dcache_miss", DCACHE_TRACK,
           {"addr": 64, "write": True, "reg_region": False})]),
        ("on_sysreg", lambda: ct.on_sysreg("restore", 2, 3),
         [("sysreg", CTRL_TRACK, {"kind": "restore", "tid": 2})]),
        ("on_fault", lambda: ct.on_fault("rf", 3),
         [("fault", CTRL_TRACK, {"site": "rf"})]),
        ("on_commit", lambda: ct.on_commit(None, None, 0, 0, 0, 0, 0, 0, 9,
                                           False, False), []),
    ]


def _sink(observed):
    """A fresh ring on the run's own sink: its core and tag store are real."""
    ct = observed.telemetry.cores[0]
    assert type(ct) is HitTracingTelemetry
    ct.events = EventTracer()
    ct.sampler = None
    return ct


def test_every_overridden_hook_is_exercised(observed):
    ct = _sink(observed)
    overridden = {name for name in dir(Observer) if name.startswith("on_")
                  and getattr(HitTracingTelemetry, name)
                  is not getattr(Observer, name)}
    assert {hook for hook, _, _ in _cases(ct)} == overridden


def test_decoded_args_are_the_dicts_the_sink_built(observed):
    ct = _sink(observed)
    for hook, call, want in _cases(ct):
        before = len(ct.events)
        call()
        got = ct.events.events[before:]
        assert [(e["name"], e["tid"]) for e in got] == \
            [(name, track) for name, track, _ in want], hook
        for ev, (name, _, args) in zip(got, want):
            assert ev.get("args") == args, (hook, name)
            if args is not None:
                assert list(ev["args"]) == list(args), (hook, name)


def test_every_event_with_arguments_has_a_schema_of_its_arity(observed):
    ct = _sink(observed)
    for _, call, _ in _cases(ct):
        call()
    ct.finalize(500)
    emitted = set()
    for record in ct.events._ring:
        name, payload = record[0], record[6]
        if payload is None:
            continue
        emitted.add(name)
        assert payload is EVENT_ARGS[name]
        assert len(record) - 7 == len(EVENT_ARGS[name]), name
        assert name in EVENT_CATEGORIES
    assert emitted == set(EVENT_ARGS) - {"ctx_fetch", "ctx_restore"}
    assert set(EVENT_ARGS) <= set(EVENT_CATEGORIES)
    assert EVENT_ARGS["evict"][-len(FIELD_NAMES):] == FIELD_NAMES


def test_no_retained_record_of_a_schemad_event_holds_a_dict(observed):
    ring = observed.telemetry.events._ring
    names = {record[0] for record in ring}
    assert {"run", "stall", "ctx_switch", "vrmu_hit", "vrmu_miss", "evict",
            "fill", "spill", "dcache_miss"} <= names
    for record in ring:
        if record[0] in EVENT_ARGS:
            assert not any(isinstance(f, dict) for f in record), record
