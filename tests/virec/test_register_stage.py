"""The ViReC register stage generated into the step, against the VRMU call.

A bare ViReC core whose policy has its priority word written in place
touches an all-resident op's registers inside its generated step and
calls ``VRMU.access`` only for the rest (a miss, a thread's first access,
a pending T-bit fold); without dead hints it also pops the rollback queue
inline at commit.  A no-op :class:`~repro.core.instrument.Observer` makes
the core observed, and the observed step calls the hooks for every op.
Both runs of each config must end in the same cycles, the same stats and
the same VRMU state, cell for cell.
"""

import hashlib
import json

import pytest

from repro import workloads
from repro.core.instrument import Observer
from repro.memory import NDPMemorySystem
from repro.system import RunConfig
from repro.system.config import ndp_dcache, ndp_icache, table1_dram
from repro.system.offload import offload_contexts
from repro.system.simulator import core_build
from repro.virec import ViReCConfig, ViReCCore
from repro.virec.oracle import AccessTraceRecorder

from ..helpers import time_limit

POLICIES = ("lrc", "plru", "mrt-plru", "dead-first", "dead-elide", "srrip")

#: what each policy's bare core generates: srrip overrides the policy
#: hooks (the called arm of the touch rule), the dead-hint policies keep
#: their commit call
INLINE = {"srrip": "", "dead-first": "hit", "dead-elide": "hit"}


def build_core(policy="lrc", context=0.8, workload="gather", cls=ViReCCore,
               **virec):
    cfg = RunConfig(workload=workload, core_type="virec", n_threads=8,
                    n_per_thread=32, context_fraction=context,
                    policy=policy)
    inst = workloads.build(*core_build(cfg))
    memsys = NDPMemorySystem(n_cores=1, dcache=ndp_dcache(),
                             icache=ndp_icache(), dram=table1_dram())
    ports = memsys.ports(0)
    threads = inst.threads()
    offload_contexts(inst.memory, inst.layout(), threads, inst.init_regs)
    vc = ViReCConfig(rf_size=cfg.resolve_rf_size(len(inst.active_regs)),
                     policy=policy, **virec)
    return cls(inst.program, ports.icache, ports.dcache, inst.memory,
               threads, virec=vc, layout=inst.layout())


def vrmu_state(core):
    """Every cell the register stage writes, read before any stats read
    folds the pending counts."""
    vrmu = core.vrmu
    ts, policy = vrmu.tagstore, vrmu.tagstore.policy
    return {
        "rows": [list(row) for row in ts.rows],
        "word": list(policy.word),
        "zeroed_at": list(policy.zeroed_at),
        "stamp": list(policy.stamp),
        "clock": policy._clock,
        "dirty": list(ts.dirty),
        "fill_ready": list(ts.fill_ready),
        "rollback": [(list(slots), is_mem)
                     for slots, is_mem in vrmu.rollback._queue],
        "pending": list(vrmu._pending),
    }


def run(core):
    core.run()
    state = vrmu_state(core)
    blob = json.dumps(sorted(core.stats.flat()), default=str)
    return (core.commit_tail, state,
            hashlib.sha256(blob.encode()).hexdigest())


def both_runs(**config):
    """``(bare, observed)`` runs of one config; each core is checked to
    have compiled the variant it stands for."""
    bare = build_core(**config)
    observed = build_core(**config)
    observed.observers += (Observer(),)
    expect = "" if config.get("context_prefetch") else INLINE.get(
        config.get("policy", "lrc"), "hit+commit")
    assert bare._engine_variant().vrmu_inline == expect
    assert observed._engine_variant().vrmu_inline == ""
    with time_limit(120):
        return run(bare), run(observed)


@pytest.mark.parametrize("context", [0.4, 0.8, 1.0])
@pytest.mark.parametrize("policy", POLICIES)
def test_inline_stage_equals_the_called_stage(policy, context):
    bare, observed = both_runs(policy=policy, context=context)
    assert bare[0] == observed[0]
    assert bare[1] == observed[1]
    assert bare[2] == observed[2]


@pytest.mark.parametrize("virec", [{"group_evict": 3},
                                   {"context_prefetch": True}])
def test_inline_stage_equals_the_called_stage_on_the_cold_paths(virec):
    bare, observed = both_runs(context=0.4, workload="spmv", **virec)
    assert bare == observed


def test_bare_core_calls_the_hook_only_off_the_hit_path():
    core = build_core(context=1.0)
    hook, calls = core.decode_regs_ready, []

    def counted(thread, op, t):
        calls.append(op)
        return hook(thread, op, t)

    core.decode_regs_ready = counted     # read by the step per call
    core.run()
    stats = core.vrmu.stats
    called = sum(len(op.plan) for op in calls)
    assert stats["misses"] <= called < stats["accesses"] / 4


def test_an_overridden_hook_is_called_for_every_op():
    class Traced(ViReCCore):
        def decode_regs_ready(self, thread, op, t_decode):
            return super().decode_regs_ready(thread, op, t_decode)

    assert build_core(cls=Traced)._engine_variant().vrmu_inline == ""
    assert build_core()._engine_variant().vrmu_inline == "hit+commit"


def test_access_recorder_sees_every_access():
    core = build_core(context=0.8)
    assert core._engine_variant().vrmu_inline
    trace = AccessTraceRecorder.attach(core)
    assert core._engine_variant().vrmu_inline == ""
    core.run()
    assert trace.accesses == core.vrmu.stats["accesses"]
