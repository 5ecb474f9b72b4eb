"""The node's clock-list interleave against the loop it replaced.

``reference_node.py`` picks each step with ``min(live, key=lambda c:
c.now)``; ``NearMemoryNode.run`` reads the same choice off a list of the
live cores' clocks.  Both loops run the same configurations here, with each
core's ``step`` wrapped to record which core stepped, and the per-step
core-id sequence, the run's ``stats_digest`` and — where the cycle budget
trips — the ``DeadlockError`` text and payload must agree.

The cases cover ties (every core starts at cycle 0), both pipeline
families (the barrel core's ``now`` is the minimum of its issue clocks)
and cores that finish at different cycles while their peers keep running,
so taking the last minimum on a tie, leaving a stepped core's clock stale
or keeping a finished core's clock each changes the sequence.
"""

import pytest

from repro.errors import DeadlockError
from repro.system import RunConfig, run_config
from repro.system.node import NearMemoryNode

from ..core.test_engine_equivalence import stats_digest
from . import reference_node

PRODUCTION = NearMemoryNode.run

CASES = {
    "banked-2core": RunConfig(workload="gather", core_type="banked",
                              n_cores=2, n_threads=4, n_per_thread=16),
    "banked-3core": RunConfig(workload="stride", core_type="banked",
                              n_cores=3, n_threads=4, n_per_thread=16),
    "banked-4core": RunConfig(workload="pointer_chase", core_type="banked",
                              n_cores=4, n_threads=4, n_per_thread=8),
    # the Fig 11 shape
    "virec-8core": RunConfig(workload="gather", core_type="virec",
                             n_cores=8, n_threads=6, context_fraction=0.8,
                             n_per_thread=8),
    "fgmt-3core": RunConfig(workload="gather", core_type="fgmt", n_cores=3,
                            n_threads=4, n_per_thread=16),
}


def _run(monkeypatch, loop, cfg):
    """Run ``cfg`` with ``loop`` as the node's run loop.

    Returns the core id of every step in order, each core's final commit
    clock, and the run's digest — or, if the cycle budget trips, the
    ``DeadlockError``'s message and payload.
    """
    order, nodes = [], []

    def run(node, max_cycles=None):
        nodes.append(node)
        for core in node.cores:
            def step(inner=core.step, cid=core.core_id):
                order.append(cid)
                return inner()
            core.step = step
        return loop(node, max_cycles)

    monkeypatch.setattr(NearMemoryNode, "run", run)
    try:
        outcome = stats_digest(run_config(cfg))
    except DeadlockError as exc:
        outcome = (str(exc), exc.commit_tail, exc.committed)
    finish = [core.commit_tail for core in nodes[0].cores]
    return order, finish, outcome


@pytest.mark.parametrize("case", CASES)
def test_clock_list_steps_the_cores_the_reference_loop_steps(
        monkeypatch, case):
    cfg = CASES[case]
    order, finish, digest = _run(monkeypatch, PRODUCTION, cfg)
    assert (order, finish, digest) == _run(monkeypatch, reference_node.run,
                                           cfg)
    assert sorted(set(order)) == list(range(cfg.n_cores))
    # a core that finishes while its peers run: its clock must leave the list
    assert len(set(finish)) > 1, finish


def test_a_budget_that_trips_mid_run_raises_the_same_error(monkeypatch):
    cfg = CASES["banked-3core"]
    _, finish, _ = _run(monkeypatch, PRODUCTION, cfg)
    tripped = cfg.with_(max_cycles=max(finish) // 2)
    order, _, outcome = _run(monkeypatch, PRODUCTION, tripped)
    ref_order, _, ref_outcome = _run(monkeypatch, reference_node.run, tripped)
    assert (order, outcome) == (ref_order, ref_outcome)
    message, commit_tail, committed = outcome
    assert message.startswith("cycle budget exceeded (")
    assert 0 < committed and commit_tail > tripped.max_cycles
