"""Superop chains inside a node leave the shared memory traffic unchanged.

A node marks its cores ``shared``, and a shared core's step table chains
an op into its successor only while the successor reaches nothing a peer
core can see: no ``ldr``/``str``, no icache line crossing, no VRMU hook,
no observer (``repro/isa/compiled.py::_build_code``).  The node still
steps the core with the smallest local clock, so every op that reaches
the crossbar must issue in exactly the order it issues when every step is
one instruction.

Each case runs one node configuration twice: on the generated tables
(chained steps) and on the interpreted oracle of
``tests/core/reference_step.py`` (one instruction per step).  Every
``Crossbar.access`` is recorded as ``(requestor, now, line_addr,
is_write)``; the two request sequences and the two stats digests must be
equal, and the table side must really have run multi-op steps.
"""

import pytest

from repro.fuzz.generator import sample_spec
from repro.fuzz.oracle import oracle_config
from repro.memory.crossbar import Crossbar
from repro.system import RunConfig, run_config
from repro.system.node import NearMemoryNode

from ..core.reference_step import bind_steps, reference_step_of
from ..core.test_engine_equivalence import stats_digest
from ..helpers import time_limit

CORE_TYPES = ("banked", "swctx", "prefetch-full", "prefetch-exact")
WORKLOADS = ("vecadd", "stride", "pointer_chase", "gather", "spmv")
N_CORES = (2, 3, 4, 8)


def traffic(monkeypatch, cfg: RunConfig, reference: bool):
    """``(crossbar requests, stats digest, node steps, instructions)`` of
    one run on the tables or, with ``reference``, on the oracle."""
    requests, steps = [], [0]
    access, node_run = Crossbar.access, NearMemoryNode.run

    def record(xbar, now, line_addr, is_write=False, requestor=0):
        requests.append((requestor, now, line_addr, is_write))
        return access(xbar, now, line_addr, is_write, requestor)

    def counted_run(node, max_cycles=None):
        for core in node.cores:
            def step(inner=core.step):
                steps[0] += 1
                return inner()
            core.step = step
        return node_run(node, max_cycles)

    with monkeypatch.context() as patch:
        patch.setattr(Crossbar, "access", record)
        patch.setattr(NearMemoryNode, "run", counted_run)
        with bind_steps(reference=reference) as cores:
            result = run_config(cfg)
    assert len(cores) == cfg.n_cores
    for core in cores:
        assert core.shared
        if reference:
            assert (core._process_instruction.__func__
                    is reference_step_of(core))
    return requests, stats_digest(result), steps[0], result.instructions


def assert_same_traffic(monkeypatch, cfg: RunConfig) -> None:
    with time_limit(120):
        table = traffic(monkeypatch, cfg, reference=False)
        oracle = traffic(monkeypatch, cfg, reference=True)
    requests, digest, steps, instructions = table
    assert requests, "the run never reached the crossbar"
    assert requests == oracle[0]
    assert digest == oracle[1]
    # the table chained: fewer node steps than committed instructions
    assert steps < instructions, (steps, instructions)


@pytest.mark.parametrize("n_cores", N_CORES)
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("core_type", CORE_TYPES)
def test_chained_node_issues_the_single_op_request_sequence(
        monkeypatch, core_type, workload, n_cores):
    assert_same_traffic(monkeypatch, RunConfig(
        workload=workload, core_type=core_type, n_cores=n_cores,
        n_threads=4, n_per_thread=8))


@pytest.mark.parametrize("index", range(30))
def test_fuzz_programs_on_nodes_issue_the_single_op_request_sequence(
        monkeypatch, index):
    """Generated programs, unsanitized so the bare shared table runs."""
    spec = sample_spec(11, index).as_dict()
    cfg = oracle_config(spec, CORE_TYPES[index % len(CORE_TYPES)], "lrc",
                        n_threads=4, n_per_thread=16, max_cycles=400_000,
                        sanitize=False)
    assert_same_traffic(monkeypatch, cfg.with_(n_cores=2 + index % 2))
