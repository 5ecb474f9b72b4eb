"""Literal run digests of what the context-switch path touches and the
other goldens do not reach.

The 60 literals of ``tests/virec/test_golden_digests.py`` and
``tests/memory/test_golden_runs.py`` are all 8-thread runs of even work.
The switch-on-miss sequence (forward-progress mask, round-robin pick,
flush, thread-recency update) behaves differently with few threads (the
ring wraps onto the suspended thread, T saturates at other values), with
threads that are DONE while their siblings still switch, and with threads
that are re-armed after a HALT.  These literals were recorded on the commit
*before* the scheduler, the flush walk and the policies' switch hook were
flattened: the four switch-on-miss core types at 2, 3 and 6 threads, an
spmv whose rows are uneven so finished threads sit in the ring for most of
the run, a task pool (threads resurrected by ``attach_pool``), and the
exact-prefetch core at 4 threads.

The context-moving cores (``prefetch-full``, ``prefetch-exact``, ``fgmt``,
``swctx``) have further literals recorded on the commit before their
register-context moves became one port stream each: a 2-core prefetch node,
and triad over a 1 KB dcache where context lines are evicted between
moves, so the streams miss, hit under fill and are refused by busy sets.

A literal changes only when simulated behaviour changes.  Regenerate one by
running its case and pasting the digest — and say why in the commit.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import workloads
from repro.memory.hierarchy import NDPMemorySystem
from repro.stats.counters import Stats
from repro.system import RunConfig, run_config
from repro.system.config import ndp_dcache, ndp_icache, table1_dram
from repro.system.simulator import _make_core
from repro.system.taskpool import run_taskpool

from .test_engine_equivalence import stats_digest

SWITCHING_CORES = ("virec", "banked", "swctx", "nsf")


def _flat_digest(stats) -> str:
    blob = json.dumps(sorted(stats.flat()), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _config_digest(core_type, n_threads, workload="gather", n_per_thread=24,
                   **fields):
    fraction = 0.4 if core_type in ("virec", "nsf") else 1.0
    return stats_digest(run_config(RunConfig(
        workload=workload, core_type=core_type, n_threads=n_threads,
        n_per_thread=n_per_thread, context_fraction=fraction, **fields)))


def _small_dcache_digest(core_type):
    """triad over a 1 KB dcache: context lines are evicted between moves,
    so the register-context streams miss, hit under fill and (on
    ``prefetch-exact``) are refused by a busy set and re-presented."""
    result = run_config(RunConfig(
        workload="triad", core_type=core_type, n_threads=8, n_per_thread=64,
        dcache_kb=1, seed=7))
    if core_type == "prefetch-exact":
        assert dict(result.stats.flat())["system.core0.dcache_retries"] > 0
    return stats_digest(result)


def _uneven_spmv_digest(core_type):
    """spmv over 6 threads x 4 rows whose row lengths grow with the owning
    thread: thread 0 halts after a few dozen instructions and stays DONE in
    the round-robin ring while thread 5 is still switching."""
    cfg = RunConfig(workload="spmv", core_type=core_type, n_threads=6,
                    n_per_thread=4, context_fraction=0.4)
    inst = workloads.get("spmv").build(n_threads=6, n_per_thread=4, seed=7)
    lengths = np.repeat([1, 2, 3, 5, 7, 8], 4)       # <= nnz_per_row = 8
    inst.memory.write_array(inst.symbols["rowptr"],
                            np.concatenate(([0], np.cumsum(lengths))))
    stats = Stats("system")
    memsys = NDPMemorySystem(n_cores=1, dcache=ndp_dcache(),
                             icache=ndp_icache(), dram=table1_dram(),
                             stats=stats.child("mem"))
    ports = memsys.ports(0)
    core = _make_core(cfg, inst, ports.icache, ports.dcache,
                      stats=stats.child("core0"))
    core.run()
    done_at = sorted(th.instructions for th in core.threads)
    assert done_at[0] * 3 < done_at[-1]             # the work really is uneven
    return _flat_digest(stats)


def _taskpool_digest(core_type):
    stats, _ = run_taskpool("gather", core_type, hw_threads=3, n_tasks=8,
                            n_per_task=12, context_fraction=0.5)
    assert stats["tasks_redispatched"] == 5
    return _flat_digest(stats)


def cases():
    """``(key, thunk)`` per golden entry, in table order."""
    for core_type in SWITCHING_CORES:
        for n_threads in (2, 3, 6):
            yield (f"gather/{core_type}/{n_threads}t",
                   lambda c=core_type, n=n_threads: _config_digest(c, n))
    for core_type in ("virec", "banked"):
        yield (f"spmv-uneven/{core_type}/6t",
               lambda c=core_type: _uneven_spmv_digest(c))
        yield (f"taskpool/{core_type}/3t",
               lambda c=core_type: _taskpool_digest(c))
    yield ("gather/prefetch-exact/4t",
           lambda: _config_digest("prefetch-exact", 4))
    yield ("spmv/virec/3t",
           lambda: _config_digest("virec", 3, workload="spmv", n_per_thread=4))
    # every core that moves a register context through the dcache port
    for n_threads in (4, 8):
        yield (f"gather/prefetch-full/{n_threads}t",
               lambda n=n_threads: _config_digest("prefetch-full", n))
    yield ("spmv/prefetch-full/8t",
           lambda: _config_digest("prefetch-full", 8, workload="spmv",
                                  n_per_thread=4))
    yield ("gather/prefetch-exact/8t",
           lambda: _config_digest("prefetch-exact", 8))
    yield ("gather/fgmt/4t", lambda: _config_digest("fgmt", 4))
    yield ("gather/prefetch-full/2core-4t",
           lambda: _config_digest("prefetch-full", 4, n_cores=2))
    for core_type in ("prefetch-full", "prefetch-exact", "swctx"):
        yield (f"triad-dcache1k/{core_type}/8t",
               lambda c=core_type: _small_dcache_digest(c))


GOLDEN = {
    "gather/virec/2t":
        "83201fc6af14c4114751401cfa7e126adee39601419166a40a40ee195a05dc8a",
    "gather/virec/3t":
        "cdd4a881241a1501eb809c060e12f00061ca3b7b50587b3e12dbc917fb4317ae",
    "gather/virec/6t":
        "ab6aa4a6b67006357d3cf8b48e22bc04d6c8db01919c645ea38d94761a969d90",
    "gather/banked/2t":
        "9c2536f603730a767a331801fc48bccd2203994279714727cf26e5b8aae855cd",
    "gather/banked/3t":
        "52a4841f7623cb49f7d17a1c66b4fb0c646e7bfccf1703fb653fc6575d53613f",
    "gather/banked/6t":
        "d02372a6c096d36ac96c2d5602ee4ff204d84eb6dd77df116b6d8ba120505114",
    "gather/swctx/2t":
        "2a3eeef461d8ec13acffb7235774181d2c5ccde4d77e26e192fc1afc4dc67fab",
    "gather/swctx/3t":
        "e313900a50fc1d6cb276e3033879d309dd51f94a425a2029860d38fdd23f337f",
    "gather/swctx/6t":
        "9ba647885ae838d33ee7b04e7553c2b2437b815ee4900de06a7e2b3164294fc2",
    "gather/nsf/2t":
        "032f75c59dcae0fe116bd18f507a1e7bd47c7dc2978bc4dc073481ce274fbd35",
    "gather/nsf/3t":
        "04bb7c4fcdbf2274a6c9f4d1c3c4e72e5ec950182c903a918c14eb3dfcc63db2",
    "gather/nsf/6t":
        "40f70fd2ea3ce387024128a70cff1e931df30027eb9658e4420dfb611e997211",
    "spmv-uneven/virec/6t":
        "32b5bc58e7ee953e52f6776ccbd05ef13c852aa4be3a122a49936f10ecc65cbd",
    "taskpool/virec/3t":
        "dcd81edff7eba52a997f7fc68c29a7159777b27fa39383ac9ed6ef49f825cdd1",
    "spmv-uneven/banked/6t":
        "c96862b75eba84384af6d67f90d854b7410cc06443f326167983813803b9be09",
    "taskpool/banked/3t":
        "9f7f65eb8a2aa5021e3ab96da4068cb5bb36da0200c8edacf752701f58794cc4",
    "gather/prefetch-exact/4t":
        "1060ef2f2575ecd27d3744f6717e8dfe7e287ff5272f5bb7e5deede5d36c7671",
    "spmv/virec/3t":
        "d7ec1406c7ace0f9c8fa61a0c829de73ce09db8546c9f5557438c7bc65f9be1f",
    "gather/prefetch-full/4t":
        "4dd08c2922530a017533bfccc7a2ebce75599419fec8758695899841ec7e0d6a",
    "gather/prefetch-full/8t":
        "dc5b2dca9e06dcbbb95b2e2c163ca922a4e602bdb2b7ff023ad21b05c92f2335",
    "spmv/prefetch-full/8t":
        "3de3c76f77c3cb616b537683f2acaa6e1451535cbb6dbdb1b0598655129cac69",
    "gather/prefetch-exact/8t":
        "8997617cc77c4fd2ddca1c883b12b9269f11c94fcfb9303e89cd5b91e5fe68fe",
    "gather/fgmt/4t":
        "c38a54bd601316d986df1b3ce89ddfbc56bbd9dea1dc3efbebe6d84248ed5ada",
    "gather/prefetch-full/2core-4t":
        "1f953401b197bb91121dcf7483a4ff9c63c6387e3713ddd69fe0f5e7d257da07",
    "triad-dcache1k/prefetch-full/8t":
        "0b9ea5e3dd5b16cb0e77582afed26a147cc0cce16db0551a33d888bc8f16ce02",
    "triad-dcache1k/prefetch-exact/8t":
        "1d2fe4e0382473f2eb27a472684be1981f7c4c499492077f3a97210784a50833",
    "triad-dcache1k/swctx/8t":
        "5baa9de367463bf803e331f272c4aaa9d8588fa73840e9bc2244c192ec1dd3d7",
}


def test_every_case_has_a_golden():
    assert sorted(GOLDEN) == sorted(key for key, _ in cases())


@pytest.mark.parametrize("key,thunk", list(cases()),
                         ids=[key for key, _ in cases()])
def test_golden_digest(key, thunk):
    assert thunk() == GOLDEN[key]
