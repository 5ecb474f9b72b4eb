"""Literal run digests of the configurations the ViReC goldens do not reach.

``tests/virec/test_golden_digests.py`` pins the VRMU through 42 ViReC runs;
every other core type shares the same ``Cache.access`` / ``Crossbar`` /
``DRAM`` request path and nothing pinned it.  These literals were recorded
on the commit *before* the request path was flattened (lean ``Cache.access``,
lazy MSHR pruning, batched memory counters): every other timeline core, a
4-core banked node (non-monotonic ``now`` at the shared crossbar and DRAM)
and the out-of-order host (L1 -> L2 with a stride prefetcher -> DRAM, the
nested-cache reply path), two kernels each.  The ``*-refusals`` cases were
recorded before a refused access became the ``CacheBusy`` exception: the
only runs that reach ``mshr_full``, an L1 -> L2 refusal and the out-of-order
core's load-retry and store-refusal branches, and the ones that retry
through the dcache port thousands of times.

A literal changes only when simulated behaviour changes.  Regenerate one by
running its case and pasting the digest — and say why in the commit.
"""

import hashlib
import json

import pytest

from repro import workloads
from repro.core.ooo import OoOCore
from repro.memory import Cache, CacheConfig
from repro.memory.dram import DRAM
from repro.memory.hierarchy import HostMemorySystem
from repro.memory.prefetcher import StridePrefetcher
from repro.stats.counters import Stats
from repro.system import RunConfig, run_config
from repro.system.config import table1_dram

from ..core.test_engine_equivalence import stats_digest

N_PER_THREAD = {"gather": 24, "stride": 24, "pointer_chase": 24, "spmv": 4,
                "triad": 256, "gather_scatter": 16}

#: ``(label, RunConfig fields, kernels)``
NDP_CASES = (
    ("inorder", dict(core_type="inorder", n_threads=1), ("gather", "stride")),
    ("banked", dict(core_type="banked"), ("gather", "stride")),
    ("swctx", dict(core_type="swctx"), ("gather", "stride")),
    ("fgmt", dict(core_type="fgmt"), ("gather", "stride")),
    ("prefetch-full", dict(core_type="prefetch-full"), ("gather", "stride")),
    ("prefetch-exact", dict(core_type="prefetch-exact"), ("gather", "stride")),
    # gather/spmv at 40 % are already among the ViReC literals
    ("nsf", dict(core_type="nsf", context_fraction=0.4),
     ("stride", "pointer_chase")),
    ("banked-4core", dict(core_type="banked", n_cores=4), ("gather", "stride")),
    # multi-core nodes of every family, recorded before the node's
    # interleave, the DRAM bank table and the L1 miss tail were flattened
    ("virec-8core", dict(core_type="virec", n_cores=8, n_threads=6,
                         context_fraction=0.8), ("gather", "stride")),
    ("fgmt-3core", dict(core_type="fgmt", n_cores=3), ("gather", "stride")),
    ("nsf-2core", dict(core_type="nsf", n_cores=2, context_fraction=0.4),
     ("gather", "stride")),
    ("banked-2core-hbm", dict(core_type="banked", n_cores=2, dram_preset="hbm"),
     ("gather", "stride")),
    # a set-busy dcache: 3,063 port retries on the ViReC core, 529 through
    # NSF's blocking BSI
    ("virec-refusals", dict(core_type="virec", context_fraction=1.0),
     ("triad",)),
    ("nsf-refusals", dict(core_type="nsf", context_fraction=0.4), ("triad",)),
)


def _config_digest(workload, fields):
    fields = {"n_threads": 8, **fields}
    return stats_digest(run_config(RunConfig(
        workload=workload, n_per_thread=N_PER_THREAD[workload], **fields)))


def _refusal_stack():
    """``HostMemorySystem``'s stack, by hand, with L1D and L2 MSHR tables
    of two entries: small enough to refuse at both levels."""
    stats = Stats("hostmem")
    dram = DRAM(table1_dram(), stats.child("dram"))
    l2 = Cache(CacheConfig(name="l2", size_bytes=1024 * 1024, assoc=8,
                           latency=12, mshrs=2),
               dram, stats.child("l2"),
               prefetcher=StridePrefetcher(degree=8,
                                           stats=stats.child("l2pf")))
    dcache = Cache(CacheConfig(name="dcache", size_bytes=32 * 1024, assoc=4,
                               latency=4, mshrs=2),
                   l2, stats.child("dcache"))
    icache = Cache(CacheConfig(name="icache", size_bytes=64 * 1024, assoc=4,
                               latency=2, mshrs=4),
                   l2, stats.child("icache"))
    return icache, dcache, stats


def _ooo_run(workload, refusing=False):
    """One ``ooo`` run: the host stack built as ``run_config`` builds it
    (or :func:`_refusal_stack`); returns the core's and the memory
    system's stats (a ``RunResult`` of an ``ooo`` run carries the core's
    stats only)."""
    inst = workloads.get(workload).build(
        n_threads=1, n_per_thread=8 * N_PER_THREAD[workload], seed=7)
    if refusing:
        icache, dcache, mem_stats = _refusal_stack()
    else:
        host = HostMemorySystem(dram=table1_dram())
        icache, dcache, mem_stats = host.icache, host.dcache, host.stats
    core = OoOCore(inst.program, icache, dcache, inst.memory)
    stats = core.run(inst.init_regs[0] if inst.init_regs else None)
    assert inst.check()
    return stats, mem_stats


def _ooo_digest(workload, refusing=False):
    """:func:`_ooo_run`'s two stats trees, digested together."""
    stats, mem_stats = _ooo_run(workload, refusing)
    blob = json.dumps([sorted(stats.flat()), sorted(mem_stats.flat())],
                      default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def cases():
    """``(key, thunk)`` per golden entry, in table order."""
    for label, fields, kernels in NDP_CASES:
        for workload in kernels:
            yield (f"{workload}/{label}",
                   lambda w=workload, f=fields: _config_digest(w, f))
    for workload in ("stride", "spmv"):
        yield f"{workload}/ooo", lambda w=workload: _ooo_digest(w)
    yield ("gather_scatter/ooo-refusals",
           lambda: _ooo_digest("gather_scatter", refusing=True))


GOLDEN = {
    "gather/inorder":
        "38e4b5af3ca3361708f2b9b305856b117208b1ed4e1de34450b85b12f2c5e8a9",
    "stride/inorder":
        "dd8a33e8e96f1e94027ce5ca33e6c2a31442fef15db1ea0270bade752549f68e",
    "gather/banked":
        "3af01f81d482cf5de4c2193f487eb17949b50f8abff6560a84aa99f2c77baf9f",
    "stride/banked":
        "8d0b1f48f6077f2254bbc9bc32cfd773c5097a72cd5d7a912daa81973b32d84e",
    "gather/swctx":
        "d13975c3a744dcba582adffe20d85126b65fb40cb4619107a38f2ef2988ec623",
    "stride/swctx":
        "732e68acd952965be13a00cfdddf8f680cf8f3bfb6cbf15ad4192aaebdcd7fda",
    "gather/fgmt":
        "054c807cadbcb1533d55c70c08ae6b2aee9dbd94baa5844e75eb51d05aa090ac",
    "stride/fgmt":
        "9fdab2c782cced2c26b0ffe229200b6c07338c235b4de13b6ba1a044ee58606b",
    "gather/prefetch-full":
        "dc5b2dca9e06dcbbb95b2e2c163ca922a4e602bdb2b7ff023ad21b05c92f2335",
    "stride/prefetch-full":
        "cda01391944761f59efdd7b07ed922a85549308563b917e07ad52cd1d92e3f3f",
    "gather/prefetch-exact":
        "8997617cc77c4fd2ddca1c883b12b9269f11c94fcfb9303e89cd5b91e5fe68fe",
    "stride/prefetch-exact":
        "ae44de0914ffc2ffe43949936b4f3ee00ea509daa309dcac894cba26c02bad12",
    "stride/nsf":
        "b74d32fa56e65e861ddd7f62bc940388fea60ffcb50b14117f037193220ef65c",
    "pointer_chase/nsf":
        "db3ed63d0c61d92798b97f18aadd2f12fa4bef00be4f9626f37fd5593268060c",
    "gather/banked-4core":
        "9d6b14a5e04b7000dc5c57e6d7864062b79920dd1b93db4a796f1a3253566a61",
    "stride/banked-4core":
        "90f6286c313fc7b5d9d2f95b783602af607847162a58dbbe37854f5ef1c0c11b",
    "gather/virec-8core":
        "b8b8d6a12e98974b0c65c027d7d5db042d87185887734c6f01b118bc2da75e58",
    "stride/virec-8core":
        "b208252fed7c3ba97664307aabd787f139648f9f5e7ca8d96e58fc2c17d79759",
    "gather/fgmt-3core":
        "fbf94aa0b5a34b35cdeb47574eb73be931cab42d03677b97b886cd038f7cc38d",
    "stride/fgmt-3core":
        "eed3c79460657210f6820379246570b2d6cc9011078f9db9a6ea2c86efa31863",
    "gather/nsf-2core":
        "926ce918c40c5cb0efb3b581a54d8f8f36fa7083a549caadcf43cb682d3c4940",
    "stride/nsf-2core":
        "38016872c3e4fd3f60b35f1f04bf770511b79d8630192c4506c3008b1db3cdc7",
    "gather/banked-2core-hbm":
        "36c8176e1d8c4e58a627ffc2ec00680bf2bde21cabeb149cef7b142877253e4e",
    "stride/banked-2core-hbm":
        "1c3e4ba4e28c975195f83b15595064961a41aca658a6d8ec23543ec81a5c60f8",
    "stride/ooo":
        "c94f518be2a8a38e55fd4f93ef1e4b03c146b912911012b4ffed6b48ddd85c12",
    "spmv/ooo":
        "253a981c1d7d8624c676b8290063e62833874d3f959d869f1a6a562da40dcb03",
    "triad/virec-refusals":
        "43dc8d81e1490f75b127782f35888014209d6c3fc3dc2510bca458b40bd5a09b",
    "triad/nsf-refusals":
        "6a5fc2e13dd1384641d0b465760d169c2c43f5ac0f159110a0e5452b02abbde0",
    "gather_scatter/ooo-refusals":
        "ff1e95ba903f038938544ed7b8e7fa16bfdb354e36f853a93b6a208acc6ee35a",
}


def test_every_case_has_a_golden():
    assert sorted(GOLDEN) == sorted(key for key, _ in cases())


@pytest.mark.parametrize("key,thunk", list(cases()),
                         ids=[key for key, _ in cases()])
def test_golden_digest(key, thunk):
    assert thunk() == GOLDEN[key]


@pytest.mark.parametrize("label,retries", [("virec-refusals", 3063),
                                           ("nsf-refusals", 529)])
def test_refusal_cases_retry_through_the_port(label, retries):
    """The ``*-refusals`` literals pin the refusal path only while their
    runs still reach it."""
    fields = next(f for lbl, f, _ in NDP_CASES if lbl == label)
    flat = dict(run_config(RunConfig(
        workload="triad", n_threads=8, n_per_thread=N_PER_THREAD["triad"],
        **fields)).stats.flat())
    assert flat["system.core0.dcache_retries"] == retries
    assert flat["system.mem.dcache0.set_busy"] == retries


def test_ooo_refusal_stack_refuses_at_both_levels():
    _, mem_stats = _ooo_run("gather_scatter", refusing=True)
    flat = dict(mem_stats.flat())
    assert flat["hostmem.dcache.mshr_full"] > 0
    assert flat["hostmem.l2.mshr_full"] > 0
