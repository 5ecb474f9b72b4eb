"""Unit tests for the statistics infrastructure."""

from repro.stats.counters import Stats


def test_inc_and_get():
    s = Stats("x")
    s.inc("a")
    s.inc("a", 2)
    assert s["a"] == 3
    assert s["missing"] == 0
    assert "a" in s and "missing" not in s


def test_set_and_max():
    s = Stats()
    s.set("v", 10)
    s.max("m", 3)
    s.max("m", 7)
    s.max("m", 5)
    assert s["v"] == 10 and s["m"] == 7


def test_ratio():
    s = Stats()
    s.inc("hits", 9)
    s.inc("total", 10)
    assert s.ratio("hits", "total") == 0.9
    assert s.ratio("hits", "nothing") == 0.0


def test_children_and_flat():
    root = Stats("core")
    root.inc("cycles", 100)
    root.child("dcache").inc("misses", 4)
    root.child("dcache").child("mshr").inc("full", 1)
    flat = root.as_dict()
    assert flat["core.cycles"] == 100
    assert flat["core.dcache.misses"] == 4
    assert flat["core.dcache.mshr.full"] == 1


def test_child_identity():
    s = Stats("a")
    assert s.child("b") is s.child("b")
    assert "b" in s.children()


def test_reset_recursive():
    s = Stats("a")
    s.inc("x", 5)
    s.child("b").inc("y", 6)
    s.reset()
    assert s["x"] == 0 and s.child("b")["y"] == 0


def test_flat_unnamed_root():
    s = Stats()
    s.inc("k", 1)
    assert dict(s.flat()) == {"k": 1}


def test_merge_adds_counters_recursively():
    a = Stats("core0")
    a.inc("cycles", 100)
    a.child("vrmu").inc("hits", 10)
    b = Stats("core1")
    b.inc("cycles", 50)
    b.inc("extra", 1)
    b.child("vrmu").inc("hits", 5)
    b.child("bsi").inc("spills", 3)

    out = a.merge(b)
    assert out is a  # chains
    assert a["cycles"] == 150 and a["extra"] == 1
    assert a.child("vrmu")["hits"] == 15
    assert a.child("bsi")["spills"] == 3
    # merge reads but never mutates the source tree
    assert b["cycles"] == 50 and b.child("vrmu")["hits"] == 5


def test_merge_into_empty_copies_structure():
    src = Stats("src")
    src.child("x").child("y").inc("n", 2)
    dst = Stats("agg").merge(src)
    assert dst.as_dict()["agg.x.y.n"] == 2


def test_node_merged_stats():
    from repro.system import RunConfig, run_config

    r = run_config(RunConfig(workload="gather", core_type="virec",
                             n_threads=4, n_per_thread=8, n_cores=2))
    merged = Stats("agg")
    per_core = {name: child for name, child in r.stats.children().items()
                if name.startswith("core")}
    assert len(per_core) == 2
    for child in per_core.values():
        merged.merge(child)
    total_instr = sum(child["instructions"] for child in per_core.values())
    assert merged["instructions"] == total_instr == r.instructions


# -- batched hot counters (folded in before every read) ----------------------

def _batched():
    stats = Stats("c")
    return stats, stats.batch("events", "other")


def test_batch_is_folded_in_before_every_read():
    stats, pending = _batched()
    pending[0] += 3
    assert stats["events"] == 3 and pending == [0, 0]
    pending[0] += 2
    assert "events" in stats and stats["events"] == 5
    pending[0] += 5
    stats.inc("total", 20)
    assert stats.ratio("events", "total") == 0.5
    pending[0] += 1
    assert dict(stats.flat()) == {"c.events": 11, "c.total": 20}


def test_batched_key_appears_only_once_counted():
    """Like ``inc``: a key nobody counted is not a counter."""
    stats, pending = _batched()
    assert "other" not in stats and dict(stats.flat()) == {}
    pending[1] += 1
    assert dict(stats.flat()) == {"c.other": 1.0}
    # floats, exactly as per-event inc() calls would have left them
    assert isinstance(stats["other"], float)


def test_one_batch_per_namespace():
    import pytest

    stats, _ = _batched()
    with pytest.raises(ValueError, match="already has a batch"):
        stats.batch("more")


def test_batch_seen_through_parent_flat_and_merge():
    root = Stats("core")
    pending = root.child("c").batch("events")
    pending[0] += 7
    assert root.as_dict() == {"core.c.events": 7}
    pending[0] += 1
    total = Stats("agg").merge(root)
    assert total.child("c")["events"] == 8


def test_reset_drops_pending_counts():
    stats, pending = _batched()
    pending[0] += 9
    stats.reset()
    assert pending == [0, 0] and stats["events"] == 0
    pending[0] += 2
    assert stats["events"] == 2


def test_pickle_folds_pending_counts_into_a_plain_record():
    import pickle

    stats, pending = _batched()
    pending[0] += 6
    clone = pickle.loads(pickle.dumps(stats))
    assert clone["events"] == 6
    assert "_batched" not in clone.__dict__
    # same pickled form as a namespace that never had a batch
    plain = Stats("c")
    plain.inc("events", 6)
    assert pickle.dumps(stats) == pickle.dumps(plain)


def test_result_stats_do_not_keep_the_core_alive():
    """The batch lives in the Stats node, so a kept result pins no core."""
    import gc
    import weakref

    from .helpers import build_gather_core
    from repro.virec import ViReCConfig, ViReCCore

    core, *_ = build_gather_core(ViReCCore, n_threads=2, n=8,
                                 virec=ViReCConfig(rf_size=8))
    stats = core.run()
    vrmu = weakref.ref(core.vrmu)
    del core
    gc.collect()
    assert vrmu() is None
    assert stats.child("vrmu")["accesses"] > 0


def test_batched_vrmu_counters_identical_at_every_observation_point():
    """Reading mid-run must not change what later reads see."""
    from repro.system import RunConfig, run_config

    cfg = RunConfig(workload="gather", core_type="virec", n_threads=4,
                    n_per_thread=16, context_fraction=0.4)
    quiet = run_config(cfg)
    # the interval sampler snapshots the whole tree every 20 cycles
    sampled = run_config(cfg.with_(telemetry={"interval": 20}))
    assert dict(sampled.stats.flat()) == dict(quiet.stats.flat())
    vrmu = quiet.stats.child("core0").child("vrmu")
    assert vrmu["accesses"] == vrmu["hits"] + vrmu["misses"] > 0
    assert vrmu.child("tagstore")["evictions"] >= vrmu["spill_evictions"] > 0
