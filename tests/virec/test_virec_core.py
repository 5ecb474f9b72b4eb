"""End-to-end tests of the ViReC core against the banked baseline."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import GATHER_REGS, build_gather_core  # noqa: E402

from repro.core.cgmt import BankedCore, ContextLayout  # noqa: E402
from repro.virec import ViReCConfig, ViReCCore, make_nsf_core  # noqa: E402


def virec_kw(rf_size, policy="lrc", **kw):
    return dict(virec=ViReCConfig(rf_size=rf_size, policy=policy, **kw))


def run_gather(core_cls, **kw):
    core, mem, sym, expected = build_gather_core(core_cls, **kw)
    stats = core.run()
    return core, stats, mem, sym, expected


def test_virec_correctness_full_context():
    core, stats, mem, sym, expected = run_gather(
        ViReCCore, n_threads=4, **virec_kw(4 * len(GATHER_REGS)))
    assert mem.read_array(sym["out"], len(expected)) == expected


def test_virec_correctness_tiny_rf():
    """40% context: heavy register-cache contention, still exact results."""
    rf = max(6, int(0.4 * 4 * len(GATHER_REGS)))
    core, stats, mem, sym, expected = run_gather(
        ViReCCore, n_threads=4, **virec_kw(rf))
    assert mem.read_array(sym["out"], len(expected)) == expected
    assert core.vrmu.stats["misses"] > 0


def test_virec_full_context_close_to_banked():
    """Headline claim: 100% context ViReC ~ banked performance."""
    v, vs, *_ = run_gather(ViReCCore, n_threads=4,
                           **virec_kw(4 * len(GATHER_REGS)))
    b, bs, *_ = run_gather(BankedCore, n_threads=4)
    assert vs["cycles"] <= bs["cycles"] * 1.35


def test_performance_degrades_gracefully_with_rf_size():
    ctx = len(GATHER_REGS)
    cycles = {}
    for frac in (1.0, 0.8, 0.6, 0.4):
        rf = max(6, int(frac * 4 * ctx))
        _, stats, *_ = run_gather(ViReCCore, n_threads=4, **virec_kw(rf))
        cycles[frac] = stats["cycles"]
    assert cycles[0.4] >= cycles[0.8] >= cycles[1.0] * 0.95
    # graceful: 40% context within 2x of full context
    assert cycles[0.4] < cycles[1.0] * 2.0


def test_hit_rate_increases_with_rf_size():
    ctx = len(GATHER_REGS)
    rates = []
    for frac in (0.4, 0.8, 1.0):
        core, stats, *_ = run_gather(ViReCCore, n_threads=4,
                                     **virec_kw(max(6, int(frac * 4 * ctx))))
        rates.append(stats["rf_hit_rate"])
    assert rates[0] <= rates[1] <= rates[2]
    assert rates[2] > 0.9


def test_lrc_beats_plru_under_contention():
    """Figure 12: LRC > PLRU hit rate on a multithreaded register cache."""
    ctx = len(GATHER_REGS)
    rf = max(6, int(0.6 * 8 * ctx))
    lrc, ls, *_ = run_gather(ViReCCore, n_threads=8, n=128,
                             **virec_kw(rf, policy="lrc"))
    plru, ps, *_ = run_gather(ViReCCore, n_threads=8, n=128,
                              **virec_kw(rf, policy="plru"))
    assert ls["rf_hit_rate"] > ps["rf_hit_rate"]
    assert ls["cycles"] < ps["cycles"] * 1.05


def test_nsf_baseline_slower_than_virec():
    ctx = len(GATHER_REGS)
    rf = max(6, int(0.8 * 4 * ctx))
    layout = ContextLayout(used_regs=GATHER_REGS)
    v, vs, *_ = run_gather(ViReCCore, n_threads=4, **virec_kw(rf))
    core, mem, sym, expected = build_gather_core(
        make_nsf_core, n_threads=4, rf_size=rf)
    ns = core.run()
    assert vs["cycles"] < ns["cycles"]
    assert mem.read_array(sym["out"], len(expected)) == expected


def test_register_region_is_reserved_in_dcache():
    core, stats, *_ = run_gather(ViReCCore, n_threads=4,
                                 **virec_kw(4 * len(GATHER_REGS)))
    lo, hi = core.dcache.register_region
    assert hi - lo == 4 * core.layout.bytes_per_thread


def test_pinning_reduces_register_fill_misses():
    ctx = len(GATHER_REGS)
    rf = max(6, int(0.4 * 8 * ctx))
    pin, pin_s, *_ = run_gather(ViReCCore, n_threads=8, n=128,
                                **virec_kw(rf, pinning=True))
    nopin, nopin_s, *_ = run_gather(ViReCCore, n_threads=8, n=128,
                                    **virec_kw(rf, pinning=False))
    pin_miss = pin.stats.child("bsi")["fill_backing_misses"]
    nopin_miss = nopin.stats.child("bsi")["fill_backing_misses"]
    assert pin_miss <= nopin_miss


def test_tagstore_invariants_after_run():
    core, *_ = run_gather(ViReCCore, n_threads=4, **virec_kw(12))
    core.vrmu.tagstore.check_invariants()


def test_run_segments_are_recorded_only_for_a_reader():
    """``segment_regs`` feeds the next-context prefetch and nothing else:
    a core without it never writes a segment."""
    plain, *_ = run_gather(ViReCCore, n_threads=4, **virec_kw(16))
    assert not plain.vrmu.record_segments
    assert plain.vrmu.segment_regs == {}
    prefetching, *_ = run_gather(ViReCCore, n_threads=4,
                                 **virec_kw(16, context_prefetch=True))
    assert prefetching.vrmu.record_segments
    flats = set(GATHER_REGS)            # flat register indices
    segments = prefetching.vrmu.segment_regs
    assert sorted(segments) == [0, 1, 2, 3]
    assert any(segments.values())
    assert all(regs <= flats for regs in segments.values())
    assert prefetching.vrmu.stats["context_prefetches"] > 0


def test_rf_too_small_rejected():
    from repro.virec import CapacityError
    with pytest.raises(CapacityError):
        run_gather(ViReCCore, n_threads=2, **virec_kw(4))


def test_thread_scaling_more_threads_smaller_context():
    """Section 2: with a fixed 32-entry RF, 8 threads at ~40% context beat
    4 threads at 100% context on a miss-heavy gather."""
    ctx = len(GATHER_REGS)
    rf = 4 * ctx  # 36 entries
    four, fs, *_ = run_gather(ViReCCore, n_threads=4, n=128, mem_latency=200,
                              **virec_kw(rf))
    eight, es, *_ = run_gather(ViReCCore, n_threads=8, n=128, mem_latency=200,
                               **virec_kw(rf))
    assert es["cycles"] < fs["cycles"]
