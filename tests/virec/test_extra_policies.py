"""Tests for the SRRIP and random policies (paper Section 7 claims)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import build_gather_core  # noqa: E402

from repro.virec import ViReCConfig, ViReCCore, make_policy  # noqa: E402
from repro.virec.policies import SRRIP, RandomPolicy  # noqa: E402


def test_srrip_insert_with_long_rrpv():
    p = SRRIP(4)
    p.on_insert(0)
    assert p.A[0] == SRRIP.RRPV_MAX - 1
    p.on_access(0)
    assert p.A[0] == 0  # promoted on re-reference


def test_srrip_victim_is_max_rrpv():
    p = SRRIP(4)
    for i in range(4):
        p.on_insert(i)
    p.on_access(2)
    victim = p.select_victim([0, 1, 2, 3])
    assert victim != 2  # the promoted entry survived the aging sweep


def test_random_policy_deterministic_and_in_candidates():
    a = RandomPolicy(8, seed=42)
    b = RandomPolicy(8, seed=42)
    cand = [1, 3, 5]
    seq_a = [a.select_victim(cand) for _ in range(10)]
    seq_b = [b.select_victim(cand) for _ in range(10)]
    assert seq_a == seq_b
    assert all(v in (1, 3, 5) for v in seq_a)
    assert a.select_victim([]) is None


def test_policies_registered():
    assert make_policy("srrip", 8).name == "srrip"
    assert make_policy("random", 8).name == "random"


def test_srrip_worse_than_lrc_on_multithreaded_register_cache():
    """The paper's Section 7 claim: RRIP-style reuse prediction does not
    work for registers under context switching."""
    lrc, *_ = build_gather_core(ViReCCore, n_threads=8, n=96,
                                virec=ViReCConfig(rf_size=34, policy="lrc"))
    srrip, *_ = build_gather_core(ViReCCore, n_threads=8, n=96,
                                  virec=ViReCConfig(rf_size=34, policy="srrip"))
    sl = lrc.run()
    ss = srrip.run()
    assert sl["rf_hit_rate"] > ss["rf_hit_rate"]
    assert sl["cycles"] <= ss["cycles"] * 1.02


def test_random_is_the_floor():
    """Every informed policy should beat random replacement."""
    rates = {}
    for policy in ("random", "plru", "mrt-plru", "lrc"):
        core, *_ = build_gather_core(ViReCCore, n_threads=8, n=96,
                                     virec=ViReCConfig(rf_size=34,
                                                       policy=policy))
        rates[policy] = core.run()["rf_hit_rate"]
    assert rates["lrc"] > rates["random"]
    assert rates["mrt-plru"] > rates["random"]


def test_extra_policies_work_in_trace_replay():
    from repro.virec.oracle import RegisterTrace, TraceEvent, simulate_trace
    trace = RegisterTrace(events=[
        TraceEvent(tid=0, regs=(i % 5, (i + 1) % 7)) for i in range(200)])
    for name in ("srrip", "random"):
        r = simulate_trace(trace, capacity=6, policy=name)
        assert 0 <= r.hit_rate <= 1
