"""Host profiles across the process boundary, and out of the digest.

Two promises: ``strip_result`` keeps ``host_profile`` (unlike telemetry
sessions, it is plain picklable data the report needs), and manifest
digests never depend on it (wall-clock is machine-dependent; the digest
is a pure function of simulated behaviour).
"""

import pickle

from repro.exec import grid_worker, strip_result
from repro.system import RunConfig, RunManifest, run_config, run_grid

from ..helpers import time_limit
from .test_backends import task_of

CFG = RunConfig(workload="gather", core_type="virec", n_threads=2,
                n_per_thread=8)


def _assert_profile(profile):
    assert profile is not None
    assert profile["total_s"] > 0
    assert profile["instr_per_s"] > 0
    assert set(profile["phases_s"]) == {"build", "simulate", "check"}


def test_strip_result_keeps_host_profile():
    result = run_config(CFG)
    stripped = strip_result(result)
    _assert_profile(stripped.host_profile)
    assert stripped.telemetry is None  # process-local state is dropped
    assert stripped.sanitizer is None
    # and the stripped result actually crosses a process boundary
    clone = pickle.loads(pickle.dumps(stripped))
    _assert_profile(clone.host_profile)


def test_grid_worker_ships_profile():
    result, failure, _exc, _spans = grid_worker(task_of(0, CFG))
    assert failure is None
    _assert_profile(result.host_profile)


def test_parallel_grid_manifest_collects_profiles(tmp_path):
    grid = [RunConfig(workload="gather", core_type="virec", n_threads=2,
                      n_per_thread=8, seed=s) for s in (1, 2)]
    manifest = RunManifest()
    with time_limit(300):
        rows = run_grid(grid, jobs=2, manifest=manifest)
    assert len(rows) == 2 and not rows.failures
    assert len(manifest.host_profiles) == 2
    for profile in manifest.host_profiles:
        _assert_profile(profile)
    # the profiles survive a save/load round trip
    path = tmp_path / "manifest.json"
    manifest.save(str(path))
    loaded = RunManifest.load(str(path))
    assert len(loaded.host_profiles) == 2
    _assert_profile(loaded.host_profiles[0])


def test_host_profiles_never_enter_the_digest():
    r1, r2 = run_config(CFG), run_config(CFG)
    # two runs of one config: identical simulation, different wall-clock
    assert r1.host_profile != r2.host_profile or True  # may rarely tie
    m1, m2 = RunManifest(), RunManifest()
    m1.add(r1)
    m2.add(r2)
    assert m1.results_digest == m2.results_digest
    # mutating recorded profiles leaves the digest untouched
    m1.host_profiles[0] = {"total_s": 999.0}
    assert m1._digest() == m2.results_digest
