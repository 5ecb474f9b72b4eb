"""Host-speed calibration kernel.

A fixed amount of pure-Python work shaped like the simulator's hot loop: a
set-associative cache model made of dicts of small ``__slots__`` objects,
one result object allocated per access, a dict rebuilt per access, bound
method and closure calls, a small ``max``, integer arithmetic, and a
working set (a few MB of lines) that does not fit the host's L2.  A first
kernel that stayed inside L1 (list ring + one dict) tracked this host's
slow phases only half as well: the simulator lost 1.55x when the kernel
lost 1.3x, because what the neighbours take away is cache and memory
bandwidth, not just cycles.

It imports nothing from ``repro``, so its cost moves with the host (CPU
frequency, a noisy neighbour, the interpreter build) and never with a
change to the simulator.  Dividing a measured wall time by the slices taken
right before and after it turns "seconds here, now" into "seconds on the
reference host".
"""

from __future__ import annotations

import time

#: median slice time on the host where the benchmark was defined; frozen —
#: every normalised second in every later run is relative to this number
CALIB_REF_S = 0.11

#: accesses per slice; fixed, never scaled with ``--smoke``
ITERATIONS = 30_000
_SETS = 4096
_WAYS = 4
_MSHRS = 24


class _Line:
    __slots__ = ("tag", "ready", "lru")

    def __init__(self, tag: int, ready: int, lru: int) -> None:
        self.tag = tag
        self.ready = ready
        self.lru = lru


class _Result:
    __slots__ = ("done", "hit")

    def __init__(self, done: int, hit: bool) -> None:
        self.done = done
        self.hit = hit


class _Counters:
    __slots__ = ("table",)

    def __init__(self) -> None:
        self.table = {}

    def inc(self, key: str, amount: int = 1) -> None:
        self.table[key] = self.table.get(key, 0) + amount


class _Model:
    """A toy cache: enough like ``Cache.access`` to slow down with it."""

    def __init__(self) -> None:
        self.sets = [dict() for _ in range(_SETS)]
        self.mshr = {}
        self.clock = 0
        self.stats = _Counters()

    def access(self, now: int, addr: int) -> _Result:
        ways = self.sets[addr % _SETS]
        tag = (addr // _SETS) & 15
        self.clock += 1
        self.mshr = {a: c for a, c in self.mshr.items() if c > now}
        self.stats.inc("accesses")
        line = ways.get(tag)
        if line is not None:
            line.lru = self.clock
            return _Result(max(line.ready, now + 2), True)
        if len(ways) >= _WAYS:
            victim = min(ways.values(), key=lambda l: l.lru)
            del ways[victim.tag]
        ways[tag] = _Line(tag, now + 40, self.clock)
        if len(self.mshr) < _MSHRS:
            self.mshr[addr] = now + 40
        self.stats.inc("misses")
        return _Result(now + 40, False)


#: built once per process; every slice walks the same, already filled sets
_MODEL = None


def _model() -> _Model:
    global _MODEL
    if _MODEL is None:
        _MODEL = _Model()
        work(_MODEL)            # fill the sets: the first slice is not special
    return _MODEL


def work(model: _Model, iterations: int = ITERATIONS) -> int:
    """The kernel itself; returns a checksum so no part can be skipped."""
    model.mshr = {}
    access = model.access
    x = 12345
    acc = 0
    for now in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        result = access(now, x >> 4)
        acc += result.done
        if result.hit:
            acc ^= now
    return acc


def slice_s() -> float:
    """Wall time of one calibration slice."""
    model = _model()
    t0 = time.perf_counter()
    work(model)
    return time.perf_counter() - t0


def normalise(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` in reference-host seconds, given the two adjacent slices."""
    return wall_s * CALIB_REF_S / ((before_s + after_s) / 2.0)
