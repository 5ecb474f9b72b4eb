"""``TimelineCore.dcache_stream`` against one ``dcache_request`` per word.

A register-context move (prefetch loads and stores, the software
save/restore, the banked and barrel context fetch) goes through the shared
dcache port as one stream.  Its callers used to request word ``i`` either
at ``t + i`` or the cycle after word ``i - 1`` issued; both patterns must
give exactly what the stream gives.  Two identical ports are driven with
the same scenario — a small cache with 1-way sets and 1-2 MSHRs so that
``mshr_full`` and ``set_busy`` refusals happen, lines pre-warmed or in
flight, write-back and write-through, reads and writes, offsets over one
to three lines, the port's free cycle ahead of or behind ``t`` — and must
agree on the reply, the port, the cache's whole stats tree, its LRU clock,
its MSHR table, the backend's request log and the core's stats.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import TimelineCore
from repro.memory import Cache, CacheBusy, CacheConfig
from repro.stats.counters import Stats

from ..helpers import FixedLatencyBackend

LINE = 64
#: a three-line register save area; data lines alias onto its sets
BASE = 0x8000
DATA = 0x1000


class _Port:
    """What the two port methods read of a core: its dcache, the port's
    free cycle, the core id and the core's stats."""

    dcache_request = TimelineCore.dcache_request
    dcache_stream = TimelineCore.dcache_stream

    def __init__(self, scenario) -> None:
        (assoc, n_sets, mshrs, policy, latency, warm, inflight, port_free,
         _t, _offsets, _is_write) = scenario
        self.backend = FixedLatencyBackend(latency)
        self.dcache = Cache(
            CacheConfig(name="dc", size_bytes=assoc * n_sets * LINE,
                        assoc=assoc, latency=2, mshrs=mshrs,
                        write_policy=policy),
            self.backend, Stats("dc"))
        self.stats = Stats("core")
        self.core_id = 0
        for addr, dirty in warm:
            self.dcache.warm(addr, dirty=dirty)
        for now, addr, is_write in inflight:
            try:
                self.dcache.access(now, addr, is_write)
            except CacheBusy:
                pass
        self.dcache_port_free = port_free

    def state(self):
        dc = self.dcache
        return (self.dcache_port_free, sorted(dc.stats.flat()),
                dc._lru_clock, dict(dc._mshr), dc._mshr_seen,
                list(self.backend.accesses), sorted(self.stats.flat()))


def _per_word(port, t, offsets, is_write, chained):
    """The callers' old loops: word ``i`` at ``t + i`` or, chained, the
    cycle after word ``i - 1`` issued."""
    t_next, done = t, t
    for i, off in enumerate(offsets):
        t_issue, complete, _, _ = port.dcache_request(
            t_next if chained else t + i, BASE + off, is_write)
        t_next, done = t_issue + 1, max(done, complete)
    return t_next, done


reg_words = st.integers(0, 3 * LINE // 8 - 1).map(lambda w: w * 8)
touched = st.one_of(
    reg_words.map(lambda off: BASE + off),
    st.integers(0, 7).map(lambda line: DATA + line * LINE))

scenarios = st.tuples(
    st.sampled_from((1, 2)),                       # assoc
    st.sampled_from((1, 2, 4)),                    # sets
    st.sampled_from((1, 2, 4)),                    # mshrs
    st.sampled_from(("wb", "wt")),
    st.integers(1, 60),                            # backend latency
    st.lists(st.tuples(touched, st.booleans()), max_size=4),
    st.lists(st.tuples(st.integers(0, 40), touched, st.booleans()),
             max_size=4),                          # fills in flight
    st.integers(0, 80),                            # port free cycle
    st.integers(0, 60),                            # t
    st.lists(reg_words, min_size=0, max_size=20),
    st.booleans())                                 # is_write


@settings(max_examples=400, deadline=None)
@given(scenario=scenarios, chained=st.booleans())
def test_stream_equals_one_request_per_word(scenario, chained):
    *_, t, offsets, is_write = scenario
    stream, words = _Port(scenario), _Port(scenario)
    assert (stream.dcache_stream(t, BASE, offsets, is_write)
            == _per_word(words, t, offsets, is_write, chained))
    assert stream.state() == words.state()


def test_the_refusal_path_is_reached():
    """A 1-way, 1-MSHR cache with a fill in flight refuses the stream's
    first miss; the stream re-presents it and counts the retry."""
    scenario = (1, 1, 1, "wb", 50, [], [(0, DATA, False)], 0, 1,
                [0, 8, LINE], False)
    stream, words = _Port(scenario), _Port(scenario)
    assert (stream.dcache_stream(1, BASE, [0, 8, LINE])
            == _per_word(words, 1, [0, 8, LINE], False, chained=False))
    assert stream.stats["dcache_retries"] > 0
    assert stream.state() == words.state()
