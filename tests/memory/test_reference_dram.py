"""The flat-table DRAM against the reference model it replaced.

``reference_dram.py`` keeps its banks in a dict keyed by ``(channel, bank)``
and its channel buses in a dict; the production DRAM indexes lists built up
front.  Both are driven with the same random request stream — ``now``
jumping back and forth, as the shared DRAM sees it from several cores —
and after every request the completion cycle and the whole stats tree must
agree.  The 3-channel x 5-bank geometry is there for the flat index: with
the wrong multiplier (``channel * channels + bank``) two of its banks share
one entry, while on the square HBM preset (8 x 8) both multipliers agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import dram as production_dram
from repro.memory.dram import DRAMConfig, hbm_like_config
from repro.memory.main_memory import LINE_BYTES
from repro.stats.counters import Stats
from repro.system.config import table1_dram

from . import reference_dram

GEOMETRIES = {
    "table1": table1_dram(),
    "hbm": hbm_like_config(),
    "3x5": DRAMConfig(channels=3, banks_per_channel=5, row_bytes=256),
}

requests = st.lists(st.tuples(
    # a step from the previous request's cycle, or a cycle out of the blue
    st.one_of(st.tuples(st.just("+"), st.integers(-80, 80)),
              st.tuples(st.just("@"), st.integers(0, 2000))),
    # nearby lines (row hits) and far ones (row misses in every geometry)
    st.one_of(st.integers(0, 400), st.integers(0, 1 << 16)),
    st.booleans()), min_size=1, max_size=150)


@given(st.sampled_from(sorted(GEOMETRIES)), requests)
@settings(max_examples=300, deadline=None)
def test_dram_agrees_with_reference_model(geometry, stream):
    config = GEOMETRIES[geometry]
    new = production_dram.DRAM(config, Stats("dram"))
    ref = reference_dram.DRAM(config, Stats("dram"))
    now = 0
    for (how, cycles), line, is_write in stream:
        now = max(0, now + cycles) if how == "+" else cycles
        addr = line * LINE_BYTES
        assert (new.access(now, addr, is_write)
                == ref.access(now, addr, is_write))
        assert new.stats.as_dict() == ref.stats.as_dict()
