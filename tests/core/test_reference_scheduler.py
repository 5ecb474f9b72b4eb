"""The allocation-free scheduler against the list-building one it replaced.

``reference_scheduler.py`` is the previous ``_ready_threads`` /
``_pick_next_thread`` / ``others_ready`` verbatim.  Both are run on the same
drawn ring of threads — any mix of READY / BLOCKED / DONE, at most one
stale RUNNING thread, any ``ready_at``, any ``_rr_next``, any ``t`` — and
must agree on the thread picked, the cycle it runs at, the next ring
position, and the forward-progress decision for every thread.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import ThreadContext, ThreadState, TimelineCore

from . import reference_scheduler as reference

STATES = (ThreadState.READY, ThreadState.BLOCKED, ThreadState.DONE)


@st.composite
def rings(draw):
    n = draw(st.integers(1, 8))
    states = draw(st.lists(st.sampled_from(STATES), min_size=n, max_size=n))
    stale = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    if stale is not None:
        states[stale] = ThreadState.RUNNING
    # a small range so ties and ready_at == t are common
    ready_at = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    return (states, ready_at, draw(st.integers(0, n - 1)),
            draw(st.integers(0, 14)))


def core_of(states, ready_at, rr_next):
    """The part of a core the scheduler reads, twice over."""
    return SimpleNamespace(
        threads=[ThreadContext(tid=tid, state=state, ready_at=at)
                 for tid, (state, at) in enumerate(zip(states, ready_at))],
        _rr_next=rr_next)


def pick(module_or_class, core, t):
    thread, t_run = module_or_class._pick_next_thread(core, t)
    return (None if thread is None else thread.tid), t_run, core._rr_next


@given(rings())
@settings(max_examples=600, deadline=None)
def test_pick_and_forward_progress_agree(ring):
    states, ready_at, rr_next, t = ring
    new, old = core_of(*ring[:3]), core_of(*ring[:3])
    assert pick(TimelineCore, new, t) == pick(reference, old, t)
    for th_new, th_old in zip(new.threads, old.threads):
        assert (TimelineCore._another_thread_ready(new, th_new, t)
                == reference.others_ready(old, th_old, t))


def test_nobody_ready_jumps_to_the_earliest_wakeup():
    B = ThreadState.BLOCKED
    core = core_of([B, B, B, B], [40, 25, 25, 30], rr_next=3)
    assert pick(TimelineCore, core, 10) == (1, 25, 2)
    # the ring starts at _rr_next, so of two threads waking together the
    # one after it goes first
    core = core_of([B, B, B, B], [40, 25, 25, 30], rr_next=2)
    assert pick(TimelineCore, core, 10) == (2, 25, 3)
    # ... and a READY thread beats an earlier BLOCKED one further round
    core = core_of([B, ThreadState.READY, B, B], [5, 99, 5, 5], rr_next=1)
    assert pick(TimelineCore, core, 10) == (1, 10, 2)


def test_all_done_and_single_live_thread():
    D = ThreadState.DONE
    core = core_of([D, D, D], [3, 4, 5], rr_next=1)
    assert pick(TimelineCore, core, 7) == (None, 7, 1)
    core = core_of([D, ThreadState.BLOCKED, D], [0, 50, 0], rr_next=2)
    assert pick(TimelineCore, core, 7) == (1, 50, 2)
    only = core.threads[1]
    assert not TimelineCore._another_thread_ready(core, only, 100)
    core = core_of([ThreadState.READY], [0], rr_next=0)
    assert pick(TimelineCore, core, 7) == (0, 7, 0)


def test_a_stale_running_thread_can_name_the_wakeup_cycle():
    """A RUNNING thread is live, so its ``ready_at`` takes part in the
    minimum even though it cannot be picked — the old code returned no
    thread then, and so does the new."""
    core = core_of([ThreadState.RUNNING, ThreadState.BLOCKED], [4, 9],
                   rr_next=0)
    assert pick(TimelineCore, core, 2) == (None, 4, 0)
    assert pick(reference, core, 2) == (None, 4, 0)
