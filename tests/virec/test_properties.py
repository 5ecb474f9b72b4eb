"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.instructions import Flags, Cond
from repro.isa.instructions import to_signed, to_unsigned, MASK64
from repro.virec.policies import LRC, PLRU, make_policy
from repro.virec.rollback import RollbackQueue
from repro.virec.tagstore import TagStore

# -- 64-bit arithmetic ---------------------------------------------------------


@given(st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1))
def test_signed_unsigned_bijection(x):
    assert to_signed(to_unsigned(x)) == x


@given(st.integers(), st.integers())
def test_unsigned_add_matches_masked_python(a, b):
    assert (to_unsigned(a) + to_unsigned(b)) & MASK64 == to_unsigned(a + b)


@given(st.integers(min_value=-(1 << 62), max_value=(1 << 62) - 1),
       st.integers(min_value=-(1 << 62), max_value=(1 << 62) - 1))
def test_cmp_flags_total_order(a, b):
    """NZCV evaluation must agree with Python's signed comparison."""
    from repro.isa.instructions import Instruction, Opcode, evaluate
    from repro.isa.registers import X
    inst = Instruction(Opcode.CMP, rn=X(0), rm=X(1))
    f = evaluate(inst, {X(0): to_unsigned(a), X(1): to_unsigned(b)},
                 Flags(), 0).new_flags
    assert f.evaluate(Cond.EQ) == (a == b)
    assert f.evaluate(Cond.LT) == (a < b)
    assert f.evaluate(Cond.GE) == (a >= b)


# -- tag store invariants ------------------------------------------------------

ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),   # thread
              st.integers(min_value=0, max_value=15),  # register
              st.booleans()),                          # is_write
    min_size=1, max_size=200)


@given(ops)
@settings(max_examples=60, deadline=None)
def test_tagstore_invariants_under_random_traffic(trace):
    """Random lookup/insert/evict traffic never corrupts the mapping, and
    the resident set never exceeds capacity."""
    capacity = 8
    ts = TagStore(capacity, LRC(capacity))
    now = 0
    for tid, reg, is_write in trace:
        now += 1
        ts.on_instruction()
        slot = ts.lookup(tid, reg)
        if slot is not None:
            ts.touch(slot, is_write)
        else:
            free = ts.free_slot()
            if free is None:
                victim = ts.select_victim([], now)
                assert victim is not None
                ts.evict(victim)
                free = victim
            ts.insert(free, tid, reg, now)
        ts.check_invariants()
        assert ts.resident_count() <= capacity


@given(ops)
@settings(max_examples=60, deadline=None)
def test_tagstore_lookup_agrees_with_reference_model(trace):
    """The tag store's resident set always equals a reference dict model."""
    capacity = 6
    ts = TagStore(capacity, PLRU(capacity))
    reference = {}
    now = 0
    for tid, reg, is_write in trace:
        now += 1
        ts.on_instruction()
        key = (tid, reg)
        slot = ts.lookup(tid, reg)
        assert (slot is not None) == (key in reference)
        if slot is None:
            free = ts.free_slot()
            if free is None:
                victim = ts.select_victim([], now)
                vt, vr, _ = ts.evict(victim)
                del reference[(vt, vr)]
                free = victim
            ts.insert(free, tid, reg, now)
            reference[key] = True
        else:
            ts.touch(slot, is_write)
    assert set(reference) == {(t, r) for t, r, _slot in ts.mappings()}
    assert ts.resident_count() == len(reference)


# -- policy properties ----------------------------------------------------------

policy_names = st.sampled_from(["plru", "lru", "mrt-plru", "mrt-lru", "lrc"])


@given(policy_names, st.lists(st.integers(min_value=0, max_value=7),
                              min_size=1, max_size=100))
@settings(max_examples=60, deadline=None)
def test_policy_never_selects_outside_candidates(name, accesses):
    pol = make_policy(name, 8)
    for idx in accesses:
        pol.on_instruction()
        pol.on_access(idx)
    assert pol.select_victim([accesses[0]]) == accesses[0]


@given(st.lists(st.integers(min_value=0, max_value=7), min_size=8, max_size=60))
@settings(max_examples=40, deadline=None)
def test_lrc_retains_flushed_registers(accesses):
    """After a flush, any committed register is always evicted before any
    in-flight (C=0) register of the same thread and age."""
    pol = LRC(8)
    valid = list(range(8))
    for idx in accesses:
        pol.on_instruction()
        pol.on_access(idx)
    for _ in range(10):
        pol.on_instruction()  # saturate ages
    flushed = set(a % 8 for a in accesses[:3])
    pol.on_flush(flushed)
    committed = [i for i in range(8) if i not in flushed]
    if committed:
        victim = pol.select_victim(valid)
        assert victim in committed


@given(st.integers(min_value=2, max_value=8),
       st.lists(st.integers(min_value=0, max_value=7), min_size=2,
                max_size=40))
@settings(max_examples=40, deadline=None)
def test_mrt_priority_monotone_in_thread_distance(n_threads, switches):
    """After any switch sequence, the most recently suspended thread's
    registers never have lower T than a longer-suspended thread's."""
    pol = make_policy("mrt-plru", 8)
    owner = [slot % n_threads for slot in range(8)]
    last_suspended = None
    prev = 0
    for s in switches:
        new = s % n_threads
        if new == prev:
            continue
        pol.on_context_switch(owner, prev_tid=prev, new_tid=new)
        last_suspended = prev
        prev = new
    if last_suspended is not None and last_suspended != prev:
        t_last = [t for t, o in zip(pol.T, owner) if o == last_suspended]
        others = [t for t, o in zip(pol.T, owner)
                  if o != last_suspended and o != prev]
        if t_last and others:
            assert min(t_last) >= max(others) - 7  # bounded fields
            assert max(t_last) == 7


# -- rollback queue -------------------------------------------------------------


@given(st.lists(st.tuples(st.lists(st.integers(0, 31), max_size=4),
                          st.booleans()), max_size=50))
@settings(max_examples=60, deadline=None)
def test_rollback_flush_equals_union_of_pending(entries):
    q = RollbackQueue(depth=64)
    expected = set()
    for slots, is_mem in entries:
        q.push(slots, is_mem)
        expected.update(slots)
    assert q.flush() == expected
    assert len(q) == 0


@given(st.lists(st.booleans(), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_rollback_fifo_order(pattern):
    q = RollbackQueue(depth=64)
    for i, is_mem in enumerate(pattern):
        q.push([i], is_mem)
    for i, is_mem in enumerate(pattern):
        e = q.pop_commit()
        assert e.slots == (i,) and e.is_mem == is_mem
