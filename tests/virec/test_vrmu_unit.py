"""Focused unit tests for VRMU corner cases (decode-stage behaviour)."""

import pytest

from repro.core.cgmt import ContextLayout
from repro.isa import AddrMode, Instruction, Opcode, X
from repro.memory import Cache, CacheConfig
from repro.stats.counters import Stats
from repro.virec import CapacityError, VRMU, make_policy
from repro.virec.bsi import BackingStoreInterface


class FixedLatencyBackend:
    def __init__(self, latency=50):
        self.latency = latency

    def access(self, now, line_addr, is_write=False, requestor=0):
        return now + self.latency


class PortModel:
    def __init__(self, dcache):
        self.dcache = dcache
        self.port_free = 0

    def __call__(self, t, addr, is_write=False, is_register=False, pin_delta=0):
        t_issue = max(t, self.port_free)
        self.port_free = t_issue + 1
        return t_issue, self.dcache.access(t_issue, addr, is_write,
                                           is_register=is_register,
                                           pin_delta=pin_delta)


def make_vrmu(capacity=8, policy="lrc", **bsi_kw):
    dc = Cache(CacheConfig(name="dc", size_bytes=8 * 1024, assoc=4, latency=2,
                           mshrs=24), FixedLatencyBackend(), Stats("dc"))
    bsi = BackingStoreInterface(PortModel(dc), ContextLayout(), stats=Stats("b"),
                                **bsi_kw)
    return VRMU(capacity, make_policy(policy, capacity), bsi, stats=Stats("v"))


def add(rd, rn, rm):
    return Instruction(Opcode.ADD, rd=X(rd), rn=X(rn), rm=X(rm))


def ldr(rd, rn):
    return Instruction(Opcode.LDR, rd=X(rd), rn=X(rn), imm=0,
                       mode=AddrMode.OFF_IMM)


def test_capacity_floor():
    with pytest.raises(CapacityError):
        make_vrmu(capacity=4)


def test_cold_miss_then_hit():
    v = make_vrmu()
    t1 = v.access(0, add(0, 1, 2), 0)
    assert t1 > 0  # two source fills on the critical path
    assert v.stats["misses"] == 3 and v.stats["hits"] == 0
    t2 = v.access(0, add(0, 1, 2), t1 + 1)
    assert v.stats["hits"] == 3
    assert t2 == t1 + 1  # all resident: no extra wait


def test_dest_only_register_uses_dummy_fill():
    v = make_vrmu()
    inst = Instruction(Opcode.MOV, rd=X(5), imm=1)
    t = v.access(0, inst, 10)
    assert t == 10  # dummy fill: not on the critical path
    assert v.bsi.stats["dummy_fills"] == 1
    slot = v.tagstore.lookup(0, X(5).flat)
    assert v.tagstore.dirty[slot]  # will be written; must spill on evict


def test_instruction_operands_protected_from_each_other():
    """An instruction's own registers never evict each other, even at
    minimum capacity."""
    v = make_vrmu(capacity=6)
    t = 0
    # fill the cache with 6 other registers
    for reg in range(10, 16):
        t = v.access(0, Instruction(Opcode.MOV, rd=X(reg), imm=0), t) + 1
    # a 4-register instruction must displace 4 *other* entries
    inst = Instruction(Opcode.MADD, rd=X(0), rn=X(1), rm=X(2), ra=X(3))
    v.access(0, inst, t + 200)
    for reg in (0, 1, 2, 3):
        assert v.tagstore.lookup(0, X(reg).flat) is not None
    v.tagstore.check_invariants()


def test_rollback_flush_resets_commit_bits():
    v = make_vrmu()
    inst = ldr(6, 7)
    t = v.access(0, inst, 0)
    slots = [v.tagstore.lookup(0, X(6).flat), v.tagstore.lookup(0, X(7).flat)]
    assert all(v.tagstore.policy.C[s] == 1 for s in slots)
    v.on_flush(0, [inst])
    assert all(v.tagstore.policy.C[s] == 0 for s in slots)


def test_commit_pops_rollback():
    v = make_vrmu()
    v.access(0, add(0, 1, 2), 0)
    assert len(v.rollback) == 1
    v.on_commit()
    assert len(v.rollback) == 0


def test_segment_tracking_per_thread():
    v = make_vrmu(capacity=12)
    v.access(0, add(6, 7, 8), 0)
    assert v.segment_regs == {}     # nothing reads them, nothing is kept
    v.record_segments = True
    v.access(0, add(0, 1, 2), 0)
    v.access(1, add(3, 4, 5), 100)
    assert v.segment_regs[0] == {X(0).flat, X(1).flat, X(2).flat}
    assert v.segment_regs[1] == {X(3).flat, X(4).flat, X(5).flat}


def test_two_threads_same_arch_reg_coexist():
    v = make_vrmu(capacity=8)
    t0 = v.access(0, Instruction(Opcode.MOV, rd=X(3), imm=1), 0)
    t1 = v.access(1, Instruction(Opcode.MOV, rd=X(3), imm=2), t0 + 1)
    s0 = v.tagstore.lookup(0, X(3).flat)
    s1 = v.tagstore.lookup(1, X(3).flat)
    assert s0 is not None and s1 is not None and s0 != s1


def test_eviction_spills_through_bsi():
    v = make_vrmu(capacity=6)
    t = 0
    for reg in range(6):
        t = v.access(0, Instruction(Opcode.MOV, rd=X(reg), imm=0), t) + 1
    spills_before = v.bsi.stats["spills"]
    v.access(0, Instruction(Opcode.MOV, rd=X(20), imm=0), t + 500)
    assert v.bsi.stats["spills"] == spills_before + 1


def test_hit_rate_property():
    v = make_vrmu()
    assert v.hit_rate == 1.0  # vacuous before any access
    v.access(0, add(0, 1, 2), 0)
    assert v.hit_rate == 0.0


def test_access_by_a_suspended_thread_settles_pending_switches_first():
    """The core only decodes for the running thread, so the policy lets
    switches pend until T is read.  A direct caller that decodes for a
    suspended thread still sees what an eager T update would give: the
    touched entries go to T = 0, the thread's other entry keeps 7 - 1."""
    v = make_vrmu(capacity=8)
    v.access(0, add(0, 1, 2), 0)
    v.access(0, Instruction(Opcode.MOV, rd=X(9), imm=0), 300)
    v.on_context_switch(0, 1)
    v.on_context_switch(1, 2)
    assert v.tagstore.policy.pending_switches == 2
    v.access(0, add(0, 1, 2), 600)
    policy = v.tagstore.policy
    for reg in (0, 1, 2):
        assert policy.T[v.tagstore.lookup(0, X(reg).flat)] == 0
    assert policy.T[v.tagstore.lookup(0, X(9).flat)] == 6
