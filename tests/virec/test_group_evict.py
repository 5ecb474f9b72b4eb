"""Group eviction spills the victim owner's registers in the policy's order.

With ``group_evict > 1`` a miss that evicts a victim also spills more of
its owner's registers (``VRMU._group_evict``).  For a ranking policy the
register spilled must be the first maximum of ``policy.priority`` over the
owner's other evictable slots — settled, not the victim, not the
instruction's own; for SRRIP and random, which have a rule of their own,
it is what ``policy.select_victim`` returns for that list, asked of a copy
because both change their state when asked.  The VRMU is brought to its
state by the random streams of the reference-model test.
"""

import copy

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.virec import POLICIES

from .test_reference_vrmu import events, run_stream


@pytest.mark.parametrize("name", sorted(POLICIES))
@given(st.integers(6, 12), events, st.data())
@settings(max_examples=30, deadline=None)
def test_group_eviction_spills_the_owners_first_victim(name, capacity,
                                                        stream, data):
    vrmu = run_stream(name, capacity, 1, stream).vrmu
    ts, policy = vrmu.tagstore, vrmu.tagstore.policy
    valid = ts.valid_slots()
    assume(len(valid) > 1)
    victim = data.draw(st.sampled_from(valid), label="victim")
    others = [slot for slot in valid if slot != victim]
    inst_slots = data.draw(st.lists(st.sampled_from(others), max_size=3,
                                    unique=True), label="inst_slots")
    # at a fill's settling cycle, so some of the owner's slots may be filling
    now = data.draw(st.sampled_from(sorted({0, *ts.fill_ready})), label="now")
    owner = ts.owner[victim]
    candidates = [slot for slot in others
                  if ts.owner[slot] == owner and ts.fill_ready[slot] <= now
                  and slot not in inst_slots]
    if policy.priority_fields is None:
        expected = copy.deepcopy(policy).select_victim(candidates)
    else:
        expected = max(candidates, key=policy.priority, default=None)
    before = vrmu.stats["group_evictions"]

    vrmu.group_evict = 2
    vrmu._group_evict(victim, inst_slots, now)

    spilled = [slot for slot in valid if not ts.valid[slot]]
    assert spilled == ([] if expected is None else [expected])
    assert vrmu.stats["group_evictions"] - before == len(spilled)
