"""Register-cache replacement policies (Section 4 of the paper).

All policies operate on a fully-associative register cache of ``capacity``
entries and expose *eviction priority*: the entry with the **highest**
priority value is evicted first, matching the hardware formulation in
Section 5.1 ("the registers with the highest value are evicted first").

Metadata fields per entry (Table in Section 5.1: T/C/A = 3/1/3 bits):

``T`` (thread recency)
    0 for the running thread; set to maximum (7) for the thread being
    suspended at a context switch; decremented (saturating at 0) for every
    other thread.  With round-robin scheduling, high T = runs furthest in
    the future (Section 4.1, MRT ordering).
``C`` (commit)
    Speculatively initialized to 1 on access; reset to 0 by the rollback
    queue for registers of instructions flushed by a context switch.
    In-flight (C=0) registers are the first to be re-accessed when the
    thread resumes, so they are retained over committed ones (Section 4.2).
``A`` (age)
    3-bit saturating pseudo-LRU age: 0 on access, +1 on every subsequent
    instruction's register-file access.
``D`` (dead)
    Compiler-assisted liveness hint: set at commit time for registers the
    static analysis (:mod:`repro.analysis.dataflow`) proved dead-on-commit
    (never read again before redefinition); cleared whenever the register
    is re-accessed.  Only the ``dead-*`` policies consume it.

Data layout.  ``word[slot]`` holds the stored fields of the hardware's
priority word, ``D<<7 | C<<3``, as one Python int.  Age is *lazy*: ``A =
min(7, clock - zeroed_at[slot])``, so "age everyone" is one clock
increment.  T is a thread's: a switch counts itself (``switches``), records
that it suspended ``prev`` (``suspended_at``) and drops ``new``'s record; a
thread suspended ``k`` switches ago has ``T = max(0, 7 - k)``, one with no
record 0 (:meth:`~ReplacementPolicy.thread_bits`).  An entry's T is its
owner's, or 0 if it was written at or after that suspension: a write for a
thread with a record is stamped with the switch count (``written_at``) by
``TagStore.insert``/``touch`` and ``VRMU.access``; any other thread's next
suspension comes after every stamp, so its writes need none.

Implemented policies and their priority functions.  The seven ranking
policies declare theirs as data (``priority_fields``, ``exact_age_lift``)
for ``TagStore.select_victim``'s one search; SRRIP and random have a rule
of their own (:meth:`~ReplacementPolicy.select_victim`):

=============  ==============================================
PLRU           ``A``                      (prior work [41])
LRU            exact age (oracle recency)
MRT-PLRU       ``(T << 3) | A``
MRT-LRU        ``(T << 40) | exact age``  (perfect variant)
LRC            ``(T << 4) | (C << 3) | A``  (the paper's policy)
dead-first     ``(D << 7) | LRC``  (dead registers evict first)
dead-elide     dead-first + BSI writeback elision in the VRMU
SRRIP          age to RRPV max, evict the first there  [33]
random         a seeded xorshift draw
=============  ==============================================

The exact age is ``clock - stamp``, instructions since the entry's last
access, uncapped.

Policies are constructed through the :data:`POLICIES` factory table —
:meth:`ReplacementPolicy.from_spec` / :func:`make_policy` — so config
strings, sweeps, and the Fig 12 study all share one registry.  Lint rule
VRC009 flags ad-hoc subclass construction in library code.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Optional, Sequence, Tuple, Type

A_MAX = 7  # 3-bit age
#: exact ages (instructions since an entry's last access) stay below
#: ``1 << EXACT_AGE_BITS`` in any run this simulator makes
EXACT_AGE_BITS = 40
T_MAX = 7  # 3-bit thread recency

# fields of the priority word (the age occupies bits 0-2); T is derived
# per thread, C and D are stored per entry
C_BIT = 1 << 3
T_SHIFT = 4
T_MASK = T_MAX << T_SHIFT
D_SHIFT = 7
D_BIT = 1 << D_SHIFT
LRC_MASK = T_MASK | C_BIT
#: largest well-formed stored word (VSan ``policy.word``)
WORD_MAX = D_BIT | C_BIT
#: the names of :meth:`ReplacementPolicy.fields`, in order
FIELD_NAMES = ("T", "C", "A", "D", "prio")

#: policy-name -> class factory table; populated by :func:`register_policy`
POLICIES: Dict[str, Type["ReplacementPolicy"]] = {}


def register_policy(cls: Type["ReplacementPolicy"]) -> Type["ReplacementPolicy"]:
    """Class decorator registering a policy under ``cls.name``."""
    POLICIES[cls.name] = cls
    return cls


class ReplacementPolicy:
    """Base class holding the per-entry priority words."""

    #: subclass name used by :meth:`from_spec`
    name = "base"
    #: whether the policy consumes dead-on-commit (D) hints — selecting
    #: such a policy is what turns static liveness annotation on
    uses_dead_hints = False
    #: whether the VRMU may skip the BSI spill of a dead victim
    elides_dead_writebacks = False
    #: ``(mask, shift)`` of a ranking policy: its priority is the fields
    #: ``(word | T << 4) & mask`` above an age, ``fields >> shift | A``.
    #: The tag store prunes on the fields before it reads an age and ranks
    #: them unshifted (no mask has a bit in 0-2), so the shift only places
    #: the reported priority and may drop no mask bit.  None for a policy
    #: with its own :meth:`select_victim`
    priority_fields: Optional[Tuple[int, int]] = None
    #: None for the 3-bit lazy ``A``; for the exact age (``stamp``,
    #: uncapped), how far the fields are lifted over it: the priority is
    #: ``fields << lift | age``, and the lift must clear every age below
    #: ``1 << EXACT_AGE_BITS``
    exact_age_lift: Optional[int] = None

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("policy capacity must be >= 1")
        self.capacity = capacity
        #: ``D<<7 | C<<3`` per entry (C=1, D=0 at reset)
        self.word = [C_BIT] * capacity
        #: clock value at which each entry's age was last zeroed
        self.zeroed_at = [0] * capacity
        #: clock value of each entry's last access (exact recency)
        self.stamp = [0] * capacity
        self._clock = 0
        #: context switches so far
        self.switches = 0
        #: thread -> the switch that suspended it, until it resumes
        self.suspended_at: Dict[int, int] = {}
        #: switch count at each entry's latest write for a suspended owner
        self.written_at = [0] * capacity
        #: owning thread per entry, -1 if empty (see on_context_switch)
        self._owner: Sequence[int] = [-1] * capacity
        #: :meth:`thread_bits` and the switch count it was derived at
        self._bits: Dict[int, int] = defaultdict(int)
        self._bits_at = 0

    @classmethod
    def from_spec(cls, spec: str, capacity: int) -> "ReplacementPolicy":
        """Instantiate a registered policy from its config-string name."""
        try:
            policy_cls = POLICIES[spec]
        except KeyError:
            raise ValueError(
                f"unknown policy {spec!r}; choose from {sorted(POLICIES)}")
        return policy_cls(capacity)

    # -- event hooks --------------------------------------------------------
    def on_instruction(self) -> None:
        """One instruction accessed the register file: age everyone."""
        self._clock += 1

    def on_access(self, slot: int) -> None:
        """Entry ``slot`` was referenced by the current instruction."""
        # C=1: speculative commit initialization (Section 5.1); D=0:
        # referenced again, so no longer dead (T: the module docstring)
        self.word[slot] = C_BIT
        self.zeroed_at[slot] = self.stamp[slot] = self._clock

    #: a fill is the entry's first reference.  An alias, not a call through
    #: ``self``: a subclass that overrides :meth:`on_access` alone keeps
    #: this base body for inserts
    on_insert = on_access

    def on_flush(self, slots: Iterable[int]) -> None:
        """Rollback queue resets the C bit of flushed in-flight registers."""
        word = self.word
        for slot in slots:
            word[slot] &= ~C_BIT

    def reset_age(self, slot: int) -> None:
        """Zero the age of ``slot`` without counting an access (the decode
        stage touched a flushed youngster's register just before a switch)."""
        self.zeroed_at[slot] = self._clock

    def mark_dead(self, slot: int) -> None:
        """Commit-time liveness hint: this entry's value is never read
        again before redefinition.  Cleared by the next :meth:`on_access`."""
        self.word[slot] |= D_BIT

    def is_dead(self, slot: int) -> bool:
        return self.word[slot] >= D_BIT

    def on_context_switch(self, owner: Sequence[int], prev_tid: int,
                          new_tid: int) -> None:
        """Record a switch from ``prev_tid`` to ``new_tid`` (Section 5.1);
        ``owner[slot]`` is the owning thread id (-1 for an empty slot)."""
        self._owner = owner
        self.switches += 1
        self.suspended_at[prev_tid] = self.switches
        self.suspended_at.pop(new_tid, None)

    def thread_bits(self) -> Dict[int, int]:
        """``T << T_SHIFT`` per thread, 0 for a thread that is not listed;
        derived at most once per switch."""
        n = self.switches
        if self._bits_at != n:
            self._bits_at, bits = n, defaultdict(int)
            for tid, at in self.suspended_at.items():
                if n - at < T_MAX:
                    bits[tid] = (T_MAX - (n - at)) << T_SHIFT
            self._bits = bits
        return self._bits

    def t_bits(self, slot: int) -> int:
        """``T << T_SHIFT`` of the entry at ``slot``: its owner's, or 0 if
        it was written at or after its owner's suspension."""
        tid = self._owner[slot]
        t = self.thread_bits()[tid]
        if t and self.written_at[slot] >= self.suspended_at[tid]:
            return 0
        return t

    # -- eviction ------------------------------------------------------------
    def age(self, slot: int) -> int:
        """The A field of ``slot``."""
        a = self._clock - self.zeroed_at[slot]
        return a if a < A_MAX else A_MAX

    def priority(self, slot: int) -> int:
        """Eviction priority of ``slot`` (higher = evict first)."""
        if self.priority_fields is None:
            raise NotImplementedError
        mask, shift = self.priority_fields
        fields = (self.word[slot] | self.t_bits(slot)) & mask
        lift = self.exact_age_lift
        if lift is None:
            return fields >> shift | self.age(slot)
        return fields << lift | self._clock - self.stamp[slot]

    def select_victim(self, candidates: Sequence[int]) -> Optional[int]:
        """The victim among ``candidates`` — slot indices in ascending order
        — or None if there are none.  Ties go to the lowest slot."""
        return max(candidates, key=self.priority, default=None)

    # -- introspection -------------------------------------------------------
    @property
    def T(self) -> Tuple[int, ...]:
        return tuple(self.t_bits(slot) >> T_SHIFT
                     for slot in range(self.capacity))

    @property
    def C(self) -> Tuple[int, ...]:
        return tuple(int(bool(w & C_BIT)) for w in self.word)

    @property
    def A(self) -> Tuple[int, ...]:
        return tuple(map(self.age, range(self.capacity)))

    @property
    def D(self) -> Tuple[int, ...]:
        return tuple(w >> D_SHIFT for w in self.word)

    def fields(self, slot: int) -> Tuple[int, int, int, int, int]:
        """The T/C/A/D fields of one entry and its current eviction
        priority, in :data:`FIELD_NAMES` order — what an eviction event
        records so the trace shows *why* the policy chose a victim."""
        w = self.word[slot]
        return (self.t_bits(slot) >> T_SHIFT, int(bool(w & C_BIT)),
                self.age(slot), w >> D_SHIFT, self.priority(slot))

    def describe(self, slot: int) -> dict:
        """Replacement metadata of one entry, :meth:`fields` by name."""
        return dict(zip(FIELD_NAMES, self.fields(slot)))


@register_policy
class PLRU(ReplacementPolicy):
    """Age-only pseudo-LRU, as in the NSF [41] — thrashes across threads."""

    name = "plru"
    priority_fields = (0, 0)


@register_policy
class LRU(ReplacementPolicy):
    """Exact recency (perfect LRU) — still scheduling-oblivious."""

    name = "lru"
    priority_fields = (0, 0)
    exact_age_lift = 0


@register_policy
class MRTPLRU(ReplacementPolicy):
    """Most-Recent-Thread PLRU: T bits concatenated above the PLRU age."""

    name = "mrt-plru"
    priority_fields = (T_MASK, 1)


@register_policy
class MRTLRU(ReplacementPolicy):
    """MRT with exact ages (perfect variant of Figure 12)."""

    name = "mrt-lru"
    priority_fields = (T_MASK, 0)
    exact_age_lift = EXACT_AGE_BITS - T_SHIFT   # T at bit 40


@register_policy
class LRC(ReplacementPolicy):
    """Least Recently Committed: T, then C, then A (the paper's policy)."""

    name = "lrc"
    priority_fields = (LRC_MASK, 0)


@register_policy
class DeadFirstLRC(LRC):
    """LRC with compiler dead hints concatenated on top.

    A register the static liveness pass proved dead-on-commit outranks
    every live entry (the full LRC priority is 7 bits, so ``D`` sits at
    bit 7): the cache preferentially reuses slots whose values can never
    be read again, keeping live working sets resident longer.
    """

    name = "dead-first"
    uses_dead_hints = True
    priority_fields = (D_BIT | LRC_MASK, 0)


@register_policy
class DeadElideLRC(DeadFirstLRC):
    """Dead-first eviction plus BSI writeback elision.

    In addition to preferring dead victims, the VRMU skips the backing-
    store spill entirely when the evicted register is dead — its value is
    unreadable, so the writeback bandwidth and port occupancy are pure
    waste (the compiler-assisted RF-cache argument from PAPERS.md).
    """

    name = "dead-elide"
    elides_dead_writebacks = True


def make_policy(name: str, capacity: int) -> ReplacementPolicy:
    """Instantiate a policy by registered name (see :data:`POLICIES`)."""
    return ReplacementPolicy.from_spec(name, capacity)


@register_policy
class SRRIP(ReplacementPolicy):
    """Static Re-Reference Interval Prediction [33], adapted to registers.

    The paper argues (Section 7) that RRIP-class policies "sample cache
    sets to determine whether cache items are recency-friendly or averse
    based on prior access, which does not work for registers as the reuse
    distance depends on the instruction and context switch behavior."
    Implemented here so that claim can be measured: entries insert with a
    long predicted re-reference interval (RRPV = max-1), promote to 0 on a
    hit, and the victim is any entry at max RRPV (aging everyone when none
    is).  Scheduling-oblivious by construction.
    """

    name = "srrip"
    RRPV_MAX = 7  # the RRPV takes the place of the 3-bit A field

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        #: RRIP does not age on every access, so the A field is explicit
        #: here: ageing happens at eviction time
        self.rrpv = [0] * capacity

    def on_access(self, slot: int) -> None:
        super().on_access(slot)
        self.rrpv[slot] = 0                      # promoted on re-reference

    def on_insert(self, slot: int) -> None:
        # the base ``on_insert`` is the base ``on_access``, so this skips
        # the ``rrpv = 0`` store above, which the next line overwrites
        super().on_insert(slot)
        self.rrpv[slot] = self.RRPV_MAX - 1      # long re-reference prediction

    def reset_age(self, slot: int) -> None:
        self.rrpv[slot] = 0

    def age(self, slot: int) -> int:
        return self.rrpv[slot]

    priority = age

    def select_victim(self, candidates: Sequence[int]) -> Optional[int]:
        if not candidates:
            return None
        # age the candidates until one reaches RRPV max, then evict it
        rrpv = self.rrpv
        oldest = max(rrpv[slot] for slot in candidates)
        if oldest < self.RRPV_MAX:
            for slot in candidates:
                rrpv[slot] += self.RRPV_MAX - oldest
        return next(slot for slot in candidates
                    if rrpv[slot] >= self.RRPV_MAX)


@register_policy
class RandomPolicy(ReplacementPolicy):
    """Uniform random replacement — the no-information floor.

    Deterministic (xorshift seeded at construction) so simulations stay
    reproducible.
    """

    name = "random"

    def __init__(self, capacity: int, seed: int = 0x9E3779B9) -> None:
        super().__init__(capacity)
        self._state = seed or 1

    def _next(self) -> int:
        x = self._state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._state = x
        return x

    def select_victim(self, candidates: Sequence[int]) -> Optional[int]:
        if not candidates:
            return None
        return candidates[self._next() % len(candidates)]

    # only used for introspection; selection is randomized
    priority = ReplacementPolicy.age
