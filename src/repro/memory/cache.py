"""Set-associative write-back cache with MSHRs and ViReC register-line pinning.

The cache is a *timing-only* structure: architectural data lives in
:class:`~repro.memory.main_memory.MainMemory` and is updated functionally by
the cores, while this model answers "when is this access's data usable?".
That functional/timing split is the standard simulator organization and keeps
the golden model exact.

ViReC extensions (Section 5.3 of the paper):

* lines carry a register/data bit (``is_reg``) and a 3-bit pin counter;
* pinned register lines are skipped during victim selection, so live
  register contexts stay resident at the cost of dcache capacity — the
  effect measured in Figure 13;
* the access interface reports a ``switch_signal`` for data loads that miss
  in the tag array, the trigger input of the context-switch logic, and
  suppresses it for addresses inside the reserved register region.

An access answers ``(complete_at, hit, switch_signal)``, or raises
:class:`CacheBusy` when it cannot be accepted yet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..stats.counters import Stats
from .main_memory import LINE_BYTES

PIN_MAX = 7  # 3-bit saturating pin counter


@dataclass(slots=True)
class CacheLine:
    tag: int
    dirty: bool = False
    ready_at: int = 0
    is_reg: bool = False
    pin: int = 0
    lru: int = 0


class CacheBusy(Exception):
    """A miss the cache cannot accept yet — its MSHR table is full or every
    way of its set holds an in-flight fill; re-present it at ``retry_at``."""

    def __init__(self, retry_at: int) -> None:
        super().__init__(f"cache busy until {retry_at}")
        self.retry_at = retry_at


@dataclass
class CacheConfig:
    name: str = "cache"
    size_bytes: int = 8 * 1024
    assoc: int = 4
    latency: int = 2
    mshrs: int = 24
    line_bytes: int = LINE_BYTES
    #: write-allocate write-back (the default, Table 1) or
    #: no-write-allocate write-through ("wt") — store misses bypass the
    #: cache and write downstream directly
    write_policy: str = "wb"

    def __post_init__(self) -> None:
        if self.write_policy not in ("wb", "wt"):
            raise ValueError(f"unknown write policy {self.write_policy!r}")
        if self.line_bytes < 1 or self.line_bytes & (self.line_bytes - 1):
            raise ValueError(f"line_bytes must be a power of two, got {self.line_bytes}")
        if self.assoc < 1:
            raise ValueError(f"assoc must be >= 1, got {self.assoc}")
        if self.mshrs < 1:
            raise ValueError(f"mshrs must be >= 1, got {self.mshrs}")
        if self.size_bytes < self.assoc * self.line_bytes:
            raise ValueError(
                f"{self.name}: size_bytes {self.size_bytes} is smaller than "
                f"one set (assoc {self.assoc} x {self.line_bytes} B lines)")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")


#: cells of the cache's :meth:`Stats.batch`, in the order ``__init__`` names
#: the keys
READS, WRITES, HITS, MISSES, EVICTIONS = range(5)

#: ``_mshr_seen`` when no access has been presented since the last prune
#: (cycles are never negative)
_NOTHING_SEEN = -1


class Cache:
    """One level of cache.  ``next_level`` must expose
    ``access(now, line_addr, is_write, requestor)`` returning a completion
    cycle, or, for a nested cache, this class's reply.
    """

    def __init__(self, config: CacheConfig, next_level, stats: Stats | None = None,
                 prefetcher=None) -> None:
        if config.size_bytes % (config.assoc * config.line_bytes):
            raise ValueError("cache size must be a multiple of assoc * line size")
        self.config = config
        self.next_level = next_level
        self.stats = stats if stats is not None else Stats(config.name)
        #: per-access pending counts (see :meth:`Stats.batch`)
        self._pending = self.stats.batch(
            "reads", "writes", "hits", "misses", "evictions")
        self.prefetcher = prefetcher
        self.num_sets = config.size_bytes // (config.assoc * config.line_bytes)
        # the config's geometry and timing as plain ints for the access path
        self._line_mask = ~(config.line_bytes - 1)
        self._line_shift = config.line_bytes.bit_length() - 1
        self._latency = config.latency
        #: two indexes of the same lines, updated together wherever a line
        #: enters or leaves: tag -> line per set (victim selection) and
        #: line_addr -> line (the hit lookup)
        self._sets: List[Dict[int, CacheLine]] = [dict() for _ in range(self.num_sets)]
        self._lines: Dict[int, CacheLine] = {}
        #: line_addr -> fill completion cycle.  An entry is dead once any
        #: later access presents ``now >= completion``; dead entries are
        #: dropped lazily, where the table is read (:meth:`_live_mshr`)
        self._mshr: Dict[int, int] = {}
        #: largest ``now`` presented since the table was last pruned
        self._mshr_seen = _NOTHING_SEEN
        self._lru_clock = 0
        #: [lo, hi) byte range reserved for register storage (ViReC); data
        #: loads inside it never raise the context-switch signal.
        self.register_region: Optional[Tuple[int, int]] = None
        #: the observers of this cache's demand misses
        #: (:meth:`~repro.core.instrument.Observer.on_dcache_miss`), handed
        #: over by the core that owns it as a dcache; purely observational
        self.sinks = ()

    # -- geometry helpers ---------------------------------------------------
    def _locate(self, addr: int) -> Tuple[int, int, int]:
        line_addr = addr & self._line_mask
        index = line_addr >> self._line_shift
        return line_addr, index % self.num_sets, index // self.num_sets

    def _next_access(self, now: int, line_addr: int, is_write: bool,
                     requestor: int) -> int:
        """Forward to the next level; normalize its reply to a completion cycle.

        DRAM/crossbar levels return an int; a nested Cache level returns its
        reply tuple, or refuses with :class:`CacheBusy` — the request is then
        re-presented at ``retry_at``.
        """
        while True:
            try:
                reply = self.next_level.access(now, line_addr, is_write,
                                               requestor)
            except CacheBusy as busy:
                now = busy.retry_at
                continue
            return reply[0] if reply.__class__ is tuple else reply

    def in_register_region(self, addr: int) -> bool:
        if self.register_region is None:
            return False
        lo, hi = self.register_region
        return lo <= addr < hi

    def contains(self, addr: int) -> bool:
        """True if the line holding ``addr`` is present (possibly in flight)."""
        return (addr & self._line_mask) in self._lines

    def line_state(self, addr: int) -> Optional[CacheLine]:
        return self._lines.get(addr & self._line_mask)

    # -- MSHR table ------------------------------------------------------------
    def _live_mshr(self, now: int) -> Dict[int, int]:
        """The MSHR table with every dead entry dropped.

        Exact, not approximate: an entry dies at the first later access with
        ``now >= completion``, so pruning with the *largest* ``now`` seen
        since the last prune removes what per-access pruning would have
        removed one access at a time — in any order of ``now``, which a
        shared level sees from several cores and a posted spill makes
        non-monotonic even on one.  Entries are only inserted right after a
        prune, so no entry is ever tested against a ``now`` that preceded it.
        """
        horizon = self._mshr_seen if self._mshr_seen > now else now
        self._mshr_seen = _NOTHING_SEEN
        mshr = self._mshr
        if mshr and horizon != _NOTHING_SEEN:
            mshr = self._mshr = {a: c for a, c in mshr.items() if c > horizon}
        return mshr

    # -- victim selection ------------------------------------------------------
    def _select_victim(self, set_idx: int, now: int) -> Optional[int]:
        """Tag of the victim line, or None if an empty way exists.

        Raises :class:`CacheBusy` when every way holds an in-flight fill.
        Pinned register lines are skipped unless every candidate is pinned,
        in which case the LRU pinned line is forcibly evicted (functionally
        safe — live register values are held in the RF; see DESIGN.md).
        """
        ways = self._sets[set_idx]
        if len(ways) < self.config.assoc:
            return None
        victim = pinned = free_at = None
        victim_lru = pinned_lru = 0
        for tag, line in ways.items():
            if line.ready_at > now:
                if free_at is None or line.ready_at < free_at:
                    free_at = line.ready_at
            elif line.pin == 0:
                if victim is None or line.lru < victim_lru:
                    victim, victim_lru = tag, line.lru
            elif pinned is None or line.lru < pinned_lru:
                pinned, pinned_lru = tag, line.lru
        if victim is not None:
            return victim
        if pinned is None:
            raise CacheBusy(free_at)
        self.stats.inc("forced_pinned_evictions")
        return pinned

    def _evict(self, set_idx: int, tag: int, now: int, requestor: int) -> None:
        line = self._sets[set_idx].pop(tag)
        victim_addr = (tag * self.num_sets + set_idx) << self._line_shift
        del self._lines[victim_addr]
        if line.dirty:
            self._next_access(now, victim_addr, True, requestor)
            self.stats.inc("writebacks")
        self._pending[EVICTIONS] += 1
        if line.is_reg:
            self.stats.inc("register_line_evictions")

    # -- main access path ----------------------------------------------------------
    def access(self, now: int, addr: int, is_write: bool = False,
               requestor: int = 0, is_load_data: bool = False,
               is_register: bool = False,
               pin_delta: int = 0) -> Tuple[int, bool, bool]:
        """Present one word/line access at cycle ``now``; returns
        ``(complete_at, hit, switch_signal)``.

        ``complete_at`` is the cycle the data is usable (reads) or the write
        is ordered (writes); a hit on an in-flight fill completes no earlier
        than the fill.  ``is_load_data`` marks demand data loads from the
        LSQ (the only accesses that may raise ``switch_signal``).
        ``is_register`` marks BSI register fill/spill traffic; ``pin_delta``
        of +1/-1 adjusts the line's pin counter per Section 5.3 (fill pins,
        spill unpins).

        Raises :class:`CacheBusy` when a miss cannot be accepted (MSHRs
        exhausted, or every way of its set in flight); the access was still
        presented and is counted as a read or write.
        """
        line_addr = addr & self._line_mask
        self._lru_clock = clock = self._lru_clock + 1
        if now > self._mshr_seen:
            self._mshr_seen = now
        pending = self._pending
        pending[WRITES if is_write else READS] += 1

        line = self._lines.get(line_addr)
        if line is not None:
            line.lru = clock
            if is_write:
                line.dirty = True
            if is_register:
                line.is_reg = True
                pin = line.pin + pin_delta
                line.pin = 0 if pin < 0 else pin if pin < PIN_MAX else PIN_MAX
            done = now + self._latency
            ready = line.ready_at
            if ready <= now:
                pending[HITS] += 1
                return done, True, False
            # hit on an in-flight fill (MSHR merge): wait for the fill
            self.stats.inc("under_fill_hits")
            return (done if done > ready else ready), True, False

        # -- miss ------------------------------------------------------------
        cfg = self.config
        t_next = now + self._latency
        if is_write and cfg.write_policy == "wt":
            # no-write-allocate: forward the store downstream, do not fill
            done = self._next_access(t_next, line_addr, True, requestor)
            self.stats.inc("write_through")
            return done, False, False
        mshr = self._live_mshr(now)
        if len(mshr) >= cfg.mshrs:
            self.stats.inc("mshr_full")
            raise CacheBusy(min(mshr.values()))
        index = line_addr >> self._line_shift
        set_idx = index % self.num_sets
        tag = index // self.num_sets
        try:
            victim = self._select_victim(set_idx, now)
        except CacheBusy:
            self.stats.inc("set_busy")
            raise
        if victim is not None:
            self._evict(set_idx, victim, t_next, requestor)

        pending[MISSES] += 1
        fill_done = self._next_access(t_next, line_addr, False, requestor)
        if self.sinks:
            for sink in self.sinks:
                sink.on_dcache_miss(now, addr, is_write, fill_done,
                                    is_register)
        pin = 0
        if is_register and pin_delta > 0:
            pin = pin_delta if pin_delta < PIN_MAX else PIN_MAX
        self._sets[set_idx][tag] = self._lines[line_addr] = CacheLine(
            tag, is_write, fill_done, is_register, pin, clock)
        self._mshr[line_addr] = fill_done

        if self.prefetcher is not None and not is_register:
            self.prefetcher.observe_miss(self, now, line_addr, requestor)

        # :meth:`in_register_region`, inlined
        region = self.register_region
        switch = is_load_data and (region is None
                                   or not region[0] <= addr < region[1])
        return fill_done, False, switch

    # -- prefetch insertion (used by the stride prefetcher) --------------------
    def prefetch_fill(self, now: int, line_addr: int, requestor: int = 0) -> None:
        """Insert ``line_addr`` speculatively (no demand completion)."""
        la, set_idx, tag = self._locate(line_addr)
        # the table as the accesses so far left it: a prefetch presents no
        # ``now`` of its own to the MSHRs
        if la in self._lines or len(self._live_mshr(_NOTHING_SEEN)) >= self.config.mshrs:
            return
        try:
            victim = self._select_victim(set_idx, now)
        except CacheBusy:
            return
        if victim is not None:
            self._evict(set_idx, victim, now, requestor)
        self._lru_clock += 1
        fill_done = self._next_access(now, line_addr, False, requestor)
        self._sets[set_idx][tag] = self._lines[la] = CacheLine(
            tag=tag, ready_at=fill_done, lru=self._lru_clock)
        self._mshr[line_addr] = fill_done
        self.stats.inc("prefetch_fills")

    # -- maintenance -------------------------------------------------------------
    def unpin(self, addr: int) -> bool:
        """Metadata-only pin release for the line holding ``addr``.

        Used by BSI writeback elision: a dead register's spill is skipped
        entirely, but the fill that brought it in pinned its backing line,
        so the pin must still be dropped or the line would stay pinned
        forever.  Pure bookkeeping — no port transaction, no timing effect.
        Returns True if the line was present.
        """
        line = self._lines.get(addr & self._line_mask)
        if line is None:
            return False
        line.pin = max(0, line.pin - 1)
        self.stats.inc("metadata_unpins")
        return True

    def invalidate_line(self, addr: int) -> bool:
        """Drop the line holding ``addr`` without writeback; True if present.

        Used by fault recovery (refill-from-backing-store): a line whose
        stored copy is corrupted must be re-fetched clean from the level
        below, so its contents are discarded rather than written back.
        """
        la, set_idx, tag = self._locate(addr)
        if self._lines.pop(la, None) is None:
            return False
        del self._sets[set_idx][tag]
        self._mshr.pop(la, None)
        self.stats.inc("line_invalidations")
        return True

    def register_region_lines(self) -> range:
        """Byte addresses of every line in the reserved register region
        (the fault injector's backing-store site list); empty when no
        region is reserved."""
        if self.register_region is None:
            return range(0)
        lo, hi = self.register_region
        lb = self.config.line_bytes
        return range(lo & ~(lb - 1), hi, lb)

    def warm(self, addr: int, dirty: bool = False, is_reg: bool = False,
             pin: int = 0) -> None:
        """Pre-install the line holding ``addr`` (test/setup helper)."""
        la, set_idx, tag = self._locate(addr)
        self._lru_clock += 1
        self._sets[set_idx][tag] = self._lines[la] = CacheLine(
            tag=tag, dirty=dirty, is_reg=is_reg, pin=pin, lru=self._lru_clock)

    def resident_lines(self) -> int:
        return len(self._lines)
