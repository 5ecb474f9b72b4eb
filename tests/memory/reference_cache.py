"""Test-only reference model of the cache: the ``Cache`` of
``repro/memory/cache.py`` as it was before the request path was flattened,
kept verbatim as the model the production cache is compared against
(``test_reference_cache.py``).

It rebuilds the MSHR table on *every* access (``{a: c ... if c > now}``),
selects victims with two dict comprehensions and ``min(key=lru)``, and
counts with one ``Stats.inc`` per event.  The production cache prunes the
MSHR table lazily, selects the victim in one pass and batches its hot
counters; nothing here is imported by ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.memory.main_memory import LINE_BYTES
from repro.stats.counters import Stats

PIN_MAX = 7  # 3-bit saturating pin counter


@dataclass
class CacheLine:
    tag: int
    dirty: bool = False
    ready_at: int = 0
    is_reg: bool = False
    pin: int = 0
    lru: int = 0


@dataclass
class AccessResult:
    """Outcome of a cache access.

    ``complete_at`` is the cycle the data is usable (reads) or the write is
    ordered (writes).  ``retry_at`` is set instead when the request could not
    be accepted (MSHRs exhausted) and must be re-presented.
    """

    complete_at: int = 0
    hit: bool = False
    under_fill: bool = False
    switch_signal: bool = False
    retry_at: Optional[int] = None

    @property
    def accepted(self) -> bool:
        return self.retry_at is None


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


class Cache:
    """One level of cache.  ``next_level`` must expose
    ``access(now, line_addr, is_write=..., requestor=...) -> completion_cycle``.
    """

    def __init__(self, config: CacheConfig, next_level, stats: Stats | None = None,
                 prefetcher=None) -> None:
        if config.size_bytes % (config.assoc * config.line_bytes):
            raise ValueError("cache size must be a multiple of assoc * line size")
        self.config = config
        self.next_level = next_level
        self.stats = stats if stats is not None else Stats(config.name)
        self.prefetcher = prefetcher
        self.num_sets = config.size_bytes // (config.assoc * config.line_bytes)
        self._sets: List[Dict[int, CacheLine]] = [dict() for _ in range(self.num_sets)]
        self._mshr: Dict[int, int] = {}  # line_addr -> fill completion cycle
        self._lru_clock = 0
        #: [lo, hi) byte range reserved for register storage (ViReC); data
        #: loads inside it never raise the context-switch signal.
        self.register_region: Optional[Tuple[int, int]] = None
        #: the observers of this cache's demand misses (``on_dcache_miss``)
        self.sinks = ()

    # -- geometry helpers ---------------------------------------------------
    def _locate(self, addr: int) -> Tuple[int, int, int]:
        line_addr = addr & ~(self.config.line_bytes - 1)
        line = line_addr // self.config.line_bytes
        return line_addr, line % self.num_sets, line // self.num_sets

    def _next_access(self, now: int, line_addr: int, is_write: bool,
                     requestor: int) -> int:
        """Forward to the next level; normalize its reply to a completion cycle.

        DRAM/crossbar levels return an int; a nested Cache level returns an
        :class:`AccessResult` (a full miss there may itself be retried once
        its MSHRs free up — we honour its retry hint).
        """
        reply = self.next_level.access(now, line_addr, is_write=is_write,
                                       requestor=requestor)
        while isinstance(reply, AccessResult) and not reply.accepted:
            reply = self.next_level.access(reply.retry_at, line_addr,
                                           is_write=is_write, requestor=requestor)
        return reply.complete_at if isinstance(reply, AccessResult) else reply

    def in_register_region(self, addr: int) -> bool:
        if self.register_region is None:
            return False
        lo, hi = self.register_region
        return lo <= addr < hi

    def contains(self, addr: int) -> bool:
        """True if the line holding ``addr`` is present (possibly in flight)."""
        _, set_idx, tag = self._locate(addr)
        return tag in self._sets[set_idx]

    def line_state(self, addr: int) -> Optional[CacheLine]:
        _, set_idx, tag = self._locate(addr)
        return self._sets[set_idx].get(tag)

    # -- victim selection ------------------------------------------------------
    def _select_victim(self, set_idx: int, now: int) -> Optional[int]:
        """Tag of the victim line, or None if an empty way exists.

        Raises :class:`AllWaysBusy` when every way holds an in-flight fill.
        Pinned register lines are skipped unless every candidate is pinned,
        in which case the LRU pinned line is forcibly evicted (functionally
        safe — live register values are held in the RF; see DESIGN.md).
        """
        ways = self._sets[set_idx]
        if len(ways) < self.config.assoc:
            return None
        settled = {t: l for t, l in ways.items() if l.ready_at <= now}
        if not settled:
            raise AllWaysBusy(min(l.ready_at for l in ways.values()))
        unpinned = {t: l for t, l in settled.items() if l.pin == 0}
        pool = unpinned or settled
        if not unpinned:
            self.stats.inc("forced_pinned_evictions")
        return min(pool.items(), key=lambda kv: kv[1].lru)[0]

    def _evict(self, set_idx: int, tag: int, now: int, requestor: int) -> None:
        line = self._sets[set_idx].pop(tag)
        if line.dirty:
            victim_addr = (tag * self.num_sets + set_idx) * self.config.line_bytes
            self._next_access(now, victim_addr, is_write=True, requestor=requestor)
            self.stats.inc("writebacks")
        self.stats.inc("evictions")
        if line.is_reg:
            self.stats.inc("register_line_evictions")

    # -- main access path ----------------------------------------------------------
    def access(self, now: int, addr: int, is_write: bool = False, *,
               requestor: int = 0, is_load_data: bool = False,
               is_register: bool = False, pin_delta: int = 0) -> AccessResult:
        """Present one word/line access at cycle ``now``.

        ``is_load_data`` marks demand data loads from the LSQ (the only
        accesses that may raise ``switch_signal``).  ``is_register`` marks
        BSI register fill/spill traffic; ``pin_delta`` of +1/-1 adjusts the
        line's pin counter per Section 5.3 (fill pins, spill unpins).
        """
        cfg = self.config
        line_addr, set_idx, tag = self._locate(addr)
        ways = self._sets[set_idx]
        self._lru_clock += 1
        self._mshr = {a: c for a, c in self._mshr.items() if c > now}

        self.stats.inc("writes" if is_write else "reads")

        line = ways.get(tag)
        if line is not None:
            line.lru = self._lru_clock
            if is_write:
                line.dirty = True
            if is_register:
                line.is_reg = True
                line.pin = min(PIN_MAX, max(0, line.pin + pin_delta))
            if line.ready_at <= now:
                self.stats.inc("hits")
                return AccessResult(complete_at=now + cfg.latency, hit=True)
            # hit on an in-flight fill (MSHR merge): wait for the fill
            self.stats.inc("under_fill_hits")
            return AccessResult(complete_at=max(line.ready_at, now + cfg.latency),
                                hit=True, under_fill=True)

        # -- miss ------------------------------------------------------------
        if is_write and cfg.write_policy == "wt":
            # no-write-allocate: forward the store downstream, do not fill
            done = self._next_access(now + cfg.latency, line_addr,
                                     is_write=True, requestor=requestor)
            self.stats.inc("write_through")
            return AccessResult(complete_at=done, hit=False)
        if len(self._mshr) >= cfg.mshrs:
            self.stats.inc("mshr_full")
            return AccessResult(retry_at=min(self._mshr.values()), switch_signal=False)
        try:
            victim = self._select_victim(set_idx, now)
        except AllWaysBusy as busy:
            self.stats.inc("set_busy")
            return AccessResult(retry_at=busy.free_at)
        if victim is not None:
            self._evict(set_idx, victim, now + cfg.latency, requestor)

        self.stats.inc("misses")
        fill_done = self._next_access(now + cfg.latency, line_addr,
                                      is_write=False, requestor=requestor)
        for sink in self.sinks:
            sink.on_dcache_miss(now, addr, is_write, fill_done, is_register)
        new_line = CacheLine(tag=tag, dirty=is_write, ready_at=fill_done,
                             lru=self._lru_clock)
        if is_register:
            new_line.is_reg = True
            new_line.pin = min(PIN_MAX, max(0, pin_delta))
        ways[tag] = new_line
        self._mshr[line_addr] = fill_done

        if self.prefetcher is not None and not is_register:
            self.prefetcher.observe_miss(self, now, line_addr, requestor)

        switch = is_load_data and not self.in_register_region(addr)
        return AccessResult(complete_at=fill_done, hit=False, switch_signal=switch)

    # -- prefetch insertion (used by the stride prefetcher) --------------------
    def prefetch_fill(self, now: int, line_addr: int, requestor: int = 0) -> None:
        """Insert ``line_addr`` speculatively (no demand completion)."""
        _, set_idx, tag = self._locate(line_addr)
        ways = self._sets[set_idx]
        if tag in ways or len(self._mshr) >= self.config.mshrs:
            return
        try:
            victim = self._select_victim(set_idx, now)
        except AllWaysBusy:
            return
        if victim is not None:
            self._evict(set_idx, victim, now, requestor)
        self._lru_clock += 1
        fill_done = self._next_access(now, line_addr, is_write=False,
                                      requestor=requestor)
        ways[tag] = CacheLine(tag=tag, ready_at=fill_done, lru=self._lru_clock)
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
        _, set_idx, tag = self._locate(addr)
        line = self._sets[set_idx].get(tag)
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
        _, set_idx, tag = self._locate(addr)
        line = self._sets[set_idx].pop(tag, None)
        if line is None:
            return False
        self._mshr.pop(addr & ~(self.config.line_bytes - 1), None)
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
        _, set_idx, tag = self._locate(addr)
        self._lru_clock += 1
        self._sets[set_idx][tag] = CacheLine(tag=tag, dirty=dirty, is_reg=is_reg,
                                             pin=pin, lru=self._lru_clock)

    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)


class AllWaysBusy(Exception):
    """Every way of a set holds an in-flight fill; retry at ``free_at``."""

    def __init__(self, free_at: int) -> None:
        super().__init__(f"all ways busy until {free_at}")
        self.free_at = free_at
