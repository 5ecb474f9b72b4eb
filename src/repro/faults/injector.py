"""Deterministic, seeded fault injection for register state (Layer 1).

ViReC's architectural bet is that register state may live in the dcache and
the memory below it (the dcache doubles as the register backing store,
Figure 13), so soft errors in three site classes become first-class
correctness hazards that a banked design does not share:

* **rf** — physical register-file slots (the VRMU's data array);
* **tag** — tag-store metadata (the CAM mapping thread/areg -> slot);
* **backing** — lines of the reserved register region in the dcache.

:class:`FaultInjector` flips bits at a configurable per-site per-cycle rate
(or at explicitly scheduled cycles) and models the protection schemes of
:mod:`repro.faults.schemes` when a corrupted site is next *used*.  Injection
timing is a deterministic rate accumulator — expected-count arithmetic, no
random draws — while victim selection uses a seeded PRNG, so a run is exactly
reproducible from ``(config, seed)`` and different seeds explore different
victim registers (the transient-retry story of the resilient sweep runner).

The subsystem is strictly opt-in: cores carry a ``fault_hook`` attribute
that defaults to ``None``, and every probe site guards on it, so runs
without an injector are bit-identical to a build without this package.

Counters (under the injector's ``Stats`` namespace, per core):
``faults_injected``, ``faults_detected``, ``faults_corrected``,
``faults_escaped``, ``faults_masked``, ``recovery_cycles``.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import FaultEscapeError
from ..isa.registers import NUM_ARCH_REGS, from_flat
from ..memory.main_memory import line_address
from ..stats.counters import Stats
from ..subsystems import parse_spec
from .schemes import SCHEMES, get_scheme

SITES = ("rf", "tag", "backing")


@dataclass(frozen=True)
class FaultConfig:
    """Injection campaign description (safe to embed in a RunConfig).

    Rates are per-site per-cycle flip probabilities in expectation: a class
    with ``n`` live sites accrues ``rate * n`` expected flips per cycle.
    ``scheduled`` lists explicit ``(cycle, site)`` injections on top of the
    rates (site in ``{"rf", "tag", "backing"}``).
    """

    rf_rate: float = 0.0
    tag_rate: float = 0.0
    backing_rate: float = 0.0
    scheme: str = "ecc"
    seed: int = 1
    scheduled: Tuple[Tuple[int, str], ...] = ()
    #: charged when refill recovery has no backing path to model (e.g. a
    #: banked core built without a context layout)
    refill_fallback_cycles: int = 40

    def __post_init__(self) -> None:
        get_scheme(self.scheme)
        for name in ("rf_rate", "tag_rate", "backing_rate"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for cycle, site in self.scheduled:
            if site not in SITES:
                raise ValueError(f"unknown fault site {site!r}; use {SITES}")
            if cycle < 0:
                raise ValueError("scheduled fault cycle must be >= 0")

    @property
    def enabled(self) -> bool:
        return bool(self.rf_rate or self.tag_rate or self.backing_rate
                    or self.scheduled)

    @classmethod
    def from_spec(cls, spec) -> "FaultConfig":
        """Normalize a FaultConfig, mapping, or None into a FaultConfig."""
        if spec is None:
            return cls()
        if isinstance(spec, Mapping) and "scheduled" in spec:
            spec = {**spec, "scheduled": tuple((int(c), str(s))
                                               for c, s in spec["scheduled"])}
        return parse_spec(cls, spec, "faults", accepts_true=False)

    def reseeded(self, seed: int) -> "FaultConfig":
        return replace(self, seed=seed)


class FaultInjector:
    """Per-core fault injection engine + protection-scheme model.

    Works on any :class:`~repro.core.base.TimelineCore`.  On cores with a
    VRMU (ViReC/NSF) it targets physical slots, tag entries, and backing
    lines; on banked-register cores it targets the per-thread banks (the
    only register storage such a design exposes), which is exactly the
    smaller escape surface the fault study measures.
    """

    def __init__(self, config: FaultConfig, core, stats: Optional[Stats] = None,
                 regs: Optional[Sequence[int]] = None) -> None:
        self.cfg = config
        self.scheme = get_scheme(config.scheme)
        self.core = core
        self.stats = stats if stats is not None else Stats("faults")
        self.rng = random.Random(config.seed)
        self.vrmu = getattr(core, "vrmu", None)
        layout = getattr(core, "layout", None)
        if regs is not None:
            self.regs: Tuple[int, ...] = tuple(int(r) for r in regs)
        elif layout is not None and getattr(layout, "used_regs", None):
            self.regs = tuple(layout.used_regs)
        else:
            self.regs = tuple(range(NUM_ARCH_REGS))
        self._threads = {th.tid: th for th in core.threads}
        self._backing_lines: List[int] = list(
            core.dcache.register_region_lines())
        # latent corruption marks (cleared when used, masked, or migrated)
        self._bad_slots: Dict[int, Tuple[int, int]] = {}  # slot -> (tid, areg)
        self._bad_tags: Dict[int, Tuple[int, int]] = {}
        self._bad_regs: Dict[Tuple[int, int], int] = {}   # (tid, flat) -> flips
        self._bad_lines: set = set()
        # deterministic rate accumulators
        self._last = 0
        self._accum = {site: 0.0 for site in SITES}
        self._sched = sorted(config.scheduled)
        self._sched_i = 0
        #: optional :class:`~repro.telemetry.CoreTelemetry` receiving one
        #: event per injected fault (strictly opt-in, observational only)
        self.event_sink = None

    # -- wiring ------------------------------------------------------------
    @classmethod
    def attach(cls, core, config: FaultConfig, stats: Optional[Stats] = None,
               regs: Optional[Sequence[int]] = None) -> "FaultInjector":
        """Build an injector and hook it into ``core``'s probe points."""
        inj = cls(config, core, stats=stats, regs=regs)
        core.fault_hook = inj
        if inj.vrmu is not None:
            inj.vrmu.fault_hook = inj
            core.bsi.fault_hook = inj
        return inj

    # -- site bookkeeping --------------------------------------------------
    def _site_count(self, site: str) -> int:
        if self.vrmu is not None:
            if site in ("rf", "tag"):
                return self.vrmu.tagstore.capacity
            return len(self._backing_lines)
        if site == "rf":
            return len(self._threads) * len(self.regs)
        return 0  # banked cores have no tag store / backing region in use

    def _rates(self):
        return (("rf", self.cfg.rf_rate), ("tag", self.cfg.tag_rate),
                ("backing", self.cfg.backing_rate))

    def _advance(self, t: int) -> None:
        """Accrue rate-driven and scheduled injections up to cycle ``t``."""
        if t > self._last:
            dt = t - self._last
            self._last = t
            for site, rate in self._rates():
                n = self._site_count(site)
                if rate <= 0.0 or n == 0:
                    continue
                acc = self._accum[site] + dt * rate * n
                k = int(acc)
                self._accum[site] = acc - k
                for _ in range(k):
                    self._inject(site)
        while (self._sched_i < len(self._sched)
               and self._sched[self._sched_i][0] <= t):
            self._inject(self._sched[self._sched_i][1])
            self._sched_i += 1

    # -- injection ---------------------------------------------------------
    def _inject(self, site: str) -> None:
        self.stats.inc("faults_injected")
        self.stats.inc(f"faults_injected_{site}")
        if self.event_sink is not None:
            self.event_sink.on_fault(site, self._last)
        if self.vrmu is None:
            if site != "rf":
                self.stats.inc("faults_masked")  # site class absent
                return
            tid = self.rng.choice(sorted(self._threads))
            flat = self.rng.choice(self.regs)
            self._bad_regs[(tid, flat)] = self._bad_regs.get((tid, flat), 0) + 1
            if not self.scheme.detects:
                self._flip_value(tid, flat)
            return
        ts = self.vrmu.tagstore
        if site == "backing":
            if not self._backing_lines:
                self.stats.inc("faults_masked")
                return
            self._bad_lines.add(self.rng.choice(self._backing_lines))
            return
        valid = ts.valid_slots()
        if not len(valid):
            self.stats.inc("faults_masked")  # flip landed in a dead slot
            return
        slot = int(valid[self.rng.randrange(len(valid))])
        info = (int(ts.owner[slot]), int(ts.areg[slot]))
        (self._bad_slots if site == "rf" else self._bad_tags)[slot] = info
        if not self.scheme.detects:
            # unprotected: the architectural value is corrupted on the spot
            # (a wrong tag makes the slot resolve to the wrong value, which
            # is indistinguishable from data corruption at this altitude)
            self._flip_value(*info)

    def _flip_value(self, tid: int, flat: int) -> None:
        """Flip one random bit of the architectural register value."""
        thread = self._threads.get(tid)
        if thread is None:
            self.stats.inc("faults_masked")
            return
        reg = from_flat(flat)
        value = thread.read(reg)
        bit = self.rng.randrange(64)
        if reg.is_fp:
            bits = struct.unpack("<Q", struct.pack("<d", float(value)))[0]
            value = struct.unpack("<d", struct.pack("<Q", bits ^ (1 << bit)))[0]
        else:
            value = int(value) ^ (1 << bit)
        thread.write(reg, value)
        self.stats.inc("bits_flipped")

    # -- protection-scheme dispatch ----------------------------------------
    def _handle_fault(self, t: int, site: str, clear, refill=None,
                      corrupt=None) -> int:
        """A corrupted site was used at cycle ``t``; apply the scheme.

        ``clear`` removes the latent mark; ``refill`` (optional) re-fetches
        a clean copy and returns its completion cycle; ``corrupt`` (optional)
        applies the architectural bit flip for the unprotected scheme when
        it was not already applied at injection time.
        """
        if not self.scheme.detects:
            if corrupt is not None:
                corrupt()
            self.stats.inc("faults_escaped")
            clear()
            return t
        self.stats.inc("faults_detected")
        if not self.scheme.corrects:
            self.stats.inc("faults_escaped")
            raise FaultEscapeError(
                f"parity-detected fault in {site} at cycle {t} cannot be "
                f"repaired; corrupted state would commit", site=site)
        if self.scheme.name == "ecc":
            clear()
            self.stats.inc("faults_corrected")
            self.stats.inc("recovery_cycles", self.scheme.correct_cycles)
            return t + self.scheme.correct_cycles
        # refill-from-backing-store recovery
        t0 = t + self.scheme.detect_cycles
        done = refill(t0) if refill is not None \
            else t0 + self.cfg.refill_fallback_cycles
        clear()
        self.stats.inc("faults_corrected")
        self.stats.inc("recovery_refills")
        self.stats.inc("recovery_cycles", max(0, done - t))
        return done

    # -- probe points (called from the cores; all opt-in) -------------------
    def on_instruction(self, thread, inst, t: int) -> int:
        """Per-instruction probe from the pipeline front end.

        Advances the injection clock; on banked-register cores also checks
        the instruction's operands against latent bank corruption.
        """
        self._advance(t)
        if self.vrmu is not None:
            return t  # slot-granular checks happen in on_slot_read
        srcs = set(inst.srcs)
        for reg in inst.dests:
            key = (thread.tid, reg.flat)
            if reg not in srcs and key in self._bad_regs:
                del self._bad_regs[key]  # overwritten before ever being read
                self.stats.inc("faults_masked")
        for reg in srcs:
            key = (thread.tid, reg.flat)
            if key in self._bad_regs:
                t = self._handle_fault(
                    t, "rf",
                    clear=lambda k=key: self._bad_regs.pop(k, None),
                    refill=lambda t0, th=thread, r=reg: self._refill_banked(
                        t0, th.tid, r.flat))
        return t

    def on_slot_read(self, tid: int, reg, slot: int, t: int,
                     is_read: bool = True) -> int:
        """Decode-stage probe from the VRMU for a resident slot hit."""
        ready = t
        for store, site in ((self._bad_tags, "tag"), (self._bad_slots, "rf")):
            info = store.get(slot)
            if info is None:
                continue
            if info != (tid, reg.flat):
                # the corrupted entry was spilled before this read: a data
                # flip now lives in the backing store (the dcache-as-backing
                # escape surface); a tag flip died with the eviction
                del store[slot]
                if site == "rf":
                    addr = self.core.layout.reg_addr(*info)
                    self._bad_lines.add(line_address(addr))
                    self.stats.inc("faults_spilled_to_backing")
                else:
                    self.stats.inc("faults_masked")
                continue
            if not is_read:
                del store[slot]  # destination-only write overwrites the flip
                self.stats.inc("faults_masked")
                continue
            ready = max(ready, self._handle_fault(
                t, site,
                clear=lambda s=store, k=slot: s.pop(k, None),
                refill=lambda t0, s=slot, i=info: self._refill_slot(t0, s, *i)))
        return ready

    def on_fill(self, tid: int, flat_reg: int, addr: int, t: int,
                done: int) -> int:
        """BSI probe: a register fill consumed a backing-store line."""
        line = line_address(addr)
        if line not in self._bad_lines:
            return done
        return max(done, self._handle_fault(
            done, "backing",
            clear=lambda: self._bad_lines.discard(line),
            refill=lambda t0, a=addr: self._refill_line(t0, a),
            corrupt=lambda: self._flip_value(tid, flat_reg)))

    # -- recovery actions ---------------------------------------------------
    def _refill_slot(self, t: int, slot: int, tid: int, areg: int) -> int:
        """Re-fetch a clean copy of (tid, areg) through the spill/fill path,
        leaving the mapping in place but pushing its fill-ready cycle."""
        done = self.vrmu.bsi.fill(t, tid, areg)
        self.vrmu.tagstore.refresh_fill(slot, done)
        return done

    def _refill_line(self, t: int, addr: int) -> int:
        """Backing line corrupted: drop it and re-fetch from the level below."""
        self.core.dcache.invalidate_line(addr)
        return self.core.dcache_request(t, addr, is_register=True)[1]

    def _refill_banked(self, t: int, tid: int, flat: int) -> int:
        """Banked bank entry corrupted: restore from the context save area."""
        layout = getattr(self.core, "layout", None)
        if layout is None:
            return t + self.cfg.refill_fallback_cycles
        return self.core.dcache_request(t, layout.reg_addr(tid, flat))[1]

    # -- reporting ----------------------------------------------------------
    def pending_faults(self) -> Dict[str, int]:
        """Latent (injected but not yet used) corruption, per site class."""
        return {"rf": len(self._bad_slots) + len(self._bad_regs),
                "tag": len(self._bad_tags), "backing": len(self._bad_lines)}
