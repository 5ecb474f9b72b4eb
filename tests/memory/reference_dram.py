"""Test-only reference model of the DRAM: the ``DRAM`` of
``repro/memory/dram.py`` as it was before its banks became a flat table,
kept verbatim as the model the production DRAM is compared against
(``test_reference_dram.py``).

It keeps the banks in a dict keyed by a ``(channel, bank)`` tuple, created
on first touch, the channel buses in a dict, and takes both reservations
with ``max()``.  The production DRAM indexes a list built up front
(``channel * banks_per_channel + bank``) and compares inline; nothing here
is imported by ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.memory.dram import DRAMConfig
from repro.memory.main_memory import LINE_BYTES
from repro.stats.counters import Stats


@dataclass(slots=True)
class _Bank:
    open_row: int = -1
    ready_at: int = 0


#: cells of the DRAM's :meth:`Stats.batch`, in the order ``__init__`` names
#: the keys
ROW_HITS, ROW_EMPTY, ROW_MISSES, READS, WRITES, BUSY_CYCLES = range(6)


class DRAM:
    """Open-page DRAM with per-bank row state and per-channel bus."""

    def __init__(self, config: DRAMConfig | None = None, stats: Stats | None = None) -> None:
        self.config = config or DRAMConfig()
        self.stats = stats if stats is not None else Stats("dram")
        #: per-request pending counts (see :meth:`Stats.batch`)
        self._pending = self.stats.batch(
            "row_hits", "row_empty", "row_misses", "reads", "writes",
            "busy_cycles")
        self._banks: Dict[Tuple[int, int], _Bank] = {}
        self._bus_free: Dict[int, int] = {c: 0 for c in range(self.config.channels)}

    # -- address mapping ----------------------------------------------------
    def map_address(self, line_addr: int) -> Tuple[int, int, int]:
        """Map a line address to ``(channel, bank, row)``.

        Consecutive lines interleave across channels then banks, which gives
        streaming workloads bank-level parallelism (as a real controller's
        XOR-interleaved mapping would).
        """
        cfg = self.config
        line = line_addr // LINE_BYTES
        channel = line % cfg.channels
        line //= cfg.channels
        bank = line % cfg.banks_per_channel
        line //= cfg.banks_per_channel
        row = line // (cfg.row_bytes // LINE_BYTES)
        return channel, bank, row

    # -- access ---------------------------------------------------------------
    def access(self, now: int, line_addr: int, is_write: bool = False,
               requestor: int = 0) -> int:
        """Service one line request presented at cycle ``now``.

        Returns the cycle at which the line's data is available at the DRAM
        pins (reads) or accepted (writes).  Bank and bus reservations are
        updated so later requests observe the contention.
        """
        cfg = self.config
        # :meth:`map_address`, inlined
        line, channel = divmod(line_addr // LINE_BYTES, cfg.channels)
        line, bank_idx = divmod(line, cfg.banks_per_channel)
        row = line // (cfg.row_bytes // LINE_BYTES)
        bank = self._banks.get((channel, bank_idx))
        if bank is None:
            bank = self._banks[(channel, bank_idx)] = _Bank()

        pending = self._pending
        start = max(now + cfg.t_controller, bank.ready_at)
        if bank.open_row == row:
            access_lat = cfg.t_cl
            pending[ROW_HITS] += 1
        elif bank.open_row < 0:
            access_lat = cfg.t_rcd + cfg.t_cl
            pending[ROW_EMPTY] += 1
        else:
            access_lat = cfg.t_rp + cfg.t_rcd + cfg.t_cl
            pending[ROW_MISSES] += 1
        bank.open_row = row

        data_ready = start + access_lat
        transfer_start = max(data_ready, self._bus_free[channel])
        complete = transfer_start + cfg.t_burst
        self._bus_free[channel] = complete
        bank.ready_at = complete

        pending[WRITES if is_write else READS] += 1
        pending[BUSY_CYCLES] += complete - start
        return complete

    def min_latency(self) -> int:
        """Best-case (row hit, idle) latency, used by tests and docs."""
        cfg = self.config
        return cfg.t_controller + cfg.t_cl + cfg.t_burst
