"""DDR5-like DRAM timing model.

Models the DDR5_6400 configuration from Table 1 (1 rank, 2 channels,
tRP-tCL-tRCD = 14-14-14) at the granularity that matters for the paper's
workloads: row-buffer hits vs misses, bank-level parallelism, and per-channel
data-bus serialization.  All times are in *core* cycles of the 1 GHz
near-memory processors, so tRP=tCL=tRCD=14 cycles.

The model is reservation-based rather than ticked: a request presented at
cycle ``now`` computes its completion time from the addressed bank's state
and the channel bus queue, then reserves those resources.  This captures
contention between multiple processors (Figure 11) without a per-cycle DRAM
state machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..stats.counters import Stats
from .main_memory import LINE_BYTES


@dataclass
class DRAMConfig:
    """Timing/geometry parameters (defaults = Table 1, cycles @ 1 GHz)."""

    channels: int = 2
    banks_per_channel: int = 16
    t_rp: int = 14     # precharge
    t_rcd: int = 14    # activate (row to column delay)
    t_cl: int = 14     # CAS latency
    t_burst: int = 2   # 64B transfer on the channel bus
    row_bytes: int = 4096
    #: fixed controller/queueing overhead per request
    t_controller: int = 4

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if self.banks_per_channel < 1:
            raise ValueError(
                f"banks_per_channel must be >= 1, got {self.banks_per_channel}")
        if self.row_bytes < LINE_BYTES or self.row_bytes % LINE_BYTES:
            raise ValueError(f"row_bytes must be a positive multiple of "
                             f"{LINE_BYTES}, got {self.row_bytes}")
        for name in ("t_rp", "t_rcd", "t_cl", "t_burst", "t_controller"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}")


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
        #: bank ``(channel, bank)`` at ``channel * banks_per_channel + bank``
        self._banks: List[_Bank] = [
            _Bank() for _ in range(self.config.channels
                                   * self.config.banks_per_channel)]
        #: cycle each channel's data bus is next free
        self._bus_free: List[int] = [0] * self.config.channels

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
        banks_per_channel = cfg.banks_per_channel
        line, channel = divmod(line_addr // LINE_BYTES, cfg.channels)
        line, bank_idx = divmod(line, banks_per_channel)
        row = line // (cfg.row_bytes // LINE_BYTES)
        bank = self._banks[channel * banks_per_channel + bank_idx]

        pending = self._pending
        start = now + cfg.t_controller
        if bank.ready_at > start:
            start = bank.ready_at
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

        bus_free = self._bus_free
        transfer_start = start + access_lat
        if bus_free[channel] > transfer_start:
            transfer_start = bus_free[channel]
        complete = transfer_start + cfg.t_burst
        bus_free[channel] = complete
        bank.ready_at = complete

        pending[WRITES if is_write else READS] += 1
        pending[BUSY_CYCLES] += complete - start
        return complete

    def min_latency(self) -> int:
        """Best-case (row hit, idle) latency, used by tests and docs."""
        cfg = self.config
        return cfg.t_controller + cfg.t_cl + cfg.t_burst


def hbm_like_config() -> DRAMConfig:
    """HBM-class stack preset: many narrow channels, shorter queues.

    Near-memory proposals often sit on HBM-style stacks rather than DDR5
    DIMMs; this preset (8 channels x 8 banks, slightly longer CAS, faster
    burst) lets the sensitivity experiments ask how ViReC's conclusions
    move with the memory technology.
    """
    return DRAMConfig(channels=8, banks_per_channel=8,
                      t_rp=16, t_rcd=16, t_cl=16, t_burst=1,
                      row_bytes=2048, t_controller=3)
