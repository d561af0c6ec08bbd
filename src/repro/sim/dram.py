"""Main-memory timing model.

The model captures the two first-order effects the paper's evaluation relies
on:

* **Row-buffer locality** -- consecutive accesses to the same 2 KB row of a
  bank pay only CAS latency; a row conflict pays precharge + activate + CAS.
* **Channel bandwidth / queueing** -- every transfer occupies its channel's
  data bus for a number of cycles derived from the configured transfer rate
  (MT/s); requests that arrive while the channel is busy wait.  This is what
  makes aggressive-but-inaccurate prefetchers (PMP, DSPatch) degrade in
  multi-core and low-bandwidth configurations (Fig. 14 and Fig. 16a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.sim.config import DRAMConfig


@dataclass(slots=True)
class DRAMStats:
    """Aggregate counters kept by the DRAM model."""

    requests: int = 0
    demand_requests: int = 0
    prefetch_requests: int = 0
    row_hits: int = 0
    row_misses: int = 0
    total_queue_wait: int = 0
    total_service_cycles: int = 0

    @property
    def row_hit_rate(self) -> float:
        """Fraction of requests that hit in an open row buffer."""
        if not self.requests:
            return 0.0
        return self.row_hits / self.requests

    @property
    def average_queue_wait(self) -> float:
        """Mean cycles a request waited for its channel."""
        if not self.requests:
            return 0.0
        return self.total_queue_wait / self.requests


class DRAMModel:
    """Channel-occupancy main-memory model.

    The address is decomposed into (channel, bank, row) by simple bit
    slicing of the block number; the per-channel busy-until timestamp models
    bandwidth, the per-bank open row models row-buffer locality.

    Slotted: :meth:`access` runs once per LLC miss (and once per DRAM-bound
    prefetch) and reads most of these attributes each time.
    """

    __slots__ = (
        "config",
        "_channel_busy_until",
        "_bank_busy_until",
        "_open_row",
        "stats",
        "_blocks_per_row",
        "_banks_per_channel",
        "_channels",
        "_row_hit_latency",
        "_row_miss_latency",
        "_transfer_cycles",
        "_row_divisor",
    )

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        self._channel_busy_until: List[float] = [0.0] * config.channels
        self._bank_busy_until: Dict[int, float] = {}
        self._open_row: Dict[int, int] = {}
        self.stats = DRAMStats()
        self._blocks_per_row = max(1, config.row_buffer_bytes // 64)
        self._banks_per_channel = config.ranks_per_channel * config.banks_per_rank
        # Hot-path constants hoisted out of the per-request config properties.
        self._channels = config.channels
        self._row_hit_latency = config.row_hit_latency_cycles
        self._row_miss_latency = config.row_miss_latency_cycles
        self._transfer_cycles = config.transfer_cycles_per_block
        self._row_divisor = self._blocks_per_row * config.channels

    # ------------------------------------------------------------------ #
    # Address mapping
    # ------------------------------------------------------------------ #
    def channel_of(self, block: int) -> int:
        """Channel a block maps to (block-interleaved)."""
        return block % self._channels

    def bank_of(self, block: int) -> int:
        """Global bank index a block maps to."""
        channel = block % self._channels
        bank_in_channel = (block // self._channels) % self._banks_per_channel
        return channel * self._banks_per_channel + bank_in_channel

    def row_of(self, block: int) -> int:
        """Row number (within its bank) a block maps to."""
        return block // self._row_divisor

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def access(self, block: int, cycle: int, is_prefetch: bool = False) -> int:
        """Serve a request for ``block`` arriving at ``cycle``.

        Returns the total latency in CPU cycles (queueing + array access +
        transfer) and advances the channel/bank state.
        """
        # Everything is bound to locals and the ``max`` builtins are
        # unrolled into comparisons — this function runs once per LLC miss
        # and once per DRAM-bound prefetch, which makes it one of the
        # hottest leaves of the simulator.  The arithmetic (and therefore
        # every returned latency) is unchanged operation-for-operation.
        channels = self._channels
        banks_per_channel = self._banks_per_channel
        channel = block % channels
        bank = channel * banks_per_channel + (block // channels) % banks_per_channel
        row = block // self._row_divisor

        stats = self.stats
        open_row = self._open_row
        if open_row.get(bank) == row:
            array_latency = self._row_hit_latency
            stats.row_hits += 1
        else:
            array_latency = self._row_miss_latency
            stats.row_misses += 1
            open_row[bank] = row

        # The bank is occupied for the array access, the channel data bus
        # only for the burst transfer; queueing reflects whichever resource
        # the request has to wait for.
        bank_busy = self._bank_busy_until
        bank_wait = bank_busy.get(bank, 0.0) - cycle
        if bank_wait < 0.0:
            bank_wait = 0.0
        array_done = cycle + bank_wait + array_latency
        bank_busy[bank] = array_done

        transfer = self._transfer_cycles
        channel_busy = self._channel_busy_until
        bus_start = channel_busy[channel]
        if array_done > bus_start:
            bus_start = array_done
        bus_done = bus_start + transfer
        channel_busy[channel] = bus_done

        bus_wait = bus_start - array_done
        queue_wait = bank_wait + (bus_wait if bus_wait > 0.0 else 0.0)
        total_latency = bus_done - cycle

        stats.requests += 1
        if is_prefetch:
            stats.prefetch_requests += 1
        else:
            stats.demand_requests += 1
        stats.total_queue_wait += int(queue_wait)
        stats.total_service_cycles += int(array_latency + transfer)

        return int(round(total_latency))

    def reset(self) -> None:
        """Clear all timing state and statistics."""
        self._channel_busy_until = [0.0] * self.config.channels
        self._bank_busy_until.clear()
        self._open_row.clear()
        self.stats = DRAMStats()
