"""Instruction Pointer Classifier-based Prefetching (IPCP).

Pakalapati & Panda, ISCA 2020.  IPCP classifies each load IP into one of
three classes and prefetches accordingly:

* **CS (constant stride)** -- the IP repeatedly strides by the same number of
  blocks; prefetch ``degree`` blocks along the stride.
* **CPLX (complex stride)** -- the IP's stride sequence is irregular but
  predictable through a signature built from recent strides; a Complex
  Stride Prediction Table (CSPT) maps the signature to the next stride with
  a confidence counter.
* **GS (global stream)** -- the IP participates in a dense, region-sized
  stream detected globally; prefetch aggressively ahead of the stream.

This is the L1D version evaluated in the paper (IPCP-L1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.prefetchers.base import Prefetcher
from repro.prefetchers.tables import LRUTable
from repro.sim.types import (
    AccessResult,
    BLOCK_SIZE,
    PrefetchHint,
    block_number,
    block_offset_in_region,
    region_number,
)


@dataclass(slots=True)
class _IPEntry:
    """Per-IP tracking state."""

    last_block: int = -1
    last_stride: int = 0
    stride_confidence: int = 0
    signature: int = 0
    stream_valid: bool = False


@dataclass(slots=True)
class _RegionStreamEntry:
    """Region-level dense-stream detector entry."""

    touched: int = 0
    last_offset: int = -1
    ascending: int = 0


class IPCPPrefetcher(Prefetcher):
    """Composite constant-stride / complex-stride / global-stream prefetcher."""

    name = "ipcp"

    def __init__(
        self,
        ip_table_entries: int = 64,
        cspt_entries: int = 128,
        region_stream_entries: int = 8,
        cs_degree: int = 4,
        gs_degree: int = 8,
        region_size: int = 4096,
    ) -> None:
        self.ip_table: LRUTable[int, _IPEntry] = LRUTable(ip_table_entries)
        self.cspt: LRUTable[int, List[int]] = LRUTable(cspt_entries)
        self.region_streams: LRUTable[int, _RegionStreamEntry] = LRUTable(
            region_stream_entries
        )
        self.cs_degree = cs_degree
        self.gs_degree = gs_degree
        self.region_size = region_size
        self.blocks = region_size // 64

    # ------------------------------------------------------------------ #
    def train(
        self, pc: int, address: int, cycle: int, result: Optional[AccessResult] = None
    ) -> List[int]:
        block = block_number(address)
        region = region_number(address, self.region_size)
        offset = block_offset_in_region(address, self.region_size)

        stream_dense = self._update_region_stream(region, offset)

        key = pc & 0xFFFF
        entry = self.ip_table.get(key)
        if entry is None:
            entry = _IPEntry(last_block=block)
            self.ip_table.put(key, entry)
            return []

        stride = block - entry.last_block
        requests: List[int] = []

        if stride != 0:
            # --- constant-stride classification -------------------------- #
            if stride == entry.last_stride:
                entry.stride_confidence = min(3, entry.stride_confidence + 1)
            else:
                entry.stride_confidence = max(0, entry.stride_confidence - 1)
                if entry.stride_confidence == 0:
                    entry.last_stride = stride

            # --- complex-stride signature --------------------------------- #
            cspt_entry = self.cspt.get(entry.signature)
            if cspt_entry is not None:
                predicted_stride, confidence = cspt_entry
                if predicted_stride == stride:
                    cspt_entry[1] = min(3, confidence + 1)
                else:
                    cspt_entry[1] = max(0, confidence - 1)
                    if cspt_entry[1] == 0:
                        cspt_entry[0] = stride
            else:
                self.cspt.put(entry.signature, [stride, 1])
            entry.signature = ((entry.signature << 3) ^ (stride & 0x3F)) & 0xFFF

            # --- issue ----------------------------------------------------- #
            if stream_dense:
                for i in range(1, self.gs_degree + 1):
                    requests.append(
                        self.request((block + i) * BLOCK_SIZE, PrefetchHint.L1)
                    )
            elif entry.stride_confidence >= 2 and entry.last_stride != 0:
                for i in range(1, self.cs_degree + 1):
                    target = block + entry.last_stride * i
                    if target < 0:
                        break
                    requests.append(
                        self.request(target * BLOCK_SIZE, PrefetchHint.L1)
                    )
            else:
                cspt_entry = self.cspt.get(entry.signature, touch=False)
                if cspt_entry is not None and cspt_entry[1] >= 2:
                    target = block + cspt_entry[0]
                    if target >= 0:
                        requests.append(
                            self.request(target * BLOCK_SIZE, PrefetchHint.L1)
                        )

        entry.last_block = block
        return requests

    def _update_region_stream(self, region: int, offset: int) -> bool:
        entry = self.region_streams.get(region)
        if entry is None:
            entry = _RegionStreamEntry(touched=1, last_offset=offset)
            self.region_streams.put(region, entry)
            return False
        entry.touched += 1
        if entry.last_offset >= 0 and offset == entry.last_offset + 1:
            entry.ascending += 1
        elif offset != entry.last_offset:
            entry.ascending = max(0, entry.ascending - 1)
        entry.last_offset = offset
        return entry.touched >= 4 and entry.ascending >= 3

    def storage_bits(self) -> int:
        ip_table = self.ip_table.capacity * (16 + 7 + 2 + 12 + 1 + 8)
        cspt = self.cspt.capacity * (7 + 2)
        rst = self.region_streams.capacity * (36 + 7 + 6)
        return ip_table + cspt + rst

    def reset(self) -> None:
        self.ip_table.clear()
        self.cspt.clear()
        self.region_streams.clear()
