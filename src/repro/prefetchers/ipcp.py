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

from dataclasses import dataclass
from typing import List, Optional

from repro.prefetchers.base import Prefetcher
from repro.prefetchers.tables import LRUTable
from repro.sim.types import AccessResult, BLOCK_SHIFT


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

    # ------------------------------------------------------------------ #
    # The train path works on the tables' dicts directly, touching exactly
    # the entries ``LRUTable.get``/``put`` would, and packs each request
    # (``block << 1 | to_l1``, always an L1 fill) inline.
    def train(
        self, pc: int, address: int, cycle: int, result: Optional[AccessResult] = None
    ) -> List[int]:
        block = address >> BLOCK_SHIFT
        region, rest = divmod(address, self.region_size)
        offset = rest >> BLOCK_SHIFT

        # --- region-level dense-stream detector ---------------------------- #
        streams = self.region_streams._entries
        stream = streams.get(region)
        if stream is None:
            self.region_streams.put(
                region, _RegionStreamEntry(touched=1, last_offset=offset)
            )
            stream_dense = False
        else:
            streams.move_to_end(region)
            stream.touched += 1
            last_offset = stream.last_offset
            if last_offset >= 0 and offset == last_offset + 1:
                stream.ascending += 1
            elif offset != last_offset:
                stream.ascending = max(0, stream.ascending - 1)
            stream.last_offset = offset
            stream_dense = stream.touched >= 4 and stream.ascending >= 3

        key = pc & 0xFFFF
        ip_entries = self.ip_table._entries
        entry = ip_entries.get(key)
        if entry is None:
            self.ip_table.put(key, _IPEntry(last_block=block))
            return []
        ip_entries.move_to_end(key)

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
            cspt = self.cspt._entries
            signature = entry.signature
            cspt_entry = cspt.get(signature)
            if cspt_entry is not None:
                cspt.move_to_end(signature)
                predicted_stride, confidence = cspt_entry
                if predicted_stride == stride:
                    cspt_entry[1] = min(3, confidence + 1)
                else:
                    cspt_entry[1] = max(0, confidence - 1)
                    if cspt_entry[1] == 0:
                        cspt_entry[0] = stride
            else:
                self.cspt.put(signature, [stride, 1])
            signature = entry.signature = ((signature << 3) ^ (stride & 0x3F)) & 0xFFF

            # --- issue ----------------------------------------------------- #
            if stream_dense:
                requests = [(block + i) << 1 | 1 for i in range(1, self.gs_degree + 1)]
            elif entry.stride_confidence >= 2 and entry.last_stride != 0:
                last_stride = entry.last_stride
                for i in range(1, self.cs_degree + 1):
                    target = block + last_stride * i
                    if target < 0:
                        break
                    requests.append(target << 1 | 1)
            else:
                cspt_entry = cspt.get(signature)
                if cspt_entry is not None and cspt_entry[1] >= 2:
                    target = block + cspt_entry[0]
                    if target >= 0:
                        requests.append(target << 1 | 1)

        entry.last_block = block
        return requests

    def storage_bits(self) -> int:
        ip_table = self.ip_table.capacity * (16 + 7 + 2 + 12 + 1 + 8)
        cspt = self.cspt.capacity * (7 + 2)
        rst = self.region_streams.capacity * (36 + 7 + 6)
        return ip_table + cspt + rst

    def reset(self) -> None:
        self.ip_table.clear()
        self.cspt.clear()
        self.region_streams.clear()
