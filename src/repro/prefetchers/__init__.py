"""Baseline hardware prefetchers evaluated against Gaze in the paper.

Every prefetcher implements :class:`repro.prefetchers.base.Prefetcher`:
``train(pc, address, cycle, result)`` consumes one demand load and returns a
list of packed prefetch requests, ints built by
:func:`repro.sim.types.pack_prefetch` (``block << 1 | to_l1``).  The
registry maps the names used throughout the paper's figures ("sms",
"bingo", "dspatch", "pmp", "ipcp", "spp-ppf", "vberti", "ip-stride",
"gaze", ...) to factories.
"""

from repro.prefetchers.base import Prefetcher, StatelessPrefetcher
from repro.prefetchers.no_prefetch import NoPrefetcher
from repro.prefetchers.next_line import NextLinePrefetcher
from repro.prefetchers.ip_stride import IPStridePrefetcher
from repro.prefetchers.bop import BestOffsetPrefetcher
from repro.prefetchers.sms import SMSPrefetcher
from repro.prefetchers.bingo import BingoPrefetcher
from repro.prefetchers.dspatch import DSPatchPrefetcher
from repro.prefetchers.pmp import PMPPrefetcher
from repro.prefetchers.ipcp import IPCPPrefetcher
from repro.prefetchers.spp import SPPPrefetcher
from repro.prefetchers.temporal import GHBMarkovPrefetcher, TriangelPrefetcher
from repro.prefetchers.berti import BertiPrefetcher
from repro.prefetchers.multilevel import MultiLevelPrefetcher
from repro.prefetchers.registry import (
    available_prefetchers,
    create_prefetcher,
    register_prefetcher,
)

__all__ = [
    "BertiPrefetcher",
    "BestOffsetPrefetcher",
    "BingoPrefetcher",
    "DSPatchPrefetcher",
    "GHBMarkovPrefetcher",
    "IPCPPrefetcher",
    "IPStridePrefetcher",
    "MultiLevelPrefetcher",
    "NextLinePrefetcher",
    "NoPrefetcher",
    "PMPPrefetcher",
    "Prefetcher",
    "SMSPrefetcher",
    "SPPPrefetcher",
    "StatelessPrefetcher",
    "TriangelPrefetcher",
    "available_prefetchers",
    "create_prefetcher",
    "register_prefetcher",
]
