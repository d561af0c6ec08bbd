"""Name → factory registry for every prefetcher evaluated in the paper.

The names follow the labels used in the paper's figures so that experiment
definitions (``repro.experiments``) can refer to prefetchers by the same
strings the paper uses.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.prefetchers.base import Prefetcher
from repro.prefetchers.berti import BertiPrefetcher
from repro.prefetchers.bingo import BingoPrefetcher
from repro.prefetchers.bop import BestOffsetPrefetcher
from repro.prefetchers.dspatch import DSPatchPrefetcher
from repro.prefetchers.ip_stride import IPStridePrefetcher
from repro.prefetchers.ipcp import IPCPPrefetcher
from repro.prefetchers.multilevel import MultiLevelPrefetcher
from repro.prefetchers.next_line import NextLinePrefetcher
from repro.prefetchers.no_prefetch import NoPrefetcher
from repro.prefetchers.pmp import PMPPrefetcher
from repro.prefetchers.sms import SMSPrefetcher
from repro.prefetchers.spp import SPPPrefetcher
from repro.prefetchers.temporal import GHBMarkovPrefetcher, TriangelPrefetcher

PrefetcherFactory = Callable[..., Prefetcher]

_REGISTRY: Dict[str, PrefetcherFactory] = {}


def register_prefetcher(name: str, factory: PrefetcherFactory) -> None:
    """Register (or replace) a prefetcher factory under ``name``."""
    _REGISTRY[name.lower()] = factory


def create_prefetcher(name: str, **params) -> Prefetcher:
    """Instantiate the prefetcher registered as ``name``.

    Composite names of the form ``"<l1>+<l2>"`` build a
    :class:`MultiLevelPrefetcher` from two registered designs (Fig. 13).

    ``params`` are forwarded to the registered factory, so callers (most
    importantly the job engine, which ships only picklable descriptions of
    work to worker processes) can request configured instances by value:
    ``create_prefetcher("gaze", region_size=512)`` builds a
    :class:`~repro.core.gaze.GazePrefetcher` with a matching
    :class:`~repro.core.gaze.GazeConfig`.
    """
    key = name.lower()
    if key in _REGISTRY:
        factory = _REGISTRY[key]
        return factory(**params) if params else factory()
    if "+" in key:
        if params:
            raise ValueError(
                f"composite prefetcher {name!r} does not accept parameters"
            )
        l1_name, l2_name = key.split("+", 1)
        return MultiLevelPrefetcher(
            create_prefetcher(l1_name), create_prefetcher(l2_name)
        )
    raise KeyError(
        f"unknown prefetcher {name!r}; known: {', '.join(sorted(_REGISTRY))}"
    )


def available_prefetchers() -> List[str]:
    """Names of all registered single-level prefetchers."""
    return sorted(_REGISTRY)


def is_registered(name: str) -> bool:
    """Whether ``name`` resolves to a prefetcher, without instantiating it.

    Accepts the same composite ``"<l1>+<l2>"`` forms as
    :func:`create_prefetcher`.
    """
    key = name.lower()
    if key in _REGISTRY:
        return True
    if "+" in key:
        l1_name, l2_name = key.split("+", 1)
        return is_registered(l1_name) and is_registered(l2_name)
    return False


def _make_gaze(variant: str, **kwargs) -> Prefetcher:
    """Instantiate a Gaze variant, importing :mod:`repro.core` lazily.

    The lazy import avoids a circular dependency: ``repro.core`` modules use
    the table primitives of this package, so Gaze classes cannot be imported
    while ``repro.prefetchers`` itself is still initialising.
    """
    from repro.core.gaze import GazeConfig, GazePrefetcher
    from repro.core.variants import (
        GazePHTOnly,
        NInitialAccessGaze,
        OffsetOnlyPrefetcher,
        PCAddressPrefetcher,
        PCOnlyPrefetcher,
        StreamingOnlyGaze,
        VirtualGaze,
    )

    if variant == "gaze":
        # Keyword arguments are GazeConfig fields (Fig. 17 sweeps region and
        # PHT sizes through here without shipping live objects to workers).
        return GazePrefetcher(GazeConfig(**kwargs))

    # Every entry forwards kwargs, so configured creation either applies the
    # parameters or raises TypeError — never silently runs the default.
    constructors = {
        "gaze-pht": GazePHTOnly,
        "offset": OffsetOnlyPrefetcher,
        "pc": PCOnlyPrefetcher,
        "pc+addr": PCAddressPrefetcher,
        "pht4ss": lambda **kw: StreamingOnlyGaze(use_streaming_module=False, **kw),
        "sm4ss": lambda **kw: StreamingOnlyGaze(use_streaming_module=True, **kw),
        "gaze-n": NInitialAccessGaze,
        "vgaze": VirtualGaze,
    }
    return constructors[variant](**kwargs)


def _register_defaults() -> None:
    # Baselines and state-of-the-art designs from Table IV.
    register_prefetcher("none", NoPrefetcher)
    register_prefetcher("next-line", NextLinePrefetcher)
    register_prefetcher("ip-stride", IPStridePrefetcher)
    register_prefetcher("bop", BestOffsetPrefetcher)
    register_prefetcher("sms", SMSPrefetcher)
    register_prefetcher("bingo", BingoPrefetcher)
    register_prefetcher("dspatch", DSPatchPrefetcher)
    register_prefetcher("pmp", PMPPrefetcher)
    register_prefetcher("ipcp", IPCPPrefetcher)
    register_prefetcher("ipcp-l1", IPCPPrefetcher)
    register_prefetcher("spp-ppf", SPPPrefetcher)
    register_prefetcher("vberti", BertiPrefetcher)

    # The temporal (address-correlating) tier: the other side of the
    # paper's spatial-vs-temporal line (PAPERS.md: Triangel; GHB G/AC as
    # the classic Markov baseline).
    register_prefetcher("triangel", TriangelPrefetcher)
    register_prefetcher("ghb", GHBMarkovPrefetcher)

    # Gaze and its ablations, resolved lazily (see :func:`_make_gaze`).
    for variant in ("gaze", "gaze-pht", "offset", "pc", "pc+addr", "pht4ss", "sm4ss"):
        register_prefetcher(
            variant, lambda variant=variant, **kwargs: _make_gaze(variant, **kwargs)
        )
    for n in range(1, 5):
        register_prefetcher(
            f"gaze-n{n}", lambda n=n, **kwargs: _make_gaze("gaze-n", n=n, **kwargs)
        )
    for size_kb in (4, 8, 16, 32, 64):
        register_prefetcher(
            f"vgaze-{size_kb}kb",
            lambda size_kb=size_kb, **kwargs: _make_gaze(
                "vgaze", region_size=size_kb * 1024, **kwargs
            ),
        )


_register_defaults()
