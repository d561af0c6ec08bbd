"""Multi-core simulation driver.

Models an ``n``-core system in which each core has private L1D/L2C caches,
its own prefetcher instance and its own timing model, while the LLC and the
DRAM channels are shared.  Mixes follow the paper's methodology: a
*homogeneous* mix runs ``n`` copies of one trace; a *heterogeneous* mix runs
``n`` different traces.  A core that exhausts its instruction budget keeps
replaying its trace (to keep pressuring shared resources) but stops
accumulating statistics: its measured instruction/cycle totals are
snapshotted the moment the budget is exhausted, and every later counter
update lands in a discarded sink.

Cores are interleaved access-by-access in a round-robin fashion, so
contention appears through the shared LLC contents and through the DRAM
channel-occupancy model.  :meth:`_CoreContext.step` executes one access of
one core, read from the core's decoded trace columns (the single-core
simulator's cursor, :class:`~repro.sim.simulator._TraceReplayer`); it is
the single Python model of a mix.

Under ``kernel="compiled"`` the same schedule runs in the C driver when
the extension is built: every core attaches a
:class:`~repro.sim.driver.CompiledDriver`, the kernels share one LLC and
DRAM state, and the C loop hands control back only to close a core's
measurement (see :mod:`repro.sim.driver`).  If any core declines, or a
trace is a file-backed handle, the whole mix runs :meth:`_CoreContext.step`
and the reason is kept in
:attr:`MultiCoreSimulator.kernel_decline_reason`.  Statistics are
bit-identical either way.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.sim.cache import Cache
from repro.sim.config import SystemConfig, default_system_config
from repro.sim.cpu import CoreTimingModel
from repro.sim.dram import DRAMModel
from repro.sim.hierarchy import CacheHierarchy
from repro.sim.simulator import KERNEL_MODES, _TraceReplayer, resolve_kernel
from repro.sim.stats import MultiCoreStats, SimulationStats
from repro.sim.types import MemoryAccess


class _CoreContext:
    """Per-core bookkeeping used by the multi-core driver."""

    __slots__ = (
        "core_id",
        "prefetcher",
        "stats",
        "hierarchy",
        "core",
        "replayer",
        "executed_instructions",
        "budget",
        "measuring",
        "driver",
    )

    def __init__(
        self,
        core_id: int,
        config: SystemConfig,
        prefetcher,
        trace,
        shared_llc: Cache,
        shared_dram: DRAMModel,
        name: str,
    ) -> None:
        self.core_id = core_id
        self.prefetcher = prefetcher
        self.stats = SimulationStats(
            name=name,
            prefetcher=getattr(prefetcher, "name", "none") if prefetcher else "none",
        )
        self.hierarchy = CacheHierarchy(
            config, stats=self.stats, shared_llc=shared_llc, shared_dram=shared_dram
        )
        self.core = CoreTimingModel(config.core)
        if prefetcher is not None and hasattr(prefetcher, "on_cache_eviction"):
            listeners = self.hierarchy.l1d.eviction_listeners
            # Bound method (identity-comparable) instead of a per-instance
            # lambda; guards against stacking a duplicate listener when a
            # prefetcher/hierarchy pairing is rewired.
            if self._notify_prefetcher_eviction not in listeners:
                listeners.append(self._notify_prefetcher_eviction)
        # Mixes replay traces indefinitely to keep pressuring shared
        # resources, so the source must be replayable: materialized traces
        # and re-openable handles (TraceFile) are used as-is — the latter
        # replay by re-opening, keeping memory O(chunk) — while one-shot
        # iterators are materialized.
        if hasattr(trace, "__next__"):
            trace = list(trace)
        self.replayer = _TraceReplayer(trace)
        self.executed_instructions = 0
        self.budget = 0
        self.measuring = True
        #: The attached :class:`~repro.sim.driver.CompiledDriver` while the
        #: mix runs in C, else ``None``.
        self.driver = None

    def _notify_prefetcher_eviction(self, victim) -> None:
        """Forward an L1D eviction to the prefetcher's region deactivation."""
        self.prefetcher.on_cache_eviction(victim.block)

    def step(self) -> None:
        """Execute one memory access (plus its preceding non-memory gap)."""
        core = self.core
        hierarchy = self.hierarchy
        prefetcher = self.prefetcher
        replayer = self.replayer
        batched = replayer._batched
        index = replayer._index
        gap = batched.gaps[index]
        kind = batched.kinds[index]
        address = batched.addresses[index]
        pc = batched.pcs[index]
        index += 1
        if index < len(batched.addresses):
            replayer._index = index
        else:
            replayer.wrap()
        if gap > 0:
            core.advance_non_memory(gap)
        issue_cycle = core.begin_memory_access()
        executed = self.executed_instructions + gap + 1
        self.executed_instructions = executed

        hierarchy.issue_queued_prefetches(issue_cycle)
        result = hierarchy.demand_access(address, issue_cycle, kind == 1)
        core.complete_memory_access(result.latency)

        if kind == 0 and prefetcher is not None:
            requests = prefetcher.train(pc, address, issue_cycle, result)
            if requests:
                hierarchy.enqueue_prefetches(requests)

        if self.measuring and executed >= self.budget:
            self.close_measurement()

    def close_measurement(self) -> None:
        """Freeze this core's measured statistics at budget exhaustion.

        The instruction/cycle totals are snapshotted *now* (so a finished
        core's IPC cannot drift with the overall mix length) and the
        hierarchy's statistics target is swapped to a discarded sink: the
        core keeps running — keeps demanding, prefetching and occupying the
        shared LLC/DRAM — but no longer pollutes its measured counters.
        A core running in the C driver first syncs its core model and
        drains its stat deltas, so both cover exactly the accesses so far.
        """
        self.measuring = False
        if self.driver is not None:
            self.driver.sync()
        instructions, cycles = self.core.progress_totals()
        self.stats.instructions = instructions
        self.stats.cycles = cycles
        self.hierarchy.stats = SimulationStats(
            name=self.stats.name, prefetcher=self.stats.prefetcher
        )

    def finalize(self) -> SimulationStats:
        """Return the measured statistics (closing measurement if needed)."""
        if self.measuring:
            self.close_measurement()
        return self.stats


class MultiCoreSimulator:
    """Runs an ``n``-core mix with a shared LLC and DRAM."""

    __slots__ = (
        "config",
        "num_cores",
        "prefetcher_factory",
        "name",
        "kernel",
        "kernel_decline_reason",
    )

    def __init__(
        self,
        num_cores: int,
        prefetcher_factory: Optional[Callable[[], object]] = None,
        config: Optional[SystemConfig] = None,
        name: str = "",
        kernel: str = "auto",
    ) -> None:
        if num_cores < 1:
            raise ValueError("num_cores must be >= 1")
        if kernel not in KERNEL_MODES:
            raise ValueError(
                f"unknown kernel mode {kernel!r}; expected one of {KERNEL_MODES}"
            )
        base = config if config is not None else default_system_config(num_cores)
        self.config = base.scaled_for_cores(num_cores)
        self.num_cores = num_cores
        self.prefetcher_factory = prefetcher_factory
        self.name = name
        #: Requested tier (see :data:`~repro.sim.simulator.KERNEL_MODES`):
        #: ``"compiled"`` runs the whole mix in the C driver when every
        #: core can attach one.
        self.kernel = kernel
        #: Why the last ``kernel="compiled"`` run fell back to
        #: :meth:`_run_exact` (``None`` when it ran in C, or was not asked to).
        self.kernel_decline_reason: Optional[str] = None

    def run(
        self,
        traces: Sequence,
        max_instructions_per_core: int,
    ) -> MultiCoreStats:
        """Simulate the mix; ``traces`` must contain one trace per core.

        Each entry may be a materialized access sequence, a
        :class:`~repro.sim.batch.BatchedTrace` or a re-openable streaming
        handle (:class:`repro.workloads.formats.TraceFile`); handles are
        replayed by re-opening, so an n-core mix over file traces runs in
        O(chunk) memory per core.  ``max_instructions_per_core`` must be
        at least 1.

        Every call starts from a cold shared LLC and DRAM, so repeated runs
        on one simulator equal runs on fresh ones.
        """
        if max_instructions_per_core < 1:
            raise ValueError(
                "max_instructions_per_core must be at least 1, "
                f"got {max_instructions_per_core}"
            )
        if len(traces) != self.num_cores:
            raise ValueError(
                f"expected {self.num_cores} traces, got {len(traces)}"
            )
        shared_llc = Cache(self.config.llc)
        shared_dram = DRAMModel(self.config.dram)
        contexts: List[_CoreContext] = []
        for core_id, trace in enumerate(traces):
            prefetcher = (
                resolve_kernel(self.prefetcher_factory(), self.kernel)
                if self.prefetcher_factory
                else None
            )
            context = _CoreContext(
                core_id=core_id,
                config=self.config,
                prefetcher=prefetcher,
                trace=trace,
                shared_llc=shared_llc,
                shared_dram=shared_dram,
                name=f"{self.name}.core{core_id}",
            )
            context.budget = max_instructions_per_core
            contexts.append(context)

        self.kernel_decline_reason = None
        if self.kernel == "compiled":
            self._run_compiled(contexts)
        else:
            self._run_exact(contexts)

        result = MultiCoreStats(
            name=self.name,
            prefetcher=contexts[0].stats.prefetcher if contexts else "none",
        )
        for context in contexts:
            result.per_core[context.core_id] = context.finalize()
            # The contexts exist only for this run: break their reference
            # cycles so they are freed as soon as it returns.
            context.driver = None
            context.hierarchy.unlink_listeners()
        return result

    def _run_compiled(self, contexts: List[_CoreContext]) -> None:
        """The exact schedule in the C driver, or :meth:`_run_exact`.

        Every core must attach a driver (the same decline predicate as a
        single-core run) and every trace must be one materialized
        :class:`~repro.sim.batch.BatchedTrace`, whose columns the C loop
        reads as they are; otherwise the whole mix runs in Python and the
        reason is recorded.
        """
        from repro.sim.driver import CompiledDriver, run_mix

        drivers = []
        reason = None
        if any(context.replayer._stream is not None for context in contexts):
            reason = "file-backed trace handle in mix"
        else:
            for context in contexts:
                driver, reason = CompiledDriver.try_attach(
                    context, shared=drivers[0] if drivers else None
                )
                if driver is None:
                    break
                drivers.append(driver)
        if reason is not None:
            self.kernel_decline_reason = reason
            self._run_exact(contexts)
            return
        for context, driver in zip(contexts, drivers):
            context.driver = driver
        run_mix(contexts, drivers, [context.replayer._batched for context in contexts])

    def _run_exact(self, contexts: List[_CoreContext]) -> None:
        """Round-robin access-by-access interleaving."""
        while any(context.measuring for context in contexts):
            for context in contexts:
                # Finished cores keep stepping to exert shared-resource
                # pressure (their stats are gated), but only for as long as
                # someone is still measuring.
                context.step()


def simulate_mix(
    traces: Sequence[Sequence[MemoryAccess]],
    prefetcher_factory: Optional[Callable[[], object]] = None,
    config: Optional[SystemConfig] = None,
    max_instructions_per_core: int = 50_000,
    name: str = "",
    kernel: str = "auto",
) -> MultiCoreStats:
    """Convenience wrapper around :class:`MultiCoreSimulator`."""
    simulator = MultiCoreSimulator(
        num_cores=len(traces),
        prefetcher_factory=prefetcher_factory,
        config=config,
        name=name,
        kernel=kernel,
    )
    return simulator.run(
        traces,
        max_instructions_per_core=max_instructions_per_core,
    )
