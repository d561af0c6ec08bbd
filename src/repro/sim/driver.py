"""Compiled batched driver: glue between the simulator and ``DriverKernel``.

When the optional C extension :mod:`repro._kernels` is built, the whole
batched driver loop — cache probes, MSHR/DRAM/core timing,
prefetch-queue drain and prefetcher training — can run inside the
extension's ``DriverKernel`` instead of
:meth:`~repro.sim.simulator.SingleCoreSimulator._execute_batched`, and a
multi-core mix's whole round-robin schedule can run there instead of
:meth:`~repro.sim.multicore.MultiCoreSimulator._run_exact`.  This
module decides *whether* the C driver may engage for a given simulator
(every geometry/listener/quiescence condition the C port relies on must
hold), ships the live Python state into the kernel at attach
time, keeps the Python-visible core/statistics state in sync after every
batch call, and leaves the rest of the hierarchy in C until it is read.

Engagement is opt-in (``kernel="compiled"``) and conservative:
:meth:`CompiledDriver.try_attach` declines — with a human-readable reason
recorded as ``kernel_decline_reason`` — whenever the run shape or the
hierarchy geometry is one the C port does not replicate bit-exactly, and
the caller falls back to the Python driver.  Every prefetcher runs in C:

=====================  ==============================================
prefetcher             C driver path
=====================  ==============================================
``None``               per-access loop
vBerti (compiled)      per-access loop + ``BertiKernel`` train
Gaze (compiled)        per-access loop + ``GazeKernel`` train/evict
PMP (compiled)         per-access loop + ``PMPKernel`` train/evict
Triangel (compiled)    per-access loop + ``TriangelKernel`` train
                       (the L1-hit training gate applied natively)
any other object       per-access loop + one Python ``train`` call per
                       load and one ``on_cache_eviction`` call per L1
                       eviction (only when the hook overrides the
                       base-class no-op)
N-core mix             round-robin ``run_mix`` loop, one kernel per
                       core with any of the prefetchers above, one
                       LLC/DRAM state shared by all cores
=====================  ==============================================

What is left to decline is an extension built from an older
``_kernels.c`` (its ``KERNELS_ABI`` differs), geometry and run shape:
``batch="off"``, non-plain cache or DRAM objects, non-power-of-two set
counts, extra eviction listeners, or a hierarchy with prefetches in
flight.  Every trace source reaches the driver as decoded columns,
one-shot iterators included.

**The Python callback protocol.**  ``train(pc, address, cycle, result)``
receives one of five ``AccessResult`` objects the kernel reuses for every
call (one per serving level plus one for late prefetches), mutated exactly
as the Python driver mutates its own, so a prefetcher must not keep a
reference to ``result`` beyond the call.  ``train`` returns packed ints
(:func:`~repro.sim.types.pack_prefetch`: ``block << 1 | to_l1``), which
enter the PQ as they are, with the usual accounting; an item that is not
an int raises ``TypeError``.  The hierarchy's cache, MSHR and DRAM state
lives in C while the run is in progress, so a prefetcher must not read it
from a callback; no registered design does.  An exception raised by
either callback aborts the run and propagates unchanged; prefetches still
queued at that point are dropped.

**N-core mixes.**  :class:`~repro.sim.multicore.MultiCoreSimulator`
under ``kernel="compiled"`` attaches one driver per core with
:meth:`CompiledDriver.try_attach` — the same decline predicate, so one
declining core (or one file-backed trace) sends the whole mix back to
the Python schedule.  The first core's kernel owns the LLC tags/flags and
the DRAM bank/row/channel state; every later kernel is built with
``shared=<first kernel>`` and borrows it.  Each core keeps its private
L1/L2, MSHR file, prefetch queue, core clock and stat deltas, including
its own share of the LLC and DRAM counters.  :func:`run_mix` hands the
kernels to ``_kernels.run_mix``, which steps the cores exactly like
``_run_exact`` (replaying each trace on exhaust) and returns the moment a
measuring core reaches its budget.  Python then runs that core's
``close_measurement``: :meth:`CompiledDriver.sync` writes the core model
and drains the stat deltas into the measured statistics, the totals are
snapshotted, and the hierarchy's statistics target becomes the discarded
sink.  The loop resumes with the next core.  At the end every driver
syncs once more; a mix never flushes and never exports its hierarchies.

**Detach is stats-only.**  ``run`` ends with :meth:`CompiledDriver.flush`
(the C twin of ``CacheHierarchy.flush_prefetches``); :meth:`detach` then
syncs only the core model and the statistics.  The cache, MSHR and DRAM
contents stay in the kernel and are exported by
:func:`export_hierarchy` the first time a caller reads the simulator's
``hierarchy`` (or before its next run attaches), so engine jobs that
discard the simulator never pay for the export.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.prefetchers.compiled import _kernels, kernels_decline_reason
from repro.sim.cache import Cache, CacheBlock, MSHREntry
from repro.sim.dram import DRAMModel
from repro.sim.simulator import batched_decline_reason
from repro.sim.types import AccessResult

#: ``ptype`` codes understood by ``DriverKernel`` (must match _kernels.c).
PF_NONE = 0
PF_BERTI = 1
PF_GAZE = 2
PF_PMP = 3
PF_TRIANGEL = 4
PF_PYTHON = 5

#: Cache-block flag bits used by ``load_cache``/``export_cache``.
_F_PREFETCHED = 1
_F_USEFUL = 2
_F_FROM_DRAM = 4
_F_DIRTY = 8
_F_COUNTED = 16


def driver_available() -> bool:
    """Whether the loaded extension exposes the batched ``DriverKernel``.

    :meth:`CompiledDriver.try_attach` also declines a build whose
    ``KERNELS_ABI`` differs from this tree's
    (:func:`~repro.prefetchers.compiled.kernels_decline_reason`).
    """
    return _kernels is not None and hasattr(_kernels, "DriverKernel")


def _classify(prefetcher) -> Tuple[int, object, object]:
    """Map ``prefetcher`` to a ``(ptype, train_kernel, evict_hook)``.

    The exact compiled twin classes run their C train kernel in-process
    (their construction enforced the geometry limits).  Every other
    prefetcher — including subclasses of the twins — is hosted through
    Python callbacks: ``train_kernel`` is its bound ``train`` and
    ``evict_hook`` its ``on_cache_eviction``, or ``None`` when it has no
    hook or only the base-class no-op.
    """
    if prefetcher is None:
        return PF_NONE, None, None
    from repro.prefetchers.base import Prefetcher
    from repro.prefetchers.compiled import (
        CompiledBertiPrefetcher,
        CompiledGazePrefetcher,
        CompiledPMPPrefetcher,
        CompiledTriangelPrefetcher,
    )

    ptype = {
        CompiledBertiPrefetcher: PF_BERTI,
        CompiledGazePrefetcher: PF_GAZE,
        CompiledPMPPrefetcher: PF_PMP,
        CompiledTriangelPrefetcher: PF_TRIANGEL,
    }.get(type(prefetcher))
    hook = getattr(prefetcher, "on_cache_eviction", None)
    if getattr(hook, "__func__", None) is Prefetcher.on_cache_eviction:
        hook = None
    if ptype in (PF_BERTI, PF_TRIANGEL) and hook is not None:
        # Their C kernels never see L1 evictions; an override needs the
        # callback path.
        ptype = None
    if ptype is None:
        return PF_PYTHON, prefetcher.train, hook
    return ptype, getattr(prefetcher, "_kernel", None), None


def _cache_items(cache: Cache):
    """Flatten a cache into ``(block, flags)`` rows, per-set LRU->MRU."""
    items = []
    append = items.append
    for cache_set in cache._sets:
        for block, entry in cache_set.items():
            flags = 0
            if entry.prefetched:
                flags |= _F_PREFETCHED
            if entry.prefetch_useful:
                flags |= _F_USEFUL
            if entry.from_dram:
                flags |= _F_FROM_DRAM
            if entry.dirty:
                flags |= _F_DIRTY
            if entry.useful_counted:
                flags |= _F_COUNTED
            append((block, flags))
    return items


class CompiledDriver:
    """One attached ``DriverKernel`` driving one simulator's batched runs."""

    __slots__ = ("_kernel", "_sim")

    def __init__(self, kernel, sim) -> None:
        self._kernel = kernel
        self._sim = sim

    # ------------------------------------------------------------------ #
    # Attach
    # ------------------------------------------------------------------ #
    @staticmethod
    def try_attach(
        sim, shared: Optional["CompiledDriver"] = None
    ) -> Tuple[Optional["CompiledDriver"], Optional[str]]:
        """Build an attached driver for ``sim``, or ``(None, reason)``.

        ``sim`` is a :class:`~repro.sim.simulator.SingleCoreSimulator` or
        one core of a mix (:class:`~repro.sim.multicore._CoreContext`);
        both expose ``hierarchy``, ``prefetcher``, ``core`` and
        ``_notify_prefetcher_eviction``.  With ``shared`` (the driver of
        a mix's first core) the kernel borrows that driver's LLC and DRAM
        state instead of loading its own copy.

        The geometry check is the batched kernel's own
        (:func:`~repro.sim.simulator.batched_decline_reason`); on top of it
        the C port needs a plain DRAM model, the default eviction
        listeners and the quiescence its state transfer requires.  Any
        mismatch falls back to the Python driver, which handles every
        configuration.
        """
        reason = kernels_decline_reason()
        if reason is not None:
            return None, reason
        hierarchy = sim.hierarchy
        reason = batched_decline_reason(hierarchy)
        if reason is not None:
            return None, reason
        l1d = hierarchy.l1d
        l2c = hierarchy.l2c
        llc = hierarchy.llc
        dram = hierarchy.dram
        if type(dram) is not DRAMModel:
            return None, "non-plain DRAM model"

        prefetcher = sim.prefetcher
        expected_l1 = [hierarchy._count_useless_eviction]
        # The simulator registers its forwarding listener only for
        # prefetchers that have the hook at all (duck-typed ones may not).
        if prefetcher is not None and hasattr(prefetcher, "on_cache_eviction"):
            expected_l1.append(sim._notify_prefetcher_eviction)
        if l1d.eviction_listeners != expected_l1:
            return None, "custom L1D eviction listeners"
        if l2c.eviction_listeners != [hierarchy._count_useless_eviction]:
            return None, "custom L2C eviction listeners"
        if llc.eviction_listeners:
            return None, "LLC has eviction listeners"

        mshr = hierarchy.l1_mshr
        pq = hierarchy.prefetch_queue
        if mshr._entries or pq.pending:
            return None, "hierarchy not quiescent (in-flight prefetches)"

        ptype, train_kernel, evict_hook = _classify(prefetcher)
        results = None
        if ptype == PF_PYTHON:
            # The Python driver's per-level reusable results, same order
            # as the kernel's RES_* indices.
            results = (
                AccessResult(hierarchy._lat_l1, "L1D", False, False),
                AccessResult(hierarchy._lat_l2, "L2C", False, False),
                AccessResult(hierarchy._lat_llc, "LLC", False, False),
                AccessResult(0, "DRAM", False, False),
                AccessResult(0, "L1D", False, False),
            )
        core = sim.core
        kernel = _kernels.DriverKernel(
            l1_sets=l1d._set_count,
            l1_ways=l1d._ways,
            l2_sets=l2c._set_count,
            l2_ways=l2c._ways,
            llc_sets=llc._set_count,
            llc_ways=llc._ways,
            lat_l1=hierarchy._lat_l1,
            lat_l2=hierarchy._lat_l2,
            lat_llc=hierarchy._lat_llc,
            lat_l2_source=hierarchy._lat_l2_source,
            lat_llc_source=hierarchy._lat_llc_source,
            mshr_capacity=mshr.capacity,
            pq_capacity=pq.capacity,
            pq_drain=pq.drain_per_access,
            dram_channels=dram._channels,
            dram_banks=dram._banks_per_channel,
            dram_row_div=dram._row_divisor,
            dram_row_hit=dram._row_hit_latency,
            dram_row_miss=dram._row_miss_latency,
            dram_transfer=float(dram._transfer_cycles),
            width=core._width,
            fetch_increment=core._fetch_increment,
            rob=core._rob_size,
            lq=core._load_queue_size,
            miss_limit=core._miss_limit,
            miss_threshold=core._miss_threshold,
            ptype=ptype,
            kernel=train_kernel,
            evict=evict_hook,
            results=results,
            shared=None if shared is None else shared._kernel,
        )
        kernel.load_cache(1, _cache_items(l1d))
        kernel.load_cache(2, _cache_items(l2c))
        kernel.load_core(
            core._instr_count,
            core._fetch_cycle,
            core._last_retire_cycle,
            core._issue_cycle,
            list(core._outstanding),
            list(core._outstanding_misses),
        )
        if shared is None:
            kernel.load_cache(3, _cache_items(llc))
            kernel.load_dram(
                list(dram._open_row.items()),
                list(dram._bank_busy_until.items()),
                list(dram._channel_busy_until),
            )
        return CompiledDriver(kernel, sim), None

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run_batch(self, replayer, instruction_budget: Optional[int]) -> None:
        """Run one ``_execute_batched`` call's worth of trace in C.

        ``replayer._batched`` holds the current
        :class:`~repro.sim.batch.BatchedTrace` (a whole trace or one
        streamed chunk); position/replay bookkeeping
        round-trips through the kernel so chunked resume, warmup cuts and
        budget cuts behave exactly like the Python driver.  Core progress
        and statistics sync back *every* call: the simulator reads
        ``core._instr_count`` between chunks and swaps the stats object at
        the warmup boundary.
        """
        trace = replayer._batched
        budget = -1 if instruction_budget is None else instruction_budget
        index, replays = self._kernel.run(
            trace.addresses,
            trace.pcs,
            trace.blocks,
            trace.gaps,
            trace.kinds,
            replayer._index,
            budget,
            replayer.replays,
        )
        replayer._index = index
        replayer.replays = replays
        self.sync()

    def sync(self) -> None:
        """Write the kernel's core state and stat deltas onto the live objects."""
        self._sync_core_out()
        self._drain_stats()

    def _sync_core_out(self) -> None:
        """Write the kernel's core-model state onto the live Python core."""
        instr, fetch, last_retire, issue, pairs, misses = self._kernel.export_core()
        core = self._sim.core
        core._instr_count = instr
        core._fetch_cycle = fetch
        core._last_retire_cycle = last_retire
        core._issue_position = instr
        core._issue_cycle = issue
        outstanding = core._outstanding
        outstanding.clear()
        outstanding.extend(pairs)
        core._outstanding_misses = misses

    def _drain_stats(self) -> None:
        """Add the kernel's counter deltas onto the live statistics objects.

        ``hierarchy.stats`` is fetched *at call time* (never cached): the
        warmup boundary swaps it for a fresh object, and the eviction
        accounting must land in whichever object is current.
        """
        v = self._kernel.drain_stats()
        sim = self._sim
        hierarchy = sim.hierarchy
        stats = hierarchy.stats
        stats.demand_accesses += v[0]
        stats.l1_hits += v[1]
        stats.l1_misses += v[2]
        stats.l2_hits += v[3]
        stats.l2_misses += v[4]
        stats.llc_hits += v[5]
        stats.llc_misses += v[6]
        stats.dram_reads += v[7]
        stats.total_demand_latency += v[8]
        prefetch = stats.prefetch
        prefetch.generated += v[9]
        prefetch.issued += v[10]
        prefetch.dropped_queue_full += v[11]
        prefetch.dropped_mshr_full += v[12]
        prefetch.redundant += v[13]
        prefetch.filled_l1 += v[14]
        prefetch.filled_l2 += v[15]
        prefetch.useful_l1 += v[16]
        prefetch.useful_l2 += v[17]
        prefetch.useless += v[18]
        prefetch.late += v[19]
        prefetch.covered_llc_misses += v[20]
        pq = hierarchy.prefetch_queue
        pq.enqueued += v[21]
        pq.dropped_full += v[22]
        for cache, base in (
            (hierarchy.l1d, 23),
            (hierarchy.l2c, 27),
            (hierarchy.llc, 31),
        ):
            cache.hits += v[base]
            cache.misses += v[base + 1]
            cache.evictions += v[base + 2]
            cache.useless_prefetch_evictions += v[base + 3]
        dram_stats = hierarchy.dram.stats
        dram_stats.requests += v[35]
        dram_stats.demand_requests += v[36]
        dram_stats.prefetch_requests += v[37]
        dram_stats.row_hits += v[38]
        dram_stats.row_misses += v[39]
        dram_stats.total_queue_wait += v[40]
        dram_stats.total_service_cycles += v[41]

    def flush(self, cycle: int) -> None:
        """Issue every queued prefetch and complete every in-flight fill.

        The C twin of :meth:`CacheHierarchy.flush_prefetches`, run at the
        end of a successful run before :meth:`detach`.
        """
        self._kernel.flush(cycle)

    # ------------------------------------------------------------------ #
    # Detach
    # ------------------------------------------------------------------ #
    def detach(self) -> None:
        """Sync the core and the statistics; leave the hierarchy in C.

        ``finalize`` needs only the core, and the statistics are complete
        once the last deltas are drained.  The cache/MSHR/DRAM contents are
        handed to the simulator as a pending export (see
        :func:`export_hierarchy`) and copied out only if someone reads the
        hierarchy.
        """
        self.sync()
        self._sim._pending_export = self._kernel


def run_mix(contexts, drivers, traces) -> None:
    """Run a mix's round-robin schedule in C, one attached driver per core.

    ``traces`` holds each core's :class:`~repro.sim.batch.BatchedTrace`;
    every kernel in ``drivers`` shares the first one's LLC and DRAM.  The
    C loop steps the cores exactly like
    :meth:`~repro.sim.multicore.MultiCoreSimulator._run_exact` and returns
    whenever a measuring core reaches its budget; that core's
    :meth:`~repro.sim.multicore._CoreContext.close_measurement` then runs
    here, in Python, and the loop resumes with the next core.  At the end
    every driver syncs its core and stats; the hierarchies are never
    exported.
    """
    kernels = tuple(driver._kernel for driver in drivers)
    arrays = tuple(
        (trace.addresses, trace.pcs, trace.blocks, trace.gaps, trace.kinds)
        for trace in traces
    )
    start = 0
    while True:
        cursors = tuple(
            (
                context.replayer._index,
                context.replayer.replays,
                context.executed_instructions,
                context.budget,
                context.measuring,
            )
            for context in contexts
        )
        stop, cursors = _kernels.run_mix(kernels, arrays, cursors, start)
        for context, (index, replays, executed) in zip(contexts, cursors):
            context.replayer._index = index
            context.replayer.replays = replays
            context.executed_instructions = executed
        if stop < 0:
            break
        contexts[stop].close_measurement()
        start = stop + 1
    for driver in drivers:
        driver.sync()


def export_hierarchy(kernel, hierarchy) -> None:
    """Copy a detached kernel's cache, MSHR and DRAM state onto ``hierarchy``.

    Afterwards the hierarchy is indistinguishable from one the Python
    driver ran: caches hold the same blocks in the same LRU order with the
    same flags, the MSHR the same fills (none after a completed run) and
    minimum ready cycle, and the DRAM the same bank/row/channel timing.
    Prefetches still queued when a callback aborted the run are dropped.
    """
    for level, cache in ((1, hierarchy.l1d), (2, hierarchy.l2c), (3, hierarchy.llc)):
        sets = cache._sets
        for cache_set in sets:
            cache_set.clear()
        mask = cache._set_mask
        for block, flags in kernel.export_cache(level):
            entry = CacheBlock(
                block,
                bool(flags & _F_PREFETCHED),
                bool(flags & _F_USEFUL),
                bool(flags & _F_FROM_DRAM),
                bool(flags & _F_DIRTY),
            )
            entry.useful_counted = bool(flags & _F_COUNTED)
            sets[block & mask][block] = entry

    mshr = hierarchy.l1_mshr
    entries, min_ready = kernel.export_mshr()
    mshr._entries.clear()
    for block, ready, from_dram in entries:
        mshr._entries[block] = MSHREntry(block, ready, True, 1, bool(from_dram))
    mshr._min_ready = float("inf") if min_ready is None else min_ready

    dram = hierarchy.dram
    open_rows, bank_busy, channel_busy = kernel.export_dram()
    dram._open_row.clear()
    dram._open_row.update(open_rows)
    dram._bank_busy_until.clear()
    dram._bank_busy_until.update(bank_busy)
    dram._channel_busy_until[:] = channel_busy
