"""Single-core simulation driver.

Ties together a trace (an iterable of :class:`repro.sim.types.MemoryAccess`),
a :class:`repro.sim.hierarchy.CacheHierarchy`, a prefetcher and the core
timing model, producing a :class:`repro.sim.stats.SimulationStats`.

The driver mirrors the paper's methodology: an optional warm-up phase trains
the caches and the prefetcher without counting statistics, then a measured
phase of a configurable number of instructions; traces that end early are
replayed from the start.

Every trace source is decoded once into columns
(:class:`~repro.sim.batch.BatchedTrace`: addresses, PCs, gaps, access
kinds, blocks) and read through one cursor, :class:`_TraceReplayer` — a
materialized trace as one chunk, a streamed one chunk by chunk.
:meth:`SingleCoreSimulator._execute` is the one outer loop over chunks; an
inner loop runs over one chunk's columns.  The scalar inner loop
(:meth:`SingleCoreSimulator._execute_scalar`) calls the core model's and
the hierarchy's methods access by access and is the reference.

The **batched** inner loop
(:meth:`SingleCoreSimulator._execute_batched`) runs the same accesses
with the demand chain and the core timing inlined against locals, one
access at a time, with or without a prefetcher.  The C driver
(:mod:`repro.sim.driver`) runs the same loop in the optional extension.
Every kernel produces bit-identical statistics — the golden-stats suite
pins this.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from repro.sim.batch import BatchedTrace, ChunkedTraceStream
from repro.sim.cache import Cache, CacheBlock, MSHREntry
from repro.sim.config import SystemConfig, default_system_config
from repro.sim.cpu import CoreTimingModel
from repro.sim.hierarchy import CacheHierarchy
from repro.sim.stats import SimulationStats
from repro.sim.types import AccessResult, MemoryAccess

#: Accepted values of the ``batch`` execution knob.
BATCH_MODES = ("auto", "off")

#: Accepted values of the ``kernel`` execution knob.  ``"auto"``/``"python"``
#: run the registered (pure-Python object) prefetcher in the Python driver;
#: ``"compiled"`` swaps Gaze, vBerti, PMP and Triangel for their C twins
#: and runs the batched driver loop in C when the optional
#: :mod:`repro._kernels` extension is built, falling back silently
#: otherwise.  Both tiers are bit-exact, so this is purely a performance
#: knob (and is excluded from job cache keys, like ``batch``).
KERNEL_MODES = ("auto", "python", "compiled")


def resolve_kernel(prefetcher, kernel: str):
    """Apply the ``kernel`` knob to ``prefetcher`` (graceful fallback).

    Returns the prefetcher to simulate with: the compiled twin under
    ``kernel="compiled"`` when one is available (see
    :func:`~repro.prefetchers.compiled.compiled_twin`), the input unchanged
    otherwise.
    """
    if kernel not in KERNEL_MODES:
        raise ValueError(
            f"unknown kernel mode {kernel!r}; expected one of {KERNEL_MODES}"
        )
    if kernel == "compiled" and prefetcher is not None:
        from repro.prefetchers.compiled import compiled_twin

        twin = compiled_twin(prefetcher)
        if twin is not None:
            return twin
    return prefetcher


def batched_decline_reason(hierarchy: CacheHierarchy) -> Optional[str]:
    """Why the array loops cannot drive ``hierarchy`` (``None`` if they can).

    The batched kernel and the C driver both inline the demand chain as
    mask-indexed set-dict operations, so every cache must be a plain
    :class:`Cache` with a power-of-two set count (every configuration of
    the paper).  Other hierarchies run the scalar kernel, and a
    ``kernel="compiled"`` run records this reason for the fallback.
    """
    l1d = hierarchy.l1d
    l2c = hierarchy.l2c
    llc = hierarchy.llc
    if type(l1d) is not Cache or type(l2c) is not Cache or type(llc) is not Cache:
        return "non-plain cache object in hierarchy"
    if l1d._set_mask is None or l2c._set_mask is None or llc._set_mask is None:
        return "non-power-of-two cache set count"
    return None


class _TraceReplayer:
    """Cursor over a trace's decoded columns, replaying from the start.

    Every source becomes :class:`~repro.sim.batch.BatchedTrace` columns
    here, once:

    * a :class:`BatchedTrace` is used as it is, and a ``list``/``tuple`` of
      accesses is decoded — one chunk holding the whole trace, which the
      inner loops wrap at its end (``replays`` counts the wraps);
    * any other iterable becomes a
      :class:`~repro.sim.batch.ChunkedTraceStream` (unless it already is
      one) that supplies bounded chunks in turn: a re-openable source
      (e.g. :class:`repro.workloads.formats.TraceFile`) replays by
      re-opening, so arbitrarily long traces run in O(chunk) memory, and
      a one-shot iterator simply ends when exhausted.

    ``_batched`` is the current chunk (``None`` between two passes of a
    stream), ``_index`` the next access in it and ``_remaining`` the exact
    instructions left in it.  The first chunk is loaded here, so an empty
    source fails at construction.
    """

    __slots__ = ("_batched", "_stream", "_index", "_remaining", "replays")

    def __init__(self, source) -> None:
        self.replays = 0
        self._index = 0
        self._remaining = 0
        if isinstance(source, (list, tuple)):
            source = BatchedTrace.from_accesses(source)
        if isinstance(source, BatchedTrace):
            self._batched = source
            self._stream = None
            loaded = len(source.addresses) > 0
        else:
            if not isinstance(source, ChunkedTraceStream):
                source = ChunkedTraceStream(source)
            self._stream = source
            loaded = self.next_chunk()
        if not loaded:
            raise ValueError("cannot simulate an empty trace")

    def next_chunk(self) -> bool:
        """Load the stream's next chunk; ``False`` at the end of a pass.

        The end of a pass counts as one replay and leaves no current
        chunk; the following call re-opens the source.
        """
        chunk = self._stream.next_chunk()
        self._batched = chunk
        self._index = 0
        if chunk is None:
            self.replays += 1
            return False
        self._remaining = chunk.instruction_total
        return True

    def wrap(self) -> None:
        """Step past the end of the current chunk, always replaying.

        The multi-core step's cursor move: at the end of a stream's pass
        the source re-opens at once, so a chunk is always current.
        """
        if self._stream is None:
            self._index = 0
            self.replays += 1
        elif not self.next_chunk() and not self.next_chunk():
            raise ValueError("cannot simulate an empty trace")

    def pass_instructions(self) -> Optional[int]:
        """One pass's instruction total, or ``None`` for a one-shot stream.

        A materialized trace knows it from decoding; a re-openable stream
        pays one memoized counting pass (see
        :meth:`~repro.sim.batch.ChunkedTraceStream.pass_instructions`).
        """
        if self._stream is None:
            return self._batched.instruction_total
        return self._stream.pass_instructions()


class SingleCoreSimulator:
    """Runs one trace against one configured core + hierarchy + prefetcher."""

    __slots__ = (
        "config",
        "prefetcher",
        "kernel_mode",
        "kernel_tier_used",
        "kernel_decline_reason",
        "_driver",
        "_pending_export",
        "stats",
        "_hierarchy",
        "core",
    )

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        prefetcher=None,
        name: str = "",
        kernel: str = "auto",
    ) -> None:
        if kernel not in KERNEL_MODES:
            raise ValueError(
                f"unknown kernel mode {kernel!r}; expected one of {KERNEL_MODES}"
            )
        self.config = config if config is not None else default_system_config(1)
        self.prefetcher = prefetcher
        #: Requested kernel tier.  ``"compiled"`` additionally engages the
        #: C batched driver (:mod:`repro.sim.driver`) when the run shape
        #: supports it; the other modes always use the Python driver.
        self.kernel_mode = kernel
        #: Tier that actually executed the last :meth:`run`:
        #: ``"compiled-driver"`` (C driver loop), ``"compiled"`` (Python
        #: driver calling compiled train kernels) or ``"python"``.
        self.kernel_tier_used: Optional[str] = None
        #: Why the C driver did not engage (``None`` when it did, or when
        #: it was never requested).
        self.kernel_decline_reason: Optional[str] = None
        self._driver = None
        #: Kernel of a detached compiled-driver run whose cache/MSHR/DRAM
        #: state has not been copied back yet (see :attr:`hierarchy`).
        self._pending_export = None
        self.stats = SimulationStats(
            name=name,
            prefetcher=getattr(prefetcher, "name", "none") if prefetcher else "none",
        )
        self._hierarchy = CacheHierarchy(self.config, stats=self.stats)
        self.core = CoreTimingModel(self.config.core)
        if prefetcher is not None and hasattr(prefetcher, "on_cache_eviction"):
            listeners = self.hierarchy.l1d.eviction_listeners
            # Bound method, not a per-instance lambda: cheaper to call and
            # comparable by identity, so re-running a simulator (or wiring a
            # reused prefetcher into a rebuilt hierarchy) can never stack a
            # second copy of the same listener.
            if self._notify_prefetcher_eviction not in listeners:
                listeners.append(self._notify_prefetcher_eviction)

    @property
    def hierarchy(self) -> CacheHierarchy:
        """The cache hierarchy, current as of the last :meth:`run`.

        A compiled-driver run leaves the cache/MSHR/DRAM contents in C;
        the first read after it copies them back.
        """
        kernel = self._pending_export
        if kernel is not None:
            from repro.sim.driver import export_hierarchy

            self._pending_export = None
            export_hierarchy(kernel, self._hierarchy)
        return self._hierarchy

    def _notify_prefetcher_eviction(self, victim) -> None:
        """Forward an L1D eviction to the prefetcher's region deactivation."""
        self.prefetcher.on_cache_eviction(victim.block)

    # ------------------------------------------------------------------ #
    def run(
        self,
        trace: Union[Sequence[MemoryAccess], Iterable[MemoryAccess]],
        max_instructions: Optional[int] = None,
        warmup_instructions: int = 0,
        batch: str = "auto",
    ) -> SimulationStats:
        """Simulate ``trace`` and return the collected statistics.

        ``trace`` may be a materialized sequence, a pre-decoded
        :class:`~repro.sim.batch.BatchedTrace`, a re-openable streaming
        handle (:class:`repro.workloads.formats.TraceFile`) or a one-shot
        iterator; every source is read as decoded columns (see
        :class:`_TraceReplayer`), streamed ones chunk by chunk at bounded
        memory.

        ``batch`` selects the inner loop — statistics are bit-identical
        either way:

        * ``"auto"`` (default): the batched loop (or, under
          ``kernel="compiled"``, the C driver) when
          :func:`batched_decline_reason` accepts the hierarchy, the scalar
          loop otherwise;
        * ``"off"``: always the scalar loop.

        ``max_instructions`` (at least 1) bounds the measured phase
        (counting both memory and non-memory instructions), replaying the
        trace as needed; when omitted, exactly one full pass over the
        trace is simulated.  ``warmup_instructions`` are executed first
        with full cache/prefetcher training but without resetting the
        cycle clock (statistics counters are cleared at the boundary).
        """
        if batch not in BATCH_MODES:
            raise ValueError(
                f"unknown batch mode {batch!r}; expected one of {BATCH_MODES}"
            )
        if max_instructions is not None and max_instructions < 1:
            raise ValueError(
                f"max_instructions must be at least 1, got {max_instructions}"
            )
        if warmup_instructions < 0:
            raise ValueError(
                "warmup_instructions must be non-negative, "
                f"got {warmup_instructions}"
            )
        if max_instructions is not None and hasattr(trace, "__next__"):
            # An explicit budget may require replaying past the end of the
            # trace, which a one-shot iterator cannot do — materialize it.
            # Re-openable handles replay by re-opening and stay streamed.
            trace = list(trace)
        replayer = _TraceReplayer(trace)
        scalar_reason = batched_decline_reason(self.hierarchy)
        if scalar_reason is None and batch == "off":
            scalar_reason = "batch=off"
        loop = self._execute_scalar if scalar_reason else self._execute_batched
        self._attach_driver(scalar_reason)
        driver = self._driver

        try:
            start_instr = 0
            start_cycles = 0.0
            if warmup_instructions > 0:
                self._execute(replayer, warmup_instructions, loop)
                self._reset_measurement_counters()
                snapshot = self.core.snapshot()
                start_instr = snapshot.instructions
                start_cycles = snapshot.cycles
                if max_instructions is None:
                    # Warmup left the cursor mid-trace, so "one pass" is
                    # measured as one pass's instructions: a materialized
                    # trace knows them, a re-openable stream pays one
                    # counting pass, a one-shot stream measures its
                    # remainder.
                    max_instructions = replayer.pass_instructions()
            self._execute(replayer, max_instructions, loop)
            if driver is not None:
                driver.flush(self.core.current_cycle)
        finally:
            if driver is not None:
                self._driver = None
                driver.detach()

        if driver is None:
            self.hierarchy.flush_prefetches(self.core.current_cycle)
        instructions, cycles = self.core.finalize()
        self.stats.instructions = instructions - start_instr
        self.stats.cycles = max(1, int(cycles - start_cycles))
        return self.stats

    # ------------------------------------------------------------------ #
    def _attach_driver(self, scalar_reason: Optional[str]) -> None:
        """Engage the C batched driver when requested and supported.

        Sets ``kernel_tier_used``/``kernel_decline_reason`` either way, so
        a ``kernel="compiled"`` run that silently fell back to the Python
        driver is observable.  ``scalar_reason`` says why the run takes
        the scalar loop (``None`` when it takes the batched one): the
        scalar loop has no C counterpart, so it is the decline reason — a
        geometry from :func:`batched_decline_reason`, or ``batch=off``.
        """
        driver = None
        reason = None
        if self.kernel_mode == "compiled":
            reason = scalar_reason
            if reason is None:
                from repro.sim.driver import CompiledDriver

                driver, reason = CompiledDriver.try_attach(self)
        self._driver = driver
        if driver is not None:
            self.kernel_tier_used = "compiled-driver"
            self.kernel_decline_reason = None
        else:
            compiled_train = getattr(self.prefetcher, "_kernel", None) is not None
            self.kernel_tier_used = "compiled" if compiled_train else "python"
            self.kernel_decline_reason = reason

    def _execute(
        self, replayer: _TraceReplayer, instruction_budget: Optional[int], loop
    ) -> None:
        """Execute until the budget is spent (``None`` = one full pass).

        The one outer loop over a trace's chunks, whatever the inner
        ``loop``: :meth:`_execute_scalar`, or :meth:`_execute_batched`
        (and through it the C driver).  A materialized trace is a single
        chunk that the inner loop wraps itself.  A stream's chunks run in
        turn, each capped at its exact remaining instructions, so the
        inner loop's wrap at a chunk's end marks the chunk done, not a
        replay.  A bounded run replays by re-opening the source at the end
        of a pass, an unbounded run stops after one pass, and the access
        that exhausts the budget executes in full (every inner loop applies
        the same per-access stopping rule).  A partly consumed chunk
        (warmup boundary, budget exhaustion) stays current, so consecutive
        calls resume mid-chunk.
        """
        if replayer._stream is None:
            loop(replayer, instruction_budget)
            return
        core = self.core
        unbounded = instruction_budget is None
        executed = 0
        while unbounded or executed < instruction_budget:
            if replayer._batched is None:
                # Between two passes: a bounded run re-opens the source (an
                # exhausted one-shot iterator yields no chunk and ends it).
                if unbounded or not replayer.next_chunk():
                    break
            remaining = replayer._remaining
            step = remaining
            if not unbounded and instruction_budget - executed < remaining:
                step = instruction_budget - executed
            replays = replayer.replays
            before = core._instr_count
            loop(replayer, step)
            done = core._instr_count - before
            executed += done
            remaining -= done
            replayer._remaining = remaining
            if remaining <= 0:
                # The inner loop wrapped the finished chunk: not a replay.
                replayer.replays = replays
                replayer.next_chunk()

    def _execute_scalar(
        self, replayer: _TraceReplayer, instruction_budget: Optional[int]
    ) -> None:
        """The scalar loop: one access at a time through the object methods.

        Runs the core model's and the hierarchy's own methods
        (``begin_memory_access``, ``demand_access``, ``train``, ...) over
        the current chunk's columns, so it is the reference every faster
        loop is compared against.  A bounded run wraps the chunk
        indefinitely, an unbounded run stops after one pass, and the access
        that exhausts the budget still executes in full.
        """
        batched = replayer._batched
        gaps = batched.gaps
        kinds = batched.kinds
        addresses = batched.addresses
        pcs = batched.pcs
        length = len(addresses)
        unbounded = instruction_budget is None
        executed = 0

        # Bind the per-access call chain once.
        core = self.core
        hierarchy = self.hierarchy
        prefetcher = self.prefetcher
        advance_non_memory = core.advance_non_memory
        begin_memory_access = core.begin_memory_access
        complete_memory_access = core.complete_memory_access
        issue_queued_prefetches = hierarchy.issue_queued_prefetches
        demand_access = hierarchy.demand_access
        enqueue_prefetches = hierarchy.enqueue_prefetches
        # The deque itself is bound so the per-access "anything queued?"
        # check is a C-level truthiness test, not a method call.
        pending_prefetches = hierarchy.prefetch_queue._queue
        train = prefetcher.train if prefetcher is not None else None

        index = replayer._index
        while unbounded or executed < instruction_budget:
            if unbounded and replayer.replays > 0:
                break
            gap = gaps[index]
            kind = kinds[index]
            address = addresses[index]
            pc = pcs[index]
            index += 1
            if index >= length:
                index = 0
                replayer.replays += 1

            if gap > 0:
                advance_non_memory(gap)
            issue_cycle = begin_memory_access()
            executed += gap + 1

            if pending_prefetches:
                issue_queued_prefetches(issue_cycle)
            result = demand_access(address, issue_cycle, kind == 1)
            complete_memory_access(result.latency)

            if kind == 0 and train is not None:
                requests = train(pc, address, issue_cycle, result)
                if requests:
                    enqueue_prefetches(requests)
        replayer._index = index

    def _execute_batched(
        self, replayer: _TraceReplayer, instruction_budget: Optional[int]
    ) -> None:
        """The batched kernel: one per-access loop over decoded arrays.

        Replay/budget semantics are identical to
        :meth:`_execute_scalar`'s — a bounded run wraps the arrays
        indefinitely, an unbounded run stops after one pass, and the access
        that exhausts the budget still executes in full.  Statistics are
        bit-identical to the scalar kernel's (the golden-stats suite pins
        this).  :meth:`run` routes here only hierarchies
        :func:`batched_decline_reason` accepts.

        Each iteration executes one access: the queued prefetches drain,
        the ``demand_access`` chain runs inlined as set-dict operations
        (victim recycling as in :meth:`Cache.fill_absent`, eviction
        listeners invoked exactly as ``Cache.fill`` would, DRAM through
        :meth:`~repro.sim.dram.DRAMModel.access`), and ``train`` (when a
        prefetcher is attached) receives one of the per-level
        preallocated mutable :class:`AccessResult` objects (no prefetcher
        retains the result beyond the call).

        The core timing model's scalar state lives in local variables for
        the duration of the call — the inlined begin/complete logic
        performs the identical float operations in the identical order —
        and is written back at exit.

        When the compiled driver is attached (``kernel="compiled"`` and
        :meth:`_attach_driver` accepted the configuration), the same loop
        runs inside the C extension instead — same replay/budget
        semantics, same statistics, bit-identical.
        """
        driver = self._driver
        if driver is not None:
            driver.run_batch(replayer, instruction_budget)
            return
        batched = replayer._batched
        blocks = batched.blocks
        gaps = batched.gaps
        kinds = batched.kinds
        addresses = batched.addresses
        pcs = batched.pcs
        length = len(addresses)
        unbounded = instruction_budget is None
        executed = 0

        core = self.core
        hierarchy = self.hierarchy
        prefetcher = self.prefetcher
        complete_ready = hierarchy._complete_ready_prefetches
        l1d = hierarchy.l1d
        l2c = hierarchy.l2c
        llc = hierarchy.llc
        l1_sets = l1d._sets
        l1_mask = l1d._set_mask
        l1_ways = l1d._ways
        l1_listeners = l1d.eviction_listeners
        l2_sets = l2c._sets
        l2_mask = l2c._set_mask
        l2_ways = l2c._ways
        l2_listeners = l2c.eviction_listeners
        llc_sets = llc._sets
        llc_mask = llc._set_mask
        llc_ways = llc._ways
        llc_listeners = llc.eviction_listeners
        l1_mshr = hierarchy.l1_mshr
        prefetch_queue = hierarchy.prefetch_queue
        # Stable containers, bound for C-level truthiness tests (neither is
        # ever rebound by its owner).
        pending_prefetches = prefetch_queue.pending
        mshr_entries = l1_mshr._entries
        stats = hierarchy.stats
        prefetch_stats = stats.prefetch
        l1_latency = hierarchy._lat_l1
        lat_l2 = hierarchy._lat_l2
        lat_llc = hierarchy._lat_llc
        dram_access = hierarchy.dram.access
        train = prefetcher.train if prefetcher is not None else None

        # Core timing state, held in locals for the whole call (see the
        # docstring); the inlined arithmetic replicates begin_memory_access
        # / complete_memory_access operation-for-operation.
        width = core._width
        fetch_inc = core._fetch_increment
        rob = core._rob_size
        lq = core._load_queue_size
        miss_limit = core._miss_limit
        miss_threshold = core._miss_threshold
        instr = core._instr_count
        fetch = core._fetch_cycle
        last_retire = core._last_retire_cycle
        outstanding = core._outstanding
        out_popleft = outstanding.popleft
        out_append = outstanding.append
        misses_list = core._outstanding_misses
        # Cached minimum of ``misses_list`` (INF when empty), kept exact on
        # every append/filter, so no per-access ``min()`` scan is needed.
        INF = float("inf")
        misses_min = min(misses_list) if misses_list else INF
        issue = core._issue_cycle

        index = replayer._index

        result_l1 = AccessResult(l1_latency, "L1D", False, False)
        result_l2 = AccessResult(lat_l2, "L2C", False, False)
        result_llc = AccessResult(lat_llc, "LLC", False, False)
        result_dram = AccessResult(0, "DRAM", False, False)
        result_inflight = AccessResult(0, "L1D", False, False)
        pq_popleft = pending_prefetches.popleft
        pq_append = pending_prefetches.append
        drain_limit = prefetch_queue.drain_per_access
        pq_capacity = prefetch_queue.capacity
        mshr_capacity = l1_mshr.capacity
        lat_l2_source = hierarchy._lat_l2_source
        lat_llc_source = hierarchy._lat_llc_source
        while unbounded or executed < instruction_budget:
            if unbounded and replayer.replays > 0:
                break
            block = blocks[index]
            gap = gaps[index]
            kind = kinds[index]
            address = addresses[index]
            pc = pcs[index]
            index += 1
            if index >= length:
                index = 0
                replayer.replays += 1

            # Inlined begin_memory_access.
            if gap > 0:
                instr += gap
                fetch += gap / width
            instr += 1
            fetch += fetch_inc
            issue = fetch
            while outstanding and instr - outstanding[0][0] >= rob:
                head = outstanding[0][1]
                if head > issue:
                    issue = head
                completion = out_popleft()[1]
                if completion > last_retire:
                    last_retire = completion
                if issue > last_retire:
                    last_retire = issue
            while len(outstanding) >= lq:
                head = outstanding[0][1]
                if head > issue:
                    issue = head
                completion = out_popleft()[1]
                if completion > last_retire:
                    last_retire = completion
                if issue > last_retire:
                    last_retire = issue
            if len(misses_list) >= miss_limit:
                misses_list.sort()
                while len(misses_list) >= miss_limit:
                    completed = misses_list.pop(0)
                    if completed > issue:
                        issue = completed
                misses_min = misses_list[0] if misses_list else INF
            if misses_list and misses_min <= issue:
                misses_list = [c for c in misses_list if c > issue]
                misses_min = min(misses_list) if misses_list else INF
            while outstanding and outstanding[0][1] <= issue:
                completion = out_popleft()[1]
                if completion > last_retire:
                    last_retire = completion
                if issue > last_retire:
                    last_retire = issue
            issue_cycle = int(issue)
            executed += gap + 1

            if pending_prefetches:
                # Packed drain: issue_queued_prefetches with _issue_prefetch
                # inlined over packed ints (same FIFO order, per-access
                # drain limit, branch structure and statistics).
                issued = 0
                while pending_prefetches and issued < drain_limit:
                    p = pq_popleft()
                    issued += 1
                    pblock = p >> 1
                    p_l1_set = l1_sets[pblock & l1_mask]
                    if pblock in p_l1_set or pblock in mshr_entries:
                        prefetch_stats.redundant += 1
                        continue
                    p_l2_set = l2_sets[pblock & l2_mask]
                    l2_entry = p_l2_set.get(pblock)
                    to_l1 = p & 1
                    if not to_l1 and l2_entry is not None:
                        prefetch_stats.redundant += 1
                        continue
                    prefetch_stats.issued += 1

                    # Locate the data (LRU-touching as lookup does).
                    from_dram = False
                    if l2_entry is not None:
                        source_latency = lat_l2_source
                        del p_l2_set[pblock]
                        p_l2_set[pblock] = l2_entry
                    else:
                        p_llc_set = llc_sets[pblock & llc_mask]
                        llc_entry = p_llc_set.get(pblock)
                        if llc_entry is not None:
                            del p_llc_set[pblock]
                            p_llc_set[pblock] = llc_entry
                            source_latency = lat_llc_source
                        else:
                            source_latency = lat_llc_source + dram_access(
                                pblock, issue_cycle, True
                            )
                            from_dram = True
                            # Inlined LLC fill (block just missed).
                            if len(p_llc_set) >= llc_ways:
                                victim = p_llc_set.pop(next(iter(p_llc_set)))
                                llc.evictions += 1
                                if victim.prefetched and not victim.prefetch_useful:
                                    llc.useless_prefetch_evictions += 1
                                for listener in llc_listeners:
                                    listener(victim)
                                victim.block = pblock
                                victim.prefetched = False
                                victim.prefetch_useful = False
                                victim.from_dram = True
                                victim.dirty = False
                                victim.useful_counted = False
                                p_llc_set[pblock] = victim
                            else:
                                p_llc_set[pblock] = CacheBlock(
                                    pblock, False, False, True
                                )

                    if to_l1:
                        # Inlined has_free_entry: expire(cycle) with the
                        # results discarded (the method's exact behaviour),
                        # then the capacity check.
                        if mshr_entries and issue_cycle >= l1_mshr._min_ready:
                            done = [
                                e
                                for e in mshr_entries.values()
                                if e.ready_cycle <= issue_cycle
                            ]
                            for mshr_entry in done:
                                del mshr_entries[mshr_entry.block]
                            if mshr_entries:
                                l1_mshr._min_ready = min(
                                    e.ready_cycle for e in mshr_entries.values()
                                )
                            else:
                                l1_mshr._min_ready = INF
                        if len(mshr_entries) < mshr_capacity:
                            # Allocate (block proven absent; expiry only
                            # removes entries, so it still is).
                            ready = issue_cycle + source_latency
                            mshr_entries[pblock] = MSHREntry(
                                pblock, ready, True, 1, from_dram
                            )
                            if ready < l1_mshr._min_ready:
                                l1_mshr._min_ready = ready
                            prefetch_stats.filled_l1 += 1
                            continue
                        # MSHR file full: fall back to an L2 fill.
                        prefetch_stats.dropped_mshr_full += 1
                    if pblock not in p_l2_set:
                        # Inlined L2 fill_absent with listeners.
                        if len(p_l2_set) >= l2_ways:
                            victim = p_l2_set.pop(next(iter(p_l2_set)))
                            l2c.evictions += 1
                            if victim.prefetched and not victim.prefetch_useful:
                                l2c.useless_prefetch_evictions += 1
                            for listener in l2_listeners:
                                listener(victim)
                            victim.block = pblock
                            victim.prefetched = True
                            victim.prefetch_useful = False
                            victim.from_dram = from_dram
                            victim.dirty = False
                            victim.useful_counted = False
                            p_l2_set[pblock] = victim
                        else:
                            p_l2_set[pblock] = CacheBlock(
                                pblock, True, False, from_dram
                            )
                        prefetch_stats.filled_l2 += 1
                    elif not to_l1:
                        prefetch_stats.redundant += 1

            # Inlined demand_access (bit-identical bookkeeping; the
            # eviction listeners run exactly as Cache.fill would invoke
            # them).
            is_store = kind == 1
            stats.demand_accesses += 1
            if mshr_entries:
                # expire()'s nothing-ready fast path, hoisted: skip the
                # call chain entirely until a fill can be due.
                if issue_cycle >= l1_mshr._min_ready:
                    complete_ready(issue_cycle)
                inflight = mshr_entries.get(block)
            else:
                inflight = None
            l1_set = l1_sets[block & l1_mask]
            if inflight is not None:
                remaining = inflight.ready_cycle - issue_cycle
                latency = remaining if remaining > l1_latency else l1_latency
                del mshr_entries[block]
                is_pf = inflight.is_prefetch
                inflight_dram = inflight.from_dram
                if len(l1_set) >= l1_ways:
                    victim = l1_set.pop(next(iter(l1_set)))
                    l1d.evictions += 1
                    if victim.prefetched and not victim.prefetch_useful:
                        l1d.useless_prefetch_evictions += 1
                    for listener in l1_listeners:
                        listener(victim)
                    victim.block = block
                    victim.prefetched = is_pf
                    victim.prefetch_useful = False
                    victim.from_dram = inflight_dram
                    victim.dirty = is_store
                    victim.useful_counted = False
                    l1_set[block] = victim
                    entry = victim
                else:
                    entry = CacheBlock(block, is_pf, False, inflight_dram, is_store)
                    l1_set[block] = entry
                stats.l1_hits += 1
                if is_pf:
                    entry.prefetch_useful = True
                    prefetch_stats.useful_l1 += 1
                    prefetch_stats.late += 1
                    if inflight_dram:
                        prefetch_stats.covered_llc_misses += 1
                stats.total_demand_latency += latency
                result = result_inflight
                result.latency = latency
                result.served_by_prefetch = is_pf
                result.late_prefetch = is_pf
            else:
                entry = l1_set.get(block)
                if entry is not None:
                    del l1_set[block]
                    l1_set[block] = entry
                    l1d.hits += 1
                    served = False
                    if entry.prefetched:
                        if not entry.prefetch_useful:
                            entry.prefetch_useful = True
                        if not entry.useful_counted:
                            entry.useful_counted = True
                            served = True
                            prefetch_stats.useful_l1 += 1
                            if entry.from_dram:
                                prefetch_stats.covered_llc_misses += 1
                    if is_store:
                        entry.dirty = True
                    stats.l1_hits += 1
                    stats.total_demand_latency += l1_latency
                    latency = l1_latency
                    result = result_l1
                    result.served_by_prefetch = served
                else:
                    l1d.misses += 1
                    stats.l1_misses += 1

                    l2_set = l2_sets[block & l2_mask]
                    entry = l2_set.get(block)
                    if entry is not None:
                        del l2_set[block]
                        l2_set[block] = entry
                        l2c.hits += 1
                        served = False
                        if entry.prefetched:
                            if not entry.prefetch_useful:
                                entry.prefetch_useful = True
                            if not entry.useful_counted:
                                entry.useful_counted = True
                                served = True
                                prefetch_stats.useful_l2 += 1
                                if entry.from_dram:
                                    prefetch_stats.covered_llc_misses += 1
                        from_dram = False
                        latency = lat_l2
                        stats.l2_hits += 1
                        result = result_l2
                        result.served_by_prefetch = served
                    else:
                        l2c.misses += 1
                        stats.l2_misses += 1

                        llc_set = llc_sets[block & llc_mask]
                        entry = llc_set.get(block)
                        if entry is not None:
                            del llc_set[block]
                            llc_set[block] = entry
                            llc.hits += 1
                            if entry.prefetched and not entry.prefetch_useful:
                                entry.prefetch_useful = True
                            from_dram = False
                            latency = lat_llc
                            stats.llc_hits += 1
                            result = result_llc
                        else:
                            llc.misses += 1
                            stats.llc_misses += 1
                            latency = lat_llc + dram_access(
                                block, issue_cycle, False
                            )
                            stats.dram_reads += 1
                            from_dram = True
                            # Inlined LLC fill (absent).
                            if len(llc_set) >= llc_ways:
                                victim = llc_set.pop(next(iter(llc_set)))
                                llc.evictions += 1
                                if victim.prefetched and not victim.prefetch_useful:
                                    llc.useless_prefetch_evictions += 1
                                for listener in llc_listeners:
                                    listener(victim)
                                victim.block = block
                                victim.prefetched = False
                                victim.prefetch_useful = False
                                victim.from_dram = True
                                victim.dirty = False
                                victim.useful_counted = False
                                llc_set[block] = victim
                            else:
                                llc_set[block] = CacheBlock(
                                    block, False, False, True
                                )
                            result = result_dram
                            result.latency = latency

                        # Inlined L2 fill (absent).
                        if len(l2_set) >= l2_ways:
                            victim = l2_set.pop(next(iter(l2_set)))
                            l2c.evictions += 1
                            if victim.prefetched and not victim.prefetch_useful:
                                l2c.useless_prefetch_evictions += 1
                            for listener in l2_listeners:
                                listener(victim)
                            victim.block = block
                            victim.prefetched = False
                            victim.prefetch_useful = False
                            victim.from_dram = from_dram
                            victim.dirty = False
                            victim.useful_counted = False
                            l2_set[block] = victim
                        else:
                            l2_set[block] = CacheBlock(
                                block, False, False, from_dram
                            )
                    # Inlined L1 fill (absent).
                    if len(l1_set) >= l1_ways:
                        victim = l1_set.pop(next(iter(l1_set)))
                        l1d.evictions += 1
                        if victim.prefetched and not victim.prefetch_useful:
                            l1d.useless_prefetch_evictions += 1
                        for listener in l1_listeners:
                            listener(victim)
                        victim.block = block
                        victim.prefetched = False
                        victim.prefetch_useful = False
                        victim.from_dram = from_dram
                        victim.dirty = is_store
                        victim.useful_counted = False
                        l1_set[block] = victim
                    else:
                        l1_set[block] = CacheBlock(
                            block, False, False, from_dram, is_store
                        )
                    stats.total_demand_latency += latency

            # Inlined complete_memory_access.
            completion = issue + (latency if latency > 1 else 1)
            out_append((instr, completion))
            if latency > miss_threshold:
                misses_list.append(completion)
                if completion < misses_min:
                    misses_min = completion
            if issue > fetch:
                fetch = issue

            if kind == 0 and train is not None:
                requests = train(pc, address, issue_cycle, result)
                if requests:
                    # push()'s bookkeeping batched per call, as
                    # enqueue_prefetches does.
                    total = 0
                    accepted = 0
                    for request in requests:
                        total += 1
                        if len(pending_prefetches) < pq_capacity:
                            pq_append(request)
                            accepted += 1
                    prefetch_queue.enqueued += accepted
                    prefetch_stats.generated += total
                    if accepted != total:
                        dropped = total - accepted
                        prefetch_queue.dropped_full += dropped
                        prefetch_stats.dropped_queue_full += dropped

        core._instr_count = instr
        core._fetch_cycle = fetch
        core._last_retire_cycle = last_retire
        core._outstanding_misses = misses_list
        core._issue_position = instr
        core._issue_cycle = issue
        replayer._index = index

    def _reset_measurement_counters(self) -> None:
        """Clear statistics at the warm-up/measurement boundary.

        The hierarchy's eviction listeners read ``self.hierarchy.stats``
        dynamically, so swapping the stats object is sufficient; cache and
        prefetcher *state* is deliberately preserved (that is the point of
        warming up).
        """
        fresh = SimulationStats(name=self.stats.name, prefetcher=self.stats.prefetcher)
        self.stats = fresh
        self.hierarchy.stats = fresh


def simulate_trace(
    trace: Union[Sequence[MemoryAccess], Iterable[MemoryAccess]],
    prefetcher=None,
    config: Optional[SystemConfig] = None,
    max_instructions: Optional[int] = None,
    warmup_instructions: int = 0,
    name: str = "",
    batch: str = "auto",
    kernel: str = "auto",
    record_tier: bool = False,
) -> SimulationStats:
    """Convenience wrapper: build a simulator, run it, return the stats.

    ``record_tier`` reports which kernel tier actually executed into
    ``stats.extra`` (``kernel_tier``, plus ``kernel_decline_reason`` when
    the compiled driver was requested but fell back).  Opt-in for the same
    reason timing is: cached/golden results must stay bit-identical, so
    the default run leaves ``extra`` untouched.
    """
    simulator = SingleCoreSimulator(
        config=config,
        prefetcher=resolve_kernel(prefetcher, kernel),
        name=name,
        kernel=kernel,
    )
    stats = simulator.run(
        trace,
        max_instructions=max_instructions,
        warmup_instructions=warmup_instructions,
        batch=batch,
    )
    # ``_hierarchy``: the ``hierarchy`` property would copy a compiled
    # run's cache contents back out of C for nothing.
    simulator._hierarchy.unlink_listeners()
    if record_tier:
        stats.extra["kernel_tier"] = simulator.kernel_tier_used
        if simulator.kernel_decline_reason:
            stats.extra["kernel_decline_reason"] = simulator.kernel_decline_reason
    return stats
