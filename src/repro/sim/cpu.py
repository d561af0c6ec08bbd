"""Analytic out-of-order core timing model.

A full cycle-accurate out-of-order pipeline is neither feasible nor necessary
in Python for this reproduction: what the paper's speedup numbers depend on
is how demand-load latency (as reduced by prefetching) translates into
retired instructions per cycle under a bounded instruction window.  The
model below captures exactly that:

* the front end delivers ``width`` instructions per cycle;
* an instruction can only enter the window when the instruction
  ``rob_size`` positions older has retired (in-order retirement);
* non-memory instructions complete the cycle they issue; loads complete
  after their hierarchy latency; the load queue bounds the number of
  outstanding loads (memory-level parallelism).

This is the classic "interval"-style approximation: independent long-latency
loads inside the ROB window overlap, dependent chains serialize through the
retirement constraint.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Tuple

from repro.sim.config import CoreConfig


@dataclass(slots=True)
class CoreSnapshot:
    """Read-only view of the core model's progress."""

    instructions: int
    cycles: float
    outstanding_loads: int


class CoreTimingModel:
    """Tracks fetch, issue and retirement timing for one core.

    Slotted: the begin/complete pair runs once per simulated memory access
    and touches most of these attributes each time.
    """

    __slots__ = (
        "config",
        "_fetch_cycle",
        "_instr_count",
        "_last_retire_cycle",
        "_outstanding",
        "_outstanding_misses",
        "_width",
        "_fetch_increment",
        "_rob_size",
        "_load_queue_size",
        "_miss_limit",
        "_miss_threshold",
        "_issue_position",
        "_issue_cycle",
    )

    def __init__(self, config: CoreConfig) -> None:
        self.config = config
        self._fetch_cycle = 0.0
        self._instr_count = 0
        self._last_retire_cycle = 0.0
        # (instruction position, completion cycle) of loads not yet known to
        # have retired; bounded by the ROB walk below.
        self._outstanding: Deque[Tuple[int, float]] = deque()
        # Completion cycles of outstanding *misses* (long-latency loads);
        # bounded by the MSHR count to model the core's MLP limit.
        self._outstanding_misses: List[float] = []
        # Position and cycle of the access begin_memory_access reserved last.
        self._issue_position = 0
        self._issue_cycle = 0.0
        # Hot-path constants (read once per simulated access).  The fetch
        # increment is the same float the historical per-call division
        # produced, so cycle counts stay bit-identical.
        self._width = config.width
        self._fetch_increment = 1.0 / config.width
        self._rob_size = config.rob_size
        self._load_queue_size = config.load_queue_size
        self._miss_limit = config.max_outstanding_misses
        self._miss_threshold = config.miss_latency_threshold

    # ------------------------------------------------------------------ #
    # Trace consumption
    # ------------------------------------------------------------------ #
    def advance_non_memory(self, count: int) -> None:
        """Account for ``count`` non-memory instructions in program order."""
        if count <= 0:
            return
        self._instr_count += count
        self._fetch_cycle += count / self._width

    def begin_memory_access(self) -> int:
        """Reserve the next memory instruction and return its issue cycle.

        The issue cycle respects front-end bandwidth, the ROB occupancy
        constraint and the load-queue size.  The caller must follow up with
        :meth:`complete_memory_access` carrying the latency obtained from
        the hierarchy.
        """
        self._instr_count += 1
        self._fetch_cycle += self._fetch_increment
        issue = self._fetch_cycle
        position = self._instr_count
        outstanding = self._outstanding

        # ROB constraint: the oldest in-flight load must retire before the
        # window can slide far enough to admit this instruction.  Retirement
        # is inlined: pop the head and advance the last-retire clock.
        rob = self._rob_size
        last_retire = self._last_retire_cycle
        popleft = outstanding.popleft
        while outstanding and position - outstanding[0][0] >= rob:
            head = outstanding[0][1]
            if head > issue:
                issue = head
            completion = popleft()[1]
            if completion > last_retire:
                last_retire = completion
            if issue > last_retire:
                last_retire = issue

        # Load-queue constraint: bounded memory-level parallelism.
        lq = self._load_queue_size
        while len(outstanding) >= lq:
            head = outstanding[0][1]
            if head > issue:
                issue = head
            completion = popleft()[1]
            if completion > last_retire:
                last_retire = completion
            if issue > last_retire:
                last_retire = issue

        # MSHR constraint: only a limited number of demand *misses* can be
        # outstanding at once.  If the MSHRs are full, this access cannot be
        # sent to the memory system until the oldest miss returns.
        misses = self._outstanding_misses
        if len(misses) >= self._miss_limit:
            misses.sort()
            while len(misses) >= self._miss_limit:
                completed = misses.pop(0)
                if completed > issue:
                    issue = completed
        if misses and min(misses) <= issue:
            self._outstanding_misses = [c for c in misses if c > issue]

        # Opportunistically retire loads that have already completed.
        while outstanding and outstanding[0][1] <= issue:
            completion = popleft()[1]
            if completion > last_retire:
                last_retire = completion
            if issue > last_retire:
                last_retire = issue

        self._last_retire_cycle = last_retire
        self._issue_position = position
        self._issue_cycle = issue
        return int(issue)

    def complete_memory_access(self, latency: int) -> None:
        """Record the completion of the access reserved by
        :meth:`begin_memory_access`."""
        completion = self._issue_cycle + (latency if latency > 1 else 1)
        self._outstanding.append((self._issue_position, completion))
        if latency > self._miss_threshold:
            self._outstanding_misses.append(completion)
        # Keep the fetch clock from falling behind an already-stalled window.
        if self._issue_cycle > self._fetch_cycle:
            self._fetch_cycle = self._issue_cycle

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def finalize(self) -> Tuple[int, int]:
        """Return ``(instructions, cycles)`` after draining outstanding loads."""
        final_cycle = max(self._fetch_cycle, self._last_retire_cycle)
        while self._outstanding:
            _, completion = self._outstanding.popleft()
            final_cycle = max(final_cycle, completion)
        cycles = max(1, int(round(final_cycle)))
        return self._instr_count, cycles

    def progress_totals(self) -> Tuple[int, int]:
        """``(instructions, cycles)`` as :meth:`finalize` would report them now.

        Non-destructive: outstanding loads stay queued, so the model keeps
        running afterwards.  The multi-core driver uses this to snapshot a
        core's measured totals the moment its instruction budget is
        exhausted, while the core itself keeps replaying its trace to exert
        shared-resource pressure.
        """
        final_cycle = max(self._fetch_cycle, self._last_retire_cycle)
        for _, completion in self._outstanding:
            if completion > final_cycle:
                final_cycle = completion
        return self._instr_count, max(1, int(round(final_cycle)))

    def snapshot(self) -> CoreSnapshot:
        """Return the current progress of the model."""
        return CoreSnapshot(
            instructions=self._instr_count,
            cycles=max(self._fetch_cycle, self._last_retire_cycle),
            outstanding_loads=len(self._outstanding),
        )

    @property
    def current_cycle(self) -> int:
        """Current front-end cycle (used to timestamp hierarchy events)."""
        return int(self._fetch_cycle)
