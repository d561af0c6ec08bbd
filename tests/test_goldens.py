"""Golden-stats regression tests.

Snapshots key :class:`~repro.sim.stats.SimulationStats` fields (IPC,
accuracy, coverage plus the raw counters that drive them) for a small fixed
grid of (trace, prefetcher) pairs into ``tests/goldens/*.json``.  Any
behaviour change in the simulator, a prefetcher or a workload generator
fails these tests loudly — figures can then be refreshed deliberately
instead of drifting silently.

When a change is *intentional*, refresh the snapshots (and bump
``ENGINE_SCHEMA_VERSION`` in ``repro/experiments/jobs.py`` so stale cache
entries are invalidated too)::

    REFRESH_GOLDENS=1 python -m pytest tests/test_goldens.py -q

then commit the updated ``tests/goldens/*.json`` files.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.prefetchers import available_prefetchers, create_prefetcher
from repro.sim.simulator import simulate_trace
from repro.workloads.trace import TraceSpec

GOLDEN_DIR = Path(__file__).parent / "goldens"

_REFRESH = os.environ.get("REFRESH_GOLDENS", "") not in ("", "0")

#: Fixed traces snapshotted by the golden grid.  Short on purpose: the
#: point is drift detection, not statistical fidelity.
TRACE_SPECS = {
    "spatial-s3": TraceSpec(
        name="spatial-s3", suite="golden", generator="spatial", seed=3,
        length=2_000,
    ),
    "streaming-s2": TraceSpec(
        name="streaming-s2", suite="golden", generator="streaming", seed=2,
        length=2_000,
    ),
    "cloud-s6": TraceSpec(
        name="cloud-s6", suite="golden", generator="cloud", seed=6,
        length=2_000,
    ),
    # Recurring pointer chase sized so the working set exceeds the L1 but
    # the trace still makes 3+ passes: both temporal designs train and
    # issue at this scale (slightly longer than the other goldens because
    # Triangel's sampled confidence needs a couple of recurrences first).
    "temporal-s5": TraceSpec(
        name="temporal-s5", suite="golden", generator="temporal-pointer",
        seed=5, length=3_000,
        params={"num_nodes": 900, "noise_fraction": 0.02},
    ),
}

#: The paper's headline designs, snapshotted on every golden trace.
MAIN_PREFETCHERS = (
    "ip-stride", "bop", "sms", "bingo", "dspatch", "pmp", "spp-ppf",
    "vberti", "ipcp", "gaze",
)

#: Designs snapshotted on the temporal-reuse trace: both temporal designs
#: plus spatial representatives (whose near-silence there is itself a
#: behaviour worth pinning).
TEMPORAL_PREFETCHERS = ("triangel", "ghb", "gaze", "pmp", "vberti", "ip-stride")


def _grid():
    """(trace_key, prefetcher) pairs: every registered prefetcher on the
    spatial trace, the main designs on the other traces, the temporal
    designs plus spatial representatives on the temporal trace."""
    pairs = [("spatial-s3", name) for name in available_prefetchers()]
    for trace_key in ("streaming-s2", "cloud-s6"):
        pairs.extend((trace_key, name) for name in MAIN_PREFETCHERS)
    pairs.extend(("temporal-s5", name) for name in TEMPORAL_PREFETCHERS)
    return pairs


GRID = _grid()

_trace_cache = {}
_baseline_cache = {}


def _trace(trace_key):
    if trace_key not in _trace_cache:
        _trace_cache[trace_key] = TRACE_SPECS[trace_key].build()
    return _trace_cache[trace_key]


def _baseline(trace_key):
    if trace_key not in _baseline_cache:
        _baseline_cache[trace_key] = simulate_trace(_trace(trace_key))
    return _baseline_cache[trace_key]


def _compute_row(trace_key, prefetcher_name):
    """The snapshotted fields for one grid cell.

    Counters are exact integers; derived floats are rounded to 9 decimal
    places (IEEE-754 division is deterministic, rounding just keeps the
    JSON readable).
    """
    stats = simulate_trace(
        _trace(trace_key), prefetcher=create_prefetcher(prefetcher_name)
    )
    baseline = _baseline(trace_key)
    return {
        "instructions": stats.instructions,
        "cycles": stats.cycles,
        "l1_hits": stats.l1_hits,
        "llc_misses": stats.llc_misses,
        "issued_prefetches": stats.prefetch.issued,
        "useful_prefetches": stats.prefetch.useful,
        "late_prefetches": stats.prefetch.late,
        "ipc": round(stats.ipc, 9),
        "accuracy": round(stats.prefetch.accuracy, 9),
        "coverage": round(stats.coverage(baseline), 9),
    }


def _golden_path(trace_key) -> Path:
    return GOLDEN_DIR / f"{trace_key}.json"


def _load_golden(trace_key) -> dict:
    path = _golden_path(trace_key)
    if not path.is_file():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))


def _store_golden(trace_key, prefetcher_name, row) -> None:
    data = _load_golden(trace_key)
    data[prefetcher_name] = row
    path = _golden_path(trace_key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(dict(sorted(data.items())), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


@pytest.mark.parametrize(
    "trace_key,prefetcher_name", GRID, ids=[f"{t}/{p}" for t, p in GRID]
)
def test_golden_stats(trace_key, prefetcher_name):
    row = _compute_row(trace_key, prefetcher_name)
    if _REFRESH:
        _store_golden(trace_key, prefetcher_name, row)
    golden = _load_golden(trace_key)
    assert prefetcher_name in golden, (
        f"no golden entry for {trace_key}/{prefetcher_name}; refresh with "
        "REFRESH_GOLDENS=1 python -m pytest tests/test_goldens.py -q"
    )
    expected = golden[prefetcher_name]
    assert row == expected, (
        f"simulation drift for {trace_key}/{prefetcher_name}:\n"
        + "\n".join(
            f"  {field}: golden {expected.get(field)!r} -> now {row.get(field)!r}"
            for field in sorted(set(expected) | set(row))
            if expected.get(field) != row.get(field)
        )
        + "\nIf intentional, refresh goldens (see tests/test_goldens.py "
        "docstring) and bump ENGINE_SCHEMA_VERSION."
    )


#: Subset of the grid re-checked under the scalar kernel: the committed
#: golden rows are produced by the default batched kernel, so matching them
#: with ``batch="off"`` proves both kernels byte-identical on every
#: snapshotted counter without doubling the whole grid's runtime.  The
#: temporal designs are checked on the temporal trace, where their tables
#: actually train.
SCALAR_CHECK_CASES = (
    ("spatial-s3", "gaze"),
    ("spatial-s3", "pmp"),
    ("spatial-s3", "vberti"),
    ("spatial-s3", "bingo"),
    ("temporal-s5", "triangel"),
    ("temporal-s5", "ghb"),
)


@pytest.mark.parametrize(
    "trace_key,prefetcher_name", SCALAR_CHECK_CASES,
    ids=[f"{t}/{p}" for t, p in SCALAR_CHECK_CASES],
)
def test_golden_stats_scalar_kernel(trace_key, prefetcher_name):
    stats = simulate_trace(
        _trace(trace_key),
        prefetcher=create_prefetcher(prefetcher_name),
        batch="off",
    )
    baseline = _baseline(trace_key)
    row = {
        "instructions": stats.instructions,
        "cycles": stats.cycles,
        "l1_hits": stats.l1_hits,
        "llc_misses": stats.llc_misses,
        "issued_prefetches": stats.prefetch.issued,
        "useful_prefetches": stats.prefetch.useful,
        "late_prefetches": stats.prefetch.late,
        "ipc": round(stats.ipc, 9),
        "accuracy": round(stats.prefetch.accuracy, 9),
        "coverage": round(stats.coverage(baseline), 9),
    }
    golden = _load_golden(trace_key)
    assert prefetcher_name in golden
    assert row == golden[prefetcher_name], (
        f"scalar kernel diverged from the committed golden for "
        f"{trace_key}/{prefetcher_name} (the batched kernel matches it)"
    )


#: Every registered prefetcher re-checked under ``kernel="compiled"``
#: against the committed golden rows.  Where the extension is built (the
#: ``compiled-kernel`` CI lane), this proves the C kernels bit-identical
#: to the committed behaviour on every snapshotted counter; where it is
#: not, it proves the documented silent fallback leaves results untouched
#: — both are release requirements, so the test runs unconditionally.
@pytest.mark.parametrize("prefetcher_name", sorted(available_prefetchers()))
def test_golden_stats_compiled_kernel(prefetcher_name):
    trace_key = "spatial-s3"
    stats = simulate_trace(
        _trace(trace_key),
        prefetcher=create_prefetcher(prefetcher_name),
        kernel="compiled",
    )
    baseline = _baseline(trace_key)
    row = {
        "instructions": stats.instructions,
        "cycles": stats.cycles,
        "l1_hits": stats.l1_hits,
        "llc_misses": stats.llc_misses,
        "issued_prefetches": stats.prefetch.issued,
        "useful_prefetches": stats.prefetch.useful,
        "late_prefetches": stats.prefetch.late,
        "ipc": round(stats.ipc, 9),
        "accuracy": round(stats.prefetch.accuracy, 9),
        "coverage": round(stats.coverage(baseline), 9),
    }
    golden = _load_golden(trace_key)
    assert prefetcher_name in golden
    assert row == golden[prefetcher_name], (
        f"compiled tier diverged from the committed golden for "
        f"{trace_key}/{prefetcher_name} (the batched kernel matches it)"
    )


def test_golden_files_have_no_orphan_entries():
    """Every snapshotted entry corresponds to a current grid cell."""
    grid_by_trace = {}
    for trace_key, prefetcher_name in GRID:
        grid_by_trace.setdefault(trace_key, set()).add(prefetcher_name)
    for trace_key in TRACE_SPECS:
        stored = set(_load_golden(trace_key))
        expected = grid_by_trace[trace_key]
        assert stored <= expected, (
            f"{_golden_path(trace_key).name} has entries for removed grid "
            f"cells: {sorted(stored - expected)}"
        )
