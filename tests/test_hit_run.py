"""Hit-dense traces: every kernel agrees at chunk edges and mid-run cuts.

The temporal-reuse generators produce long runs of consecutive L1 hits —
ring traffic re-touches a small slot window and a resident pointer cycle
replays its node blocks.  This suite runs them through the scalar
reference loop, the batched Python loop, the chunk-streamed loop and the
C driver (``kernel="compiled"``; without the extension that run falls back
to Python and the comparison still holds), at trace lengths straddling
the chunk boundary (``DEFAULT_CHUNK_ACCESSES``) and with instruction
budgets and warm-up cuts landing inside a run of hits, and requires
bit-identical statistics from all of them.
"""

from __future__ import annotations

import pytest

from repro.prefetchers import create_prefetcher
from repro.sim.batch import DEFAULT_CHUNK_ACCESSES
from repro.sim.simulator import simulate_trace
from repro.workloads import formats as trace_formats
from repro.workloads.trace import TraceSpec

CHUNK = DEFAULT_CHUNK_ACCESSES


def _trace(generator, seed=11, length=4_000, **params):
    return TraceSpec(
        name=f"{generator}-s{seed}", suite="test", generator=generator,
        seed=seed, length=length, params=params,
    ).build()


def _stats_dict(stats):
    data = stats.to_dict()
    data.pop("extra", None)
    return data


def _assert_identical(reference, candidate, label):
    assert _stats_dict(reference) == _stats_dict(candidate), (
        f"kernel diverged from the scalar kernel ({label})"
    )


# --------------------------------------------------------------------------- #
# Scalar == batched == streamed == compiled at chunk-boundary run lengths
# --------------------------------------------------------------------------- #
class TestChunkBoundaryEquality:
    @pytest.mark.parametrize(
        "length", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 17]
    )
    def test_ring_trace_identical_across_kernels(self, length):
        # Ring traffic produces hit runs dense enough that the chunk edge
        # lands inside one for every length here.
        trace = _trace("ring", length=length)
        scalar = simulate_trace(trace, batch="off")
        batched = simulate_trace(trace)
        compiled = simulate_trace(trace, kernel="compiled")
        _assert_identical(scalar, batched, f"ring, length={length}")
        _assert_identical(scalar, compiled, f"compiled ring, length={length}")

    def test_resident_pointer_cycle_with_triangel(self):
        # A temporal prefetcher in the loop: prefetch side effects and hit
        # runs interleave across the chunk boundary.
        trace = _trace(
            "temporal-pointer", length=CHUNK + 1, num_nodes=256,
            noise_fraction=0.02,
        )
        scalar = simulate_trace(
            trace, prefetcher=create_prefetcher("triangel"), batch="off"
        )
        batched = simulate_trace(trace, prefetcher=create_prefetcher("triangel"))
        compiled = simulate_trace(
            trace, prefetcher=create_prefetcher("triangel"), kernel="compiled"
        )
        _assert_identical(scalar, batched, "temporal-pointer/triangel")
        _assert_identical(scalar, compiled, "compiled temporal-pointer/triangel")

    @pytest.mark.parametrize("max_instructions", [10_007, 20_011])
    def test_budget_cut_lands_mid_run(self, max_instructions):
        # Odd budgets on a hit-dense trace: exhaustion lands inside a run
        # of hits, and every kernel must stop after the same access.
        trace = _trace("ring", length=12_000)
        scalar = simulate_trace(
            trace, batch="off", max_instructions=max_instructions
        )
        batched = simulate_trace(trace, max_instructions=max_instructions)
        compiled = simulate_trace(
            trace, kernel="compiled", max_instructions=max_instructions
        )
        _assert_identical(scalar, batched, f"budget={max_instructions}")
        _assert_identical(scalar, compiled, f"compiled budget={max_instructions}")
        assert scalar.instructions <= max_instructions + 64

    def test_warmup_cut_lands_mid_run(self):
        trace = _trace("ring", length=12_000)
        scalar = simulate_trace(
            trace, batch="off", warmup_instructions=5_003
        )
        batched = simulate_trace(trace, warmup_instructions=5_003)
        compiled = simulate_trace(
            trace, kernel="compiled", warmup_instructions=5_003
        )
        _assert_identical(scalar, batched, "warmup=5003")
        _assert_identical(scalar, compiled, "compiled warmup=5003")

    def test_warmup_and_budget_together(self):
        trace = _trace("temporal-pointer", length=12_000, num_nodes=256)
        cuts = dict(warmup_instructions=5_003, max_instructions=30_011)
        scalar = simulate_trace(trace, batch="off", **cuts)
        batched = simulate_trace(trace, **cuts)
        compiled = simulate_trace(trace, kernel="compiled", **cuts)
        _assert_identical(scalar, batched, "warmup+budget")
        _assert_identical(scalar, compiled, "compiled warmup+budget")

    def test_streamed_shapes_identical(self, tmp_path):
        # The same trace through a file: replayed stream, decoded-batched
        # stream, eager batched and the compiled driver over the stream all
        # match the materialized scalar run.
        length = CHUNK + 1
        trace = _trace("ring", length=length)
        path = tmp_path / "ring.gzt.gz"
        trace_formats.save_trace_file(iter(trace), str(path))
        spec = TraceSpec.from_file(
            str(path), name="ring-stream", suite="test", length=length
        )
        scalar = simulate_trace(trace, batch="off")
        _assert_identical(
            scalar, simulate_trace(spec.replayable(), batch="off"),
            "streamed scalar",
        )
        _assert_identical(
            scalar, simulate_trace(spec.build()), "spec.build()"
        )
        _assert_identical(
            scalar, simulate_trace(spec.replayable()),
            "batch=auto over a stream",
        )
        _assert_identical(
            scalar, simulate_trace(spec.replayable(), kernel="compiled"),
            "compiled over a stream",
        )
