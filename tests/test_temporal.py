"""Unit tests for the temporal-prefetching tier (Triangel + GHB/Markov).

Covers the mechanisms the simulator-level goldens cannot isolate: GHB's
linked-occurrence walk and validity window, Triangel's sampled reuse
confidence, distance-pair Markov training and pollution resistance, the
miss-stream filter both designs share, and the guarantee that
``kernel="compiled"`` silently falls back (bit-identically) for designs
without a compiled twin.
"""

from __future__ import annotations

import pytest

from repro.prefetchers import create_prefetcher
from repro.prefetchers.compiled import compiled_twin
from repro.prefetchers.temporal import GHBMarkovPrefetcher, TriangelPrefetcher
from repro.sim.simulator import simulate_trace
from repro.sim.types import AccessResult, unpack_prefetch
from repro.workloads.trace import TraceSpec

PC = 0x400


def _train_sequence(prefetcher, blocks, pc=PC, start_cycle=0):
    """Train on block numbers; returns all issued request block numbers."""
    issued = []
    cycle = start_cycle
    for block in blocks:
        for packed in prefetcher.train(pc, block * 64, cycle):
            issued.append(unpack_prefetch(packed)[0])
        cycle += 1
    return issued, cycle


# --------------------------------------------------------------------------- #
# GHB / Markov baseline
# --------------------------------------------------------------------------- #
class TestGHBMarkov:
    def test_predicts_followers_at_distance_on_recurrence(self):
        p = GHBMarkovPrefetcher(distance=1, depth=2, degree=4, width=1)
        seq = list(range(0x1000, 0x1000 + 40))
        first, cycle = _train_sequence(p, seq)
        assert first == []  # nothing to correlate on the first pass
        # Second pass: at each re-observed block the followers recorded
        # ``distance+1 .. distance+depth`` slots after its previous
        # occurrence are prefetched — blocks 2 and 3 ahead in the cycle.
        issued = []
        for i, block in enumerate(seq[:20]):
            requests = p.train(PC, block * 64, cycle + i)
            targets = [unpack_prefetch(p)[0] for p in requests]
            expected = [seq[(i + 2) % len(seq)], seq[(i + 3) % len(seq)]]
            assert targets == expected
            issued.extend(targets)
        assert issued

    def test_degree_caps_targets(self):
        p = GHBMarkovPrefetcher(distance=0, depth=8, degree=2, width=1)
        seq = list(range(0x2000, 0x2000 + 32))
        _train_sequence(p, seq)
        requests = p.train(PC, seq[0] * 64, 100)
        assert 0 < len(requests) <= 2

    def test_overwritten_history_is_not_followed(self):
        # 8-slot buffer: by the time the first block recurs, its previous
        # occurrence has been overwritten, so the stale index position must
        # be ignored rather than misread.
        p = GHBMarkovPrefetcher(ghb_entries=8, distance=0, depth=2)
        seq = list(range(0x3000, 0x3000 + 20))
        _train_sequence(p, seq)
        assert p.train(PC, seq[0] * 64, 100) == []

    def test_observes_only_the_miss_stream(self):
        p = GHBMarkovPrefetcher()
        hit = AccessResult(latency=5, hit_level="L1D")
        assert p.train(PC, 0x1000 * 64, 0, result=hit) == []
        assert p._head == 0  # an L1 hit leaves no trace in the buffer
        miss = AccessResult(latency=10, hit_level="L2C")
        p.train(PC, 0x1000 * 64, 1, result=miss)
        assert p._head == 1

    def test_reset_clears_state(self):
        p = GHBMarkovPrefetcher()
        _train_sequence(p, list(range(0x4000, 0x4000 + 16)))
        p.reset()
        assert p._head == 0
        assert p.index.get(0x4000) is None

    def test_storage_scales_with_tables(self):
        small = GHBMarkovPrefetcher(ghb_entries=256, index_entries=256)
        large = GHBMarkovPrefetcher(ghb_entries=4096, index_entries=4096)
        assert 0 < small.storage_bits() < large.storage_bits()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GHBMarkovPrefetcher(ghb_entries=0)
        with pytest.raises(ValueError):
            GHBMarkovPrefetcher(degree=0)
        with pytest.raises(ValueError):
            GHBMarkovPrefetcher(distance=-1)


# --------------------------------------------------------------------------- #
# Triangel-style prefetcher
# --------------------------------------------------------------------------- #
def _eager_triangel(**overrides):
    """A Triangel with warmup shortened so unit traces train quickly."""
    params = dict(
        sample_rate=1, train_threshold=1, predict_threshold=1,
        distance=4, degree=2,
    )
    params.update(overrides)
    return TriangelPrefetcher(**params)


class TestTriangel:
    def test_first_pass_is_silent(self):
        p = _eager_triangel()
        issued, _ = _train_sequence(p, list(range(0x5000, 0x5000 + 48)))
        assert issued == []

    def test_predicts_at_distance_after_training(self):
        p = _eager_triangel(distance=4, degree=2)
        seq = list(range(0x6000, 0x6000 + 48))
        # Two passes: pass 2 observes every sampled block again (raising
        # reuse confidence) and trains the distance-4 Markov pairs.
        _, cycle = _train_sequence(p, seq * 2)
        for i, block in enumerate(seq[:16]):
            requests = p.train(PC, block * 64, cycle + i)
            targets = [unpack_prefetch(p)[0] for p in requests]
            # One Markov hop lands ``distance`` ahead, the second doubles it.
            expected = [seq[(i + 4) % len(seq)], seq[(i + 8) % len(seq)]]
            assert targets == expected

    def test_sampler_gates_markov_training(self):
        # train_threshold=2 with a sampler that can never observe a reuse:
        # every block is unique, so reuse confidence stays 0 and the Markov
        # table is never trained or queried.
        p = TriangelPrefetcher(
            sample_rate=1, train_threshold=2, predict_threshold=1,
            distance=2, degree=2,
        )
        issued, _ = _train_sequence(p, list(range(0x7000, 0x7000 + 400)))
        assert issued == []
        assert p.markov.get(*p._markov_key(0x7000)) is None

    def test_one_shot_pairs_do_not_predict(self):
        # predict_threshold=2 (the registry default): a correlation seen
        # once must not issue — the pollution-resistance property that
        # keeps Triangel neutral on streams it cannot replay.
        p = _eager_triangel(predict_threshold=2)
        seq = list(range(0x8000, 0x8000 + 48))
        issued, cycle = _train_sequence(p, seq * 2)
        assert issued == []  # pairs trained once, confidence 1 < 2
        issued3, _ = _train_sequence(p, seq, start_cycle=cycle)
        assert issued3  # the recurrence confirmed the pairs

    def test_observes_only_the_miss_stream(self):
        p = _eager_triangel()
        hit = AccessResult(latency=5, hit_level="L1D")
        assert p.train(PC, 0x9000 * 64, 0, result=hit) == []
        assert p.training.get(PC, touch=False) is None

    def test_reset_clears_state(self):
        p = _eager_triangel()
        _train_sequence(p, list(range(0xA000, 0xA000 + 64)) * 2)
        p.reset()
        assert p.training.get(PC, touch=False) is None
        issued, _ = _train_sequence(p, list(range(0xA000, 0xA000 + 8)))
        assert issued == []

    def test_storage_accounts_for_history_depth(self):
        short = TriangelPrefetcher(distance=4)
        long = TriangelPrefetcher(distance=16)
        assert 0 < short.storage_bits() < long.storage_bits()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TriangelPrefetcher(sample_rate=0)
        with pytest.raises(ValueError):
            TriangelPrefetcher(degree=0)
        with pytest.raises(ValueError):
            TriangelPrefetcher(distance=0)


# --------------------------------------------------------------------------- #
# Compiled-tier behaviour: twins where supported, silent identical fallback
# --------------------------------------------------------------------------- #
class TestCompiledFallback:
    @pytest.fixture(scope="class")
    def temporal_trace(self):
        return TraceSpec(
            name="fallback", suite="test", generator="temporal-pointer",
            seed=5, length=3_500,
            params={"num_nodes": 900, "noise_fraction": 0.02},
        ).build()

    def test_ghb_has_no_compiled_twin(self):
        assert compiled_twin(create_prefetcher("ghb")) is None

    def test_triangel_has_compiled_twin_when_built(self):
        from repro.prefetchers.compiled import compiled_available

        twin = compiled_twin(create_prefetcher("triangel"))
        if compiled_available():
            assert twin is not None and twin.name == "triangel"
        else:
            assert twin is None

    @pytest.mark.parametrize("name", ["triangel", "ghb", "pmp"])
    def test_kernel_compiled_matches_python_bit_identically(
        self, temporal_trace, name
    ):
        reference = simulate_trace(
            temporal_trace, prefetcher=create_prefetcher(name),
            kernel="python",
        )
        compiled = simulate_trace(
            temporal_trace, prefetcher=create_prefetcher(name),
            kernel="compiled",
        )
        ref = reference.to_dict()
        got = compiled.to_dict()
        ref.pop("extra", None)
        got.pop("extra", None)
        assert ref == got
        # The run must have exercised the prefetcher, or the equality
        # proves nothing.
        assert reference.prefetch.issued > 0
