"""Bit-identity of synthetic trace generation, pinned by a digest table.

Generators write their ``(pc, address, gap, kind)`` records straight into
:class:`~repro.sim.batch.BatchedTrace` columns.  ``DIGESTS`` pins the
SHA-256 of every column (and the instruction total) for every registered
trace spec and for each generator's defaults, so any change to a
generator's RNG call sequence or address layout shows up here before it
reaches goldens or job keys.

Regenerate a row only together with an ``ENGINE_SCHEMA_VERSION`` bump.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Tuple

import pytest

from repro.sim.batch import BatchedTrace
from repro.workloads import (
    GENERATORS,
    GraphWorkload,
    StridedWorkload,
    TraceSpec,
    WorkloadGenerator,
    all_trace_specs,
)

#: Accesses generated per case: short, but past several graph-init sweeps.
LENGTH = 1200

DIGESTS = {
    "spec06/leslie3d-like": "b5f889fa5ff21b0c1ec29bb35d14505a58904b887e361a785864fef8bb48c0d8",
    "spec06/milc-like": "fd1ecd5191ee0a1c555f3aeb222f876c1accd2488ec415f7d9c89842ecaf752d",
    "spec06/libquantum-like": "e192e7438b8607860ba4b851b2a780c68b1b8c393b047611787f16faee09bdd1",
    "spec06/GemsFDTD-like": "b3eee223f14d84839defd305ec0458962dee7c26f25bf58c20e4b29722c44af9",
    "spec06/soplex-like": "2858ebbe27d7135c3863729ef3142d32a771c2843faba2ca1d36dd66974ce03f",
    "spec06/sphinx3-like": "c7152114ce83594d49b47595186e23639298893c459454ad5e3f28df756e4ad3",
    "spec06/gcc-like": "67950a7906ab44a8698ac45a2a46d260671ef2114996b0ba2e478f36fb8b6c6a",
    "spec06/mcf-like": "19c69bb43b326fb50a6cc96043c6c21fd0be0e8d4f1e06d83230fadf76da6b5d",
    "spec06/omnetpp-like": "281d55f3215a77408b58ad271552643279798acb002d42d7dd9a2fa510af435c",
    "spec06/cactusADM-like": "83b3233da2af3405e96a51633a8b88ab84fce810f93b998fb1b0f01546425033",
    "spec06/lbm-like": "6bb60f6dce689d854545fab9a89aef55e35ad7ca208ea6abce7e1ce2c007945a",
    "spec06/wrf-like": "3b20b9b80e953c5c4beb0670272ea02fe380378934d62993dcf3e16992940b22",
    "spec17/bwaves_s-like": "1d09dd04081504f41ea486904b3e586f7751ac1f44f9eabf6060b8a3df14b485",
    "spec17/lbm_s-like": "e2af205eb0ea797c9b0f96c1aa211d62339c5f5ca996f8e4d2dbfb1c31824f33",
    "spec17/roms_s-like": "d654d03b7c35384c18885edbb9cdb76e9e87f9ea4cf7bff1e4d05a0c5930e98b",
    "spec17/fotonik3d_s-like": "ac1bde7226d8c48c862c2712804346fbcca077451bd72374be9f5b91049df323",
    "spec17/cam4_s-like": "cc01f7d09f4476add667569b9580b39dbb248020c51fa318db78885318a618be",
    "spec17/pop2_s-like": "d8de48e52e66c6bddf7f011c2e18335c879b342acabe05d54dab9e58af0705cb",
    "spec17/gcc_s-like": "8906467c8450eb0b88a27bfac7d0c42416b1a43386e792947ea4720529eed9d0",
    "spec17/xalancbmk_s-like": "c80063ef1eb79e247c4f3e20c0a99644476bb1d9f246c98854b18d0e382bcd7b",
    "spec17/mcf_s-like": "e5f3355510984522b4297b6e53e4842c3cfc9e5ff8a132cf80f03cd6dc0984f0",
    "spec17/omnetpp_s-like": "f7bf04759c69bdcd3bace47628707a907fd21e0b7c02a4ca7e74c647c40fac20",
    "spec17/cactuBSSN_s-like": "e77749f6085f2380d3e761e22bc2111a22504ceffbfc346e0b2045c7fa79a4ec",
    "spec17/wrf_s-like": "173fe51ed43f24eba3423d674a88596f0124229801511977f2872768bba36080",
    "ligra/PageRank-init-like": "1b35e4b7819ffd79282c5e848382818d7e6bd2f9d95a0060861f2627f03e5664",
    "ligra/PageRank-like": "833cc50bd03237f443423d2acd4a261d3a213f488ab2ff9cdd8eb4a5876c58da",
    "ligra/BFS-init-like": "566de0f76fc8630a734abd84674aa7c4f249cbb9aa5e1e6284573acd5a5bb121",
    "ligra/BFS-like": "8727cadd2f89fcaaf9f39f5d8e7840e4da7942f2579da893b201c9dd1d8a1c70",
    "ligra/BellmanFord-like": "9e923375eb8f65002bf4dc54b3db60950cb9386ed1bcf721382870d982231025",
    "ligra/Components-like": "0290d2f409fb4aed647800f0b40c42ba6522382688537b237fe66f836edf9101",
    "ligra/BC-like": "2230f47a1467ba0def7567c19650226af84d3309ac0abbc341e5bbe2d9320da5",
    "ligra/MIS-like": "504342a8f62d3cc05513bd13aa020ec00da6048498de00f515935fc3c6f443b0",
    "parsec/facesim-like": "3250ff0328df8ce927eb03c6c71e3092bd525f07dfaf1a8cfe4712a703c768e7",
    "parsec/streamcluster-like": "57d4acf516b1ae673ce21ac9cb9cca9fd2d552e25a493f9e224b3e169ee6d0c5",
    "parsec/canneal-like": "7204387e1cfbc008b11f817364c7b35d1600093e405a233bc98220e46e50efbf",
    "parsec/fluidanimate-like": "e648ecc7de21661fd357363d281b4698c700eae3c30e90e4e4891b43b110b7d8",
    "cloud/cassandra-like": "9f79a58e1c0a5d3c7a185ed244b8d4961f998b445621f4396829c022a0bb9790",
    "cloud/nutch-like": "acf82d7c49df0d4af3e8c3f6fa970beef426276074ac97ec0d5bd5ac2da15b22",
    "cloud/cloud9-like": "ce01f5889bb3af397d49bd36e2efd5fcae7ffff9ddd9fa1df305b092294554b8",
    "cloud/streaming-srv-like": "1787422890fbd90836f81c52e8d08577b334ddad7b9a73b83160d303320f867f",
    "cloud/classification-like": "f59eed215eff7e9578bf6ebb56c051c2789ac034871346f2ab79c34f0eddac68",
    "gap/pr.twi-like": "1262f8c8d21bdf8d636ddd73a3a8d2f58b0df674b4f84f2d153aa83988c525c0",
    "gap/pr.web-like": "4d104e921dc360a71c0e7ef32dc749525221a03604f8ccb859e3d9146698b926",
    "gap/cc.twi-like": "a8bb93b9c4a17106a24f2d05561847afea002da574c62573d0c1ab0240f19c3b",
    "gap/cc.web-like": "e3c5f13644fded6ca4a4308d2f2a68bfc8757668aa279b4614c85b8e134f8533",
    "gap/tc.twi-like": "2edea2e48ff9c9cff8dd9abb4322e6715ff36ba0b7f9b2cd82e27883db6ee536",
    "gap/tc.web-like": "96c8cbe350946e69a7a6aac258aaa5e39b465b1328dfa1a159003efedcedf183",
    "qmm-server/srv.09-like": "eb830edf54f1d788a6d282e311a732768a316225950824ce7471fc51da43cba8",
    "qmm-server/srv.27-like": "f0017eff48940a192093f978d60cc9a836979c9df3cacd96bd0f0d1eb4656179",
    "qmm-server/srv.46-like": "498bacb4fc44523cde1592dc36dd3f6c9a196ebde4ffc420dd2eabefe86cd382",
    "qmm-client/clt.fp.06-like": "a639d01118e3b2c2661b5e902f26153141552a3aeaa4054f6878c6964f47c6ec",
    "qmm-client/clt.int.01-like": "388e0695fc485199c00d3fba98e018fbcbb9276f7e4a5b99367cd65819b69813",
    "qmm-client/clt.int.19-like": "5b087477b8233f83a5c2b348cb07b2f7f8840d5397c67f6901d86ef13573de19",
    "temporal/linkwalk-like": "719e501e05014e67e42057e9824de7ad811e06e4ff568625a3c005070704ae9c",
    "temporal/linkwalk-deep-like": "b5af6dd04a372d68bfb07000eadf189cb6c15e62ab85bed56e9f1d86f68e88ac",
    "temporal/kvprobe-like": "e509de0e65998ce08beb9dc6d8481974c37f9b58f6b5aa41ae5cc0aa2228a945",
    "temporal/kvprobe-hot-like": "9ab3d4941b5c16f7c07f7532cbfca95d3e8f9171d267d1f7ebe793d963ff2476",
    "temporal/ringqueue-like": "ee99bbf6f87f074b2ec131f74b3c4748b8d7fbcf57bcdcd460c537aceda5d049",
    "temporal/ringqueue-wide-like": "c8f6cb70ae6e2b158df0a86e64de68b705a16e0df3c59c2df3bc3c027de679e4",
    "generator/cloud": "7fca3d7058f982bae554bf031cba1e873b40592e5498d704476310f5f2437170",
    "generator/graph": "694459ab9a26129c00ef4545624f06b76db91a91f224f68e353dcae544b69a8a",
    "generator/hash-probe": "d136fcc925a7ff983f5f7b0871558250f9f780c5fa87e918516e186b8b390dcc",
    "generator/mixed": "995d6128933ea7ade8cdcba6669b34ca4a5dd65988b7f54cf6a0762942301505",
    "generator/pointer-chase": "1da20425fc216125a0ec2bd604d6c4db67cb16a7679cbbdb0fac773bf611ec53",
    "generator/ring": "57c2ca2d6bcde38fec2178322a02489c7659768983b09bc11f142d303eb98561",
    "generator/spatial": "9a623c3e69f5d0fa9462342b26e044f9c29c0dfdd37e9871ee299a30e657ab84",
    "generator/streaming": "45389fb660a5c648213b739ef6ca1076b5627d474149357168885ac0e05203f7",
    "generator/strided": "22dc5fef83bb0f84d382e8fe964bc3510b46b3f43768f7b43f34ce6c791ee38b",
    "generator/temporal-pointer": "3c6b30e1beb35d141f82f85ffe7952e371fe45c1b31e0894c0f77631cbe4f09c",
    "generator/graph-init-multipass": "ed678fd00d1feddd475cc1f96c76edcd2960617ca693fd9f0b515849043e769b",
}


def _cases() -> Iterator[Tuple[str, TraceSpec]]:
    for spec in all_trace_specs(main_only=False):
        yield f"{spec.suite}/{spec.name}", spec
    for name in sorted(GENERATORS):
        yield f"generator/{name}", TraceSpec(
            name=name, suite="adhoc", generator=name, seed=5, length=LENGTH
        )
    # 24 vertices of ~3 edges: one init sweep is ~100 accesses.
    yield "generator/graph-init-multipass", TraceSpec(
        name="graph-init", suite="adhoc", generator="graph", seed=9,
        length=LENGTH,
        params={"num_vertices": 24, "avg_degree": 3, "phase": "init"},
    )


CASES = dict(_cases())


def _digest(trace: BatchedTrace) -> str:
    payload = repr((
        trace.addresses, trace.pcs, trace.gaps, bytes(trace.kinds),
        trace.blocks, trace.instruction_total,
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


def test_table_covers_every_case():
    assert sorted(CASES) == sorted(DIGESTS)
    assert len(CASES) == len(all_trace_specs(main_only=False)) + len(GENERATORS) + 1


@pytest.mark.parametrize("key", sorted(CASES))
def test_generated_columns_match_digest(key):
    trace = CASES[key].build(length=LENGTH)
    assert isinstance(trace, BatchedTrace)
    assert len(trace) == LENGTH
    assert _digest(trace) == DIGESTS[key]


def test_columns_agree_with_their_decoded_accesses():
    trace = CASES["generator/ring"].build(length=LENGTH)
    decoded = BatchedTrace.from_accesses(trace)
    assert _digest(decoded) == _digest(trace)
    assert decoded == trace
    assert trace == list(trace)
    assert trace != list(trace)[:-1]


class TestGenerationGuards:
    def test_strided_needs_a_stream(self):
        with pytest.raises(ValueError, match="num_streams"):
            StridedWorkload(num_streams=0)

    def test_graph_needs_a_vertex(self):
        with pytest.raises(ValueError, match="num_vertices"):
            GraphWorkload(num_vertices=0)

    def test_finite_passes_are_replayed(self):
        class ThreeAccesses(WorkloadGenerator):
            def _generate(self):
                for index in range(3):
                    yield self.access(0x400, index * 64)

        trace = ThreeAccesses(length=7, mean_instr_gap=0).generate()
        assert trace.addresses == [0, 64, 128, 0, 64, 128, 0]
        assert trace.instruction_total == 7

    def test_empty_pass_raises(self):
        class Empty(WorkloadGenerator):
            def _generate(self):
                return iter(())

        with pytest.raises(ValueError, match="empty pass"):
            Empty(length=5).generate()
