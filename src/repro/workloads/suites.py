"""Benchmark suites mirroring the paper's Table III.

Each suite is a list of :class:`repro.workloads.trace.TraceSpec`.  Trace
names follow the paper's naming (``bwaves_s-like``, ``PageRank-like``,
``cassandra-like`` ...) so that figure reproductions read like the paper's
x-axes.  The number of traces per suite is scaled down from the paper's 201
(this is a Python reproduction; the simulator is several orders of magnitude
slower than ChampSim), but every suite and every access-pattern family is
represented.  Experiments can scale trace length via ``build(length=...)``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.workloads.trace import TraceSpec


def _spec(name, suite, generator, seed, **params) -> TraceSpec:
    return TraceSpec(
        name=name, suite=suite, generator=generator, params=params, seed=seed
    )


# --------------------------------------------------------------------------- #
# SPEC CPU2006-like: scientific streaming + integer irregular/spatial codes.
# --------------------------------------------------------------------------- #
SPEC06_TRACES: List[TraceSpec] = [
    _spec("leslie3d-like", "spec06", "streaming", 101, num_arrays=3),
    _spec("milc-like", "spec06", "streaming", 102, num_arrays=2, revisit_fraction=0.3),
    _spec("libquantum-like", "spec06", "strided", 103, stride_blocks=1, num_streams=1),
    _spec("GemsFDTD-like", "spec06", "strided", 104, stride_blocks=2, num_streams=3),
    _spec("soplex-like", "spec06", "spatial", 105, num_classes=10, footprint_blocks=20),
    _spec("sphinx3-like", "spec06", "spatial", 106, num_classes=16, footprint_blocks=12),
    _spec("gcc-like", "spec06", "spatial", 107, num_classes=24, footprint_blocks=8,
          noise_fraction=0.25),
    _spec("mcf-like", "spec06", "pointer-chase", 108),
    _spec("omnetpp-like", "spec06", "pointer-chase", 109, locality_fraction=0.45),
    _spec("cactusADM-like", "spec06", "mixed", 110, dense_fraction=0.7),
    _spec("lbm-like", "spec06", "streaming", 111, num_arrays=4, accesses_per_block=1),
    _spec("wrf-like", "spec06", "mixed", 112, dense_fraction=0.55),
]

# --------------------------------------------------------------------------- #
# SPEC CPU2017-like.
# --------------------------------------------------------------------------- #
SPEC17_TRACES: List[TraceSpec] = [
    _spec("bwaves_s-like", "spec17", "streaming", 201, num_arrays=2,
          accesses_per_block=2),
    _spec("lbm_s-like", "spec17", "streaming", 202, num_arrays=4, accesses_per_block=1),
    _spec("roms_s-like", "spec17", "streaming", 203, num_arrays=3, revisit_fraction=0.2),
    _spec("fotonik3d_s-like", "spec17", "spatial", 204, num_classes=8,
          classes_per_trigger=4, footprint_blocks=24),
    _spec("cam4_s-like", "spec17", "mixed", 205, dense_fraction=0.6),
    _spec("pop2_s-like", "spec17", "mixed", 206, dense_fraction=0.5, prefix_blocks=8),
    _spec("gcc_s-like", "spec17", "spatial", 207, num_classes=24, footprint_blocks=8,
          noise_fraction=0.3),
    _spec("xalancbmk_s-like", "spec17", "spatial", 208, num_classes=32,
          footprint_blocks=6, noise_fraction=0.35, concurrency=8),
    _spec("mcf_s-like", "spec17", "pointer-chase", 209),
    _spec("omnetpp_s-like", "spec17", "pointer-chase", 210, locality_fraction=0.4),
    _spec("cactuBSSN_s-like", "spec17", "strided", 211, stride_blocks=2, num_streams=4),
    _spec("wrf_s-like", "spec17", "mixed", 212, dense_fraction=0.65),
]

# --------------------------------------------------------------------------- #
# Ligra-like graph analytics (both phases, several algorithms).
# --------------------------------------------------------------------------- #
LIGRA_TRACES: List[TraceSpec] = [
    _spec("PageRank-init-like", "ligra", "graph", 301, algorithm="pagerank",
          phase="init"),
    _spec("PageRank-like", "ligra", "graph", 302, algorithm="pagerank",
          phase="compute"),
    _spec("BFS-init-like", "ligra", "graph", 303, algorithm="bfs", phase="init"),
    _spec("BFS-like", "ligra", "graph", 304, algorithm="bfs", phase="compute"),
    _spec("BellmanFord-like", "ligra", "graph", 305, algorithm="bellman-ford",
          phase="compute"),
    _spec("Components-like", "ligra", "graph", 306, algorithm="components",
          phase="compute"),
    _spec("BC-like", "ligra", "graph", 307, algorithm="bfs", phase="compute",
          avg_degree=12),
    _spec("MIS-like", "ligra", "graph", 308, algorithm="components", phase="compute",
          avg_degree=6),
]

# --------------------------------------------------------------------------- #
# PARSEC-like.
# --------------------------------------------------------------------------- #
PARSEC_TRACES: List[TraceSpec] = [
    _spec("facesim-like", "parsec", "mixed", 401, dense_fraction=0.6),
    _spec("streamcluster-like", "parsec", "streaming", 402, num_arrays=2,
          revisit_fraction=0.4),
    _spec("canneal-like", "parsec", "pointer-chase", 403, locality_fraction=0.2),
    _spec("fluidanimate-like", "parsec", "strided", 404, stride_blocks=2),
]

# --------------------------------------------------------------------------- #
# CloudSuite-like scale-out server workloads.
# --------------------------------------------------------------------------- #
CLOUD_TRACES: List[TraceSpec] = [
    _spec("cassandra-like", "cloud", "cloud", 501, num_handlers=32,
          handlers_per_trigger=4, irregular_fraction=0.40),
    _spec("nutch-like", "cloud", "cloud", 502, num_handlers=24,
          handlers_per_trigger=3, irregular_fraction=0.45),
    _spec("cloud9-like", "cloud", "cloud", 503, num_handlers=40,
          handlers_per_trigger=5, irregular_fraction=0.50, footprint_blocks=6),
    _spec("streaming-srv-like", "cloud", "cloud", 504, num_handlers=16,
          handlers_per_trigger=2, irregular_fraction=0.30, strided_fraction=0.2),
    _spec("classification-like", "cloud", "cloud", 505, num_handlers=28,
          handlers_per_trigger=4, irregular_fraction=0.45, footprint_blocks=10),
]

# --------------------------------------------------------------------------- #
# GAP-like graph analytics (supplementary, Fig. 12a).
# --------------------------------------------------------------------------- #
GAP_TRACES: List[TraceSpec] = [
    _spec("pr.twi-like", "gap", "graph", 601, algorithm="pagerank", phase="compute",
          num_vertices=8192, avg_degree=16),
    _spec("pr.web-like", "gap", "graph", 602, algorithm="pagerank", phase="compute",
          num_vertices=8192, avg_degree=6),
    _spec("cc.twi-like", "gap", "graph", 603, algorithm="components", phase="compute",
          num_vertices=8192, avg_degree=16),
    _spec("cc.web-like", "gap", "graph", 604, algorithm="components", phase="compute",
          num_vertices=8192, avg_degree=6),
    _spec("tc.twi-like", "gap", "graph", 605, algorithm="bfs", phase="compute",
          num_vertices=8192, avg_degree=16),
    _spec("tc.web-like", "gap", "graph", 606, algorithm="bfs", phase="compute",
          num_vertices=8192, avg_degree=6),
]

# --------------------------------------------------------------------------- #
# QMM-like industry traces (supplementary, Fig. 12b): server workloads are
# instruction-miss bound (low data-miss sensitivity -> large instruction
# gaps); client workloads are memory-intensive computing tasks.
# --------------------------------------------------------------------------- #
QMM_TRACES: List[TraceSpec] = [
    _spec("srv.09-like", "qmm-server", "cloud", 701, irregular_fraction=0.55,
          mean_instr_gap=30.0, footprint_blocks=5),
    _spec("srv.27-like", "qmm-server", "cloud", 702, irregular_fraction=0.50,
          mean_instr_gap=35.0, footprint_blocks=6),
    _spec("srv.46-like", "qmm-server", "cloud", 703, irregular_fraction=0.60,
          mean_instr_gap=28.0, footprint_blocks=4),
    _spec("clt.fp.06-like", "qmm-client", "streaming", 704, num_arrays=3),
    _spec("clt.int.01-like", "qmm-client", "spatial", 705, num_classes=12,
          footprint_blocks=16),
    _spec("clt.int.19-like", "qmm-client", "strided", 706, stride_blocks=2),
]

# --------------------------------------------------------------------------- #
# Temporal-reuse workloads (not in the paper's Table III): the recurring
# address sequences temporal prefetchers replay, used by the
# spatial-vs-temporal comparison (fig19) and the hit-dense kernel tests.
# --------------------------------------------------------------------------- #
TEMPORAL_TRACES: List[TraceSpec] = [
    _spec("linkwalk-like", "temporal", "temporal-pointer", 801),
    _spec("linkwalk-deep-like", "temporal", "temporal-pointer", 802,
          num_nodes=3072, noise_fraction=0.02),
    _spec("kvprobe-like", "temporal", "hash-probe", 803),
    _spec("kvprobe-hot-like", "temporal", "hash-probe", 804, num_keys=256,
          zipf_s=4.0, miss_fraction=0.05),
    _spec("ringqueue-like", "temporal", "ring", 805),
    _spec("ringqueue-wide-like", "temporal", "ring", 806, slots=512,
          item_blocks=2, lag=128),
]

#: All suites keyed by the names used throughout the experiments.
SUITES: Dict[str, List[TraceSpec]] = {
    "spec06": SPEC06_TRACES,
    "spec17": SPEC17_TRACES,
    "ligra": LIGRA_TRACES,
    "parsec": PARSEC_TRACES,
    "cloud": CLOUD_TRACES,
    "gap": GAP_TRACES,
    "qmm-server": [t for t in QMM_TRACES if t.suite == "qmm-server"],
    "qmm-client": [t for t in QMM_TRACES if t.suite == "qmm-client"],
    "temporal": TEMPORAL_TRACES,
}

#: The suites making up the paper's main single-core evaluation set.
MAIN_SUITES = ("spec06", "spec17", "ligra", "parsec", "cloud")


def suite_names() -> List[str]:
    """Names of all available suites."""
    return list(SUITES)


def trace_specs_for_suite(suite: str) -> List[TraceSpec]:
    """Trace specifications of one suite."""
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; known: {', '.join(SUITES)}")
    return list(SUITES[suite])


def all_trace_specs(main_only: bool = True) -> List[TraceSpec]:
    """All trace specs, optionally restricted to the main evaluation suites."""
    suites = MAIN_SUITES if main_only else tuple(SUITES)
    specs: List[TraceSpec] = []
    for suite in suites:
        specs.extend(SUITES[suite])
    return specs
