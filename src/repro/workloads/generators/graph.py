"""Graph-analytics workload generator (Ligra / GAP stand-in).

The paper analyses BFS-style frontier processing in detail (Fig. 5): graph
algorithms interleave

* dense streaming over the CSR offsets / edge arrays and over the frontier,
  with
* irregular accesses to per-vertex data that is scattered across many
  regions.

Two phases are modelled, matching the paper's observation that Ligra traces
from the *initial* phase (data preparation, almost pure streaming) behave
very differently from traces of the *computing* phase (interleaved
streaming + irregular):

* ``phase="init"``   -- building the CSR arrays: long dense sweeps.
* ``phase="compute"`` -- frontier traversal with neighbour lookups.

The synthetic graph is a power-law-ish random graph built with the seeded
RNG; no external graph data is required.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.workloads.generators.base import Access, WorkloadGenerator


class GraphWorkload(WorkloadGenerator):
    """CSR graph traversal with configurable algorithm and phase.

    Parameters:
        num_vertices: number of vertices in the synthetic graph.
        avg_degree: average out-degree.
        algorithm: ``"pagerank"`` (full sweeps of the vertex set) or
            ``"bfs"`` (sparse, level-by-level frontiers).
        phase: ``"init"`` or ``"compute"`` (see module docstring).
    """

    kind = "graph"

    #: Address-space bases (region numbers) of the CSR arrays.
    _OFFSETS_BASE = 0x10000
    _EDGES_BASE = 0x20000
    _DATA_BASE = 0x80000
    _FRONTIER_BASE = 0x30000

    def __init__(
        self,
        seed: int = 0,
        length: int = 50_000,
        num_vertices: int = 2048,
        avg_degree: int = 8,
        algorithm: str = "pagerank",
        phase: str = "compute",
        mean_instr_gap: float = 5.0,
        region_size: int = 4096,
    ) -> None:
        super().__init__(
            seed=seed,
            length=length,
            mean_instr_gap=mean_instr_gap,
            region_size=region_size,
        )
        if algorithm not in ("pagerank", "bfs", "bellman-ford", "components"):
            raise ValueError(f"unknown graph algorithm: {algorithm!r}")
        if phase not in ("init", "compute"):
            raise ValueError(f"unknown phase: {phase!r}")
        if num_vertices < 1:
            raise ValueError("num_vertices must be >= 1")
        self.num_vertices = num_vertices
        self.avg_degree = avg_degree
        self.algorithm = algorithm
        self.phase = phase
        self.adjacency = self._build_graph()
        # Dedicated PCs for each logical access site (Fig. 5's pseudocode).
        self.pc_offsets_load = self.new_pc()
        self.pc_edges_load = self.new_pc()
        self.pc_data_load = self.new_pc()
        self.pc_frontier_load = self.new_pc()
        self.pc_init_store = self.new_pc()

    # ------------------------------------------------------------------ #
    def _build_graph(self) -> List[List[int]]:
        """Build a skewed random adjacency list (preferential attachment-ish)."""
        adjacency: List[List[int]] = [[] for _ in range(self.num_vertices)]
        hubs = max(4, self.num_vertices // 64)
        for vertex in range(self.num_vertices):
            degree = max(1, int(self.rng.expovariate(1.0 / self.avg_degree)))
            neighbours = set()
            for _ in range(degree):
                if self.rng.random() < 0.3:
                    neighbours.add(self.rng.randrange(hubs))
                else:
                    neighbours.add(self.rng.randrange(self.num_vertices))
            adjacency[vertex] = sorted(neighbours)
        return adjacency

    # Address helpers ------------------------------------------------------ #
    def _offsets_address(self, vertex: int) -> int:
        return self._OFFSETS_BASE * self.region_size + vertex * 8

    def _edge_address(self, edge_index: int) -> int:
        return self._EDGES_BASE * self.region_size + edge_index * 8

    def _data_address(self, vertex: int) -> int:
        # Vertex data is padded so that consecutive vertices land in
        # different blocks, making neighbour lookups spatially irregular.
        return self._DATA_BASE * self.region_size + vertex * 72

    def _frontier_address(self, index: int) -> int:
        return self._FRONTIER_BASE * self.region_size + index * 8

    # Phases ---------------------------------------------------------------- #
    def _generate_init_phase(self) -> Iterable[Access]:
        """Data preparation: stream the offsets and edge arrays in order."""
        edge_index = 0
        while True:
            for vertex in range(self.num_vertices):
                yield self.access(self.pc_offsets_load, self._offsets_address(vertex))
                for _ in self.adjacency[vertex]:
                    yield self.access(self.pc_init_store, self._edge_address(edge_index))
                    edge_index += 1

    def _frontier_for_iteration(self, iteration: int) -> List[int]:
        if self.algorithm == "pagerank":
            return list(range(self.num_vertices))
        # BFS-like algorithms: sparse frontiers that grow then shrink.
        size = max(8, int(self.num_vertices * min(0.4, 0.02 * (iteration + 1))))
        return sorted(self.rng.sample(range(self.num_vertices), k=min(size, self.num_vertices)))

    def _generate_compute_phase(self) -> Iterable[Access]:
        """Frontier traversal: streaming frontier/edges + irregular data."""
        iteration = 0
        edge_cursor = 0
        while True:
            frontier = self._frontier_for_iteration(iteration)
            for position, vertex in enumerate(frontier):
                # Read the frontier entry itself (dense stream).
                yield self.access(
                    self.pc_frontier_load, self._frontier_address(position)
                )
                # Read the CSR offsets for this vertex.
                yield self.access(self.pc_offsets_load, self._offsets_address(vertex))
                # Walk the neighbour list: edge array is streamed, the
                # per-neighbour data accesses are irregular.
                for neighbour in self.adjacency[vertex]:
                    yield self.access(self.pc_edges_load, self._edge_address(edge_cursor))
                    edge_cursor += 1
                    yield self.access(self.pc_data_load, self._data_address(neighbour))
            iteration += 1

    def _generate(self) -> Iterable[Access]:
        if self.phase == "init":
            return self._generate_init_phase()
        return self._generate_compute_phase()
