"""A finished job leaves nothing for the cyclic garbage collector.

Every simulator object graph (caches and their per-set dicts, MSHRs, DRAM,
statistics, prefetcher tables) must be freed by reference counting the
moment :func:`~repro.experiments.jobs.execute_job` returns.  Anything left
in a reference cycle waits for a generation-2 collection, and between
collections it inflates a figure run's peak memory.
"""

from __future__ import annotations

import gc

import pytest

from repro.experiments.jobs import MixSimulationJob, SimulationJob, execute_job
from repro.prefetchers.compiled import compiled_available
from repro.sim import driver as driver_module
from repro.sim.config import default_system_config
from repro.workloads import all_trace_specs

KERNELS = [
    "python",
    pytest.param(
        "compiled",
        marks=pytest.mark.skipif(
            not compiled_available(), reason="compiled extension not built"
        ),
    ),
]

SPECS = all_trace_specs()


def _cyclic_garbage(job) -> int:
    """Objects only the cyclic collector could free after ``job`` ran."""
    gc.collect()
    gc.disable()
    try:
        execute_job(job, record_timing=True)
        return gc.collect()
    finally:
        gc.enable()


def _single(prefetcher: str, kernel: str) -> SimulationJob:
    return SimulationJob(
        spec=SPECS[0], prefetcher=prefetcher, trace_length=2_000, kernel=kernel,
    )


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("prefetcher", ["none", "gaze", "bingo"])
def test_single_core_job_leaves_no_cycles(prefetcher, kernel):
    assert _cyclic_garbage(_single(prefetcher, kernel)) == 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_mix_job_leaves_no_cycles(kernel):
    job = MixSimulationJob(
        specs=tuple(SPECS[:4]),
        prefetcher="gaze",
        system=default_system_config(4),
        trace_length=1_500,
        max_instructions_per_core=4_000,
        kernel=kernel,
    )
    assert _cyclic_garbage(job) == 0


@pytest.mark.skipif(not compiled_available(), reason="compiled extension not built")
@pytest.mark.parametrize("prefetcher", ["none", "gaze", "bingo"])
def test_compiled_job_never_exports_its_hierarchy(prefetcher, monkeypatch):
    def refuse(kernel, hierarchy):
        raise AssertionError("export_hierarchy called during a job")

    monkeypatch.setattr(driver_module, "export_hierarchy", refuse)
    stats = execute_job(_single(prefetcher, "compiled"), record_timing=True)
    assert stats.extra["kernel_tier"] == "compiled-driver"
