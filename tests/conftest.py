"""Shared test fixtures: small synthetic workloads and run helpers."""

import copy

import pytest

from repro.sim.engine import run_simulation
from repro.trace.workload import (
    Pattern,
    Scan,
    StructureSpec,
    WorkloadSpec,
)
from repro.units import MB


def make_spec(*structures, abbr="TST", tb_count=64, mem_fraction=0.3,
              kernels=()):
    return WorkloadSpec(
        abbr=abbr,
        title="synthetic test workload",
        structures=tuple(structures),
        tb_count=tb_count,
        mem_fraction=mem_fraction,
        kernels=kernels,
    )


def partitioned(name="part", size=16 * MB, group=4, **kw):
    """A structure with fine chiplet-locality (group runs of 64KB pages)."""
    return StructureSpec(
        name, size, size, Pattern.PARTITIONED, group_pages=group, **kw
    )


def contiguous(name="cont", size=48 * MB, **kw):
    """A structure with coarse chiplet-locality (per-chiplet slabs)."""
    return StructureSpec(name, size, size, Pattern.CONTIGUOUS, **kw)


def shared(name="shared", size=12 * MB, **kw):
    """A globally shared structure (matrix B)."""
    return StructureSpec(name, size, size, Pattern.SHARED, **kw)


def strided(name="strided", size=48 * MB, **kw):
    """Tiled scan: VA blocks fill late (defeats PMM analysis)."""
    return StructureSpec(
        name, size, size, Pattern.CONTIGUOUS, scan=Scan.BLOCK_STRIDED, **kw
    )


def run(spec, policy, **kwargs):
    return run_simulation(spec, policy, **kwargs)


class EngineRunner:
    """A serial, cache-free stand-in for ``SweepRunner`` that replays
    every cell on one engine, passed as ``run_workload``'s ``engine``
    argument.  Sweeps always replay batched; this is how a test runs an
    experiment's or a sweep's cells on the staged reference pipeline."""

    def __init__(self, engine):
        self.engine = engine

    def run_cells(self, cells):
        from repro.sim.runner import run_workload

        return [
            run_workload(
                cell.workload,
                cell.policy,
                cell.config,
                interleave=cell.interleave,
                remote_cache=cell.remote_cache,
                seed=cell.seed,
                timing=cell.timing,
                engine=self.engine,
            )
            for cell in cells
        ]


def comparable_telemetry(snapshot):
    """A telemetry snapshot minus host wall-clock: ``place_latency_us``
    keeps only its sample count (its buckets and mean time the host)."""
    data = copy.deepcopy(snapshot)
    place = data["faults"]["place_latency_us"]
    data["faults"]["place_latency_us"] = {"count": place["count"]}
    return data


@pytest.fixture(autouse=True, scope="session")
def _isolated_home(tmp_path_factory):
    """``HOME`` is a session temp directory, so a runner that falls back
    to the default cache root (``~/.cache/repro``, e.g. under
    ``REPRO_TRACE_STORE=1``) never writes the developer's cache.
    ``REPRO_CACHE_DIR`` is left alone: ``default_runner()`` reads it as
    "caching on"."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("HOME", str(tmp_path_factory.mktemp("home")))
        yield


@pytest.fixture
def small_partitioned_spec():
    return make_spec(partitioned(size=16 * MB, waves=3, lines_per_touch=6))


@pytest.fixture
def mixed_spec():
    return make_spec(
        partitioned(size=16 * MB, waves=2, lines_per_touch=4),
        shared(size=12 * MB, waves=2, lines_per_touch=4),
    )
