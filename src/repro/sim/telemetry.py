"""Observability hooks for the simulation engines.

The staged pipeline (:mod:`repro.sim.pipeline`) drives an
:class:`Instrumentation` object at well-defined points of every access:
fault resolution, translation, the data path, and epoch boundaries.  The
base class is a no-op — and the pipeline skips the calls entirely when
``instrumentation.enabled`` is false — so a telemetry-off run pays
nothing on the hot path.

:class:`TelemetryCollector` is the concrete recorder: per-stage counters
and histograms (fault/placement latency, walk depth and latency,
per-level TLB hit ratios, data-path service levels, ring occupancy) plus
a per-allocation locality timeline sampled at every epoch boundary.  Its
:meth:`~TelemetryCollector.snapshot` is a JSON-compatible dict surfaced
as ``SimResult.telemetry``, dumped per sweep cell under ``--telemetry``.

The batched engine (:mod:`repro.sim.batch`) has no per-access hook
points.  It fills the same collector once, at run end, from counts it
keeps anyway, through the bulk methods (``add_translations``,
``add_data``, ``add_ring_transfers`` and :meth:`Histogram.add`), so both
engines record the same snapshot and telemetry does not choose the
engine.

Structural machine statistics that cost nothing to harvest once (TLB
hit counts, walker step mix, ring traffic) are read off the
:class:`~repro.sim.machine.Machine` at run end rather than sampled per
access — the hot-path hooks record only what the final machine state
cannot reconstruct (latency distributions and the epoch timeline).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .machine import Machine

#: Schema version of the ``SimResult.telemetry`` dict.
TELEMETRY_SCHEMA_VERSION = 1

#: Environment variable enabling telemetry collection everywhere the CLI
#: flag is not plumbed (worker processes, ad-hoc scripts).
TELEMETRY_ENV = "REPRO_TELEMETRY"


def telemetry_enabled_by_env() -> bool:
    """True when ``REPRO_TELEMETRY`` requests collection (1/true/yes/on)."""
    value = os.environ.get(TELEMETRY_ENV, "").strip().lower()
    return value in ("1", "true", "yes", "on")


class Histogram:
    """Power-of-two-bucketed counting histogram of non-negative values.

    Bucket ``i`` counts values in ``[2**(i-1), 2**i)`` (bucket 0 counts
    zeros and values below 1).  Compact, allocation-free recording for
    hot-path latency samples.
    """

    __slots__ = ("counts", "total", "sum")

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}
        self.total = 0
        self.sum = 0.0

    def record(self, value: float) -> None:
        self.add(value, 1)

    def add(self, value: float, count: int) -> None:
        """``count`` samples of ``value`` at once."""
        if count <= 0:
            return
        bucket = 0 if value < 1 else int(value).bit_length()
        self.counts[bucket] = self.counts.get(bucket, 0) + count
        self.total += count
        self.sum += value * count

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def to_dict(self) -> Dict[str, object]:
        """Bucket upper bounds (inclusive label) to counts, plus moments."""
        buckets = {
            str(0 if b == 0 else 1 << b): self.counts[b]
            for b in sorted(self.counts)
        }
        return {"buckets": buckets, "count": self.total, "mean": self.mean}


class Instrumentation:
    """No-op observability interface the pipeline stages drive.

    Subclass and override any subset; the stages only call in when
    ``enabled`` is true, so the base class doubles as the telemetry-off
    fast path.  All latencies are in simulated cycles except
    ``place_us`` (host-side microseconds spent inside ``policy.place`` —
    the driver-side fault service time).
    """

    enabled = False

    def on_fault(self, requester: int, vaddr: int, alloc_id: int,
                 place_us: float) -> None:
        """One resolved page fault (after the policy mapped the page)."""

    def on_translation(self, requester: int, level: str,
                       latency: int) -> None:
        """One translated access: ``level`` is ``"L1"``/``"L2"``/``"walk"``."""

    def on_data(self, requester: int, home: int, served: str,
                latency: int) -> None:
        """One data fetch: ``served`` names the level that supplied it
        (``"l1"``, ``"remote_cache"``, ``"home_l2"``, ``"dram"``)."""

    def on_epoch(self, epoch: int, remote_ratio: float,
                 per_structure: Dict[int, List[int]]) -> None:
        """An epoch closed; ``per_structure`` maps alloc_id to cumulative
        ``[accesses, remote_accesses]`` as of this boundary."""

    def on_run_end(self, machine: "Machine") -> None:
        """The trace is fully replayed; harvest machine-level stats."""

    def snapshot(self) -> Optional[Dict[str, object]]:
        """JSON-compatible telemetry dict, or None when nothing recorded."""
        return None


class TelemetryCollector(Instrumentation):
    """The standard recorder behind ``--telemetry`` / ``REPRO_TELEMETRY``."""

    enabled = True

    def __init__(self) -> None:
        self.fault_count = 0
        self.faults_per_chiplet: Dict[int, int] = {}
        self.place_latency_us = Histogram()
        self.translation_levels: Dict[str, int] = {}
        self.walk_latency = Histogram()
        self.translation_latency = Histogram()
        self.data_served: Dict[str, int] = {}
        self.data_latency = Histogram()
        self.ring_transfers: Dict[str, int] = {}
        self.epochs: List[Dict[str, object]] = []
        self._prev_structure: Dict[int, List[int]] = {}
        self._machine_stats: Optional[Dict[str, object]] = None

    # --- hot-path hooks ---

    def on_fault(self, requester: int, vaddr: int, alloc_id: int,
                 place_us: float) -> None:
        self.fault_count += 1
        self.faults_per_chiplet[requester] = (
            self.faults_per_chiplet.get(requester, 0) + 1
        )
        self.place_latency_us.record(place_us)

    def on_translation(self, requester: int, level: str,
                       latency: int) -> None:
        self.add_translations(level, latency, 1)

    def on_data(self, requester: int, home: int, served: str,
                latency: int) -> None:
        self.add_data(served, latency, 1)
        if home != requester:
            self.add_ring_transfers(requester, home, 1)

    # --- bulk counts (the batched engine feeds these once per run) ---

    def add_translations(self, level: str, latency: int,
                         count: int) -> None:
        """``count`` translations served at ``level`` in ``latency``
        cycles each."""
        if count <= 0:
            return
        self.translation_levels[level] = (
            self.translation_levels.get(level, 0) + count
        )
        self.translation_latency.add(latency, count)
        if level == "walk":
            self.walk_latency.add(latency, count)

    def add_data(self, served: str, latency: int, count: int) -> None:
        """``count`` data fetches supplied by ``served`` in ``latency``
        cycles each."""
        if count <= 0:
            return
        self.data_served[served] = self.data_served.get(served, 0) + count
        self.data_latency.add(latency, count)

    def add_ring_transfers(self, requester: int, home: int,
                           count: int) -> None:
        """``count`` accesses by ``requester`` to data homed on another
        chiplet, ``home``."""
        if count <= 0:
            return
        key = f"{requester}->{home}"
        self.ring_transfers[key] = self.ring_transfers.get(key, 0) + count

    def on_epoch(self, epoch: int, remote_ratio: float,
                 per_structure: Dict[int, List[int]]) -> None:
        delta: Dict[str, List[int]] = {}
        for alloc_id, (accesses, remotes) in per_structure.items():
            prev = self._prev_structure.get(alloc_id, (0, 0))
            delta[str(alloc_id)] = [accesses - prev[0], remotes - prev[1]]
        self._prev_structure = {
            alloc_id: list(pair) for alloc_id, pair in per_structure.items()
        }
        self.epochs.append(
            {
                "epoch": epoch,
                "remote_ratio": remote_ratio,
                "per_structure": delta,
            }
        )

    # --- run-end harvest ---

    def on_run_end(self, machine: "Machine") -> None:
        paths = [
            {"l1_hits": p.l1_hits, "l2_hits": p.l2_hits, "walks": p.walks}
            for p in machine.paths
        ]
        total = sum(p.accesses for p in machine.paths)
        walkers = machine.walkers
        ring = machine.ring
        self._machine_stats = {
            "tlb": {
                "per_chiplet": paths,
                "hit_ratio_l1": (
                    sum(p.l1_hits for p in machine.paths) / total
                    if total else 0.0
                ),
                "hit_ratio_l2": (
                    sum(p.l2_hits for p in machine.paths) / total
                    if total else 0.0
                ),
                "walk_ratio": (
                    sum(p.walks for p in machine.paths) / total
                    if total else 0.0
                ),
            },
            "walkers": {
                "walks": sum(w.stats.walks for w in walkers),
                "mean_walk_cycles": (
                    sum(w.stats.total_cycles for w in walkers)
                    / max(sum(w.stats.walks for w in walkers), 1)
                ),
                "remote_steps": sum(w.stats.remote_steps for w in walkers),
                "local_steps": sum(w.stats.local_steps for w in walkers),
                "walk_cache_hits": sum(
                    w.walk_cache.hits for w in walkers
                ),
                "walk_cache_misses": sum(
                    w.walk_cache.misses for w in walkers
                ),
            },
            "ring": {
                "total_bytes": ring.total_bytes,
                "hop_bytes": ring.hop_bytes,
                "per_link_bytes": {
                    f"{src}->{dst}": nbytes
                    for (src, dst), nbytes in sorted(
                        ring.traffic_bytes.items()
                    )
                },
            },
            "fault_buffers": {
                "logged": sum(fb.faults_logged for fb in machine.fault_buffers),
                "dropped": sum(fb.dropped for fb in machine.fault_buffers),
            },
        }

    def snapshot(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "schema": TELEMETRY_SCHEMA_VERSION,
            "faults": {
                "count": self.fault_count,
                "per_chiplet": {
                    str(c): n
                    for c, n in sorted(self.faults_per_chiplet.items())
                },
                "place_latency_us": self.place_latency_us.to_dict(),
            },
            "translation": {
                "levels": dict(sorted(self.translation_levels.items())),
                "latency_cycles": self.translation_latency.to_dict(),
                "walk_latency_cycles": self.walk_latency.to_dict(),
            },
            "data": {
                "served": dict(sorted(self.data_served.items())),
                "latency_cycles": self.data_latency.to_dict(),
                "ring_transfers": dict(
                    sorted(self.ring_transfers.items())
                ),
            },
            "locality_timeline": self.epochs,
        }
        if self._machine_stats is not None:
            data["machine"] = self._machine_stats
        return data


def resolve_instrumentation(
    instrumentation: Optional[Instrumentation] = None,
    telemetry: Optional[bool] = None,
) -> Optional[Instrumentation]:
    """The instrumentation a run should use.

    An explicit ``instrumentation`` wins; otherwise ``telemetry=True``
    (or the ``REPRO_TELEMETRY`` environment variable when ``telemetry``
    is None) selects a fresh :class:`TelemetryCollector`.  Returns None
    for the telemetry-off fast path.

    The return does not pick the engine: the batched engine
    (:mod:`repro.sim.batch`) fills a :class:`TelemetryCollector` from
    aggregate counts.  Only a custom :class:`Instrumentation` subclass,
    which expects one call per access, keeps the run on the staged
    pipeline (see ``run_simulation``'s eligibility check).
    """
    if instrumentation is not None:
        return instrumentation if instrumentation.enabled else None
    if telemetry is None:
        telemetry = telemetry_enabled_by_env()
    return TelemetryCollector() if telemetry else None
