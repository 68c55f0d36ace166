"""Result records produced by a simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ..units import size_label

if TYPE_CHECKING:
    from .energy import EnergyBreakdown

#: The cache-payload partition of :class:`SimResult`'s fields.  Every
#: dataclass field must appear in exactly one of the three tuples —
#: repro-lint rule RPR002 enforces the partition statically, so adding
#: a field forces an explicit decision about the result-cache schema
#: (and a ``CACHE_SCHEMA_VERSION`` bump in ``sim/parallel.py`` when the
#: payload changes).
#:
#: Fields serialized as-is by :meth:`SimResult.to_dict` (JSON-native
#: values that round-trip exactly).
CACHE_PAYLOAD_FIELDS: Tuple[str, ...] = (
    "workload",
    "policy",
    "cycles",
    "n_accesses",
    "n_warp_instructions",
    "remote_accesses",
    "translation_cycles",
    "data_cycles",
    "l2_misses",
    "l2_tlb_misses",
    "page_faults",
    "migrations",
    "blocks_consumed",
    "host_refaults",
    "faults_dropped",
    "remote_cache_coverage",
    "telemetry",
)

#: Fields needing explicit conversion code in ``to_dict``/``from_dict``
#: (nested dataclasses / tuple values that JSON would mangle).
CACHE_CUSTOM_FIELDS: Tuple[str, ...] = (
    "energy",
    "selections",
    "per_structure_remote",
)

#: Fields that never enter the cache payload.  They describe *how* a
#: run was computed, not what it computed, and must therefore carry
#: ``field(compare=False)`` so cached, staged and batched results of
#: the same cell stay equal (the ``fast_path_fraction`` precedent).
CACHE_EXCLUDED_FIELDS: Tuple[str, ...] = (
    "fast_path_fraction",
    "fault_batch_fraction",
    "trace_source",
)


@dataclass(frozen=True)
class SelectionInfo:
    """Page size a policy ended up using for one data structure."""

    page_size: int
    via_olp: bool = False

    @property
    def label(self) -> str:
        text = size_label(self.page_size)
        return f"{text}*" if self.via_olp else text


@dataclass
class SimResult:
    """Everything one simulation run reports.

    ``performance`` is warp instructions per cycle under the analytic
    timing model — meaningful only as a *ratio* between configurations,
    exactly how the paper's figures present it.
    """

    workload: str
    policy: str
    cycles: float
    n_accesses: int
    n_warp_instructions: int
    remote_accesses: int
    translation_cycles: int
    data_cycles: int
    l2_misses: int
    l2_tlb_misses: int
    page_faults: int
    migrations: int
    blocks_consumed: int
    host_refaults: int = 0
    #: page faults lost to full GMMU fault buffers (overflow observability)
    faults_dropped: int = 0
    #: per-component energy (picojoules); see repro.sim.energy
    energy: Optional["EnergyBreakdown"] = None
    selections: Dict[str, SelectionInfo] = field(default_factory=dict)
    per_structure_remote: Dict[str, Tuple[int, int]] = field(
        default_factory=dict
    )
    remote_cache_coverage: Optional[float] = None
    #: per-stage counters/histograms recorded under ``--telemetry`` /
    #: ``REPRO_TELEMETRY`` (see repro.sim.telemetry); None when off.
    #: Already JSON-compatible, so it round-trips through to_dict as is.
    telemetry: Optional[Dict[str, object]] = None
    #: Fraction of trace accesses the batched engine replayed without a
    #: fault lookup (vectorized or short windows over already-resolved
    #: pages); None under the staged engine.
    #: Like wall time, this describes *how* the run was computed, not
    #: what it computed — it is excluded from equality and ``to_dict``
    #: so cached/staged/batched results of the same cell stay equal.
    fast_path_fraction: Optional[float] = field(default=None, compare=False)
    #: Fraction of page faults the batched engine resolved through its
    #: bulk fault path (``batch_faults``); None when the run was not
    #: eligible (staged engine, stateful or unaudited placement,
    #: bounded capacity, host eviction).  Below 1.0 for the reservation
    #: sizes S-128KB…S-2MB, whose region-filling faults stay scalar:
    #: 1 - regions/faults.  Computed-how metadata like
    #: ``fast_path_fraction``: excluded from equality and ``to_dict``.
    fault_batch_fraction: Optional[float] = field(default=None, compare=False)
    #: Where the replayed trace came from: ``"generated"`` (built in the
    #: simulating process), ``"archive"`` (loaded from a trace file) or
    #: ``"store"`` (attached zero-copy from the shared trace store);
    #: None when the engine built the trace itself.  The sweep runner
    #: reads it to count store attaches.  Computed-how metadata —
    #: excluded from equality and ``to_dict`` so store-on and store-off
    #: runs of the same cell stay bit-identical.
    trace_source: Optional[str] = field(default=None, compare=False)

    @property
    def performance(self) -> float:
        if self.cycles <= 0:
            raise ValueError("cycles must be positive")
        return self.n_warp_instructions / self.cycles

    @property
    def remote_ratio(self) -> float:
        """Remote accesses as a fraction of memory instructions."""
        return (
            self.remote_accesses / self.n_accesses if self.n_accesses else 0.0
        )

    @property
    def l2_mpki(self) -> float:
        """L2 cache misses per kilo warp instructions."""
        if not self.n_warp_instructions:
            return 0.0
        return 1000.0 * self.l2_misses / self.n_warp_instructions

    @property
    def l2_tlb_mpki(self) -> float:
        """L2 TLB misses (page walks) per kilo warp instructions."""
        if not self.n_warp_instructions:
            return 0.0
        return 1000.0 * self.l2_tlb_misses / self.n_warp_instructions

    @property
    def avg_translation_cycles(self) -> float:
        return (
            self.translation_cycles / self.n_accesses
            if self.n_accesses
            else 0.0
        )

    def speedup_over(self, baseline: "SimResult") -> float:
        """Performance of this run relative to ``baseline`` (1.0 = equal)."""
        if self.workload != baseline.workload:
            raise ValueError(
                "speedup comparisons require the same workload "
                f"({self.workload} vs {baseline.workload})"
            )
        return self.performance / baseline.performance

    def structure_remote_ratio(self, name: str) -> float:
        accesses, remotes = self.per_structure_remote.get(name, (0, 0))
        return remotes / accesses if accesses else 0.0

    # --- serialization (the result-cache storage format) ---

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-compatible dict covering every cache-payload field.

        The inverse of :meth:`from_dict`: round-tripping through JSON
        reproduces an equal ``SimResult`` (floats survive JSON exactly
        in Python), which is what lets the on-disk result cache stand in
        for a live simulation.  The field set is declared in
        ``CACHE_PAYLOAD_FIELDS``/``CACHE_CUSTOM_FIELDS``/
        ``CACHE_EXCLUDED_FIELDS`` above; lint rule RPR002 keeps the
        declaration and this implementation in sync.
        """
        data: Dict[str, Any] = {
            name: getattr(self, name) for name in CACHE_PAYLOAD_FIELDS
        }
        energy = self.energy
        data["energy"] = (
            None
            if energy is None
            else {
                "l1": energy.l1,
                "l2": energy.l2,
                "dram": energy.dram,
                "ring": energy.ring,
                "translation": energy.translation,
            }
        )
        data["selections"] = {
            name: {"page_size": sel.page_size, "via_olp": sel.via_olp}
            for name, sel in self.selections.items()
        }
        data["per_structure_remote"] = {
            name: list(pair)
            for name, pair in self.per_structure_remote.items()
        }
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimResult":
        """Rebuild a ``SimResult`` from :meth:`to_dict` output."""
        from .energy import EnergyBreakdown

        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SimResult fields: {sorted(unknown)}")
        kwargs: Dict[str, Any] = dict(data)
        energy = kwargs.get("energy")
        if energy is not None:
            kwargs["energy"] = EnergyBreakdown(**energy)
        kwargs["selections"] = {
            name: SelectionInfo(**sel)
            for name, sel in (kwargs.get("selections") or {}).items()
        }
        kwargs["per_structure_remote"] = {
            name: tuple(pair)
            for name, pair in (kwargs.get("per_structure_remote") or {}).items()
        }
        return cls(**kwargs)
