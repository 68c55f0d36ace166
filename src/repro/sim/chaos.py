"""Deterministic chaos injection for sweep execution.

The fault-tolerance layer in :mod:`repro.sim.parallel` claims a sweep
survives worker crashes, hangs, and process deaths.  This module is how
that claim stays testable: a :class:`ChaosSchedule` decides — from cell
tags and attempt numbers only, never from wall-clock or process state —
which execution attempts misbehave and how.

The schedule lives with the sweep process that owns the workers, in
every mode, which resolves each attempt's :class:`ChaosDirective`
before handing the attempt out and ships it to the worker alongside the
cell, so the injected behaviour is identical no matter which worker
picks the cell up, in which order, or how many workers were replaced.
A directive makes the worker

* ``RAISE`` — raise :class:`~repro.errors.ChaosError` before simulating
  (a deterministic in-cell failure);
* ``HANG`` — sleep past any reasonable cell timeout (a stuck worker);
* ``DIE`` — ``os._exit`` mid-attempt (an OOM-killed / segfaulted worker,
  which its owner observes as EOF on that worker's pipe: it costs only
  that attempt, in pool and coordinator mode alike);
* ``CORRUPT_WRITE`` — complete the cell, then tear or bit-flip its
  just-written cache entry
  (:func:`~repro.sim.durability.corrupt_file`), exercising the
  checksum-quarantine path in :class:`~repro.sim.parallel.ResultCache`.

``CORRUPT_WRITE`` modulates the durability layer *around* the
simulation rather than the simulation itself, so :func:`apply_chaos`
treats it as a pre-run no-op; it acts in every mode, where the cell's
cache entry is published (:func:`repro.sim.parallel._publish`).  The
death of a whole sweep process, the failure that coordinator leases
exist for, is no directive: tests SIGKILL a real sweep process instead
(``tests/test_coordinator.py``).  When ``SweepRunner`` runs an attempt
in-process (serial mode without a cell timeout, or an unpicklable
cell), ``HANG`` and ``DIE`` are downgraded to ``RAISE`` — chaos must
never hang or kill the test process itself.
"""

from __future__ import annotations

import enum
import os
import random
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ChaosError

__all__ = [
    "FaultKind",
    "ChaosDirective",
    "ChaosSchedule",
    "apply_chaos",
]


class FaultKind(str, enum.Enum):
    """How an injected fault manifests in the worker."""

    RAISE = "raise"
    HANG = "hang"
    DIE = "die"
    #: finish the cell, then corrupt its on-disk cache entry.
    CORRUPT_WRITE = "corrupt_write"


@dataclass(frozen=True)
class ChaosDirective:
    """One attempt's injected misbehaviour, resolved parent-side."""

    kind: FaultKind
    #: how long a HANG sleeps; far longer than any sane cell timeout
    hang_seconds: float = 3600.0


def apply_chaos(
    directive: Optional[ChaosDirective], *, in_process: bool = False
) -> None:
    """Execute ``directive`` (worker entry point; no-op for ``None``)."""
    if directive is None:
        return
    kind = directive.kind
    if kind is FaultKind.CORRUPT_WRITE:
        return  # acts where the entry is published
    if in_process and kind in (FaultKind.HANG, FaultKind.DIE):
        kind = FaultKind.RAISE
    if kind is FaultKind.RAISE:
        raise ChaosError(
            f"injected {directive.kind.value} fault",
            context={"kind": directive.kind.value, "in_process": in_process},
        )
    if kind is FaultKind.HANG:
        time.sleep(directive.hang_seconds)
        raise ChaosError(
            f"injected hang survived {directive.hang_seconds}s without "
            "being killed — is the cell timeout enforced?",
            context={"kind": "hang"},
        )
    # DIE: bypass every exception handler and atexit hook, exactly like
    # the kernel's OOM killer would.
    os._exit(13)


#: Plan entries accept enum members or their string values.
_KindSpec = Union[FaultKind, str]


class ChaosSchedule:
    """Maps (cell tag, attempt number) to an optional fault.

    ``plan`` gives, per cell tag, the fault kinds for attempts 1..N of
    that cell; attempts beyond the sequence succeed.  ``None`` entries
    inside a sequence mean "this attempt succeeds" (e.g. ``(DIE, None,
    RAISE)`` fails attempts 1 and 3 only).  Cells whose tag is absent are
    never touched.
    """

    def __init__(
        self,
        plan: Mapping[str, Sequence[Optional[_KindSpec]]],
        *,
        hang_seconds: float = 3600.0,
    ) -> None:
        self._plan: Dict[str, Tuple[Optional[FaultKind], ...]] = {
            tag: tuple(
                FaultKind(kind) if kind is not None else None
                for kind in kinds
            )
            for tag, kinds in plan.items()
        }
        self.hang_seconds = hang_seconds

    @classmethod
    def seeded(
        cls,
        seed: int,
        tags: Iterable[str],
        *,
        fault_rate: float = 0.3,
        kinds: Sequence[_KindSpec] = (FaultKind.RAISE, FaultKind.DIE),
        max_faulty_attempts: int = 2,
        hang_seconds: float = 3600.0,
    ) -> "ChaosSchedule":
        """A reproducible random schedule over ``tags``.

        The same ``seed`` and tag order always produce the same plan, so
        a chaos run is exactly repeatable.  Each selected cell fails its
        first 1..``max_faulty_attempts`` attempts and then succeeds,
        which keeps every cell completable under retry.
        """
        rng = random.Random(seed)
        plan: Dict[str, Tuple[Optional[FaultKind], ...]] = {}
        kind_pool = [FaultKind(k) for k in kinds]
        for tag in tags:
            if rng.random() < fault_rate:
                count = rng.randint(1, max(1, max_faulty_attempts))
                plan[tag] = tuple(rng.choice(kind_pool) for _ in range(count))
        return cls(plan, hang_seconds=hang_seconds)

    def directive_for(
        self, tag: str, attempt: int
    ) -> Optional[ChaosDirective]:
        """The fault for ``tag``'s ``attempt``-th execution, if any."""
        kinds = self._plan.get(tag)
        if not kinds or attempt > len(kinds):
            return None
        kind = kinds[attempt - 1]
        if kind is None:
            return None
        return ChaosDirective(kind, hang_seconds=self.hang_seconds)

    def faulty_tags(self) -> Tuple[str, ...]:
        """Tags with at least one scheduled fault (for test assertions)."""
        return tuple(
            tag
            for tag, kinds in self._plan.items()
            if any(kind is not None for kind in kinds)
        )

    def __len__(self) -> int:
        return len(self.faulty_tags())
