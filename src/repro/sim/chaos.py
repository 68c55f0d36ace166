"""Deterministic chaos injection for sweep execution.

The fault-tolerance layer in :mod:`repro.sim.parallel` claims a sweep
survives worker crashes, hangs, and process deaths.  This module is how
that claim stays testable: a :class:`ChaosSchedule` decides — from cell
tags and attempt numbers only, never from wall-clock or process state —
which execution attempts misbehave and how.

The schedule lives in the *parent* process: the runner resolves each
attempt's :class:`ChaosDirective` before handing the attempt out and
ships it to the worker alongside the cell, so the injected behaviour is
identical no matter which worker picks the cell up, in which order, or
how many workers were replaced.  A directive makes the worker

* ``RAISE`` — raise :class:`~repro.errors.ChaosError` before simulating
  (a deterministic in-cell failure);
* ``HANG`` — sleep past any reasonable cell timeout (a stuck worker);
* ``DIE`` — ``os._exit`` mid-attempt (an OOM-killed / segfaulted worker,
  which the parent observes as EOF on that worker's pipe);
* ``DIE_HARD`` — SIGKILL yourself mid-attempt: no cleanup, no lease
  release, no journal record — the failure mode the coordinator's
  lease-expiry stealing exists for;
* ``CORRUPT_WRITE`` — complete the cell, then tear or bit-flip its
  just-written cache entry
  (:func:`~repro.sim.durability.corrupt_file`), exercising the
  checksum-quarantine path in :class:`~repro.sim.parallel.ResultCache`;
* ``STALE_LEASE`` — keep computing but stop renewing the cell's lease,
  so a sibling runner observes an expired lease on a live process and
  steals the cell (both finish; results are identical by determinism).

``CORRUPT_WRITE`` and ``STALE_LEASE`` modulate the durability layer
*around* the simulation rather than the simulation itself, so
:func:`apply_chaos` treats them as pre-run no-ops.  ``CORRUPT_WRITE``
acts in every mode, where the cell's cache entry is published
(:func:`repro.sim.parallel._publish`); ``STALE_LEASE`` means something
only to a coordinator runner (:mod:`repro.sim.coordinator`), and
:class:`~repro.sim.parallel.SweepRunner` rejects a schedule holding it
in any other mode.  When the runner executes an attempt in-process
(serial mode without a cell timeout, or an unpicklable cell), ``HANG``,
``DIE`` and ``DIE_HARD`` are downgraded to ``RAISE`` — chaos must never
hang or kill the test process itself.
"""

from __future__ import annotations

import enum
import os
import random
import signal
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple, Union

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
    #: SIGKILL with no cleanup whatsoever (coordinator runners).
    DIE_HARD = "die_hard"
    #: finish the cell, then corrupt its on-disk cache entry.
    CORRUPT_WRITE = "corrupt_write"
    #: finish the cell but never renew its lease (heartbeat failure).
    STALE_LEASE = "stale_lease"


#: Kinds that are no-ops at attempt start; they act around the
#: durability layer instead (cache publish, lease renewal).
DEFERRED_KINDS = frozenset({FaultKind.CORRUPT_WRITE, FaultKind.STALE_LEASE})


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
    if kind in DEFERRED_KINDS:
        return
    if in_process and kind in (
        FaultKind.HANG, FaultKind.DIE, FaultKind.DIE_HARD
    ):
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
    if kind is FaultKind.DIE_HARD:
        # SIGKILL: the process vanishes with no chance to release its
        # lease or journal anything — only lease-TTL expiry and
        # work-stealing can recover the cell.
        os.kill(os.getpid(), signal.SIGKILL)
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

    def kinds(self) -> FrozenSet[FaultKind]:
        """Every fault kind the plan injects somewhere."""
        return frozenset(
            kind
            for kinds in self._plan.values()
            for kind in kinds
            if kind is not None
        )

    def faulty_tags(self) -> Tuple[str, ...]:
        """Tags with at least one scheduled fault (for test assertions)."""
        return tuple(
            tag
            for tag, kinds in self._plan.items()
            if any(kind is not None for kind in kinds)
        )

    def __len__(self) -> int:
        return len(self.faulty_tags())
