"""Structured simulation failures.

Every error the simulator can raise on purpose derives from
:class:`SimulationError` and carries a ``context`` dict — a compact
machine/trace state snapshot captured at the failure site — so that a
failed cell in a thousand-cell sweep is debuggable from its failure
record alone, without rerunning anything.

This module is deliberately a leaf: it imports nothing from the rest of
the package, so the low-level layers (``mem.frames``, ``trace.io``,
``gmmu``) can raise structured errors without import cycles.  The
simulation layer re-exports everything through ``repro.sim.errors``.

Errors cross process boundaries (sweep workers send them back to the
parent over a pipe), so the hierarchy pickles losslessly: both ``args``
and the instance ``__dict__`` — including ``context`` — survive the
round trip via :func:`_restore_error`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple, Type


def _restore_error(
    cls: Type["SimulationError"],
    args: Tuple[Any, ...],
    state: Dict[str, Any],
) -> "SimulationError":
    """Rebuild an exception without re-running its ``__init__``.

    Subclasses take domain arguments (a chiplet id, a fingerprint), not
    the final message, so the default ``Exception`` pickling protocol —
    ``cls(*self.args)`` — would garble them.
    """
    exc = cls.__new__(cls)
    Exception.__init__(exc, *args)
    exc.__dict__.update(state)
    return exc


class SimulationError(Exception):
    """Base class for structured simulator failures.

    ``context`` holds a JSON-ish snapshot of whatever state explains the
    failure (trace position, per-chiplet occupancy, offending values);
    :meth:`describe` renders it for humans.
    """

    def __init__(
        self, message: str, *, context: Optional[Dict[str, Any]] = None
    ) -> None:
        super().__init__(message)
        self.context: Dict[str, Any] = dict(context or {})

    def __reduce__(
        self,
    ) -> Tuple[Any, Tuple[Any, ...]]:
        return (_restore_error, (type(self), self.args, self.__dict__.copy()))

    def describe(self) -> str:
        """The message plus one ``key: value`` line per context entry."""
        lines = [str(self)]
        for key in sorted(self.context):
            lines.append(f"  {key}: {self.context[key]!r}")
        return "\n".join(lines)


class InvariantViolation(SimulationError, AssertionError):
    """Machine-state invariant check failed (``sim.validation``).

    Also an :class:`AssertionError` so callers that predate the
    structured hierarchy keep working.
    """


class MemoryExhaustedError(SimulationError):
    """A frame pool ran out of PF blocks and no fallback applied.

    Raised by the allocator (``mem.frames``) and enriched by the engine
    with the trace position and per-chiplet occupancy at the moment of
    exhaustion.  The usual fix for oversubscription studies is
    ``host_eviction=True``.
    """


class TraceFormatError(SimulationError, ValueError):
    """A trace archive is corrupt, truncated, or from another format.

    Also a :class:`ValueError` for callers that predate the structured
    hierarchy.
    """


class PolicyMappingError(SimulationError, RuntimeError):
    """A placement policy returned from ``place`` without mapping the
    faulting address — a policy bug, not a capacity problem."""


class PolicyContractError(SimulationError, TypeError):
    """A policy does not satisfy the placement-policy contract.

    Raised at attach time by ``repro.policies.contract.validate_policy``
    — before any machine state is built — with a ``context`` listing
    every missing hook and mistyped capability flag at once.  Also a
    :class:`TypeError`: the object passed as a policy has the wrong
    shape.
    """


class SweepError(SimulationError):
    """A sweep aborted because a cell failed under ``on_error='raise'``.

    ``fingerprint`` names the failing cell's content hash so the cell is
    identifiable (and its cache entry addressable) from the error alone.
    """

    def __init__(
        self,
        message: str,
        *,
        fingerprint: str = "",
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message, context=context)
        self.fingerprint = fingerprint


class ChaosError(SimulationError):
    """An injected fault from the deterministic chaos harness
    (``sim.chaos``) — never raised outside fault-injection runs."""
