"""The formal policy contract the simulation engine drives.

Historically the engine duck-typed its way across the policy surface:
it read ``policy.coalescing``, called ``policy.place`` and hoped for the
best, and a policy missing a hook failed deep inside the per-access loop
with an ``AttributeError``.  This module formalizes that surface:

* :class:`PolicyProtocol` — the structural type every placement policy
  must satisfy (lifecycle hooks, decision hooks, reporting, capability
  flags);
* :func:`validate_policy` — attach-time validation producing a typed
  :class:`~repro.errors.PolicyContractError` that names every violation
  at once, before any simulation state is built;
* :class:`PolicyCapabilities` — an immutable snapshot of the capability
  flags, taken once per run so the hot path never re-reads (or is
  affected by mid-run mutation of) policy attributes.

This module is deliberately a leaf on the ``sim`` side: it imports only
:mod:`repro.errors` and :mod:`repro.gmmu.walker`, so the engine can
validate policies without creating an import cycle through
``policies.base`` (which imports ``sim.machine``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Protocol,
    Set,
    Tuple,
    runtime_checkable,
)

from ..errors import PolicyContractError
from ..gmmu.walker import PtePlacement

#: The capability flags the engine snapshots off a policy, with their
#: expected types.  ``policy_fingerprint`` (the result cache) and
#: :func:`validate_policy` share this list — one source of truth for
#: "what the engine reads off a policy besides its hooks".
CAPABILITY_FLAGS: Tuple[Tuple[str, type], ...] = (
    ("coalescing", bool),
    ("pattern_coalescing", bool),
    ("ideal_translation", bool),
    ("pte_placement", PtePlacement),
    ("wants_page_stats", bool),
    ("num_epochs", int),
)

#: Hooks every policy must expose as callables.
REQUIRED_HOOKS: Tuple[str, ...] = (
    "attach",
    "place",
    "on_epoch",
    "on_kernel",
    "selection_report",
    "native_sizes",
)


@runtime_checkable
class PolicyProtocol(Protocol):
    """Structural interface of a placement policy.

    ``PlacementPolicy`` subclasses satisfy this automatically; any other
    object may too, as long as it provides the full surface — the engine
    checks conformance with :func:`validate_policy` before a run, never
    mid-loop.
    """

    name: str
    coalescing: bool
    pattern_coalescing: bool
    ideal_translation: bool
    pte_placement: PtePlacement
    wants_page_stats: bool
    num_epochs: int

    def attach(self, machine: Any, workload: Any) -> None: ...

    def place(self, vaddr: int, requester: int, allocation: Any) -> None: ...

    def on_epoch(
        self,
        epoch: int,
        page_stats: Dict[int, List[int]],
        epoch_remote_ratio: float,
    ) -> None: ...

    def on_kernel(self, kernel_index: int) -> None: ...

    def selection_report(self) -> Dict[str, Any]: ...

    def native_sizes(self) -> Set[int]: ...


@dataclass(frozen=True)
class PolicyCapabilities:
    """Immutable snapshot of a policy's capability flags for one run."""

    name: str
    coalescing: bool
    pattern_coalescing: bool
    ideal_translation: bool
    pte_placement: PtePlacement
    wants_page_stats: bool
    num_epochs: int


def validate_policy(policy: Any) -> PolicyCapabilities:
    """Check ``policy`` against :class:`PolicyProtocol`; snapshot its flags.

    Raises :class:`~repro.errors.PolicyContractError` naming *every*
    missing hook and mistyped flag at once — a policy author fixes the
    whole contract in one round trip instead of one ``AttributeError``
    per run.
    """
    missing_hooks: List[str] = []
    bad_flags: Dict[str, str] = {}
    for hook in REQUIRED_HOOKS:
        candidate = getattr(policy, hook, None)
        if not callable(candidate):
            missing_hooks.append(hook)
    for flag, expected in CAPABILITY_FLAGS:
        value = getattr(policy, flag, _MISSING)
        if value is _MISSING:
            bad_flags[flag] = "missing"
        elif expected is bool:
            if not isinstance(value, bool):
                bad_flags[flag] = f"expected bool, got {type(value).__name__}"
        elif expected is int:
            # bool is an int subclass; a bool num_epochs is a bug.
            if not isinstance(value, int) or isinstance(value, bool):
                bad_flags[flag] = f"expected int, got {type(value).__name__}"
        elif not isinstance(value, expected):
            bad_flags[flag] = (
                f"expected {expected.__name__}, got {type(value).__name__}"
            )
    name = getattr(policy, "name", _MISSING)
    if name is _MISSING or not isinstance(name, str) or not name:
        bad_flags["name"] = "missing or not a non-empty string"
    if missing_hooks or bad_flags:
        raise PolicyContractError(
            f"policy {type(policy).__name__!r} does not satisfy the "
            f"placement-policy contract",
            context={
                "policy_class": type(policy).__name__,
                "missing_hooks": missing_hooks,
                "bad_flags": bad_flags,
            },
        )
    num_epochs = policy.num_epochs
    if num_epochs < 1:
        raise PolicyContractError(
            f"policy {policy.name!r} declares num_epochs={num_epochs}; "
            "must be >= 1",
            context={"policy_class": type(policy).__name__,
                     "num_epochs": num_epochs},
        )
    return PolicyCapabilities(
        name=policy.name,
        coalescing=policy.coalescing,
        pattern_coalescing=policy.pattern_coalescing,
        ideal_translation=policy.ideal_translation,
        pte_placement=policy.pte_placement,
        wants_page_stats=policy.wants_page_stats,
        num_epochs=num_epochs,
    )


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<missing>"


_MISSING = _Missing()
