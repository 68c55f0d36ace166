"""Built-in repro-lint rules; importing this package registers them."""

from . import (  # noqa: F401
    determinism,
    durability_protocol,
    durable_writes,
    exception_safety,
    mutable_defaults,
    nondeterminism_taint,
)

__all__ = [
    "determinism",
    "durability_protocol",
    "durable_writes",
    "exception_safety",
    "mutable_defaults",
    "nondeterminism_taint",
]
