"""RPR001 — determinism: no salted hashes, unseeded RNGs, or wall
clocks in results-bearing code.

The PR 1 bug class: simulation inputs or cache fingerprints derived
from Python's builtin ``hash()``, which is salted per process
(PYTHONHASHSEED), so sweep workers disagreed with the parent about
shared-structure owner draws.  The repo convention is ``zlib.crc32`` /
``hashlib`` for stable hashing and ``np.random.default_rng(seed)`` /
``random.Random(seed)`` for randomness.

Three sub-checks:

* builtin ``hash()`` calls anywhere in the package — results, cache
  keys and fingerprints all cross process boundaries here, so there is
  no safe home for a salted hash;
* unseeded randomness: module-level ``random.*`` draws and no-argument
  ``random.Random()`` / legacy global ``np.random.*`` draws (the seeded
  generator APIs are the deterministic alternatives);
* wall-clock reads (``time.time``/``perf_counter``/``monotonic``/
  ``datetime.now``) inside the engine hot paths (``sim/engine.py``,
  ``sim/pipeline.py``, ``sim/batch.py``) where a timing value could
  leak into results.  ``sim/parallel.py`` is explicitly allowlisted:
  its wall-time *stats* (``SweepStats.wall_seconds``, cell timing,
  backoff sleeps) describe how a sweep ran, never what it computed.

The call sites come from the dataflow facts rather than a second walk
of each tree, and the source tables are shared with RPR008's taint
specs (:mod:`..dataflow.taint`) — one spec, two enforcement depths.
"""

from __future__ import annotations

from typing import Iterator

from ..core import Finding, Project, SourceFile, register
from ..dataflow.taint import (
    NP_RANDOM_FUNCS as _NP_RANDOM_FUNCS,
    RANDOM_MODULE_FUNCS as _RANDOM_MODULE_FUNCS,
    WALLCLOCK_CALLS as _WALLCLOCK_CALLS,
)

#: Files whose hot loops must never read a wall clock.
HOT_PATH_FILES = (
    "sim/engine.py",
    "sim/pipeline.py",
    "sim/batch.py",
)

#: Wall-time here is operational statistics, not simulation input.
WALLCLOCK_ALLOWLIST = ("sim/parallel.py",)


def _finding(src: SourceFile, line: int, col: int, message: str) -> Finding:
    return Finding(
        code="RPR001",
        path=src.path,
        rel=src.rel,
        line=line,
        col=col,
        message=message,
    )


@register("RPR001", "determinism")
def check_determinism(project: Project) -> Iterator[Finding]:
    """Builtin ``hash()``, unseeded RNG draws, and wall-clock reads in
    engine hot paths (PR 1 bug class)."""
    facts = project.facts()
    by_rel = {src.rel: src for src in project.sources()}
    for rel in sorted(facts.by_rel):
        src = by_rel.get(rel)
        if src is None:
            continue
        file_facts = facts.by_rel[rel]
        is_hot = any(
            rel == hot or rel.endswith("/" + hot)
            for hot in HOT_PATH_FILES
        )
        wallclock_ok = any(
            rel == ok or rel.endswith("/" + ok)
            for ok in WALLCLOCK_ALLOWLIST
        )
        clock_names = (
            set(file_facts["time_imports"]) if is_hot else set()
        )

        for fn in file_facts["functions"]:
            for call in fn["calls"]:
                name = call["name"]
                if not name or name.startswith("."):
                    continue

                if name == "hash":
                    yield _finding(
                        src,
                        call["line"],
                        call["col"],
                        (
                            "builtin hash() is salted per process "
                            "(PYTHONHASHSEED); use zlib.crc32/hashlib "
                            "for values crossing process or "
                            "cache-fingerprint boundaries"
                        ),
                    )
                    continue

                parts = name.split(".")
                if (
                    len(parts) == 2
                    and parts[0] == "random"
                    and parts[1] in _RANDOM_MODULE_FUNCS
                ):
                    yield _finding(
                        src,
                        call["line"],
                        call["col"],
                        (
                            f"{name}() draws from the process-global "
                            "RNG; use a seeded random.Random(seed) "
                            "instance"
                        ),
                    )
                    continue
                if name in ("random.Random", "Random") and not (
                    call["nargs"] or call["nkw"]
                ):
                    yield _finding(
                        src,
                        call["line"],
                        call["col"],
                        (
                            "random.Random() without a seed is "
                            "nondeterministic; pass an explicit seed"
                        ),
                    )
                    continue
                if (
                    len(parts) >= 2
                    and parts[-2] == "random"
                    and parts[0] in ("np", "numpy")
                    and parts[-1] in _NP_RANDOM_FUNCS
                ):
                    yield _finding(
                        src,
                        call["line"],
                        call["col"],
                        (
                            f"{name}() uses NumPy's global RNG state; "
                            "use np.random.default_rng(seed)"
                        ),
                    )
                    continue

                if is_hot and not wallclock_ok:
                    bare = parts[0] if len(parts) == 1 else None
                    if name in _WALLCLOCK_CALLS or (
                        bare is not None and bare in clock_names
                    ):
                        yield _finding(
                            src,
                            call["line"],
                            call["col"],
                            (
                                f"wall-clock call {name}() in engine "
                                f"hot path {rel}; results must not "
                                "depend on wall time (allowlisted: "
                                "sim/parallel.py wall-time stats)"
                            ),
                        )
