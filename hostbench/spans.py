"""Span recording for the traced benchmark pass, from outside the program.

Run as a script, this file is a stand-in for ``python -m repro``::

    PYTHONPATH=src python3 hostbench/spans.py SPANS_DIR [repro arguments...]

It imports the CLI (recorded as the ``import`` span), wraps each layer's
public entry points in span recorders, then calls
``repro.__main__.main``.  Nothing under ``src/`` knows it is traced.

A span is ``{"id", "parent", "name", "pid", "t0", "t1", "a"}`` with
``perf_counter_ns`` times, which are comparable across processes (on
Linux ``perf_counter`` reads CLOCK_MONOTONIC).  Forked pool workers and coordinator
runners inherit the wrappers; they leave through ``os._exit``, so every
process appends its finished spans to ``SPANS_DIR/<pid>.jsonl`` each time
the outermost span of one of its threads closes.  A forked child's first
spans name the span that was open in the parent at the fork as their
parent, so cross-process work links back to what caused it.

The analysis half (:func:`load_spans`, :func:`self_times`) is imported by
``bench.py``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class Recorder:
    """Per-process span buffer; flushed to ``<root>/<pid>.jsonl``."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self._reset(fork_parent=None)
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self, fork_parent: Optional[str]) -> None:
        self.pid = os.getpid()
        self.fork_parent = fork_parent
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffer: List[dict] = []
        self._count = 0

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _after_fork(self) -> None:
        stack = self._stack()
        self._reset(fork_parent=stack[-1] if stack else None)

    def _open(self) -> Tuple[str, Optional[str], List[str]]:
        """A new span id, its parent, and the calling thread's stack."""
        stack = self._stack()
        with self._lock:
            self._count += 1
            span_id = f"{self.pid}:{self._count}"
        return span_id, stack[-1] if stack else self.fork_parent, stack

    def record(self, name: str, t0: int, t1: int) -> None:
        """Add a finished span that had no children (e.g. the import)."""
        span_id, parent, stack = self._open()
        self._close(name, span_id, parent, t0, t1, None, stack)

    def _close(self, name, span_id, parent, t0, t1, attrs, stack) -> None:
        span = {
            "id": span_id, "parent": parent, "name": name,
            "pid": self.pid, "t0": t0, "t1": t1,
        }
        if attrs:
            span["a"] = attrs
        with self._lock:
            self._buffer.append(span)
            if not stack:
                self._flush()

    def _flush(self) -> None:
        if not self._buffer:
            return
        lines = "".join(json.dumps(s) + "\n" for s in self._buffer)
        self._buffer = []
        with open(self.root / f"{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(lines)

    def wrap(
        self,
        name: str,
        fn: Callable,
        attrs: Optional[Callable[[object], dict]] = None,
    ) -> Callable:
        """``fn`` recording one span per call; ``attrs(result)`` annotates."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, stack = self._open()
            stack.append(span_id)
            t0 = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                extra = attrs(result) if attrs is not None and result is not None else None
                self._close(name, span_id, parent, t0, t1, extra, stack)

        return traced


def _patch_everywhere(module, attr: str, wrapper: Callable) -> None:
    """Rebind ``module.attr`` in every loaded ``repro`` module holding it.

    Callers that did ``from .engine import run_simulation`` look the name
    up in their own namespace, so patching the defining module alone
    would miss them.
    """
    original = getattr(module, attr)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        if getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)


def _patch_method(cls, attr: str, recorder: Recorder, name: str, attrs=None) -> None:
    setattr(cls, attr, recorder.wrap(name, cls.__dict__[attr], attrs))


def _result_attrs(result) -> dict:
    return {
        "accesses": result.n_accesses,
        "warp_insts": result.n_warp_instructions,
        "fast_path_fraction": result.fast_path_fraction,
        "fault_batch_fraction": result.fault_batch_fraction,
    }


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import repro.__main__ as cli
    from repro.sim import coordinator, durability, engine, journal, machine, parallel
    from repro.sim.batch import BatchedPipeline
    from repro.sim.pipeline import AccessPipeline
    from repro.policies import contract
    from repro.trace.store import TraceStore
    from repro.trace.workload import Workload

    functions = [
        (cli, "_run_experiment_module", "experiments", None),
        (parallel, "cell_fingerprint", "parallel.fingerprint", None),
        (parallel, "_run_cell", "parallel.cell", None),
        (durability, "atomic_write", "durability.atomic_write", None),
        (durability, "parse_entry", "durability.parse_entry", None),
        (contract, "validate_policy", "policy.validate", None),
        (engine, "run_simulation", "engine.run", _result_attrs),
    ]
    for module, attr, name, attrs in functions:
        _patch_everywhere(module, attr, recorder.wrap(name, getattr(module, attr), attrs))

    methods = [
        (parallel.SweepRunner, "run_cells", "parallel.run_cells", None),
        (parallel.ResultCache, "get", "parallel.cache_get", None),
        (parallel.ResultCache, "put", "parallel.cache_put", None),
        (Workload, "__init__", "trace.bind", None),
        (Workload, "build_trace", "trace.build", lambda t: {"bytes": int(t.nbytes)}),
        (TraceStore, "ensure", "trace.store_ensure", None),
        (TraceStore, "attach", "trace.store_attach", None),
        (machine.Machine, "__init__", "machine.init", None),
        (BatchedPipeline, "run", "batch.run", None),
        (AccessPipeline, "run", "pipeline.run", None),
        (coordinator.Coordinator, "run", "coordinator.run", None),
        (coordinator.Coordinator, "_spawn", "coordinator.spawn", None),
        (journal.Journal, "append", "journal.append", None),
    ]
    for cls, attr, name, attrs in methods:
        _patch_method(cls, attr, recorder, name, attrs)

    # Every policy class that defines its own ``attach``.
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith(("repro.policies", "repro.core")):
            continue
        for obj in list(vars(mod).values()):
            if (
                isinstance(obj, type)
                and obj.__module__ == mod_name
                and callable(obj.__dict__.get("attach"))
            ):
                _patch_method(obj, "attach", recorder, "policy.attach")


# --- analysis -----------------------------------------------------------


def load_spans(root: Path) -> List[dict]:
    """Every span written under ``root`` (one ``<pid>.jsonl`` per process)."""
    spans: List[dict] = []
    for path in sorted(Path(root).glob("*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def self_times(spans: Iterable[dict]) -> Dict[str, int]:
    """Span id -> nanoseconds not covered by its same-process children.

    Children in another process ran concurrently with their parent, so
    they do not reduce its self time.  Within one thread children nest
    without overlap, so their durations can simply be summed.
    """
    spans = list(spans)
    by_id = {s["id"]: s for s in spans}
    covered: Dict[str, int] = defaultdict(int)
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None and parent["pid"] == span["pid"]:
            covered[parent["id"]] += span["t1"] - span["t0"]
    return {s["id"]: s["t1"] - s["t0"] - covered[s["id"]] for s in spans}


def main(argv: List[str]) -> int:
    root = Path(argv[0])
    root.mkdir(parents=True, exist_ok=True)
    recorder = Recorder(root)
    t0 = time.perf_counter_ns()
    import repro.__main__ as cli

    recorder.record("import", t0, time.perf_counter_ns())
    install(recorder)
    return recorder.wrap("main", cli.main)(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
