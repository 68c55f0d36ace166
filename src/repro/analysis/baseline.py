"""Baseline file for grandfathered repro-lint findings.

The baseline is a JSON multiset of finding fingerprints.  ``repro
lint`` exits nonzero only on findings *not* absorbed by the baseline,
so an inherited violation does not block CI while any *new* instance of
the same rule still fails.  Fingerprints are line-number-independent
(code, file, message), so moving code around does not invalidate them;
each baseline entry absorbs exactly one finding, so duplicating a
grandfathered bug is still caught.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Counter as CounterT
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

if TYPE_CHECKING:
    from .core import Finding

BASELINE_VERSION = 1

#: Default baseline filename, looked up at the current directory by the
#: CLI when ``--baseline`` is not given.
DEFAULT_BASELINE_NAME = "lint-baseline.json"

Fingerprint = Tuple[str, str, str]


def load_baseline(path: Path) -> CounterT[Fingerprint]:
    """The fingerprint multiset stored at ``path``."""
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"unsupported baseline version {data.get('version')!r} "
            f"in {path} (expected {BASELINE_VERSION})"
        )
    counts: CounterT[Fingerprint] = Counter()
    for entry in data.get("findings", []):
        counts[(entry["code"], entry["path"], entry["message"])] += 1
    return counts


def write_baseline(findings: Sequence[Finding], path: Path) -> None:
    """Persist ``findings`` as the new baseline at ``path``."""
    entries: List[Dict[str, str]] = [
        {"code": f.code, "path": f.rel, "message": f.message}
        for f in sorted(findings, key=lambda f: f.fingerprint())
    ]
    payload = {"version": BASELINE_VERSION, "findings": entries}
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def apply_baseline(
    findings: Sequence[Finding], baseline: CounterT[Fingerprint]
) -> Tuple[List[Finding], List[Finding]]:
    """Split ``findings`` into (new, grandfathered) against ``baseline``."""
    remaining = Counter(baseline)
    new: List[Finding] = []
    old: List[Finding] = []
    for finding in findings:
        fp = finding.fingerprint()
        if remaining.get(fp, 0) > 0:
            remaining[fp] -= 1
            old.append(finding)
        else:
            new.append(finding)
    return new, old
