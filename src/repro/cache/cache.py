"""Set-associative data caches.

Two cache roles exist in the simulated memory path:

* a per-chiplet **L1 aggregate** (requester side) standing in for the
  chiplet's per-SM L1s, probed by physical line address;
* a per-chiplet **L2** modelled **memory-side**: lines are cached at the
  chiplet that owns the physical page (its home), and every requester —
  local or remote — probes the home L2.

The memory-side choice is a deliberate modelling decision (see
DESIGN.md): it makes L2 capacity sensitive to data *placement*.  When a
2MB page pulls four chiplets' worth of data into one home chiplet, that
home L2 serves a ~4x working set while the others idle, reproducing the
L2 MPKI inflation the paper reports for misplaced large pages (Table 2).
A purely SM-side model is placement-blind and cannot show that effect.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, List, Tuple

from ..units import CACHE_LINE, is_pow2


class SetAssociativeCache:
    """LRU set-associative cache indexed by physical line address.

    Each set is a plain list of line numbers, least recently used
    first: a probe is ``in``, a hit moves the line to the end
    (``remove`` plus ``append``) and a fill into a full set drops
    ``s[0]``.  At 8 and 16 ways that beats an ``OrderedDict`` per set,
    and the batched engine's data pass walks the same lists.
    """

    def __init__(
        self,
        capacity_bytes: int,
        ways: int = 16,
        line_size: int = CACHE_LINE,
    ) -> None:
        if capacity_bytes < line_size:
            raise ValueError("capacity must hold at least one line")
        if not is_pow2(line_size):
            raise ValueError("line_size must be a power of two")
        self.line_size = line_size
        total_lines = capacity_bytes // line_size
        ways = max(1, min(ways, total_lines))
        self.num_sets = max(1, total_lines // ways)
        self.ways = ways
        self._sets: List[List[int]] = [[] for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.ways

    def _set_of(self, line: int) -> List[int]:
        # GPU L2s hash their set index; a Fibonacci multiplicative hash
        # disperses both page-strided streams and physically contiguous
        # CLAP regions uniformly (a plain modulo or XOR-fold thrashes a
        # handful of sets for one layout or the other).
        hashed = (line * 0x9E3779B1) & 0xFFFFFFFF
        return self._sets[(hashed >> 16) % self.num_sets]

    def access(self, paddr: int) -> bool:
        """Probe-and-fill for the line containing ``paddr``.

        Returns True on hit.  Misses insert the line (allocate-on-miss)
        and evict the set's LRU line when full.
        """
        line = paddr // self.line_size
        entries = self._set_of(line)
        if line in entries:
            entries.remove(line)
            entries.append(line)
            self.hits += 1
            return True
        self.misses += 1
        if len(entries) >= self.ways:
            del entries[0]
        entries.append(line)
        return False

    def probe(self, paddr: int) -> bool:
        """Check residency without filling or touching statistics."""
        line = paddr // self.line_size
        return line in self._set_of(line)

    def invalidate_range(self, paddr: int, size: int) -> int:
        """Drop all lines in ``[paddr, paddr+size)`` (migration flush)."""
        return self.invalidate_ranges(((paddr, size),))

    def invalidate_ranges(self, ranges: Iterable[Tuple[int, int]]) -> int:
        """Drop every line in the union of the ``(paddr, size)`` ranges;
        returns the number of lines dropped.

        The ranges may come in any order and may overlap, touch or
        repeat.  Removing lines leaves the survivors' LRU order as it
        was, so one call equals one :meth:`invalidate_range` per range.
        """
        starts: List[int] = []
        lasts: List[int] = []
        for first, last in sorted(
            (paddr // self.line_size, (paddr + size - 1) // self.line_size)
            for paddr, size in ranges
        ):
            if lasts and first <= lasts[-1] + 1:
                lasts[-1] = max(lasts[-1], last)
            else:
                starts.append(first)
                lasts.append(last)
        dropped = 0
        union = sum(last - first + 1 for first, last in zip(starts, lasts))
        if union > self.capacity_lines:
            # The union outsizes the cache (e.g. a 2MB page): scanning
            # resident entries once is cheaper than probing every line.
            for entries in self._sets:
                doomed = []
                for line in entries:
                    k = bisect_right(starts, line)
                    if k and line <= lasts[k - 1]:
                        doomed.append(line)
                for line in doomed:
                    entries.remove(line)
                dropped += len(doomed)
            return dropped
        for first, last in zip(starts, lasts):
            for line in range(first, last + 1):
                entries = self._set_of(line)
                if line in entries:
                    entries.remove(line)
                    dropped += 1
        return dropped

    def flush(self) -> None:
        for entries in self._sets:
            entries.clear()

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
