"""Remote-data caching schemes: NUBA and SAC (Sections 1, 5.2, Fig. 2/21).

Both schemes add requester-side capacity that holds *remote* data so that
repeated accesses to remotely mapped lines are served locally:

* **NUBA** (Zhao et al., ASPLOS'23) provisions comparatively large local
  capacity for remote data and inserts every remote line.
* **SAC** (Zhang et al., ISCA'23) is sharing-aware: it dedicates less
  capacity and only caches remote lines after they show reuse (a small
  filter observes first touches), avoiding pollution by streaming data.

The models are behavioural: capacity, insertion filter and hit latency.
The paper's observation that caching "moderately alleviates" 2MB-page
misplacement but cannot absorb unbounded remote traffic falls out of the
bounded capacity; under CLAP the remote working set shrinks and the same
capacity covers a larger fraction of it (Figure 21).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ..config import GPUConfig
from .cache import SetAssociativeCache


class RemoteCachingScheme:
    """Base class: a per-chiplet cache of remote lines plus a filter."""

    #: Fraction of the (scaled) L2 capacity granted to remote data.
    capacity_fraction = 0.5
    name = "remote-cache"

    def __init__(self, config: GPUConfig) -> None:
        capacity = max(
            int(config.scaled_l2_cache_bytes * self.capacity_fraction),
            16 * config.cache_line,
        )
        self.cache = SetAssociativeCache(
            capacity, ways=config.l2_ways, line_size=config.cache_line
        )
        self.remote_hits = 0
        self.remote_lookups = 0

    def should_insert(self, paddr: int) -> bool:
        """Whether a missing remote line should be cached locally."""
        return True

    def access(self, paddr: int) -> bool:
        """Probe the remote cache for a remote line; fill per the filter.

        Returns True when the line is served locally.
        """
        self.remote_lookups += 1
        line = paddr // self.cache.line_size
        entries = self.cache._set_of(line)
        if line in entries:
            entries.remove(line)
            entries.append(line)
            self.cache.hits += 1
            self.remote_hits += 1
            return True
        self.cache.misses += 1
        if self.should_insert(paddr):
            if len(entries) >= self.cache.ways:
                del entries[0]
            entries.append(line)
        return False

    @property
    def coverage(self) -> float:
        """Fraction of remote lookups served locally."""
        if not self.remote_lookups:
            return 0.0
        return self.remote_hits / self.remote_lookups


class NubaCache(RemoteCachingScheme):
    """NUBA: generous remote capacity, insert-all policy."""

    capacity_fraction = 0.75
    name = "NUBA"


class SacCache(RemoteCachingScheme):
    """SAC: smaller capacity, cache only lines that demonstrated reuse."""

    capacity_fraction = 0.5
    name = "SAC"

    #: Entries in the reuse filter (recently seen remote lines).
    FILTER_ENTRIES = 4096

    def __init__(self, config: GPUConfig) -> None:
        super().__init__(config)
        self._seen: "OrderedDict[int, bool]" = OrderedDict()

    def should_insert(self, paddr: int) -> bool:
        line = paddr // self.cache.line_size
        if line in self._seen:
            self._seen.move_to_end(line)
            return True
        if len(self._seen) >= self.FILTER_ENTRIES:
            self._seen.popitem(last=False)
        self._seen[line] = True
        return False


def make_remote_cache(
    name: Optional[str], config: GPUConfig
) -> Optional[RemoteCachingScheme]:
    """Factory: ``"NUBA"`` / ``"SAC"`` / ``None``."""
    if name is None:
        return None
    schemes = {"NUBA": NubaCache, "SAC": SacCache}
    try:
        return schemes[name.upper()](config)
    except KeyError:
        raise ValueError(
            f"unknown remote caching scheme {name!r}; "
            f"expected one of {sorted(schemes)}"
        ) from None
