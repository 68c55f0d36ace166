# ruff: noqa
"""Good fixture: damaged traces move only through the durability module."""

from ..sim.durability import DurableDir


class TraceStore(DurableDir):
    def evict(self, path):
        self.quarantine(path, "evicted")
