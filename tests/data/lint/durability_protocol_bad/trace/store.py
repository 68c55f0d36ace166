# ruff: noqa
"""Bad fixture: trace files removed outside the durability module."""

import os


class TraceStore:
    def __init__(self, root):
        self.root = root

    def evict(self, path):
        os.unlink(path)
