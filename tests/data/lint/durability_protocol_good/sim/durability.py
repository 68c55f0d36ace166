# ruff: noqa
"""Good fixture: the blessed durability module owns quarantine's rename."""

import os


class DurableDir:
    def __init__(self, root):
        self.root = root

    def quarantine(self, path, reason):
        os.replace(path, str(path) + ".quarantined")
