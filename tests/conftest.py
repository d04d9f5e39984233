"""Shared fixtures."""

import collections
import sys

import pytest

from parclust import fcm, kmeans, pca
from parclust.comm import CommWorld


@pytest.fixture()
def count_collectives(monkeypatch):
    """A Counter of the collectives run in this test, by kind.

    Each collective is counted once, on rank 0's call. Only worlds of two
    or more nodes go through `CommWorld._collective`; a one-node world's
    collectives are plain calls and are not counted.
    """
    counts = collections.Counter()
    original = CommWorld._collective

    def counted(self, rank, kind, root, payload):
        if rank == 0:  # every rank makes the call; one thread writes
            counts[kind] += 1
        return original(self, rank, kind, root, payload)

    monkeypatch.setattr(CommWorld, "_collective", counted)
    return counts


@pytest.fixture()
def count_distance_cells(monkeypatch):
    """A Counter of the distances scored in this test: rows x centers over
    every `squared_distances` call, under "cells" for all of them and under
    the calling module's name (`kmeans`, `fcm`, `pca`, `dbscan`)."""
    counts = collections.Counter()
    # `parclust.dbscan` is the function the package exports; the module is
    # only in sys.modules
    modules = {"kmeans": kmeans, "fcm": fcm, "pca": pca,
               "dbscan": sys.modules["parclust.dbscan"]}
    for name, module in modules.items():
        def counted(points, centers, name=name,
                    original=module.squared_distances):
            cells = points.shape[0] * centers.shape[0]
            counts["cells"] += cells
            counts[name] += cells
            return original(points, centers)

        monkeypatch.setattr(module, "squared_distances", counted)
    return counts
