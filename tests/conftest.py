"""Shared fixtures."""

import collections
import sys

import pytest

from parclust import fcm, kmeans
from parclust.comm import CommWorld


@pytest.fixture()
def count_collectives(monkeypatch):
    """The collectives run in this test, by kind: `count_collectives[world]`
    is a Counter of the collectives of that world alone.

    Each collective is counted once, when the scheduler combines the posts
    of every rank. Worlds of every size go through `CommWorld._collective`,
    so the one-node worlds a rank builds inside its body (centralized
    k-means, one node's PCA) are counted too, each under its own world and
    not under the world that ran the body.
    """
    counts = collections.defaultdict(collections.Counter)
    original = CommWorld._collective

    def counted(self, posts):
        counts[self][posts[0][0]] += 1
        return original(self, posts)

    monkeypatch.setattr(CommWorld, "_collective", counted)
    return counts


@pytest.fixture()
def count_distance_cells(monkeypatch):
    """A Counter of the distances scored in this test: rows x centers over
    every `squared_distances` call, under "cells" for all of them and under
    the calling module's name (`kmeans`, `fcm`, `dbscan`)."""
    counts = collections.Counter()
    # `parclust.dbscan` is the function the package exports; the module is
    # only in sys.modules
    modules = {"kmeans": kmeans, "fcm": fcm,
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
