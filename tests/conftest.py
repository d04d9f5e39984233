"""Shared fixtures."""

import collections

import pytest

from parclust import kmeans
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
    """A Counter of the distances the k-means body scores in this test:
    `cells` sums rows x centers over every `squared_distances` call made
    through `parclust.kmeans`."""
    counts = collections.Counter()
    original = kmeans.squared_distances

    def counted(points, centers):
        counts["cells"] += points.shape[0] * centers.shape[0]
        return original(points, centers)

    monkeypatch.setattr(kmeans, "squared_distances", counted)
    return counts
