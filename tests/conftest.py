"""Shared fixtures."""

import collections

import pytest

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
