"""Helpers the round-model test modules share."""

import numpy as np
import pytest

from repro.graph import Topology


def default_hidden(values):
    """``values`` as pytest parameters, the first (the default) under its
    test's plain id: a case that ran before the axis was parametrized
    keeps its name, and each added value shows in brackets."""
    first, *rest = values
    return [pytest.param(first, id=pytest.HIDDEN_PARAM), *rest]


def random_connected_topology(seed, *, n_max, n_min=5):
    """Random geometric graph on ``n_min..n_max`` nodes, resampled until
    connected."""
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n = int(rng.integers(n_min, n_max + 1))
        pos = rng.random((n, 2)) * 400.0
        members = [int(x) for x in rng.choice(n, size=max(2, n // 3), replace=False)]
        topo = Topology.from_positions(pos, 250.0, source=0, members=members)
        if topo.is_connected():
            return topo
    pytest.skip("could not sample a connected topology")


def assert_same_trajectory(a, b, *, evaluations=False):
    """Two engine results describe one trajectory: exact, not approx,
    since the engines are bit-identical.  ``evaluations=True`` also
    compares the work counts (the array engine must examine exactly the
    nodes the object engine examines; full and incremental runs do not)."""
    assert a.states == b.states
    assert a.rounds == b.rounds
    assert a.converged == b.converged
    assert a.cost_history == b.cost_history
    assert a.moves == b.moves
    if evaluations:
        assert a.evaluations == b.evaluations
