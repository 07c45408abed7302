"""Tests for mobility analysis (link churn, partitions)."""

import numpy as np
import pytest

from repro.mobility import RandomWaypoint, StaticPlacement, TraceMobility
from repro.mobility.analysis import _connected, mobility_profile
from repro.util.geometry import Arena

ARENA = Arena(500.0, 500.0)


class TestLinkChurn:
    def test_static_network_has_no_churn(self, rng):
        mob = StaticPlacement(20, ARENA, rng=rng)
        stats = mobility_profile(
            mob, max_range=200.0, duration=30.0, dt=1.0
        ).churn
        assert stats.link_breaks == 0
        assert stats.link_births == 0
        assert stats.break_rate == 0.0

    def test_mobile_network_churns(self, rng):
        mob = RandomWaypoint(20, ARENA, v_min=5.0, v_max=20.0, rng=rng)
        stats = mobility_profile(
            mob, max_range=150.0, duration=60.0, dt=1.0
        ).churn
        assert stats.link_breaks > 0
        assert stats.link_births > 0

    def test_fault_rate_grows_with_speed(self):
        """The causal link the paper asserts: faster nodes, more faults."""
        rates = []
        for vmax in (2.0, 20.0):
            mob = RandomWaypoint(
                25, ARENA, v_min=1.0, v_max=vmax, rng=np.random.default_rng(5)
            )
            rates.append(
                mobility_profile(
                    mob, max_range=150.0, duration=120.0, dt=1.0
                ).churn.break_rate
            )
        assert rates[1] > rates[0] * 1.5

    def test_engineered_break(self):
        """One node walks away: exactly one link breaks, none are born."""
        traces = [
            [(0.0, 100.0, 100.0)],
            [(0.0, 150.0, 100.0), (5.0, 150.0, 100.0), (10.0, 480.0, 480.0)],
        ]
        mob = TraceMobility(ARENA, traces)
        stats = mobility_profile(
            mob, max_range=100.0, duration=15.0, dt=1.0
        ).churn
        assert stats.link_breaks == 1
        assert stats.link_births == 0

    def test_validation(self, rng):
        mob = StaticPlacement(5, ARENA, rng=rng)
        with pytest.raises(ValueError):
            mobility_profile(mob, 100.0, duration=0.0)

    def test_mean_degree_sane(self, rng):
        mob = StaticPlacement(30, ARENA, rng=rng)
        stats = mobility_profile(
            mob, max_range=250.0, duration=5.0, dt=1.0
        ).churn
        assert 0.0 < stats.mean_degree < 29.0


class TestPartitionFraction:
    def test_connected_clique_never_partitions(self, rng):
        mob = StaticPlacement(10, Arena(100.0, 100.0), rng=rng)
        profile = mobility_profile(mob, max_range=200.0, duration=10.0)
        assert profile.partition_fraction == 0.0

    def test_sparse_network_partitions(self, rng):
        mob = StaticPlacement(4, ARENA, rng=rng)
        frac = mobility_profile(
            mob, max_range=30.0, duration=5.0
        ).partition_fraction
        assert frac == 1.0  # 4 nodes, 30 m range in 500 m arena: no chance


def _connected_by_stack(adj: np.ndarray) -> bool:
    """Reference: depth-first reachability from node 0, one node at a
    time (the search the frontier expansion replaced)."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for u in np.nonzero(adj[v])[0]:
            if not seen[u]:
                seen[u] = True
                stack.append(int(u))
    return bool(seen.all())


class TestConnected:
    def test_matches_the_stack_search(self):
        """Unit-disk graphs from sparse to dense, and random directed
        ones, with both verdicts represented."""
        rng = np.random.default_rng(7)
        verdicts = []
        for n in (1, 2, 3, 8, 25, 60):
            for radius in (0.05, 0.15, 0.3, 0.6):
                pos = rng.random((n, 2))
                d = np.hypot(*(pos[:, None, :] - pos[None, :, :]).transpose(2, 0, 1))
                adj = (d <= radius) & (d > 0.0)
                verdicts.append(_connected(adj))
                assert verdicts[-1] == _connected_by_stack(adj), (n, radius)
            directed = rng.random((n, n)) < 2.0 / n
            assert _connected(directed) == _connected_by_stack(directed), n
        assert True in verdicts and False in verdicts

