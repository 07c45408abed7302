"""Tests for the mobility models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mobility import (
    GaussMarkov,
    RandomWalk,
    RandomWaypoint,
    StaticPlacement,
    TraceMobility,
)
from repro.util.geometry import Arena


ARENA = Arena(500.0, 500.0)


class TestStaticPlacement:
    def test_positions_never_change(self, rng):
        m = StaticPlacement(10, ARENA, rng=rng)
        p0 = m.positions(0.0).copy()
        p1 = m.positions(100.0)
        assert np.array_equal(p0, p1)

    def test_explicit_positions(self):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = StaticPlacement(2, ARENA, positions=pts)
        assert np.array_equal(m.positions(5.0), pts)

    def test_rejects_outside_arena(self):
        with pytest.raises(ValueError):
            StaticPlacement(1, ARENA, positions=np.array([[600.0, 0.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            StaticPlacement(3, ARENA, positions=np.zeros((2, 2)))

    def test_needs_positions_or_rng(self):
        with pytest.raises(ValueError):
            StaticPlacement(3, ARENA)


class TestRandomWaypoint:
    def test_noble_fix_enforced(self, rng):
        with pytest.raises(ValueError, match="Noble"):
            RandomWaypoint(5, ARENA, v_min=0.0, v_max=10.0, rng=rng)

    def test_speed_bounds_validation(self, rng):
        with pytest.raises(ValueError):
            RandomWaypoint(5, ARENA, v_min=5.0, v_max=1.0, rng=rng)

    def test_positions_stay_inside(self, rng):
        m = RandomWaypoint(20, ARENA, v_min=1.0, v_max=20.0, rng=rng)
        for t in np.linspace(0, 2000, 101):
            assert ARENA.contains(m.positions(float(t))).all()

    def test_backwards_query_rejected(self, rng):
        m = RandomWaypoint(5, ARENA, v_min=1.0, v_max=5.0, rng=rng)
        m.positions(10.0)
        with pytest.raises(ValueError):
            m.positions(5.0)

    def test_movement_speed_respected(self, rng):
        m = RandomWaypoint(10, ARENA, v_min=2.0, v_max=8.0, rng=rng)
        t, dt = 0.0, 0.5
        prev = m.positions(t).copy()
        for _ in range(200):
            t += dt
            cur = m.positions(t)
            step = np.hypot(*(cur - prev).T)
            # Never faster than v_max (equality up to fp error).
            assert (step <= 8.0 * dt + 1e-6).all()
            prev = cur.copy()

    def test_nodes_actually_move(self, rng):
        m = RandomWaypoint(10, ARENA, v_min=1.0, v_max=5.0, rng=rng)
        p0 = m.positions(0.0).copy()
        p1 = m.positions(200.0)
        moved = np.hypot(*(p1 - p0).T)
        assert (moved > 1.0).any()

    def test_pause_time(self, rng):
        m = RandomWaypoint(5, ARENA, v_min=1.0, v_max=2.0, pause_time=10.0, rng=rng)
        # Over a long horizon nodes pause; instantaneous speeds include 0.
        saw_pause = False
        for t in np.linspace(0, 3000, 600):
            speeds = m.current_speeds(float(t))
            if (speeds == 0.0).any():
                saw_pause = True
                break
        assert saw_pause

    def test_mean_speed_does_not_decay(self, rng):
        """The Yoon-Liu-Noble pathology check: with v_min > 0 the average
        instantaneous speed over late windows stays near the early value."""
        m = RandomWaypoint(40, ARENA, v_min=1.0, v_max=19.0, rng=rng)
        early, late = [], []
        for t in np.arange(0.0, 500.0, 10.0):
            early.append(m.current_speeds(float(t)).mean())
        for t in np.arange(5000.0, 5500.0, 10.0):
            late.append(m.current_speeds(float(t)).mean())
        assert np.mean(late) > 0.5 * np.mean(early)

    def test_deterministic_given_seed(self):
        a = RandomWaypoint(5, ARENA, 1.0, 5.0, rng=np.random.default_rng(3))
        b = RandomWaypoint(5, ARENA, 1.0, 5.0, rng=np.random.default_rng(3))
        assert np.array_equal(a.positions(123.0), b.positions(123.0))


class TestRandomWalk:
    def test_positions_stay_inside(self, rng):
        m = RandomWalk(15, ARENA, v_min=0.0, v_max=15.0, rng=rng)
        for t in np.linspace(0, 1000, 101):
            assert ARENA.contains(m.positions(float(t))).all()

    def test_reflection_preserves_motion(self, rng):
        m = RandomWalk(10, ARENA, v_min=5.0, v_max=10.0, mean_epoch=50.0, rng=rng)
        p0 = m.positions(0.0).copy()
        p1 = m.positions(100.0)
        assert (np.hypot(*(p1 - p0).T) > 0).any()

    def test_invalid_params(self, rng):
        with pytest.raises(ValueError):
            RandomWalk(5, ARENA, v_min=-1.0, v_max=2.0, rng=rng)
        with pytest.raises(ValueError):
            RandomWalk(5, ARENA, v_min=0.0, v_max=2.0, mean_epoch=0.0, rng=rng)


class TestGaussMarkov:
    def test_positions_stay_inside(self, rng):
        m = GaussMarkov(15, ARENA, mean_speed=10.0, rng=rng)
        for t in np.linspace(0, 1000, 101):
            assert ARENA.contains(m.positions(float(t))).all()

    def test_alpha_bounds(self, rng):
        with pytest.raises(ValueError):
            GaussMarkov(5, ARENA, alpha=1.5, rng=rng)

    def test_ballistic_limit(self, rng):
        """alpha=1 with zero noise keeps speed constant."""
        m = GaussMarkov(
            5, ARENA, mean_speed=5.0, alpha=1.0, sigma_speed=0.0, sigma_dir=0.0, rng=rng
        )
        m.positions(100.0)
        assert np.allclose(m._speed, 5.0)


class TestTraceMobility:
    def test_linear_interpolation(self):
        traces = [[(0.0, 0.0, 0.0), (10.0, 100.0, 0.0)]]
        m = TraceMobility(ARENA, traces)
        assert m.positions(5.0)[0].tolist() == [50.0, 0.0]

    def test_before_first_and_after_last(self):
        traces = [[(5.0, 10.0, 10.0), (10.0, 20.0, 20.0)]]
        m = TraceMobility(ARENA, traces)
        assert m.positions(0.0)[0].tolist() == [10.0, 10.0]
        assert m.positions(100.0)[0].tolist() == [20.0, 20.0]

    def test_multiple_nodes(self):
        traces = [
            [(0.0, 0.0, 0.0)],
            [(0.0, 100.0, 100.0), (10.0, 200.0, 100.0)],
        ]
        m = TraceMobility(ARENA, traces)
        pos = m.positions(10.0)
        assert pos[0].tolist() == [0.0, 0.0]
        assert pos[1].tolist() == [200.0, 100.0]

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            TraceMobility(ARENA, [[(5.0, 0, 0), (1.0, 1, 1)]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TraceMobility(ARENA, [[]])

    def test_rejects_out_of_arena(self):
        with pytest.raises(ValueError):
            TraceMobility(ARENA, [[(0.0, 9999.0, 0.0)]])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), vmax=st.floats(1.5, 25.0))
def test_rwp_property_positions_bounded(seed, vmax):
    """Property: RWP positions remain in the arena for any seed/speed."""
    arena = Arena(300.0, 300.0)
    m = RandomWaypoint(8, arena, v_min=1.0, v_max=vmax, rng=np.random.default_rng(seed))
    for t in (0.0, 3.7, 50.1, 222.2, 1000.0):
        assert arena.contains(m.positions(t)).all()


class _UncachedWaypoint(RandomWaypoint):
    """Oracle: the interpolation recomputing every leg term per query."""

    def _positions_at(self, t):
        expired = np.nonzero(self._t1 < t)[0]
        while expired.size:
            for i in expired:
                self._new_leg(int(i), float(self._t1[i]))
            expired = np.nonzero(self._t1 < t)[0]
        span = self._t1 - self._t0
        safe_span = np.where(span > 0.0, span, 1.0)
        frac = np.clip((t - self._t0) / safe_span, 0.0, 1.0)
        np.multiply(self._dst - self._src, frac[:, None], out=self._pos_buf)
        self._pos_buf += self._src
        return self._pos_buf


#: a query step: advance by a multiple of the arena crossing time, jump
#: exactly to one node's leg end, or to (just past) the earliest leg end
_RWP_STEP = st.one_of(
    st.tuples(st.just("dt"), st.floats(0.0, 3.0)),
    st.tuples(st.just("leg_end"), st.integers(0, 7)),
    st.tuples(st.just("next_end"), st.booleans()),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 8),
    # 1e-10 m legs are shorter than the 1e-9 s minimum leg duration
    side=st.sampled_from([300.0, 1e-10]),
    pause=st.sampled_from([0.0, 0.5, 2.0]),
    vmax=st.floats(1.0, 25.0),
    steps=st.lists(_RWP_STEP, min_size=1, max_size=25),
)
def test_rwp_cached_legs_match_uncached_formula(seed, n, side, pause, vmax, steps):
    """Property: the per-leg cached interpolation returns the uncached
    formula's positions bit for bit and leaves the same RNG state, at
    leg ends, through pauses and through legs of minimum duration."""
    crossing = side  # seconds to cross the arena at v_min = 1 m/s
    arena = Arena(side, side)
    models = [
        cls(n, arena, 1.0, vmax, pause_time=pause * crossing,
            rng=np.random.default_rng(seed))
        for cls in (_UncachedWaypoint, RandomWaypoint)
    ]
    ref, cached = models
    t = 0.0  # the first query sees the zero-span start legs
    for kind, arg in [("dt", 0.0)] + steps:
        if kind == "dt":
            t += arg * crossing
        elif kind == "leg_end":
            t = float(ref._t1[arg % n])
        else:
            end = float(ref._t1.min())
            t = float(np.nextafter(end, np.inf)) if arg else end
        expected = ref.positions(t).copy()
        assert cached.positions(t).tobytes() == expected.tobytes()
        assert cached.rng.bit_generator.state == ref.rng.bit_generator.state
