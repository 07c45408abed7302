"""Tests for repro.util.geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.util.geometry import (
    Arena,
    clamp_point,
    distance,
    pairwise_distances,
    unit_vector,
)


class TestArena:
    def test_default_dimensions_match_paper(self):
        a = Arena()
        assert a.width == 750.0 and a.height == 750.0

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            Arena(0.0, 100.0)
        with pytest.raises(ValueError):
            Arena(100.0, -5.0)

    def test_contains(self):
        a = Arena(100.0, 50.0)
        pts = np.array([[0, 0], [100, 50], [50, 25], [101, 25], [-1, 25], [50, 51]])
        assert a.contains(pts).tolist() == [True, True, True, False, False, False]

    def test_contains_single_point(self):
        a = Arena(10, 10)
        assert a.contains(np.array([5.0, 5.0])).all()

    def test_sample_points_inside(self):
        a = Arena(100.0, 200.0)
        pts = a.sample_points(500, np.random.default_rng(0))
        assert pts.shape == (500, 2)
        assert a.contains(pts).all()

    def test_diagonal(self):
        assert Arena(3.0, 4.0).diagonal == pytest.approx(5.0)


class TestDistances:
    def test_distance_basic(self):
        assert distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_pairwise_matches_naive(self):
        rng = np.random.default_rng(1)
        pts = rng.random((40, 2)) * 100
        d = pairwise_distances(pts)
        for i in range(0, 40, 7):
            for j in range(0, 40, 5):
                expected = np.hypot(*(pts[i] - pts[j]))
                assert d[i, j] == pytest.approx(expected, abs=1e-9)

    def test_pairwise_symmetric_zero_diagonal(self):
        pts = np.random.default_rng(2).random((25, 2)) * 10
        d = pairwise_distances(pts)
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0.0)

    def test_pairwise_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((3, 3)))

    @settings(max_examples=50, deadline=None)
    @given(
        pts=arrays(
            np.float64,
            (10, 2),
            elements=st.floats(0, 1000, allow_nan=False, allow_infinity=False),
        )
    )
    def test_pairwise_triangle_inequality(self, pts):
        d = pairwise_distances(pts)
        # Check a sample of triples for the triangle inequality.
        for i, j, k in [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 5, 9)]:
            assert d[i, k] <= d[i, j] + d[j, k] + 1e-6


class TestHelpers:
    def test_clamp_point(self):
        a = Arena(10.0, 10.0)
        assert clamp_point(np.array([-5.0, 15.0]), a).tolist() == [0.0, 10.0]
        assert clamp_point(np.array([5.0, 5.0]), a).tolist() == [5.0, 5.0]

    def test_unit_vector(self):
        direction, length = unit_vector(np.zeros(2), np.array([0.0, 2.0]))
        assert length == pytest.approx(2.0)
        assert direction.tolist() == [0.0, 1.0]

    def test_unit_vector_zero_length(self):
        direction, length = unit_vector(np.ones(2), np.ones(2))
        assert length == 0.0
        assert direction.tolist() == [0.0, 0.0]
