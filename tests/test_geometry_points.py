"""Unit tests for repro.geometry.points."""

import numpy as np
import pytest

from repro.geometry.points import (
    as_points,
    distance,
    distances_from,
    nearest_index,
    neighbors_within,
    pairs_within,
    pairwise_distances,
    path_length,
)


class TestAsPoints:
    def test_accepts_2d_array(self):
        pts = as_points([[0, 0], [1, 2]])
        assert pts.shape == (2, 2)
        assert pts.dtype == np.float64

    def test_promotes_single_point(self):
        pts = as_points([3.0, 4.0])
        assert pts.shape == (1, 2)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            as_points([[1.0, 2.0, 3.0]])

    def test_rejects_bad_single_point(self):
        with pytest.raises(ValueError):
            as_points([1.0, 2.0, 3.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_points([[np.nan, 0.0]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            as_points([[np.inf, 0.0]])

    def test_empty_is_fine(self):
        pts = as_points(np.empty((0, 2)))
        assert pts.shape == (0, 2)


class TestDistance:
    def test_pythagorean(self):
        assert distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_zero(self):
        assert distance([1.5, 2.5], [1.5, 2.5]) == 0.0

    def test_symmetry(self):
        a, b = [1.0, 7.0], [-2.0, 3.0]
        assert distance(a, b) == pytest.approx(distance(b, a))


class TestDistancesFrom:
    def test_matches_scalar(self, square_points):
        origin = np.array([0.25, 0.25])
        d = distances_from(origin, square_points)
        for i, p in enumerate(square_points):
            assert d[i] == pytest.approx(distance(origin, p))

    def test_empty(self):
        d = distances_from([0, 0], np.empty((0, 2)))
        assert d.shape == (0,)


class TestPairwiseDistances:
    def test_self_matrix_diagonal_zero(self, square_points):
        m = pairwise_distances(square_points)
        assert np.allclose(np.diag(m), 0.0)

    def test_symmetric(self, square_points):
        m = pairwise_distances(square_points)
        assert np.allclose(m, m.T)

    def test_cross_matrix_shape(self, square_points):
        b = np.array([[0.0, 0.0]])
        m = pairwise_distances(square_points, b)
        assert m.shape == (5, 1)

    def test_values(self):
        m = pairwise_distances([[0, 0]], [[3, 4]])
        assert m[0, 0] == pytest.approx(5.0)


class TestPairsWithin:
    def test_finds_close_pairs(self):
        pts = np.array([[0, 0], [0.5, 0], [10, 10]])
        pairs = pairs_within(pts, 1.0)
        assert pairs.shape == (1, 2)
        assert set(pairs[0]) == {0, 1}

    def test_radius_zero_only_coincident(self):
        pts = np.array([[0, 0], [0, 0], [1, 1]])
        pairs = pairs_within(pts, 0.0)
        assert len(pairs) == 1

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            pairs_within(np.zeros((3, 2)), -1.0)

    def test_single_point_no_pairs(self):
        assert len(pairs_within(np.zeros((1, 2)), 5.0)) == 0

    def test_matches_bruteforce(self, rng):
        pts = rng.uniform(0, 10, size=(40, 2))
        pairs = {tuple(sorted(p)) for p in pairs_within(pts, 2.0)}
        brute = set()
        for i in range(40):
            for j in range(i + 1, 40):
                if np.hypot(*(pts[i] - pts[j])) <= 2.0:
                    brute.add((i, j))
        assert pairs == brute


class TestNeighborsWithin:
    def test_basic(self):
        centers = np.array([[0.0, 0.0]])
        pts = np.array([[0.5, 0], [2.0, 0], [0, 0.9]])
        (hits,) = neighbors_within(centers, pts, 1.0)
        assert hits.tolist() == [0, 2]

    def test_empty_points(self):
        res = neighbors_within(np.zeros((2, 2)), np.empty((0, 2)), 1.0)
        assert len(res) == 2
        assert all(len(h) == 0 for h in res)

    def test_sorted_output(self, rng):
        centers = rng.uniform(0, 5, size=(3, 2))
        pts = rng.uniform(0, 5, size=(50, 2))
        for h in neighbors_within(centers, pts, 2.5):
            assert list(h) == sorted(h)


class TestPathLength:
    def test_straight_line(self):
        assert path_length([[0, 0], [3, 4]]) == pytest.approx(5.0)

    def test_l_shape(self):
        assert path_length([[0, 0], [1, 0], [1, 1]]) == pytest.approx(2.0)

    def test_single_point(self):
        assert path_length([[2, 2]]) == 0.0

    def test_empty(self):
        assert path_length(np.empty((0, 2))) == 0.0


class TestNearestIndex:
    def test_picks_closest(self, square_points):
        assert nearest_index([0.45, 0.55], square_points) == 4

    def test_tie_lowest_index(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert nearest_index([0.0, 0.0], pts) == 0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            nearest_index([0, 0], np.empty((0, 2)))


def _kdtree_pairs(pts, radius):
    """``pairs_within`` as a :class:`scipy.spatial.cKDTree` computes it."""
    from scipy.spatial import cKDTree

    if len(pts) < 2:
        return np.empty((0, 2), dtype=np.intp)
    pairs = cKDTree(pts).query_pairs(r=radius, output_type="ndarray").reshape(-1, 2)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def _kdtree_neighbors(centers, pts, radius):
    """``neighbors_within`` as a :class:`scipy.spatial.cKDTree` computes it."""
    from scipy.spatial import cKDTree

    if len(pts) == 0:
        return [[] for _ in range(len(centers))]
    if len(centers) == 0:
        return []
    return [sorted(h) for h in cKDTree(pts).query_ball_point(centers, r=radius)]


def _assert_match_kdtree(pts, radius, centers):
    got = pairs_within(pts, radius)
    assert got.shape[1] == 2
    assert np.array_equal(got, _kdtree_pairs(pts, radius))
    hits = neighbors_within(centers, pts, radius)
    assert [h.tolist() for h in hits] == _kdtree_neighbors(centers, pts, radius)
    assert all(h.dtype == np.intp for h in hits)


class TestGridMatchesKdtree:
    """The cell-list queries return exactly what a k-d tree returns."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_points(self, seed):
        rng = np.random.default_rng(seed)
        side = rng.uniform(5.0, 300.0)
        pts = rng.uniform(0.0, side, size=(int(rng.integers(2, 800)), 2))
        centers = rng.uniform(0.0, side, size=(int(rng.integers(1, 40)), 2))
        _assert_match_kdtree(pts, float(rng.uniform(0.5, 30.0)), centers)

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("radius", [1.0, 2.0, 5.0, 12.0])
    def test_integer_lattice_boundary_ties(self, seed, radius):
        # Integer coordinates put many pairs at exactly ``radius``
        # (3-4-5 triangles, axis neighbours): ties must be kept.
        rng = np.random.default_rng(seed)
        pts = np.round(rng.uniform(-20.0, 40.0, size=(600, 2)))
        centers = np.round(rng.uniform(-25.0, 45.0, size=(30, 2)))
        _assert_match_kdtree(pts, radius, centers)
        d = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
        assert np.any(d == radius)  # the case is really exercised

    @pytest.mark.parametrize("radius", [0.0, 0.5, 3.0])
    def test_duplicate_points(self, radius):
        rng = np.random.default_rng(3)
        base = np.round(rng.uniform(0.0, 10.0, size=(40, 2)))
        pts = np.concatenate([base, base[::2], base[:5]])
        _assert_match_kdtree(pts, radius, base[:10])

    def test_radius_zero_pairs_exact_duplicates_only(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0 + 1e-12], [2.0, 2.0]])
        assert pairs_within(pts, 0.0).tolist() == [[0, 1]]
        assert [h.tolist() for h in neighbors_within([[1.0, 1.0]], pts, 0.0)] == [[0, 1]]

    def test_empty_and_single_inputs(self):
        one = np.array([[3.0, 4.0]])
        assert pairs_within(np.empty((0, 2)), 1.0).shape == (0, 2)
        assert pairs_within(one, 1.0).shape == (0, 2)
        assert neighbors_within(np.empty((0, 2)), one, 1.0) == []
        (hit,) = neighbors_within([[3.0, 4.5]], one, 1.0)
        assert hit.tolist() == [0]
        (miss,) = neighbors_within([[3.0, 4.5]], np.empty((0, 2)), 1.0)
        assert miss.size == 0

    def test_centers_outside_field_and_negative_coordinates(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-50.0, -10.0, size=(300, 2))
        centers = np.concatenate(
            [
                rng.uniform(-60.0, 0.0, size=(20, 2)),
                [[-1e9, -1e9], [1e12, -30.0], [-30.0, 1e15], [-9.0, -9.0], [-51.0, -30.0]],
            ]
        )
        _assert_match_kdtree(pts, 4.0, centers)

    def test_cell_index_range_beyond_int64_key(self):
        # span / radius is ~2e15 cells per axis: a naive ``cy * w + cx``
        # key over that grid would need ~4e30 and overflow int64.
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1e6, 1e6, size=(200, 2))
        pts = np.concatenate([pts, pts[:20] + [5e-10, 0.0], pts[20:30]])
        radius = 1e-9
        assert ((pts.max() - pts.min()) / radius) ** 2 > 2.0**63
        _assert_match_kdtree(pts, radius, pts[:25] + [0.0, 9e-10])
        assert len(pairs_within(pts, radius)) == 30

    def test_pairs_in_lexicographic_order(self):
        pts = np.random.default_rng(11).uniform(0.0, 30.0, size=(400, 2))
        pairs = pairs_within(pts, 4.0)
        assert len(pairs) > 100
        assert np.all(pairs[:, 0] < pairs[:, 1])
        key = pairs[:, 0] * len(pts) + pairs[:, 1]
        assert np.all(np.diff(key) > 0)
