"""The scheduling kernels (repro.core.kernels) and the tours built on them.

Three layers of guarantees:

* every kernel's output on fixed-seed input sets is **pinned**: each
  case hashes to the digest stored in ``tests/data/kernel_pins.json``.
  The same file pins the 2-opt orders (after one sweep and at
  convergence), the nearest-neighbour orders, full K-means runs, the
  ``uplink_etx`` vector of an ETX-routed world and the plans of every
  registered scheduler on random request lists;
* semantic properties hold on random inputs: ties go to the lowest
  index, an empty mask selects ``None``, 2-opt never lengthens a tour;
* the :class:`DistanceCache` / :func:`distance_cache_for` registry
  returns the same measurements as direct geometry calls and actually
  shares state on array identity.

Regenerate the pin file only for an intended behaviour change:
``PYTHONPATH=src python tests/test_kernels.py > tests/data/kernel_pins.json``.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster.kmeans import kmeans
from repro.core import kernels
from repro.core.requests import RechargeNodeList, RechargeRequest
from repro.core.scheduling import RVView
from repro.geometry.points import distances_from, pairwise_distances
from repro.registry import SCHEDULERS
from repro.tsp.nearest_neighbor import nearest_neighbor_order
from repro.tsp.tour import leg_lengths, open_tour_length, validate_tour
from repro.tsp.two_opt import two_opt

PIN_FILE = pathlib.Path(__file__).parent / "data" / "kernel_pins.json"

#: Fixed-seed input sets per kernel.
N_CASES = 40

#: Random request lists per scheduler in the plan pins.
PLAN_SEEDS = (11, 29, 47)

coords = st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def points_strategy(min_n=1, max_n=14):
    return arrays(
        np.float64,
        st.tuples(st.integers(min_n, max_n), st.just(2)),
        elements=coords,
    )


# ----------------------------------------------------------------------
# pinned outputs
# ----------------------------------------------------------------------


def _digest(*parts) -> str:
    """Short stable hash of kernel outputs: arrays by value and dtype
    kind (integers as int64, floats as float64 bytes), everything else
    by ``repr`` of plain Python values."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            kind = "f8" if part.dtype.kind == "f" else "i8"
            arr = np.ascontiguousarray(part, dtype="<" + kind)
            h.update(f"{kind}{arr.shape}".encode())
            h.update(arr.tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def _case_rng(tag: int, case: int) -> np.random.Generator:
    return np.random.default_rng((tag, case))


def _values(rng, n, case):
    """Even cases draw small integers so ties are common; odd cases
    draw continuous values."""
    if case % 2 == 0:
        return rng.integers(0, 6, size=n).astype(np.float64)
    return rng.uniform(0, 500, size=n)


def _mask(rng, shape, case):
    if case % 8 == 3:
        return np.zeros(shape, dtype=bool)  # nothing selectable
    return rng.random(shape) < 0.7


def _points(rng, n, case):
    if case % 2 == 0:
        return rng.integers(0, 8, size=(n, 2)).astype(np.float64)
    return rng.uniform(0, 80, size=(n, 2))


def _case_profit_vector(case):
    rng = _case_rng(1, case)
    n = int(rng.integers(1, 21))
    return (kernels.profit_vector(
        _values(rng, n, case), _values(rng, n, case), float(rng.uniform(0, 10))
    ),)


def _case_greedy_pick(case):
    rng = _case_rng(2, case)
    n = int(rng.integers(1, 21))
    demands, dists = _values(rng, n, case), _values(rng, n, case)
    mask = None if case % 5 == 0 else _mask(rng, n, case)
    em = float(rng.integers(0, 3)) if case % 2 == 0 else float(rng.uniform(0, 10))
    return (kernels.greedy_pick(demands, dists, em, mask=mask),)


def _case_masked_argmax(case):
    rng = _case_rng(3, case)
    n = int(rng.integers(1, 21))
    return (kernels.masked_argmax(_values(rng, n, case), _mask(rng, n, case)),)


def _case_masked_argmin(case):
    rng = _case_rng(4, case)
    n = int(rng.integers(1, 21))
    mask = None if case % 5 == 0 else _mask(rng, n, case)
    return (kernels.masked_argmin(_values(rng, n, case), mask),)


def _case_masked_argmax_2d(case):
    rng = _case_rng(5, case)
    shape = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
    values = _values(rng, shape[0] * shape[1], case).reshape(shape)
    return (kernels.masked_argmax_2d(values, _mask(rng, shape, case)),)


def _case_kmeans_assign(case):
    rng = _case_rng(6, case)
    n = int(rng.integers(2, 13))
    pts = _points(rng, n, case)
    k = int(rng.integers(1, n + 1))
    centroids = pts[rng.choice(n, size=k, replace=False)]
    return (kernels.kmeans_assign(pts, centroids),)


def _case_insertion_eval(case):
    rng = _case_rng(7, case)
    n = int(rng.integers(2, 15))
    pts = rng.uniform(0, 80, size=(n, 2))
    demands = rng.uniform(1, 100, size=n)
    dmat = pairwise_distances(pts)
    dist0 = distances_from(rng.uniform(0, 80, size=2), pts)
    split = int(rng.integers(1, n))  # leave at least one candidate
    route = [int(i) for i in rng.permutation(n)[:split]]
    remaining = [i for i in range(n) if i not in route]
    return kernels.insertion_eval(dmat, dist0, demands, route, remaining, 5.6, 0.8)


def _case_uplink_etx(case):
    rng = _case_rng(8, case)
    n = int(rng.integers(1, 41))
    pts = rng.uniform(0, 60, size=(n + 1, 2))  # +1: a base-station row
    parent = rng.integers(-1, n + 1, size=n + 1)
    parent[parent == np.arange(n + 1)] = -1  # no self-loops
    return (kernels.uplink_etx_vector(pts, parent, n, 12.0),)


def _case_two_opt(case):
    rng = _case_rng(9, case)
    n = int(rng.integers(4, 31))
    pts = _points(rng, n, case)
    order = [int(i) for i in rng.permutation(n)]
    return (two_opt(pts, order, max_rounds=1), two_opt(pts, order))


def _case_nearest_neighbor(case):
    rng = _case_rng(10, case)
    n = int(rng.integers(1, 21))
    pts = _points(rng, n, case)
    start = None if case % 3 == 0 else rng.uniform(0, 80, size=2)
    return (nearest_neighbor_order(pts, start),)


def _case_kmeans(case):
    rng = _case_rng(11, case)
    n = int(rng.integers(3, 40))
    pts = _points(rng, n, case)
    res = kmeans(pts, int(rng.integers(1, 6)), rng=rng, n_init=2)
    return (res.labels, res.centroids, res.inertia, res.n_iter, res.converged)


KERNEL_CASES = {
    "profit_vector": _case_profit_vector,
    "greedy_pick": _case_greedy_pick,
    "masked_argmax": _case_masked_argmax,
    "masked_argmin": _case_masked_argmin,
    "masked_argmax_2d": _case_masked_argmax_2d,
    "kmeans_assign": _case_kmeans_assign,
    "insertion_eval": _case_insertion_eval,
    "uplink_etx": _case_uplink_etx,
    "two_opt": _case_two_opt,
    "nearest_neighbor_order": _case_nearest_neighbor,
    "kmeans": _case_kmeans,
}


def _etx_world_uplink():
    """``uplink_etx`` of a world whose ETX routing has grey-zone links."""
    from repro.sim.components.state import SimulationState
    from repro.sim.config import SimulationConfig

    cfg = SimulationConfig(
        n_sensors=40,
        side_length_m=60.0,
        comm_range_m=12.0,
        routing_metric="etx",
        seed=2024,
    )
    return SimulationState.from_config(cfg).uplink_etx


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 16))
    pts = rng.uniform(0, 80, size=(n, 2))
    demands = rng.uniform(10, 150, size=n)
    clusters = rng.integers(-1, 3, size=n)
    requests = RechargeNodeList(
        RechargeRequest(i, pts[i], float(demands[i]), int(clusters[i]))
        for i in range(n)
    )
    views = [
        RVView(
            rv_id=j,
            position=rng.uniform(0, 80, size=2),
            budget_j=float(rng.uniform(2000, 20000)),
            em_j_per_m=5.6,
            charge_efficiency=0.8,
            depot=np.array([40.0, 40.0]),
        )
        for j in range(int(rng.integers(1, 4)))
    ]
    return requests, views


def _plan_fingerprint(plans):
    return {
        rv_id: (
            plan.node_ids,
            plan.waypoints.tobytes(),
            float(plan.travel_m).hex(),
            float(plan.demand_j).hex(),
            float(plan.profit_j).hex(),
        )
        for rv_id, plan in plans.items()
    }


def _plan_digest(name, seed):
    scheduler = SCHEDULERS.build(name, fleet_size=3)
    observe = getattr(scheduler, "observe_time", None)
    if observe is not None:
        observe(0.0)
    requests, views = _random_instance(seed)
    plans = scheduler.assign(requests, views, np.random.default_rng(7))
    return _digest(sorted(_plan_fingerprint(plans).items()))


def compute_pins():
    """Every pinned digest, in the layout of ``kernel_pins.json``."""
    return {
        "kernels": {
            name: [_digest(*case(i)) for i in range(N_CASES)]
            for name, case in KERNEL_CASES.items()
        },
        "uplink_etx_world": _digest(_etx_world_uplink()),
        "plans": {
            f"{name}-{seed}": _plan_digest(name, seed)
            for name in sorted(SCHEDULERS.names())
            for seed in PLAN_SEEDS
        },
    }


PINS = json.loads(PIN_FILE.read_text())
PLAN_SCHEDULERS = sorted({key.rsplit("-", 1)[0] for key in PINS["plans"]})


def _assert_pinned(name):
    expected = PINS["kernels"][name]
    got = [_digest(*KERNEL_CASES[name](i)) for i in range(N_CASES)]
    assert len(got) == len(expected)
    moved = [i for i, (g, e) in enumerate(zip(got, expected)) if g != e]
    assert not moved, f"{name}: cases {moved} differ from the pinned outputs"


class TestKernelEquivalence:
    """Every kernel reproduces the outputs pinned while it still had a
    scalar reference twin (both paths gave these exact outputs)."""

    def test_profit_vector(self):
        _assert_pinned("profit_vector")

    def test_greedy_pick_with_mask(self):
        _assert_pinned("greedy_pick")

    def test_masked_argmax_argmin(self):
        _assert_pinned("masked_argmax")
        _assert_pinned("masked_argmin")

    def test_masked_argmax_2d(self):
        _assert_pinned("masked_argmax_2d")

    def test_kmeans_assign(self):
        _assert_pinned("kmeans_assign")
        _assert_pinned("kmeans")

    def test_insertion_eval(self):
        _assert_pinned("insertion_eval")

    def test_uplink_etx_vector(self):
        _assert_pinned("uplink_etx")

    def test_nearest_neighbor_order(self):
        _assert_pinned("nearest_neighbor_order")

    def test_every_kernel_is_pinned(self):
        assert set(PINS["kernels"]) == set(KERNEL_CASES)


class TestUplinkEtxEndToEnd:
    def test_state_uplink_etx_bit_identical(self):
        """``SimulationState.from_config`` under ETX routing yields the
        pinned ``uplink_etx`` vector."""
        etx = _etx_world_uplink()
        assert _digest(etx) == PINS["uplink_etx_world"]
        assert np.all(etx >= 1.0)
        assert np.any(etx > 1.0)  # grey-zone links exist at this density


class TestSchedulersVectorizedVsReference:
    """Every registered scheduler reproduces the plans pinned when the
    vectorized kernels and the reference loops both produced them."""

    @pytest.mark.parametrize("name", PLAN_SCHEDULERS)
    @pytest.mark.parametrize("seed", PLAN_SEEDS)
    def test_assign_identical(self, name, seed):
        assert _plan_digest(name, seed) == PINS["plans"][f"{name}-{seed}"]

    def test_every_scheduler_is_pinned(self):
        assert PLAN_SCHEDULERS == sorted(SCHEDULERS.names())


# ----------------------------------------------------------------------
# semantic properties
# ----------------------------------------------------------------------


demand_arrays = st.integers(1, 20).flatmap(
    lambda n: st.tuples(
        arrays(np.float64, n, elements=st.floats(0, 500, allow_nan=False)),
        arrays(np.float64, n, elements=st.floats(0, 200, allow_nan=False)),
    )
)


class TestSelectionSemantics:
    def test_ties_go_to_the_lowest_index(self):
        values = np.array([1.0, 3.0, 0.0, 3.0])
        everything = np.ones(4, dtype=bool)
        assert kernels.masked_argmax(values, everything) == 1
        assert kernels.masked_argmin(np.array([2.0, 0.5, 0.5]), None) == 1
        assert kernels.greedy_pick(values, np.zeros(4), 1.0) == 1
        grid = np.array([[0.0, 2.0], [2.0, 2.0]])
        assert kernels.masked_argmax_2d(grid, np.ones((2, 2), dtype=bool)) == (0, 1)
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        centroids = np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
        assert kernels.kmeans_assign(pts, centroids).tolist() == [0, 0]

    def test_empty_mask_selects_none(self):
        values = np.array([1.0, 2.0])
        nothing = np.zeros(2, dtype=bool)
        assert kernels.masked_argmax(values, nothing) is None
        assert kernels.masked_argmin(values, nothing) is None
        assert kernels.greedy_pick(values, values, 1.0, mask=nothing) is None
        assert kernels.greedy_pick(np.array([]), np.array([]), 1.0) is None
        assert kernels.masked_argmin(np.array([])) is None
        assert kernels.masked_argmax_2d(np.ones((2, 2)), np.zeros((2, 2), dtype=bool)) is None

    @given(demand_arrays, st.floats(0, 10, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_profit_vector_is_eq2(self, dd, em):
        demands, dists = dd
        assert np.array_equal(
            kernels.profit_vector(demands, dists, em), demands - em * dists
        )

    @given(demand_arrays)
    @settings(max_examples=50, deadline=None)
    def test_full_mask_matches_numpy(self, dd):
        values, _ = dd
        mask = np.ones(len(values), dtype=bool)
        assert kernels.masked_argmax(values, mask) == int(np.argmax(values))
        assert kernels.masked_argmin(values, mask) == int(np.argmin(values))

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_masked_argmax_2d_picks_a_masked_maximum(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-10, 10, size=(rows, cols))
        mask = rng.random((rows, cols)) < 0.6
        pick = kernels.masked_argmax_2d(values, mask)
        if not mask.any():
            assert pick is None
        else:
            assert mask[pick]
            assert values[pick] == values[mask].max()

    @given(points_strategy(min_n=2, max_n=12), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_kmeans_assign_is_nearest(self, pts, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, len(pts) + 1))
        centroids = pts[rng.choice(len(pts), size=k, replace=False)]
        labels = kernels.kmeans_assign(pts, centroids)
        assert labels.dtype == np.intp
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(d2[np.arange(len(pts)), labels], d2.min(axis=1))

    def test_insertion_eval_shape(self, rng):
        pts = rng.uniform(0, 80, size=(6, 2))
        dmat = pairwise_distances(pts)
        dist0 = distances_from(np.array([1.0, 1.0]), pts)
        p, extra = kernels.insertion_eval(
            dmat, dist0, np.ones(6), [4, 1], [0, 2, 3], 5.6, 0.8
        )
        assert p.shape == extra.shape == (2, 3)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    @settings(max_examples=50, deadline=None)
    def test_uplink_etx_at_least_one(self, seed, n):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 60, size=(n + 1, 2))
        parent = rng.integers(-1, n + 1, size=n + 1)
        parent[parent == np.arange(n + 1)] = -1
        etx = kernels.uplink_etx_vector(pts, parent, n, 12.0)
        assert etx.shape == (n,)
        assert np.all(etx >= 1.0)


class TestTwoOptEquivalence:
    def test_vectorized_replays_reference_moves(self):
        """The broadcast sweep reproduces the pinned orders after one
        sweep and at convergence, recorded when it still ran beside
        the scalar first-improvement loop."""
        _assert_pinned("two_opt")

    @given(points_strategy(min_n=4, max_n=25), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_never_lengthens_and_permutes(self, pts, seed):
        rng = np.random.default_rng(seed)
        order = [int(i) for i in rng.permutation(len(pts))]
        before = open_tour_length(pts, order)
        improved = two_opt(pts, list(order))
        validate_tour(improved, len(pts))
        assert improved[0] == order[0]
        assert improved[-1] == order[-1]
        assert open_tour_length(pts, improved) <= before + 1e-9

    def test_leg_lengths_matches_tour_length(self, rng):
        pts = rng.uniform(0, 40, size=(9, 2))
        order = list(range(9))
        assert float(leg_lengths(pts[order]).sum()) == open_tour_length(pts, order)


# ----------------------------------------------------------------------
# distance cache
# ----------------------------------------------------------------------


class TestDistanceCache:
    def test_pairwise_matches_direct(self, rng):
        pts = rng.uniform(0, 50, size=(12, 2))
        cache = kernels.DistanceCache(pts)
        assert np.array_equal(cache.pairwise, pairwise_distances(pts))

    def test_row_without_matrix_matches_direct(self, rng):
        pts = rng.uniform(0, 50, size=(9, 2))
        cache = kernels.DistanceCache(pts)
        row = cache.row(3)
        assert cache._pairwise is None  # single row must not build the matrix
        assert np.array_equal(row, distances_from(pts[3], pts))
        assert cache.row(3) is row  # memoized

    def test_row_slices_existing_matrix(self, rng):
        pts = rng.uniform(0, 50, size=(7, 2))
        cache = kernels.DistanceCache(pts)
        _ = cache.pairwise
        assert np.array_equal(cache.row(2), pairwise_distances(pts)[2])

    def test_from_point_memoizes_per_origin(self, rng):
        pts = rng.uniform(0, 50, size=(8, 2))
        cache = kernels.DistanceCache(pts)
        origin = np.array([1.0, 2.0])
        first = cache.from_point(origin)
        assert np.array_equal(first, distances_from(origin, pts))
        # An equal-valued but distinct array hits the same memo entry.
        assert cache.from_point(np.array([1.0, 2.0])) is first

    def test_registry_shares_on_identity(self, rng):
        pts = rng.uniform(0, 50, size=(6, 2))
        assert kernels.distance_cache_for(pts) is kernels.distance_cache_for(pts)

    def test_registry_distinct_arrays_get_distinct_caches(self, rng):
        a = rng.uniform(0, 50, size=(6, 2))
        b = a.copy()
        assert kernels.distance_cache_for(a) is not kernels.distance_cache_for(b)


if __name__ == "__main__":
    print(json.dumps(compute_pins(), indent=1, sort_keys=True))
