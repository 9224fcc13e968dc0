import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import brute_force_core_partition, core_partition_from_labels, dbscan_by_scan, neighbour_counts
from parkscan.clustering import (
    NOISE,
    ClusterAssignment,
    DbscanParams,
    cluster_stats,
    dbscan,
)
from parkscan.errors import ValidationError


def test_params_validation():
    with pytest.raises(ValidationError):
        DbscanParams(eps=0.0, min_points=3)
    with pytest.raises(ValidationError):
        DbscanParams(eps=1.0, min_points=0)


def test_three_close_points_form_one_cluster():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    out = dbscan(pts, DbscanParams(eps=1.5, min_points=3))
    assert out.k == 1
    assert list(out.labels) == [0, 0, 0]
    core, oracle = brute_force_core_partition(pts, 1.5, 3)
    assert core_partition_from_labels(out.labels, core) == oracle


def test_single_point_below_min_points_is_noise():
    out = dbscan(np.array([[3.0, 4.0]]), DbscanParams(eps=1.0, min_points=2))
    assert out.k == 0
    assert list(out.labels) == [NOISE]


def test_two_blobs_separate():
    blob = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [-0.1, 0.0], [0.0, -0.1]])
    pts = np.vstack([blob, blob + [10.0, 0.0]])
    out = dbscan(pts, DbscanParams(eps=1.0, min_points=3))
    assert out.k == 2
    assert not np.any(out.labels == NOISE)
    core, oracle = brute_force_core_partition(pts, 1.0, 3)
    assert core_partition_from_labels(out.labels, core) == oracle


def test_empty_input():
    out = dbscan(np.empty((0, 2)), DbscanParams(eps=1.0, min_points=1))
    assert out.k == 0 and out.labels.size == 0


def test_cluster_ids_follow_lexicographic_first_core():
    # Two singleton-eps clusters; the one with smaller x must get id 0
    # regardless of input order.
    pts = np.array([[50.0, 0.0], [50.0, 0.1], [0.0, 0.0], [0.0, 0.1]])
    out = dbscan(pts, DbscanParams(eps=0.5, min_points=2))
    assert list(out.labels) == [1, 1, 0, 0]


def test_border_point_joins_first_reaching_core():
    # b at (1, 0) has only 3 neighbors (itself plus the two hub cores), so
    # with min_points=4 it is a border point reachable from both clusters;
    # the core at (0, 0) is lexicographically first, so b joins cluster 0.
    left = [[0.0, 0.0], [0.0, 0.4], [0.0, -0.4]]
    right = [[2.0, 0.0], [2.0, 0.4], [2.0, -0.4]]
    b = [[1.0, 0.0]]
    pts = np.array(left + right + b)
    out = dbscan(pts, DbscanParams(eps=1.0, min_points=4))
    assert out.k == 2
    assert list(out.labels) == [0, 0, 0, 1, 1, 1, 0]


coords_fine = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
coords_gridded = st.integers(min_value=-3, max_value=3).map(float)
point_st = st.one_of(
    st.tuples(coords_fine, coords_fine),
    st.tuples(coords_gridded, coords_gridded),  # forces duplicates and exact ties
)
instance_st = st.fixed_dictionaries(
    {
        "points": st.lists(point_st, max_size=80),
        "eps": st.floats(min_value=0.1, max_value=20.0, allow_nan=False),
        "min_points": st.integers(min_value=1, max_value=8),
    }
)


# A pair whose float distance rounds down to exactly eps although its cells,
# at side eps, would be two apart; padded with far-off points to 70.
_ROUNDED_PAIR = [(0.0, 1.0), (0.0, -1.3391556943249676e-217)] + [(100.0 + 10 * i, 0.0) for i in range(68)]


# Points 2 and 4 (counted from 0) lie exactly eps apart on a diagonal, and points
# 1 and 4 up to rounding, which the oracle accepts; a grid that drops the corner
# cells of the block it scans misses such pairs.
_LATTICE = {
    "points": [
        (-11.954032353533776, 5.977016176766887),
        (0.0, -11.954032353533773),
        (0.0, 1e-15),
        (1e-15, 11.954032353533776),
        (-5.977016176766887, -5.977016176766886),
    ],
    "eps": 8.452777339707117,
    "min_points": 2,
}


@given(instance=instance_st)
@example(instance={"points": _ROUNDED_PAIR, "eps": 1.0, "min_points": 1})
@example(instance=_LATTICE)
@settings(max_examples=80, deadline=None)
def test_matches_brute_force_oracle(instance):
    pts = np.array(instance["points"], dtype=float).reshape(-1, 2)
    params = DbscanParams(instance["eps"], instance["min_points"])
    out = dbscan(pts, params)

    core, oracle = brute_force_core_partition(pts, params.eps, params.min_points)
    assert core_partition_from_labels(out.labels, core) == oracle

    # Every point is noise or in exactly one cluster with a valid id.
    assert np.all((out.labels == NOISE) | ((out.labels >= 0) & (out.labels < out.k)))
    # Noise points have no core point within eps.
    if pts.shape[0]:
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        within = d2 <= params.eps**2
        for i in np.flatnonzero(out.labels == NOISE):
            assert not np.any(within[i] & core)
        # Non-noise non-core points are genuine border points.
        for i in np.flatnonzero((out.labels != NOISE) & ~core):
            reaching = within[i] & core
            assert np.any(reaching)
            assert out.labels[i] in set(out.labels[reaching])


@st.composite
def blob_instance_st(draw):
    """Up to 300 points in 1-3 tight blobs, so that cells holding min_points occur."""
    eps = draw(st.floats(min_value=0.5, max_value=5.0))
    centers = np.array(draw(st.lists(st.tuples(coords_fine, coords_fine), min_size=1, max_size=3)))
    sigma = draw(st.floats(min_value=0.05, max_value=1.5)) * eps
    n = draw(st.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pts = centers[rng.integers(len(centers), size=n)] + rng.normal(0.0, sigma, (n, 2))
    return {"points": pts.tolist(), "eps": eps, "min_points": draw(st.integers(min_value=1, max_value=40))}


def _assert_labels_match_full_scan(instance):
    pts = np.array(instance["points"], dtype=float).reshape(-1, 2)
    out = dbscan(pts, DbscanParams(instance["eps"], instance["min_points"]))
    labels, k = dbscan_by_scan(pts, instance["eps"], instance["min_points"])
    assert out.k == k
    assert np.array_equal(out.labels, labels)


# Opposite corners of one cell if the cells were exactly eps/sqrt(2) wide,
# yet more than eps apart: the cell side needs its rounding margin.
_CELL_CORNERS = {
    "points": [(-8.764173700428007, -8.764173700428007), (-2.5e-323, -2.5e-323)],
    "eps": 12.394413310138882,
    "min_points": 2,
}

# Far from the origin, at |coordinate| / eps near 2**45.5, p / side is rounded to a
# multiple of 2**-5 of a cell beyond -2**47 cells and of 2**-6 short of it. These
# points are 1.0012 eps apart, yet without the rounding slack in the cell side they
# would lie in diagonally adjacent cells, whose points the grid takes as within eps.
_FAR_CORNERS = {
    "points": [(-26631109222112.652, -26631109222112.652), (-26631109222112.273, -26631109222112.273)],
    "eps": 0.5352102880770984,
    "min_points": 2,
}


def _far_pair(p, q, eps):
    """A pair at |coordinate| / eps near 2**45 whose cells the grid checks by distance."""
    return {"points": [p, q], "eps": eps, "min_points": 2}


# Sides 119 and 120 ulps, diagonal 169 ulps = eps: exactly eps apart in cells two
# apart on both axes, then one ulp beyond.
_FAR_DIAGONAL = _far_pair((44296984176469.85, 44296984176470.3), (44296984176470.78, 44296984176471.234), 1.3203125)
_FAR_DIAGONAL_BEYOND = _far_pair((44296984176469.85, 44296984176470.3), (44296984176470.78, 44296984176471.24),
                                 1.3203125)
# 169 ulps on one axis: exactly eps apart in cells three apart, the 7x7 block's
# outer ring, then one ulp beyond.
_FAR_ROW = _far_pair((63545913295993.27, 63545913295992.43), (63545913295994.59, 63545913295992.43), 1.3203125)
_FAR_ROW_BEYOND = _far_pair((63545913295993.27, 63545913295992.43), (63545913295994.6, 63545913295992.43), 1.3203125)
# 1.0019 eps apart, but a point-cell bound that left out the rounding slack would
# put the second point's cell wholly within eps of the first point.
_FAR_REACH = _far_pair((-48525081908723.375, -48770024279192.664), (-48525081908722.43, -48770024279192.92),
                       0.9779451357957956)
# Within eps, but a point-cell bound that left out the rounding slack would put the
# second point's cell wholly beyond eps of the first point.
_FAR_GAP = _far_pair((-40117876453762.85, -40021646833971.23), (-40117876453762.05, -40021646833971.22),
                     0.805835291251971)


@given(instance=instance_st)
@example(instance=_LATTICE)
@example(instance=_CELL_CORNERS)
@example(instance=_FAR_CORNERS)
@example(instance=_FAR_DIAGONAL)
@example(instance=_FAR_DIAGONAL_BEYOND)
@example(instance=_FAR_ROW)
@example(instance=_FAR_ROW_BEYOND)
@example(instance=_FAR_REACH)
@example(instance=_FAR_GAP)
@example(instance={"points": _ROUNDED_PAIR, "eps": 1.0, "min_points": 1})
@example(instance={"points": [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (0.1, 0.1), (0.05, 0.05)], "eps": 1.0,
                   "min_points": 5})  # one cell holding min_points points
@settings(max_examples=80, deadline=None)
def test_labels_match_full_scan(instance):
    _assert_labels_match_full_scan(instance)


@given(instance=blob_instance_st())
@settings(max_examples=60, deadline=None)
def test_blob_labels_match_full_scan(instance):
    _assert_labels_match_full_scan(instance)


@given(instance=instance_st, exponent=st.integers(min_value=0, max_value=1000))
# dbscan([[0, 0], [1.2e290, 0]], eps 1e290): eps*eps overflows, and the pair, 1.2 eps apart, is noise.
@example(instance={"points": [(0.0, 0.0), (1.2e290 * 2.0**-964, 0.0)], "eps": 1e290 * 2.0**-964, "min_points": 2},
         exponent=964)
@settings(max_examples=60, deadline=None)
def test_labels_do_not_depend_on_a_power_of_two_scale(instance, exponent):
    # Scaling by 2**exponent is exact here, up to eps and points whose squares overflow.
    pts = np.array(instance["points"], dtype=float).reshape(-1, 2)
    out = dbscan(pts * 2.0**exponent, DbscanParams(instance["eps"] * 2.0**exponent, instance["min_points"]))
    labels, k = dbscan_by_scan(pts, instance["eps"], instance["min_points"])
    assert out.k == k
    assert np.array_equal(out.labels, labels)


def test_dense_blob_between_cell_bounds_matches_full_scan():
    # 3,000 points in one blob, with min_points the median neighbour count: cells
    # around the blob's half-way ring have too few points in their 3x3 block to be
    # all core and too many in their 7x7 block to hold none, so their points are
    # counted by distance.
    pts = np.random.default_rng(29).normal(0.0, 4.0, (3000, 2))
    min_points = int(np.median(neighbour_counts(pts, 1.0)))
    out = dbscan(pts, DbscanParams(1.0, min_points))
    labels, k = dbscan_by_scan(pts, 1.0, min_points)
    assert out.k == k
    assert np.array_equal(out.labels, labels)


def test_memory_stays_linear_in_cell_occupancy():
    # 40,000 points in one Gaussian blob put about 700 points in each central
    # cell. In bounded runs the peak is about 5 MB; one unchunked distance
    # matrix from a central cell to its 7x7 block would take about 190 MB.
    pts = np.random.default_rng(5).normal(0.0, 15.0, (40_000, 2))
    tracemalloc.start()
    try:
        out = dbscan(pts, DbscanParams(eps=15.0, min_points=10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.k >= 1
    assert peak < 32 * 2**20


def test_eps_below_coordinate_resolution_is_rejected():
    far = 2.0**46
    out = dbscan(np.array([[far, 0.0], [far + 1.0, 0.0]]), DbscanParams(eps=1.0, min_points=2))
    assert list(out.labels) == [0, 0]
    with pytest.raises(ValidationError, match="eps"):
        dbscan(np.array([[2.0**47, 0.0]]), DbscanParams(eps=1.0, min_points=1))


@given(instance=instance_st, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_labels_stable_under_permutation(instance, seed):
    pts = np.array(instance["points"], dtype=float).reshape(-1, 2)
    params = DbscanParams(instance["eps"], instance["min_points"])
    base = dbscan(pts, params)
    again = dbscan(pts, params)
    assert np.array_equal(base.labels, again.labels)

    perm = np.random.default_rng(seed).permutation(pts.shape[0])
    permuted = dbscan(pts[perm], params)
    assert permuted.k == base.k
    assert np.array_equal(permuted.labels, base.labels[perm])


def test_grid_and_brute_force_paths_agree():
    # Two 50-point blobs, more points than the hypothesis lists draw: the
    # grid-indexed clustering must give the O(n^2) reference partition.
    rng = np.random.default_rng(11)
    pts = np.vstack([rng.normal(0, 0.5, (50, 2)), rng.normal(8, 0.5, (50, 2))])
    params = DbscanParams(eps=1.0, min_points=4)
    out = dbscan(pts, params)
    core, oracle = brute_force_core_partition(pts, params.eps, params.min_points)
    assert core_partition_from_labels(out.labels, core) == oracle
    assert out.k == 2


def test_cluster_stats_hand_cases():
    pts = np.array([[0.0, 0.0], [2.0, 0.0]])
    members, means, spreads = cluster_stats(pts, ClusterAssignment(labels=np.array([0, 0]), k=1))
    assert means[0].tolist() == [1.0, 0.0]
    assert spreads[0] == 1.0  # population std of {0, 2} is 1, y-std 0
    assert members[0].tolist() == [0, 1]

    same = np.array([[4.0, 4.0]] * 5)
    _, _, spreads = cluster_stats(same, ClusterAssignment(labels=np.zeros(5, dtype=int), k=1))
    assert spreads[0] == 0.0

    single = np.array([[3.0, 4.0]])
    _, means, spreads = cluster_stats(single, ClusterAssignment(labels=np.array([0]), k=1))
    assert means[0].tolist() == [3.0, 4.0]
    assert spreads[0] == 0.0


def test_cluster_stats_excludes_noise_and_orders_by_id():
    pts = np.array([[0.0, 0.0], [9.0, 9.0], [1.0, 0.0], [50.0, 50.0]])
    assignment = ClusterAssignment(labels=np.array([0, 1, 0, NOISE]), k=2)
    members, means, spreads = cluster_stats(pts, assignment)
    assert len(members) == len(means) == len(spreads) == 2
    assert members[0].tolist() == [0, 2]
    assert members[1].tolist() == [1]
    assert means[1].tolist() == [9.0, 9.0]


@given(instance=instance_st)
@settings(max_examples=50, deadline=None)
def test_cluster_stats_match_direct_recomputation(instance):
    pts = np.array(instance["points"], dtype=float).reshape(-1, 2)
    params = DbscanParams(instance["eps"], instance["min_points"])
    assignment = dbscan(pts, params)
    for cid, (indices, mean, spread) in enumerate(zip(*cluster_stats(pts, assignment))):
        assert indices.tolist() == np.flatnonzero(assignment.labels == cid).tolist()
        members = pts[indices]
        assert abs(mean[0] - members[:, 0].mean()) < 1e-12
        assert abs(mean[1] - members[:, 1].mean()) < 1e-12
        assert abs(spread - (members[:, 0].std() + members[:, 1].std())) < 1e-12


def test_assignment_invariants_enforced():
    with pytest.raises(ValidationError):
        ClusterAssignment(labels=np.array([0, 2]), k=2)  # id 1 missing
    with pytest.raises(ValidationError):
        ClusterAssignment(labels=np.array([NOISE]), k=1)
