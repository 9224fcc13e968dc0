import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import box_iou_scalar, map_point_scalar, random_well_conditioned_homography
from parkscan.errors import ConfigError
from parkscan.geometry import (
    Box,
    DegenerateCorrespondencesError,
    Homography,
    NonInvertibleMatrixError,
    Point2,
    SingularProjectionError,
    apply_homography_array,
    box_iou,
    boxes_array,
    estimate_homography_dlt,
    homography_from_config,
    invert_homography,
)
from parkscan.simulator import camera_homography

RNG = np.random.default_rng(20260810)


def test_identity_apply_is_exact():
    assert apply_homography_array(Homography.identity(), [[5.0, 7.0]]).tolist() == [[5.0, 7.0]]


def test_diagonal_scaling():
    h = Homography(np.diag([2.0, 2.0, 1.0]))
    assert apply_homography_array(h, [[3.0, 4.0]]).tolist() == [[6.0, 8.0]]


def test_projective_row_divides():
    # Denominator 0.001 * 100 + 1 = 1.1; oracle is the per-point Python formula.
    m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.001, 0.0, 1.0]])
    expected = map_point_scalar(m, 100.0, 50.0)
    [(x, y)] = apply_homography_array(Homography(m), [[100.0, 50.0]]).tolist()
    assert (x, y) == expected
    assert x == pytest.approx(90.9091, abs=1e-4)
    assert y == pytest.approx(45.4545, abs=1e-4)


def test_point_at_infinity_raises():
    m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.01, 1.0]])
    with pytest.raises(SingularProjectionError, match=r"point \(0.0, -100.0\) projects to infinity"):
        apply_homography_array(Homography(m), [[0.0, -100.0]])
    with pytest.raises(SingularProjectionError):
        apply_homography_array(Homography(m), np.array([[0.0, 0.0], [0.0, -100.0]]))


def test_singular_matrix_rejected():
    with pytest.raises(NonInvertibleMatrixError):
        Homography(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(NonInvertibleMatrixError):
        Homography(np.zeros((3, 3)))


def test_zero_corner_uses_frobenius_normalization():
    # Axis permutation has m[2][2] == 0 but is perfectly invertible.
    m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    h = Homography(m)
    assert math.isclose(np.linalg.norm(h.m), 1.0, rel_tol=1e-12)
    [p] = apply_homography_array(h, [[2.0, 3.0]]).tolist()
    assert p == pytest.approx((1.5, 0.5))


def test_invert_identity_and_diagonal():
    assert np.allclose(invert_homography(Homography.identity()).m, np.eye(3))
    inv = invert_homography(Homography(np.diag([2.0, 2.0, 1.0])))
    assert np.allclose(inv.m, np.diag([0.5, 0.5, 1.0]))


def test_round_trip_residual_small():
    for _ in range(100):
        h = Homography(random_well_conditioned_homography(RNG))
        hinv = invert_homography(h)
        pts = RNG.uniform(-500, 500, size=(20, 2))
        back = apply_homography_array(hinv, apply_homography_array(h, pts))
        assert np.abs(back - pts).max() < 1e-9


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# A similarity plus a projective row, as random_well_conditioned_homography
# draws them, with the scale, offsets and tilt left to hypothesis.
_homography = st.builds(
    lambda angle, scale, tx, ty, g, h: Homography(np.array([
        [scale * math.cos(angle), -scale * math.sin(angle), tx],
        [scale * math.sin(angle), scale * math.cos(angle), ty],
        [g, h, 1.0],
    ])),
    st.floats(0.0, 2 * math.pi), st.floats(0.1, 10.0), st.floats(-500.0, 500.0),
    st.floats(-500.0, 500.0), st.floats(-4e-4, 2.5e-3), st.floats(-4e-4, 2.5e-3),
)
# On [0, 1000]^2 the denominator stays above 0.2, so no point is singular.
_points = st.lists(st.tuples(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0)), min_size=1, max_size=60)


@given(h=_homography, points=_points)
@settings(max_examples=300, deadline=None)
def test_array_mapping_matches_scalar_reference_bit_for_bit(h, points):
    expected = [map_point_scalar(h.m, x, y) for x, y in points]
    assert _bits(apply_homography_array(h, points)) == _bits(expected)


@pytest.mark.parametrize("preset", ["mild-tilt", "strong-tilt"])
def test_tilt_presets_map_like_the_scalar_reference(preset):
    # Many points through a fixed camera: a fused multiply-add anywhere in the
    # array path shows as a last-bit difference on some of them.
    h = camera_homography(preset)
    points = np.random.default_rng(8).uniform(0.0, 1000.0, size=(100_000, 2))
    expected = [map_point_scalar(h.m, x, y) for x, y in points.tolist()]
    assert _bits(apply_homography_array(h, points)) == _bits(expected)
    inverse = invert_homography(h)
    back = [map_point_scalar(inverse.m, x, y) for x, y in expected]
    assert _bits(apply_homography_array(inverse, expected)) == _bits(back)


@given(h=_homography)
@settings(max_examples=100, deadline=None)
def test_inverse_is_the_adjugate_scaled_to_a_unit_corner(h):
    (a, b, c), (d, e, f), (g, k, i) = h.m.tolist()
    adjugate = [  # transposed cofactors, each a product difference as np.cross forms it
        [e * i - f * k, c * k - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * k - e * g, b * g - a * k, a * e - b * d],
    ]
    corner = adjugate[2][2]
    assert _bits(invert_homography(h).m) == _bits([[v / corner for v in row] for row in adjugate])


def unit_square():
    return [Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(1.0, 1.0), Point2(0.0, 1.0)]


def test_dlt_identity_from_unit_square():
    corr = [(p, p) for p in unit_square()]
    h = estimate_homography_dlt(corr)
    assert np.allclose(h.m, np.eye(3), atol=1e-12)


def test_dlt_translation():
    corr = [(p, Point2(p.x + 10.0, p.y)) for p in unit_square()]
    h = estimate_homography_dlt(corr)
    assert h.m[0][2] == pytest.approx(10.0, abs=1e-10)
    expected = np.array([[1.0, 0.0, 10.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(h.m, expected, atol=1e-10)


def _random_quad(rng):
    # Resample until no 3 of the 4 points are nearly collinear.
    while True:
        pts = rng.uniform(-100, 100, size=(4, 2))
        ok = True
        for i in range(4):
            others = np.delete(pts, i, axis=0)
            u, v = others[1] - others[0], others[2] - others[0]
            area = abs(u[0] * v[1] - u[1] * v[0])
            if area < 50.0:
                ok = False
                break
        if ok:
            return pts


def test_dlt_exact_four_point_recovery():
    for _ in range(50):
        src_pts = _random_quad(RNG)
        h_true = Homography(random_well_conditioned_homography(RNG))
        dst = apply_homography_array(h_true, src_pts)
        corr = [(Point2(*s), Point2(*d)) for s, d in zip(src_pts, dst)]
        h = estimate_homography_dlt(corr)
        reproj = apply_homography_array(h, src_pts)
        assert np.abs(reproj - dst).max() < 1e-8


def test_dlt_invariant_under_relabeling():
    src_pts = _random_quad(np.random.default_rng(3))
    h_true = Homography(random_well_conditioned_homography(np.random.default_rng(4)))
    dst = apply_homography_array(h_true, src_pts)
    corr = [(Point2(*s), Point2(*d)) for s, d in zip(src_pts, dst)]
    shuffled = [corr[i] for i in (2, 0, 3, 1)]
    for estimate in (estimate_homography_dlt(corr), estimate_homography_dlt(shuffled)):
        reproj = apply_homography_array(estimate, src_pts)
        assert np.abs(reproj - dst).max() < 1e-8


def test_dlt_rejects_collinear_sources():
    src = [Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(2.0, 0.0), Point2(0.0, 1.0)]
    dst = unit_square()
    with pytest.raises(DegenerateCorrespondencesError):
        estimate_homography_dlt(list(zip(src, dst)))
    with pytest.raises(DegenerateCorrespondencesError):
        estimate_homography_dlt([(Point2(0, 0), Point2(0, 0))] * 4)
    with pytest.raises(DegenerateCorrespondencesError):
        estimate_homography_dlt([(Point2(0, 0), Point2(1, 1))] * 3)


def test_box_iou_cases():
    a = (0.0, 0.0, 50.0, 50.0)
    assert box_iou(a, a) == 1.0
    assert box_iou(a, (100.0, 0.0, 10.0, 10.0)) == 0.0
    # Half-overlapping squares: intersection 25x50, union 3750.
    assert box_iou(a, (25.0, 0.0, 50.0, 50.0)) == pytest.approx(1250.0 / 3750.0)
    # One broadcast scores every pair: slots down the rows, vehicles across.
    slots = boxes_array([Box(*a), Box(100.0, 0.0, 10.0, 10.0)])
    vehicles = boxes_array([Box(25.0, 0.0, 50.0, 50.0), Box(*a)])
    pairwise = box_iou(slots[:, None], vehicles[None])
    assert pairwise.shape == (2, 2)
    assert pairwise.tolist() == [[box_iou_scalar(s, v) for v in vehicles] for s in slots]


_coord = st.floats(-1e3, 1e3)
_side = st.floats(1e-3, 1e3)
_box = st.tuples(_coord, _coord, _side, _side)


@given(a=_box, b=_box)
@example(a=(0.0, 0.0, 50.0, 50.0), b=(100.0, 0.0, 10.0, 10.0))  # disjoint
@example(a=(0.0, 0.0, 50.0, 50.0), b=(50.0, 0.0, 50.0, 50.0))  # touching edges
@example(a=(0.0, 0.0, 50.0, 50.0), b=(50.0, 50.0, 50.0, 50.0))  # touching corners
@example(a=(0.0, 0.0, 50.0, 50.0), b=(5.0, -3.0, 10.0, 20.0))  # nested
@example(a=(0.1, 0.2, 0.3, 0.7), b=(0.1 + 1e-17, 0.2, 0.3, 0.7 + 1e-16))  # near-identical
@example(a=(1e3, -1e3, 1e-3, 1e3), b=(1e3, -1e3, 1e-3, 1e3))  # identical, extreme sides
@settings(max_examples=300, deadline=None)
def test_box_iou_matches_scalar_reference(a, b):
    expected = box_iou_scalar(a, b)
    assert box_iou(a, b) == expected  # bit for bit
    assert box_iou(np.array([a]), np.array([b])).tolist() == [expected]
    if expected == 0.0:
        assert math.copysign(1.0, box_iou(a, b)) == 1.0  # +0.0, never -0.0
    assert 0.0 <= expected <= 1.0


def test_homography_from_config_forms():
    assert np.allclose(homography_from_config({"identity": True}).m, np.eye(3))
    h = homography_from_config({"matrix": [2, 0, 0, 0, 2, 0, 0, 0, 1]})
    assert np.allclose(h.m, np.diag([2.0, 2.0, 1.0]))
    corr = {
        "correspondences": [
            {"src": [0, 0], "dst": [0, 0]},
            {"src": [1, 0], "dst": [2, 0]},
            {"src": [1, 1], "dst": [2, 2]},
            {"src": [0, 1], "dst": [0, 2]},
        ]
    }
    assert np.allclose(homography_from_config(corr).m, np.diag([2.0, 2.0, 1.0]), atol=1e-9)


@pytest.mark.parametrize(
    "bad",
    [
        {},
        {"identity": False},
        {"matrix": [1, 2, 3]},
        {"matrix": [0] * 9},
        {"identity": True, "matrix": [1, 0, 0, 0, 1, 0, 0, 0, 1]},
        {"correspondences": [{"src": [0, 0], "dst": [0, 0]}]},
        "identity",
    ],
)
def test_homography_from_config_rejects(bad):
    with pytest.raises(ConfigError):
        homography_from_config(bad)
