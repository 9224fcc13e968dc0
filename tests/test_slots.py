from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import detection_log, quantile_oracle_kept
from parkscan.detections import FrameDetections
from parkscan.geometry import Homography, Point2, invert_homography
from parkscan.metrics import default_match_tolerance, match_slots
from parkscan.simulator import ScenarioConfig, ViolationSite, camera_homography, generate_scenario
from parkscan.slots import (
    EmptyInputError,
    SlotCandidate,
    SlotDetectionConfig,
    iqr_filter,
    run_slot_detection,
    select_n_bottom,
)


# --- iqr_filter -----------------------------------------------------------

def test_iqr_all_equal_keeps_everything():
    assert iqr_filter([5.0] * 7) == set(range(7))


def test_iqr_discards_single_outlier():
    # Q1 = Q3 = 1, IQR = 0, so the window collapses to [1, 1].
    assert iqr_filter([1.0, 1.0, 1.0, 1.0, 100.0]) == {0, 1, 2, 3}


def test_iqr_keeps_one_to_five():
    # Q1 = 2, Q3 = 4, window [-1, 7].
    assert iqr_filter([1.0, 2.0, 3.0, 4.0, 5.0]) == {0, 1, 2, 3, 4}


def test_iqr_one_sided_keeps_small_values():
    # Q1 = Q3 = 1: the upper fence drops 100, nothing drops the low -100.
    assert iqr_filter([-100.0, 1.0, 1.0, 1.0, 1.0]) == {0, 1, 2, 3, 4}
    assert iqr_filter([-100.0, 1.0, 1.0, 1.0, 100.0]) == {0, 1, 2, 3}


def test_iqr_rejects_empty():
    with pytest.raises(ValueError):
        iqr_filter([])


values_st = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50
)


@given(values=values_st)
@settings(max_examples=100)
def test_iqr_matches_quantile_oracle(values):
    assert iqr_filter(values) == quantile_oracle_kept(values)


@given(values=values_st, seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60)
def test_iqr_permutation_invariance(values, seed):
    perm = np.random.default_rng(seed).permutation(len(values))
    permuted = [values[i] for i in perm]
    expected = {int(np.flatnonzero(perm == i)[0]) for i in iqr_filter(values)}
    assert iqr_filter(permuted) == expected


@given(values=values_st)
@settings(max_examples=80)
def test_iqr_stable_on_outlier_free_samples(values):
    kept = iqr_filter(values)
    assume(kept == set(range(len(values))))  # sample has no outliers
    survivors = [values[i] for i in sorted(kept)]
    assert iqr_filter(survivors) == set(range(len(survivors)))


# --- select_n_bottom --------------------------------------------------------

def cand(cid, spread, members=10, cx=0.0, cy=0.0):
    return SlotCandidate(
        cluster_id=cid,
        center_birdseye=Point2(cx, cy),
        spread=spread,
        member_count=members,
        mean_width=10.0,
        mean_height=10.0,
    )


def test_select_smallest_spreads():
    cands = [cand(i, spread) for i, spread in enumerate([5.0, 1.0, 3.0, 2.0, 4.0])]
    selected, shortfall = select_n_bottom(cands, 3)
    assert [c.cluster_id for c in selected] == [1, 3, 2]
    assert not shortfall


def test_select_shortfall():
    selected, shortfall = select_n_bottom([cand(0, 1.0), cand(1, 2.0)], 44)
    assert len(selected) == 2
    assert shortfall


def test_select_ties_prefer_more_members_then_smaller_id():
    cands = [cand(0, 1.0, members=5), cand(1, 1.0, members=9), cand(2, 1.0, members=9)]
    selected, _ = select_n_bottom(cands, 3)
    assert [c.cluster_id for c in selected] == [1, 2, 0]


# --- run_slot_detection -----------------------------------------------------

def _noiseless_scenario(rows=3, cols=4, frames=40, camera="identity", seed=5, **kw):
    return ScenarioConfig(
        rows=rows,
        cols=cols,
        slot_pitch=40.0,
        slot_size=(22.0, 30.0),
        frame_count=frames,
        occupancy_prob=1.0,
        camera=camera,
        seed=seed,
        **kw,
    )


def test_detect_slots_recovers_noiseless_grid():
    cfg = _noiseless_scenario()
    frames, truth = generate_scenario(cfg)
    slots = run_slot_detection(frames, SlotDetectionConfig(n_bottom=12)).slots
    assert len(slots) == 12
    matched = 0
    for slot in slots:
        dists = [np.hypot(slot.center.x - b.cx, slot.center.y - b.cy) for b in truth.slots]
        assert min(dists) < 2.0
        matched += 1
    assert matched == 12


def test_detect_slots_excludes_high_spread_violation_site():
    # Site spread is 5x the per-slot spread (sigma 5 vs 1 per axis).
    cfg = _noiseless_scenario(
        rows=2,
        cols=6,
        frames=120,
        seed=1,
        center_noise_sigma=1.0,
        violation_sites=(ViolationSite(x=130.0, y=135.0, center_spread_sigma=5.0, emit_prob=0.8),),
    )
    frames, truth = generate_scenario(cfg)
    slots = run_slot_detection(frames, SlotDetectionConfig(n_bottom=12)).slots
    assert len(slots) == 12
    for slot in slots:
        assert np.hypot(slot.center.x - 130.0, slot.center.y - 135.0) > 15.0
        dists = [np.hypot(slot.center.x - b.cx, slot.center.y - b.cy) for b in truth.slots]
        assert min(dists) < 2.0


def test_detect_slots_n_bottom_one_returns_min_spread():
    cfg = _noiseless_scenario(center_noise_sigma=0.5)
    frames, _ = generate_scenario(cfg)
    outcome = run_slot_detection(frames, SlotDetectionConfig(n_bottom=1))
    assert len(outcome.slots) == 1
    spreads = [c.spread for c in outcome.candidates]
    assert outcome.slots[0].spread == min(spreads)


def test_detect_slots_empty_input_raises():
    log = detection_log([FrameDetections("f1", []), FrameDetections("f2", [])])
    with pytest.raises(EmptyInputError):
        run_slot_detection(log, SlotDetectionConfig(n_bottom=3))


def test_detect_slots_all_noise_gives_empty_result():
    # One detection per frame, all far apart: nothing reaches min_points.
    log = detection_log(
        FrameDetections(
            f"f{i}",
            [(i * 100.0, 0.0, 10.0, 10.0, 0.9, "car")],
        )
        for i in range(10)
    )
    outcome = run_slot_detection(log, SlotDetectionConfig(n_bottom=5, min_points=5))
    assert outcome.slots == ()
    assert outcome.cluster_count == 0
    assert outcome.noise_points == 10
    assert outcome.shortfall


def test_output_capped_by_n_bottom():
    cfg = _noiseless_scenario()
    frames, _ = generate_scenario(cfg)
    for n in (1, 5, 12, 40):
        assert len(run_slot_detection(frames, SlotDetectionConfig(n_bottom=n)).slots) == min(n, 12)


def test_returned_slots_have_enough_members():
    cfg = _noiseless_scenario(center_noise_sigma=1.0, miss_prob=0.1, seed=9)
    frames, _ = generate_scenario(cfg)
    outcome = run_slot_detection(frames, SlotDetectionConfig(n_bottom=12))
    for slot in outcome.slots:
        assert slot.members >= outcome.min_points


def test_frame_order_invariance_is_exact():
    cfg = _noiseless_scenario(center_noise_sigma=1.5, seed=13)
    log, _ = generate_scenario(cfg)
    config = SlotDetectionConfig(n_bottom=12)
    base = run_slot_detection(log, config).slots
    # Labels depend only on the multiset of detections: the same rows in another order.
    order = np.random.default_rng(0).permutation(len(log.detections))
    shuffled = replace(log, detections=log.detections[order])
    assert run_slot_detection(shuffled, config).slots == base


def test_scale_invariance_with_matching_homography():
    # Doubling image coordinates and composing the homography with the
    # inverse scaling gives bit-identical bird's-eye points (powers of two
    # are exact), so memberships match and centers scale by exactly 2.
    cfg = _noiseless_scenario(center_noise_sigma=1.5, seed=21)
    log, _ = generate_scenario(cfg)
    base = run_slot_detection(log, SlotDetectionConfig(n_bottom=12)).slots

    dets = log.detections.copy()
    for name in ("cx", "cy", "w", "h"):
        dets[name] *= 2
    doubled = replace(log, detections=dets)
    h_scaled = Homography(np.diag([0.5, 0.5, 1.0]))
    scaled = run_slot_detection(doubled, SlotDetectionConfig(n_bottom=12, homography=h_scaled)).slots

    assert len(scaled) == len(base)
    for a, b in zip(base, scaled):
        assert (b.center.x, b.center.y) == (a.center.x * 2, a.center.y * 2)
        assert (b.area.w, b.area.h) == (a.area.w * 2, a.area.h * 2)
        assert b.members == a.members


def test_tilted_camera_round_trips_through_inverse_homography():
    cfg = _noiseless_scenario(camera="strong-tilt", frames=30)
    frames, truth = generate_scenario(cfg)
    cam = camera_homography("strong-tilt")
    slots = run_slot_detection(
        frames, SlotDetectionConfig(n_bottom=12, homography=invert_homography(cam))
    ).slots
    assert len(slots) == 12
    for slot in slots:
        dists = [np.hypot(slot.center.x - b.cx, slot.center.y - b.cy) for b in truth.slots]
        assert min(dists) < 1e-6


def test_recall_does_not_fall_as_frames_grow():
    # The demo lot (scripts/run_demo.py, seed 42). Frame streams are keyed by
    # frame index, so a prefix of the 1000-frame capture is the shorter capture.
    pitch = 40.0
    cfg = ScenarioConfig(
        rows=4, cols=10, slot_pitch=pitch, slot_size=(22.0, 30.0), frame_count=1000,
        occupancy_prob=0.6, center_noise_sigma=0.05 * pitch, size_noise_sigma=1.0,
        miss_prob=0.05, passing_rate=0.5,
        violation_sites=(ViolationSite(186.0, 180.0, 10.0, emit_prob=0.7),),
        camera="mild-tilt", seed=42,
    )
    config = SlotDetectionConfig(n_bottom=40, homography=invert_homography(camera_homography("mild-tilt")))
    found = []
    for count in (200, 500, 1000):
        log, truth = generate_scenario(replace(cfg, frame_count=count))
        truth_centers = [Point2(b.cx, b.cy) for b in truth.slots]
        slots = run_slot_detection(log, config).slots
        match = match_slots([s.center for s in slots], truth_centers, default_match_tolerance(truth_centers))
        found.append(match.tp)
    assert found == sorted(found), found
    assert found[-1] == 40, found


def test_default_eps_follows_the_camera_scale():
    # The demo lot (scripts/run_demo.py, seed 42), clustered through its bird's-eye homography
    # H and through S H, where S scales the bird's-eye plane by s and moves it by (tx, ty).
    cfg = ScenarioConfig(
        rows=4, cols=10, slot_pitch=40.0, slot_size=(22.0, 30.0), frame_count=200,
        occupancy_prob=0.6, center_noise_sigma=2.0, size_noise_sigma=1.0, miss_prob=0.05,
        passing_rate=0.5, violation_sites=(ViolationSite(186.0, 180.0, 10.0, emit_prob=0.7),),
        camera="mild-tilt", seed=42,
    )
    log, _ = generate_scenario(cfg)
    h = invert_homography(camera_homography("mild-tilt")).m
    coincident = detection_log(FrameDetections(f"f{i}", [(50.0, 60.0, 20.0, 20.0, 0.9, "car")])
                               for i in range(5))

    def members(outcome):
        return {frozenset(np.flatnonzero(outcome.labels == c).tolist()) for c in outcome.selected}

    base = run_slot_detection(log, SlotDetectionConfig(n_bottom=40, homography=Homography(h)))
    # At s = 1e-3 the shift stays small: a lot 0.4 units wide moved 1e5 away loses 1e-4 px in the
    # homography's own round trip, before any clustering.
    for s, tx, ty in [(1e-3, 100.0, -100.0), (1.0, -1e5, 3e4), (1e3, 2e4, 1e5), (7.3, -123.4, -5e4)]:
        homography = Homography(np.array([[s, 0.0, tx], [0.0, s, ty], [0.0, 0.0, 1.0]]) @ h)
        outcome = run_slot_detection(log, SlotDetectionConfig(n_bottom=40, homography=homography))
        assert members(outcome) == members(base)
        assert [slot.members for slot in outcome.slots] == [slot.members for slot in base.slots]
        centers = [(slot.center.x, slot.center.y) for slot in outcome.slots]
        assert np.allclose(centers, [(slot.center.x, slot.center.y) for slot in base.slots],
                           rtol=1e-9, atol=1e-7)
        assert np.allclose([slot.spread / s for slot in outcome.slots],
                           [slot.spread for slot in base.slots], rtol=1e-6, atol=0)
        assert outcome.eps == 0.015 * np.ptp(outcome.birdseye_points, axis=0).max()

        # Coincident centers give a cloud with no extent: eps 1.0 clusters them into one slot.
        one = run_slot_detection(coincident, SlotDetectionConfig(n_bottom=3, homography=homography))
        assert one.eps == 1.0 and [slot.members for slot in one.slots] == [5]
