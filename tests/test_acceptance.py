"""Acceptance suite: every criterion prints one PASS/FAIL line and asserts.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np

from helpers import (
    brute_force_core_partition,
    core_partition_from_labels,
    pairwise_auc,
    quantile_oracle_kept,
    random_well_conditioned_homography,
)
from parkscan.clustering import DbscanParams, dbscan
from parkscan.geometry import (
    Homography,
    Point2,
    apply_homography_array,
    estimate_homography_dlt,
    invert_homography,
)
from parkscan.metrics import (
    default_match_tolerance,
    format_percent,
    match_slots,
    precision_recall,
    roc_auc,
)
from parkscan.occupancy import GeometricOracleClassifier, OccupancyStatus, classify_frame
from parkscan.simulator import (
    ScenarioConfig,
    ViolationSite,
    camera_homography,
    generate_scenario,
)
from parkscan.slots import SlotDetectionConfig, iqr_filter, run_slot_detection


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} {detail}".rstrip())


def benchmark_scenario(seed: int) -> ScenarioConfig:
    """4x10 grid, 200 frames, noisy occupancy, one wide violation site, tilt."""
    pitch = 40.0
    return ScenarioConfig(
        rows=4,
        cols=10,
        slot_pitch=pitch,
        slot_size=(22.0, 30.0),
        frame_count=200,
        occupancy_prob=0.6,
        center_noise_sigma=0.05 * pitch,  # 5% of pitch
        size_noise_sigma=1.0,
        miss_prob=0.05,
        passing_rate=0.5,
        violation_sites=(
            # Spread 5x the per-slot center noise, parked off the grid edge.
            ViolationSite(x=186.0, y=180.0, center_spread_sigma=5 * 0.05 * pitch, emit_prob=0.7),
        ),
        camera="mild-tilt",
        seed=seed,
    )


def run_benchmark(seed: int):
    config = benchmark_scenario(seed)
    frames, truth = generate_scenario(config)
    cam = camera_homography("mild-tilt")
    outcome = run_slot_detection(
        frames,
        SlotDetectionConfig(n_bottom=40, homography=invert_homography(cam)),
    )
    truth_centers = [Point2(b.cx, b.cy) for b in truth.slots]
    tolerance = default_match_tolerance(truth_centers)
    match = match_slots([s.center for s in outcome.slots], truth_centers, tolerance)
    return config, truth, outcome, match, tolerance


def test_criterion_1_metric_formula_fidelity():
    t0 = time.perf_counter()
    p1, r1 = precision_recall(43, 1, 1)
    p2, r2 = precision_recall(158, 7, 12)
    rendered = (format_percent(p1), format_percent(r1), format_percent(p2), format_percent(r2))
    ok = rendered == ("97.73", "97.73", "95.76", "92.94")
    elapsed = time.perf_counter() - t0
    report(1, "metric-formula fidelity", ok, f"{rendered} in {elapsed:.2f}s")
    assert ok
    assert elapsed < 1.0


def test_criterion_2_benchmark_scenario_precision_recall():
    t0 = time.perf_counter()
    _, truth, outcome, match, tolerance = run_benchmark(seed=42)
    precision, recall = precision_recall(match.tp, match.fp, match.fn)
    ok = precision == 1 and match.tp >= 38 and len(truth.slots) == 40
    elapsed = time.perf_counter() - t0
    report(
        2,
        "simulated benchmark precision/recall",
        ok,
        f"tp={match.tp} fp={match.fp} fn={match.fn} "
        f"precision={format_percent(precision)} recall={format_percent(recall)} "
        f"tol={tolerance:.1f}px in {elapsed:.1f}s",
    )
    assert ok
    assert elapsed < 10.0


def test_criterion_3_noiseless_exactness():
    t0 = time.perf_counter()
    config = ScenarioConfig(
        rows=4,
        cols=10,
        slot_pitch=40.0,
        slot_size=(22.0, 30.0),
        frame_count=60,
        occupancy_prob=0.7,
        camera="mild-tilt",
        seed=7,
    )
    frames, truth = generate_scenario(config)
    cam = camera_homography("mild-tilt")
    outcome = run_slot_detection(
        frames, SlotDetectionConfig(n_bottom=40, homography=invert_homography(cam))
    )
    # Every slot must be occupied in at least min_points frames for the
    # exactness claim to apply; check the precondition on this seed.
    occupied = np.array(truth.occupancy).sum(axis=0)
    assert occupied.min() >= outcome.min_points

    truth_centers = [Point2(b.cx, b.cy) for b in truth.slots]
    match = match_slots([s.center for s in outcome.slots], truth_centers, 1e-6)
    max_err = max((d for _, _, d in match.pairs), default=math.inf)

    oracle = GeometricOracleClassifier(truth.vehicles_by_frame())
    occupancy = truth.occupancy_by_frame()
    pred_to_truth = {outcome.slots[i].slot_id: j for i, j, _ in match.pairs}
    agree = total = 0
    for frame_id in truth.frame_ids:
        records = classify_frame(
            list(outcome.slots), frame_id, oracle, threshold=oracle.decision_threshold
        )
        for rec in records:
            bit = occupancy[frame_id][pred_to_truth[rec.slot_id]]
            agree += (rec.status is OccupancyStatus.OCCUPIED) == bit
            total += 1
    accuracy = agree / total

    ok = match.tp == 40 and match.fp == 0 and max_err < 1e-6 and accuracy == 1.0
    elapsed = time.perf_counter() - t0
    report(
        3,
        "noiseless exactness",
        ok,
        f"recovered={match.tp}/40 max_center_err={max_err:.2e}px oracle_accuracy={accuracy} in {elapsed:.1f}s",
    )
    assert ok
    assert elapsed < 5.0


def _random_instance(rng):
    kind = rng.integers(0, 3)
    n = int(rng.integers(1, 201))
    if kind == 0:
        pts = rng.uniform(0, 100, size=(n, 2))
    elif kind == 1:
        centers = rng.uniform(0, 100, size=(max(1, n // 30), 2))
        pts = centers[rng.integers(0, len(centers), n)] + rng.normal(0, 2.0, size=(n, 2))
    else:
        pts = rng.integers(0, 12, size=(n, 2)).astype(float)  # heavy ties
    eps = float(rng.uniform(1.0, 25.0))
    min_points = int(rng.integers(1, 9))
    return pts, eps, min_points


def test_criterion_4_dbscan_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260401)
    checked = 0
    for _ in range(1000):
        pts, eps, min_points = _random_instance(rng)
        params = DbscanParams(eps=eps, min_points=min_points)
        out = dbscan(pts, params)

        core, oracle_partition = brute_force_core_partition(pts, eps, min_points)
        assert core_partition_from_labels(out.labels, core) == oracle_partition

        again = dbscan(pts, params)
        assert np.array_equal(out.labels, again.labels)

        perm = rng.permutation(len(pts))
        permuted = dbscan(pts[perm], params)
        assert np.array_equal(permuted.labels, out.labels[perm])
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 1000
    report(4, "DBSCAN oracle equivalence", ok, f"{checked} instances in {elapsed:.1f}s")
    assert ok
    assert elapsed < 30.0


def test_criterion_5_homography_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)

    worst_round_trip = 0.0
    for _ in range(100):
        h = Homography(random_well_conditioned_homography(rng))
        hinv = invert_homography(h)
        pts = rng.uniform(-1000, 1000, size=(100, 2))
        back = apply_homography_array(hinv, apply_homography_array(h, pts))
        worst_round_trip = max(worst_round_trip, float(np.abs(back - pts).max()))

    worst_reproj = 0.0
    trials = 0
    while trials < 500:
        src = rng.uniform(-100, 100, size=(4, 2))
        areas_ok = True
        for i in range(4):
            o = np.delete(src, i, axis=0)
            u, v = o[1] - o[0], o[2] - o[0]
            if abs(u[0] * v[1] - u[1] * v[0]) < 50.0:
                areas_ok = False
        if not areas_ok:
            continue
        h_true = Homography(random_well_conditioned_homography(rng))
        dst = apply_homography_array(h_true, src)
        estimate = estimate_homography_dlt(
            [(Point2(*s), Point2(*d)) for s, d in zip(src, dst)]
        )
        reproj = apply_homography_array(estimate, src)
        worst_reproj = max(worst_reproj, float(np.abs(reproj - dst).max()))
        trials += 1

    ok = worst_round_trip < 1e-9 and worst_reproj < 1e-8
    elapsed = time.perf_counter() - t0
    report(
        5,
        "homography properties",
        ok,
        f"round_trip_max={worst_round_trip:.2e} dlt_reproj_max={worst_reproj:.2e} in {elapsed:.1f}s",
    )
    assert ok
    assert elapsed < 5.0


def test_criterion_6_auc_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = 0.0
    for i in range(500):
        n = int(rng.integers(2, 501))
        if i % 2 == 0:
            scores = rng.choice([0.0, 0.2, 0.4, 0.5, 0.6, 0.8, 1.0], size=n)  # ties
        else:
            scores = rng.uniform(0, 1, size=n)
        labels = rng.uniform(0, 1, size=n) < rng.uniform(0.2, 0.8)
        if labels.all():
            labels[0] = False
        if not labels.any():
            labels[0] = True
        worst = max(worst, abs(roc_auc(scores, labels) - pairwise_auc(scores, labels)))

    complement_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 200))
        scores = rng.permutation(n).astype(float)  # tie-free
        labels = np.zeros(n, dtype=bool)
        labels[rng.choice(n, size=int(rng.integers(1, n)), replace=False)] = True
        if labels.all():
            labels[0] = False
        if abs(roc_auc(scores, labels) + roc_auc(scores, ~labels) - 1.0) > 1e-12:
            complement_ok = False

    ok = worst < 1e-12 and complement_ok
    elapsed = time.perf_counter() - t0
    report(6, "AUC oracle equivalence", ok, f"max_delta={worst:.2e} in {elapsed:.1f}s")
    assert ok
    assert elapsed < 10.0


def test_criterion_7_iqr_filter_properties():
    t0 = time.perf_counter()
    ok_equal = iqr_filter([7.0] * 9) == set(range(9))
    ok_outlier = iqr_filter([1.0, 1.0, 1.0, 1.0, 100.0]) == {0, 1, 2, 3}

    rng = np.random.default_rng(7)
    ok_random = True
    for _ in range(200):
        n = int(rng.integers(1, 60))
        values = rng.normal(0, 10, size=n).tolist()
        kept = iqr_filter(values)
        if kept != quantile_oracle_kept(values):
            ok_random = False
        perm = rng.permutation(n)
        permuted = [values[i] for i in perm]
        expected = {int(np.flatnonzero(perm == i)[0]) for i in kept}
        if iqr_filter(permuted) != expected:
            ok_random = False

    ok = ok_equal and ok_outlier and ok_random
    elapsed = time.perf_counter() - t0
    report(7, "IQR filter properties", ok, f"200 random vectors in {elapsed:.2f}s")
    assert ok
    assert elapsed < 2.0


def test_criterion_8_violation_rejection_across_seeds():
    t0 = time.perf_counter()
    cam = camera_homography("mild-tilt")
    appearances = 0
    for seed in range(20):
        config, truth, outcome, match, tolerance = run_benchmark(seed=seed)
        site = config.violation_sites[0]
        [(site_x, site_y)] = apply_homography_array(cam, [[site.x, site.y]]).tolist()
        hit = any(
            math.hypot(s.center.x - site_x, s.center.y - site_y) <= tolerance
            for s in outcome.slots
        )
        appearances += int(hit)
    ok = appearances <= 1
    elapsed = time.perf_counter() - t0
    report(
        8,
        "violation rejection",
        ok,
        f"appeared in {appearances}/20 runs in {elapsed:.1f}s",
    )
    assert ok
    assert elapsed < 60.0
