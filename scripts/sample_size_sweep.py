#!/usr/bin/env python3
"""Slot-detection quality versus amount of captured data.

Runs the detector on the chronologically first 30/50/80/100% of a simulated
capture with fixed DBSCAN parameters and prints TP/FP/FN, precision, and
recall per sample size.  The full capture is simulated once and each sample
is its first frames: the simulator keys its draws by frame index, so a
shorter capture would be exactly that prefix.  With sparse occupancy the
small subsets miss slots that have not accumulated min_points detections
yet; recall climbs toward 100% as frames accumulate while false positives
stay flat.
"""

import argparse

from parkscan.detections import DetectionLog
from parkscan.geometry import Point2, invert_homography
from parkscan.metrics import default_match_tolerance, format_percent, match_slots, precision_recall
from parkscan.simulator import ScenarioConfig, ViolationSite, camera_homography, generate_scenario
from parkscan.slots import SlotDetectionConfig, run_slot_detection


def first_frames(log: DetectionLog, count: int) -> DetectionLog:
    """The log's first ``count`` frames, as views of its columns."""
    return DetectionLog(log.frame_ids[:count], log.timestamps[:count], log.offsets[:count + 1],
                        log.detections[:log.offsets[count]])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--frames", type=int, default=200)
    parser.add_argument("--occupancy-prob", type=float, default=0.3)
    parser.add_argument("--min-points", type=int, default=12)
    args = parser.parse_args()

    pitch = 40.0
    scenario = ScenarioConfig(
        rows=4,
        cols=10,
        slot_pitch=pitch,
        slot_size=(22.0, 30.0),
        frame_count=args.frames,
        occupancy_prob=args.occupancy_prob,
        center_noise_sigma=0.05 * pitch,
        size_noise_sigma=1.0,
        miss_prob=0.05,
        passing_rate=0.5,
        violation_sites=(ViolationSite(186.0, 180.0, 10.0, emit_prob=0.7),),
        camera="mild-tilt",
        seed=args.seed,
    )
    homography = invert_homography(camera_homography("mild-tilt"))
    full_log, truth = generate_scenario(scenario)
    truth_centers = [Point2(b.cx, b.cy) for b in truth.slots]

    print(f"{scenario.slot_count} slots, {args.frames} frames, "
          f"occupancy_prob={args.occupancy_prob}, min_points={args.min_points}\n")
    print(f"{'sample':>7} {'frames':>7} {'TP':>4} {'FP':>4} {'FN':>4} {'precision':>10} {'recall':>8}")
    for fraction in (0.30, 0.50, 0.80, 1.00):
        count = max(1, int(args.frames * fraction))
        outcome = run_slot_detection(
            first_frames(full_log, count),
            SlotDetectionConfig(
                n_bottom=scenario.slot_count,
                homography=homography,
                min_points=args.min_points,
            ),
        )
        match = match_slots([s.center for s in outcome.slots], truth_centers,
                            default_match_tolerance(truth_centers))
        precision, recall = precision_recall(match.tp, match.fp, match.fn)
        print(
            f"{fraction:>6.0%} {count:>7} {match.tp:>4} {match.fp:>4} {match.fn:>4} "
            f"{format_percent(precision):>10} {format_percent(recall):>8}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
