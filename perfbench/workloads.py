"""The benchmark's workloads: seeded inputs, distractor injection, the stand-in
score model, and the checks on the pipeline's outputs.

Nothing here imports parkscan. Inputs the benchmark makes itself and the
checks it applies stay fixed when the program changes.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PITCH = 40.0
SLOT_SIZE = (22.0, 30.0)
# The simulator's "mild-tilt" preset (ground plane -> image pixels), row-major.
# The run config needs its inverse, computed here without LAPACK so the
# config file is byte-identical on every machine.
MILD_TILT = (1.0, 0.2, 50.0, 0.0, 1.1, 30.0, 0.0, 0.0008, 1.0)

ORACLE_THRESHOLD = 0.3  # the CLI's default iou_threshold
SCORE_THRESHOLD = 0.5  # the CLI's default score threshold
MIN_CONFIDENCE = 0.5

# Independent random streams derived from the workload seed.
_DISTRACTOR_STREAM = 1
_SCORE_STREAM = 2

DISTRACTORS_PER_FRAME = 24
SCORE_NOISE_SIGMA = 0.15
SCORE_DECIMALS = 4  # rounding makes ties, so AUC and ROC handle tied scores


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    rows: int
    cols: int
    frames: int
    # scored: distractors in the log, an external score table instead of the
    # IoU oracle, and ROC plot data from evaluate.
    scored: bool = False

    @property
    def slots(self) -> int:
        return self.rows * self.cols


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-lot",
            "1000 frames x 40 slots: ~570-member clusters, so DBSCAN dominates time and"
            " peak memory; shows DBSCAN and streaming changes",
            rows=4, cols=10, frames=1000,
        ),
        Workload(
            "wide-lot",
            "200 frames x 120 slots: small clusters keep DBSCAN cheap and oracle IoU"
            " scoring dominates; shows occupancy/metrics changes, DBSCAN ones should not",
            rows=6, cols=20, frames=200,
        ),
        Workload(
            "scored-feed",
            "500 frames x 40 slots with distractors and an external score table:"
            " parse/filter, score-table and ROC paths; a faster oracle shows nothing",
            rows=4, cols=10, frames=500, scored=True,
        ),
    )
}

# --- inputs -------------------------------------------------------------------

def scenario_document(w: Workload, seed: int) -> dict:
    """The demo geometry at this workload's size; the violation site sits half a
    pitch below the last slot row."""
    return {
        "rows": w.rows,
        "cols": w.cols,
        "slot_pitch": PITCH,
        "slot_size": list(SLOT_SIZE),
        "frame_count": w.frames,
        "occupancy_prob": 0.6,
        "center_noise_sigma": 0.05 * PITCH,
        "size_noise_sigma": 1.0,
        "miss_prob": 0.05,
        "passing_rate": 0.5,
        "violation_sites": [
            {"x": 186.0, "y": (w.rows + 0.5) * PITCH, "center_spread_sigma": 10.0,
             "emit_prob": 0.7}
        ],
        "camera": "mild-tilt",
        "seed": seed,
    }


def _invert3(m) -> list[float]:
    """Inverse of a row-major 3x3 matrix by cofactors, scaled so the last entry is 1."""
    a, b, c, d, e, f, g, h, i = m
    cof = [e * i - f * h, c * h - b * i, b * f - c * e,
           f * g - d * i, a * i - c * g, c * d - a * f,
           d * h - e * g, b * g - a * h, a * e - b * d]
    return [v / cof[8] for v in cof]


def run_config_document(w: Workload) -> dict:
    return {
        "filter": {"classes": ["car", "truck"], "min_confidence": MIN_CONFIDENCE},
        "homography": {"matrix": _invert3(MILD_TILT)},
        "n_bottom": w.slots,
    }


def _project(x: float, y: float) -> tuple[float, float]:
    a, b, c, d, e, f, g, h, i = MILD_TILT
    den = g * x + h * y + i
    return (a * x + b * y + c) / den, (d * x + e * y + f) / den


def inject_distractors(src: Path, dst: Path, w: Workload, seed: int) -> None:
    """Copy a detection log, adding seeded boxes the CLI's filter must drop.

    Each frame gains about DISTRACTORS_PER_FRAME boxes anywhere over the lot
    and its lane: half "person" boxes at any confidence, half "car" boxes
    with confidence below MIN_CONFIDENCE.
    """
    rng = np.random.default_rng([seed, _DISTRACTOR_STREAM])
    corners = [_project(x, y) for x in (0.0, w.cols * PITCH) for y in (0.0, (w.rows + 2) * PITCH)]
    xs, ys = [p[0] for p in corners], [p[1] for p in corners]
    lines = []
    for line in src.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        n = int(rng.poisson(DISTRACTORS_PER_FRAME))
        cx = rng.uniform(min(xs), max(xs), n)
        cy = rng.uniform(min(ys), max(ys), n)
        person = rng.random(n) < 0.5
        width = np.where(person, rng.uniform(8.0, 14.0, n), rng.uniform(18.0, 26.0, n))
        height = np.where(person, rng.uniform(18.0, 30.0, n), rng.uniform(24.0, 34.0, n))
        conf = np.where(person, rng.uniform(0.3, 1.0, n), rng.uniform(0.05, 0.45, n))
        for k in range(n):
            record["dets"].append({
                "cx": float(cx[k]), "cy": float(cy[k]), "w": float(width[k]),
                "h": float(height[k]), "cls": "person" if person[k] else "car",
                "conf": float(conf[k]),
            })
        lines.append(json.dumps(record, sort_keys=True))
    dst.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --- the stand-in for an external occupancy model --------------------------------

def _truth_centers(truth_slots: Path) -> np.ndarray:
    doc = json.loads(truth_slots.read_text(encoding="utf-8"))
    by_id = sorted(doc["slots"], key=lambda s: s["id"])
    return np.array([[s["cx"], s["cy"]] for s in by_id], dtype=float)


def _truth_occupancy(truth_occupancy: Path) -> tuple[list[str], np.ndarray]:
    frames, bits = [], []
    for line in truth_occupancy.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        frames.append(record["frame"])
        occ = record["occupancy"]
        bits.append([occ[str(i)] for i in range(len(occ))])
    return frames, np.array(bits, dtype=bool)


class ScoreModel:
    """Noisy occupancy scores for the predicted slots, as an external model would give.

    A predicted slot takes the true occupancy of the nearest true slot; its
    score is 0.25 + 0.5 * occupied plus Gaussian noise, clipped to [0, 1]
    and rounded. The table depends only on the seed and the predicted slots.
    """

    def __init__(self, truth_slots: Path, truth_occupancy: Path, seed: int):
        self.centers = _truth_centers(truth_slots)
        self.frames, self.bits = _truth_occupancy(truth_occupancy)
        self.seed = seed

    def write_table(self, pred_slots: Path, out: Path) -> None:
        pred = json.loads(pred_slots.read_text(encoding="utf-8"))["slots"]
        ids = [s["id"] for s in pred]
        xy = np.array([[s["cx"], s["cy"]] for s in pred], dtype=float).reshape(-1, 2)
        d2 = ((xy[:, None, :] - self.centers[None, :, :]) ** 2).sum(axis=2)
        occupied = self.bits[:, d2.argmin(axis=1)]
        rng = np.random.default_rng([self.seed, _SCORE_STREAM])
        noise = rng.standard_normal(occupied.shape)
        scores = np.clip(0.25 + 0.5 * occupied + SCORE_NOISE_SIGMA * noise, 0.0, 1.0)
        scores = np.round(scores, SCORE_DECIMALS)
        with open(out, "w", encoding="utf-8") as fh:
            for f, frame in enumerate(self.frames):
                for k, slot in enumerate(ids):
                    fh.write(json.dumps({"frame": frame, "score": float(scores[f, k]), "slot": slot}))
                    fh.write("\n")


# --- output checks ------------------------------------------------------------------

def _greedy_match(pred: list, truth: list, tolerance: float) -> dict:
    """Predicted index -> true index, matching closest pairs first within tolerance."""
    pairs = sorted(
        (d, i, j)
        for i, p in enumerate(pred)
        for j, t in enumerate(truth)
        if (d := math.hypot(p[0] - t[0], p[1] - t[1])) <= tolerance
    )
    matched, used = {}, set()
    for _, i, j in pairs:
        if i not in matched and j not in used:
            matched[i] = j
            used.add(j)
    return matched


def _rank_auc(scores: list, labels: list) -> float:
    """Mann-Whitney AUC with average ranks for ties."""
    order = sorted(range(len(scores)), key=scores.__getitem__)
    rank_sum_pos = 0.0
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        avg = (i + j + 2) / 2.0
        rank_sum_pos += avg * sum(labels[order[k]] for k in range(i, j + 1))
        i = j + 1
    pos = sum(labels)
    neg = len(labels) - pos
    return (rank_sum_pos - pos * (pos + 1) / 2.0) / (pos * neg)


def check_outputs(w: Workload, out: Path, truth_slots: Path, truth_occupancy: Path) -> list[str]:
    """Recount the pipeline's outputs independently; returns the problems found."""
    problems = []
    pred = json.loads((out / "slots.json").read_text(encoding="utf-8"))["slots"]
    truth = json.loads(truth_slots.read_text(encoding="utf-8"))["slots"]
    report = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    det, cls = report["detection"], report["classification"]
    if not 1 <= len(pred) <= w.slots:
        problems.append(f"{len(pred)} slots predicted, expected 1..{w.slots}")

    pred_xy = [(s["cx"], s["cy"]) for s in pred]
    truth_xy = [(s["cx"], s["cy"]) for s in truth]
    matched = _greedy_match(pred_xy, truth_xy, det["tolerance"])
    tp = len(matched)
    expect = {"tp": tp, "fp": len(pred) - tp, "fn": len(truth) - tp,
              "precision": tp / len(pred) if pred else None, "recall": tp / len(truth)}
    for key, value in expect.items():
        if det[key] != value:
            problems.append(f"detection.{key} is {det[key]}, recount gives {value}")

    frames, bits = _truth_occupancy(truth_occupancy)
    row = {f: k for k, f in enumerate(frames)}
    pred_to_truth = {pred[i]["id"]: truth[j]["id"] for i, j in matched.items()}
    threshold = SCORE_THRESHOLD if w.scored else ORACLE_THRESHOLD
    records = [json.loads(line) for line in
               (out / "occupancy.jsonl").read_text(encoding="utf-8").splitlines()]
    if len(records) != len(frames) * len(pred):
        problems.append(f"{len(records)} occupancy records, expected {len(frames)} x {len(pred)}")
    agree, scores, labels = 0, [], []
    for rec in records:
        if rec["status"] == "ERROR":
            continue
        want = "OCCUPIED" if rec["score"] >= threshold else "VACANT"
        if rec["status"] != want:
            problems.append(f"record {rec['frame']}/{rec['slot']}: {rec['status']} at score {rec['score']}")
            break
        if rec["slot"] not in pred_to_truth or rec["frame"] not in row:
            continue
        bit = bool(bits[row[rec["frame"]], pred_to_truth[rec["slot"]]])
        agree += (rec["status"] == "OCCUPIED") == bit
        scores.append(rec["score"])
        labels.append(bit)
    if labels:
        if cls["accuracy"] != agree / len(labels):
            problems.append(f"accuracy is {cls['accuracy']}, recount gives {agree / len(labels)}")
        if 0 < sum(labels) < len(labels):
            auc = _rank_auc(scores, labels)
            if cls["auc"] is None or abs(cls["auc"] - auc) > 1e-9:
                problems.append(f"auc is {cls['auc']}, recount gives {auc}")
    return problems


def quality(out: Path) -> dict:
    """The pipeline's quality figures, as metrics.json reports them."""
    report = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    return {
        "slot_precision": report["detection"]["precision"],
        "slot_recall": report["detection"]["recall"],
        "occupancy_accuracy": report["classification"]["accuracy"],
        "occupancy_auc": report["classification"]["auc"],
    }
