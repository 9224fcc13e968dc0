"""Independent oracles shared by module and acceptance tests.

Everything here recomputes results from first principles (O(n^2) scans,
breadth-first search, pair counting) so the implementations under test are
checked against a second, unrelated route.
"""

import json
import math
from datetime import datetime, timedelta

import numpy as np

from parkscan.detections import DETECTION_DTYPE, DetectionLog, FrameDetections
from parkscan.errors import ValidationError
from parkscan.geometry import Box
from parkscan.occupancy import FrameReport, OccupancyRecord, OccupancyStatus
from parkscan.simulator import (
    STREAM_PASSING, STREAM_SLOT, STREAM_VIOLATION, GroundTruth, camera_homography,
)

# --- edge cases for the JSON writer tests ---

# Characters JSON escapes differently from plain text: quotes, backslashes, control
# characters, non-ASCII (BMP and astral) and the line separators U+2028/U+2029.
AWKWARD_CHARS = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "漢", "\u2028", "\u2029",
                 "\U0001f697", "a", " ", "'"]
# Floats whose shortest repr is easy to get wrong: signed zero, the smallest subnormal,
# exponent notation, a rounding sum and integral values.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e16, -1e16, 0.1 + 0.2, 1.0, 3.0, 2.0**53 + 2, 1e300, 123456789.0]


def _within_rows(pts, rows, eps):
    """Whether each point of ``rows`` lies within eps of each point, by a full scan."""
    return ((pts[rows, None, :] - pts[None, :, :]) ** 2).sum(axis=2) <= eps * eps


def _row_blocks(rows, chunk):
    return (rows[s : s + chunk] for s in range(0, len(rows), chunk))


def neighbour_counts(points, eps, chunk=256):
    """Each point's closed eps-neighbourhood size, by a full scan of ``chunk`` rows at a time,
    so that no n x n matrix is built."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    counts = [_within_rows(pts, rows, eps).sum(axis=1) for rows in _row_blocks(np.arange(len(pts)), chunk)]
    return np.concatenate([np.zeros(0, dtype=np.int64), *counts])


def brute_force_core_partition(points, eps, min_points, chunk=256):
    """Core flags and the partition of core points into eps-components.

    Components are grown breadth-first from each core point, each step a full
    scan of the frontier's rows; returns (core_mask, frozenset of frozensets of
    core indices).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    core = neighbour_counts(pts, eps, chunk) >= min_points
    component = np.full(len(pts), -1)
    for seed in np.flatnonzero(core):
        if component[seed] >= 0:
            continue
        component[seed] = seed
        frontier = np.array([seed])
        while frontier.size:
            reached = np.zeros(len(pts), dtype=bool)
            for rows in _row_blocks(frontier, chunk):
                reached |= _within_rows(pts, rows, eps).any(axis=0)
            frontier = np.flatnonzero(reached & core & (component < 0))
            component[frontier] = seed
    groups = {}
    for i in np.flatnonzero(core):
        groups.setdefault(int(component[i]), set()).add(int(i))
    return core, frozenset(frozenset(g) for g in groups.values())


def dbscan_by_scan(points, eps, min_points, chunk=256):
    """Labels and cluster count from full scans, with no grid.

    Applies the clustering module's two rules directly: clusters are numbered
    in the lexicographic (x, y, index) order of their first core point, and a
    border point takes the label of the lex-first core point within eps.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = pts.shape[0]
    core, partition = brute_force_core_partition(pts, eps, min_points, chunk)
    lex = np.lexsort((np.arange(n), pts[:, 1], pts[:, 0]))
    lex_rank = np.empty(n, dtype=np.int64)
    lex_rank[lex] = np.arange(n)
    labels = np.full(n, -1, dtype=np.int64)
    for cid, group in enumerate(sorted(partition, key=lambda g: min(lex_rank[i] for i in g))):
        labels[list(group)] = cid
    for rows in _row_blocks(np.flatnonzero(~core), chunk):
        first = np.where(_within_rows(pts, rows, eps) & core, lex_rank, n).min(axis=1)
        reached = first < n
        labels[rows[reached]] = labels[lex[first[reached]]]
    return labels, len(partition)


def core_partition_from_labels(labels, core_mask):
    """Partition of core points implied by a label array."""
    groups = {}
    for i, is_core in enumerate(core_mask):
        if is_core:
            groups.setdefault(int(labels[i]), set()).add(i)
    return frozenset(frozenset(g) for g in groups.values())


def classification_counts_by_loop(predicted_occupied, truth_occupied):
    """(tp, tn, fp, fn) by one pass over the paired bits; unequal lengths raise ValueError."""
    tp = tn = fp = fn = 0
    for pred, true in zip(predicted_occupied, truth_occupied, strict=True):
        if pred and true:
            tp += 1
        elif not pred and not true:
            tn += 1
        elif pred and not true:
            fp += 1
        else:
            fn += 1
    return tp, tn, fp, fn


def pairwise_auc(scores, labels):
    """Mann-Whitney AUC by explicit pair counting over (positive, negative)."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=bool)
    pos = s[y]
    neg = s[~y]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("need both classes")
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def roc_points_by_rescan(scores, labels):
    """ROC sweep that re-thresholds every score at each distinct score, highest first."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=bool)
    pos, neg = int(y.sum()), int((~y).sum())
    points = [(float("inf"), 0.0, 0.0)]
    for thr in sorted(set(s.tolist()), reverse=True):
        predicted = s >= thr
        points.append((thr, int((predicted & ~y).sum()) / neg, int((predicted & y).sum()) / pos))
    return points


def quantile_oracle_kept(values):
    """IQR-filter survivors (upper fence only) recomputed with numpy's
    linear-interpolation quantiles."""
    arr = np.asarray(values, dtype=float)
    q1 = np.quantile(arr, 0.25, method="linear")
    q3 = np.quantile(arr, 0.75, method="linear")
    hi = q3 + 1.5 * (q3 - q1)
    return {i for i, v in enumerate(arr) if v <= hi}


def select_by_sort(spreads, members, ids, n_bottom):
    """The first ``n_bottom`` of ``ids`` by smaller spread, then more members, then smaller id,
    by sorting key tuples."""
    return sorted(ids, key=lambda c: (spreads[c], -members[c], c))[:n_bottom]


def random_well_conditioned_homography(rng):
    """Similarity plus a small projective perturbation; comfortably invertible."""
    angle = rng.uniform(0, 2 * np.pi)
    scale = rng.uniform(0.5, 2.0)
    tx, ty = rng.uniform(-50, 50, 2)
    c, s = np.cos(angle), np.sin(angle)
    h = np.array(
        [
            [scale * c, -scale * s, tx],
            [scale * s, scale * c, ty],
            [rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3), 1.0],
        ]
    )
    return h


def map_point_scalar(m, x, y):
    """One point through the 3x3 matrix ``m``, with Python floats.

    The reference for ``apply_homography_array``: each row is
    ``(m0 * x + m1 * y) + m2``, then ``u`` and ``v`` are divided by ``d``.
    CPython rounds every operation on its own and never fuses a multiply-add,
    so the result cannot depend on the CPU or the BLAS build.
    """
    (a, b, c), (d, e, f), (g, h, i) = np.asarray(m, dtype=float).tolist()
    x, y = float(x), float(y)
    den = g * x + h * y + i
    return (a * x + b * y + c) / den, (d * x + e * y + f) / den


def project_box_scalar(m, box):
    """The simulator's per-box projection of a ground (cx, cy, w, h) box, one box at a time.

    The center maps through :func:`map_point_scalar`; width and height are the
    ``math.hypot`` distances between the mapped midpoints of opposite edges.
    """
    cx, cy, w, h = (float(v) for v in box)
    center = map_point_scalar(m, cx, cy)
    left = map_point_scalar(m, cx - w / 2.0, cy)
    right = map_point_scalar(m, cx + w / 2.0, cy)
    top = map_point_scalar(m, cx, cy - h / 2.0)
    bottom = map_point_scalar(m, cx, cy + h / 2.0)
    return (
        *center,
        math.hypot(right[0] - left[0], right[1] - left[1]),
        math.hypot(bottom[0] - top[0], bottom[1] - top[1]),
    )


def box_iou_scalar(a, b):
    """IoU of two (cx, cy, w, h) boxes, one pair at a time with Python floats.

    The reference for the array ``box_iou``: the same operations in the same
    order, so the two must agree bit for bit.
    """
    acx, acy, aw, ah = (float(v) for v in a)
    bcx, bcy, bw, bh = (float(v) for v in b)
    iw = min(acx + aw / 2.0, bcx + bw / 2.0) - max(acx - aw / 2.0, bcx - bw / 2.0)
    ih = min(acy + ah / 2.0, bcy + bh / 2.0) - max(acy - ah / 2.0, bcy - bh / 2.0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    return min(inter / union, 1.0)


# --- input lines: the json.loads reader the scanner-fed one replaced, kept as the reference ---

def json_lines_by_loads(stream, field):
    """``(line number, object)`` for each non-blank line, one ``json.loads`` per line."""
    for line_no, line in enumerate(stream, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(field, f"line {line_no}: invalid JSON ({exc.msg})") from exc
        if not isinstance(record, dict):
            raise ValidationError(field, f"line {line_no}: record must be a JSON object")
        yield line_no, record


# --- occupancy: the per-record loops the array code replaced, kept as references ----------

def write_records_by_dumps(stream, records):
    """Occupancy records as JSON lines, one ``json.dumps(doc, sort_keys=True)`` per record."""
    for rec in records:
        doc = {"frame": rec.frame_id, "slot": rec.slot_id, "score": rec.score,
               "status": rec.status.value}
        if rec.status is OccupancyStatus.ERROR:
            doc["error"] = rec.error
        stream.write(json.dumps(doc, sort_keys=True))
        stream.write("\n")


def classify_frame_per_slot(slots, frame_id, classifier, threshold):
    """One occupancy record per slot, each score tested on its own in Python."""
    try:
        scores = np.asarray(classifier.classify(frame_id, slots), dtype=float)
        if scores.shape != (len(slots),):
            raise ValidationError(
                "score", f"classifier returned scores of shape {scores.shape} for {len(slots)} slots"
            )
    except Exception as exc:
        return [
            OccupancyRecord(slot.slot_id, frame_id, None, OccupancyStatus.ERROR, str(exc))
            for slot in slots
        ]
    records = []
    for slot, score in zip(slots, scores.tolist()):
        if math.isnan(score):
            error = f"no score for frame {frame_id!r}, slot {slot.slot_id}"
        elif not 0.0 <= score <= 1.0:
            error = f"classifier returned {score!r}, outside [0, 1]"
        else:
            status = OccupancyStatus.OCCUPIED if score >= threshold else OccupancyStatus.VACANT
            records.append(OccupancyRecord(slot.slot_id, frame_id, score, status))
            continue
        records.append(OccupancyRecord(slot.slot_id, frame_id, None, OccupancyStatus.ERROR, error))
    return records


def report_text_by_dumps(report):
    """The per-frame report document, as ``json.dumps(doc, sort_keys=True, indent=2)`` writes it."""
    doc = {
        fid: {"occupied": rep.occupied, "vacant": rep.vacant, "vacant_slots": list(rep.vacant_slots),
              "error_slots": list(rep.error_slots)}
        for fid, rep in report.items()
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def aggregate_report_by_rescan(records):
    """Per-frame report from one scan of each frame's records per status."""
    by_frame = {}
    for rec in records:
        by_frame.setdefault(rec.frame_id, []).append(rec)
    report = {}
    for frame_id, recs in by_frame.items():
        occupied = sum(1 for r in recs if r.status is OccupancyStatus.OCCUPIED)
        vacant = tuple(sorted(r.slot_id for r in recs if r.status is OccupancyStatus.VACANT))
        errors = tuple(sorted(r.slot_id for r in recs if r.status is OccupancyStatus.ERROR))
        report[frame_id] = FrameReport(occupied, len(vacant), vacant, errors)
    return report


def occupancy_join_by_loop(records, pred_to_truth, occupancy):
    """The evaluate loop over records: for each scored record of a matched slot in a
    frame with truth, its predicted-occupied flag, its true bit and its score."""
    preds, labels, scores = [], [], []
    for rec in records:
        if rec.status is OccupancyStatus.ERROR:
            continue
        if rec.frame_id not in occupancy or rec.slot_id not in pred_to_truth:
            continue
        bits = occupancy[rec.frame_id]
        truth_id = pred_to_truth[rec.slot_id]
        if not 0 <= truth_id < len(bits):
            raise ValidationError(
                "truth_occupancy",
                f"frame {rec.frame_id!r} has no occupancy bit for truth slot {truth_id}",
            )
        preds.append(rec.status is OccupancyStatus.OCCUPIED)
        labels.append(bits[truth_id])
        scores.append(rec.score)
    return preds, labels, scores


# --- simulator: the per-substream seeding the block derivation replaced, kept as the reference ---

def seed_sequence_stream(seed, frame_index, stream, *key):
    """A simulator substream as the randomness contract defines it: one
    ``default_rng(SeedSequence((seed mod 2**64, frame_index, stream, *key)))``."""
    entropy = (seed & 0xFFFFFFFFFFFFFFFF, frame_index, stream, *key)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def scenario_by_substreams(config):
    """The simulator's (log, truth) for ``config`` as its randomness contract states it: one
    :func:`seed_sequence_stream` Generator per substream, drawn from in the stated order, and
    each frame's boxes projected one at a time with :func:`project_box_scalar`."""
    m = camera_homography(config.camera).m
    slot_w, slot_h = config.slot_size
    slots = [(row, col, *config.slot_center_ground(row, col))
             for row in range(config.rows) for col in range(config.cols)]
    lane_y = (config.rows + 1.5) * config.slot_pitch
    lane_x_max = config.cols * config.slot_pitch
    frames, occupancy, vehicles = [], [], []
    for f in range(config.frame_count):
        bits, ground, seen = [], [], []  # seen: (vehicle index, confidence) per detection
        for row, col, cx, cy in slots:
            rng = seed_sequence_stream(config.seed, f, STREAM_SLOT, row, col)
            bits.append(rng.random() < config.occupancy_prob)
            if not bits[-1]:
                continue
            dx, dy = rng.normal(0.0, config.center_noise_sigma, 2).tolist()
            dw, dh = rng.normal(0.0, config.size_noise_sigma, 2).tolist()
            ground.append((cx + dx, cy + dy, max(slot_w + dw, 0.2 * slot_w), max(slot_h + dh, 0.2 * slot_h),
                           "parked"))
            if rng.random() < config.miss_prob:
                continue
            seen.append((len(ground) - 1, 0.5 + 0.5 * rng.random()))
        rng = seed_sequence_stream(config.seed, f, STREAM_PASSING)
        for _ in range(rng.poisson(config.passing_rate)):
            ground.append((rng.uniform(0.0, lane_x_max), lane_y, slot_w, slot_h, "passing"))
            seen.append((len(ground) - 1, 0.5 + 0.5 * rng.random()))
        for i, site in enumerate(config.violation_sites):
            rng = seed_sequence_stream(config.seed, f, STREAM_VIOLATION, i)
            if rng.random() >= site.emit_prob:
                continue
            dx, dy = rng.normal(0.0, site.center_spread_sigma, 2).tolist()
            ground.append((site.x + dx, site.y + dy, slot_w, slot_h, "violation"))
            seen.append((len(ground) - 1, 0.5 + 0.5 * rng.random()))
        image = [project_box_scalar(m, box[:4]) for box in ground]
        timestamp = (datetime(2026, 1, 1, 8) + timedelta(minutes=5 * f)).isoformat()
        frames.append(FrameDetections(f"f{f:06d}", [(*image[v], conf, "car") for v, conf in seen], timestamp))
        occupancy.append(bits)
        vehicles.append([(*box, kind) for box, (*_, kind) in zip(image, ground)])
    slot_boxes = [Box(*project_box_scalar(m, (cx, cy, slot_w, slot_h))) for _, _, cx, cy in slots]
    log = detection_log(frames)
    return log, ground_truth(log.frame_ids, slot_boxes, occupancy, vehicles)


# --- detection logs -------------------------------------------------------------------------

def detection_log(frames):
    """A :class:`DetectionLog` of ``frames``, each a ``FrameDetections`` whose detections are a
    :data:`DETECTION_DTYPE` array or ``(cx, cy, w, h, conf, cls)`` rows; like the simulator's
    log, its boxes are not checked."""
    frames = list(frames)
    arrays = [np.array(frame.detections, DETECTION_DTYPE) for frame in frames]
    return DetectionLog(
        frame_ids=tuple(frame.frame_id for frame in frames),
        timestamps=tuple(frame.timestamp for frame in frames),
        offsets=np.cumsum([0, *map(len, arrays)]),
        detections=np.concatenate([np.empty(0, DETECTION_DTYPE), *arrays]),
    )


_VEHICLE_KEYS = ("cx", "cy", "w", "h", "kind")  # a truth vehicle's row, in column order


def ground_truth(frame_ids, slots, occupancy, vehicles):
    """A :class:`GroundTruth` of ``frame_ids``, ``slots``, and per frame its occupancy bits and
    its vehicles as ``(cx, cy, w, h, kind)`` rows; like the simulator's truth, its boxes are
    not checked."""
    occupancy = [list(map(bool, bits)) for bits in occupancy]
    vehicles = [list(frame) for frame in vehicles]
    rows = [row for frame in vehicles for row in frame]
    return GroundTruth(
        frame_ids=tuple(frame_ids),
        slots=tuple(slots),
        bits=np.array([bit for bits in occupancy for bit in bits], bool),
        bit_offsets=np.cumsum([0, *map(len, occupancy)]),
        vehicle_offsets=np.cumsum([0, *map(len, vehicles)]),
        boxes=np.array([row[:4] for row in rows], float).reshape(-1, 4),
        kinds=np.array([row[4] for row in rows], object),
    )


def vehicle_rows(truth):
    """Each frame's vehicles of ``truth`` as ``[cx, cy, w, h, kind]`` lists."""
    return [[[*box, kind] for box, kind in zip(boxes.tolist(), kinds.tolist())]
            for _, _, boxes, kinds in truth.frames()]


# --- simulator outputs: the json.dumps writers the line formatters replaced, kept as references ---

def serialize_detections_by_dumps(log):
    """A detection log as one string, one ``json.dumps(record, sort_keys=True)`` per frame."""
    lines = []
    for frame in log:
        columns = [frame.detections[name].tolist() for name in DETECTION_DTYPE.names]
        record = {
            "frame": frame.frame_id,
            "dets": [dict(zip(DETECTION_DTYPE.names, row)) for row in zip(*columns)],
        }
        if frame.timestamp is not None:
            record["ts"] = frame.timestamp
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def write_ground_truth_occupancy_by_dumps(stream, truth):
    """Per-frame truth records, one ``json.dumps(record, sort_keys=True)`` per frame."""
    for fid, bits, vehicles in zip(truth.frame_ids, truth.occupancy, vehicle_rows(truth)):
        record = {
            "frame": fid,
            "occupancy": {str(i): bool(b) for i, b in enumerate(bits)},
            "vehicles": [dict(zip(_VEHICLE_KEYS, row)) for row in vehicles],
        }
        stream.write(json.dumps(record, sort_keys=True))
        stream.write("\n")
