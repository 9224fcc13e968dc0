"""Independent oracles shared by module and acceptance tests.

Everything here recomputes results from first principles (O(n^2) scans,
union-find, pair counting) so the implementations under test are checked
against a second, unrelated route.
"""

import json
import math

import numpy as np

from parkscan.detections import DETECTION_DTYPE, DetectionLog
from parkscan.errors import ValidationError
from parkscan.occupancy import FrameReport, OccupancyRecord, OccupancyStatus
from parkscan.simulator import VEHICLE_DTYPE, GroundTruth

# --- edge cases for the JSON writer tests ---

# Characters JSON escapes differently from plain text: quotes, backslashes, control
# characters, non-ASCII (BMP and astral) and the line separators U+2028/U+2029.
AWKWARD_CHARS = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "漢", "\u2028", "\u2029",
                 "\U0001f697", "a", " ", "'"]
# Floats whose shortest repr is easy to get wrong: signed zero, the smallest subnormal,
# exponent notation, a rounding sum and integral values.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e16, -1e16, 0.1 + 0.2, 1.0, 3.0, 2.0**53 + 2, 1e300, 123456789.0]


def brute_force_core_partition(points, eps, min_points):
    """Core flags and the partition of core points into eps-components.

    Connected components are computed with union-find over all core pairs
    within eps; returns (core_mask, frozenset of frozensets of core indices).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = pts.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool), frozenset()
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    within = d2 <= eps * eps
    core = within.sum(axis=1) >= min_points

    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    core_idx = np.flatnonzero(core)
    for i in core_idx:
        for j in core_idx:
            if j > i and within[i, j]:
                parent[find(int(i))] = find(int(j))

    groups = {}
    for i in core_idx:
        groups.setdefault(find(int(i)), set()).add(int(i))
    return core, frozenset(frozenset(g) for g in groups.values())


def dbscan_by_scan(points, eps, min_points):
    """Labels and cluster count from the full distance matrix, with no grid.

    Applies the clustering module's two rules directly: clusters are numbered
    in the lexicographic (x, y, index) order of their first core point, and a
    border point takes the label of the lex-first core point within eps.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    n = pts.shape[0]
    core, partition = brute_force_core_partition(pts, eps, min_points)
    lex_rank = np.empty(n, dtype=np.int64)
    lex_rank[np.lexsort((np.arange(n), pts[:, 1], pts[:, 0]))] = np.arange(n)
    labels = np.full(n, -1, dtype=np.int64)
    for cid, group in enumerate(sorted(partition, key=lambda g: min(lex_rank[i] for i in g))):
        labels[list(group)] = cid
    within = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2) <= eps * eps
    for i in np.flatnonzero(~core):
        reaching = np.flatnonzero(within[i] & core)
        if reaching.size:
            labels[i] = labels[reaching[np.argmin(lex_rank[reaching])]]
    return labels, len(partition)


def core_partition_from_labels(labels, core_mask):
    """Partition of core points implied by a label array."""
    groups = {}
    for i, is_core in enumerate(core_mask):
        if is_core:
            groups.setdefault(int(labels[i]), set()).add(i)
    return frozenset(frozenset(g) for g in groups.values())


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


def ground_truth(frame_ids, slots, occupancy, vehicles):
    """A :class:`GroundTruth` of ``frame_ids``, ``slots``, and per frame its occupancy bits and
    its vehicles, a :data:`VEHICLE_DTYPE` array or ``(cx, cy, w, h, kind)`` rows; like the
    simulator's truth, its boxes are not checked."""
    occupancy = [list(map(bool, bits)) for bits in occupancy]
    arrays = [np.array(frame, VEHICLE_DTYPE) for frame in vehicles]
    return GroundTruth(
        frame_ids=tuple(frame_ids),
        slots=tuple(slots),
        bits=np.array([bit for bits in occupancy for bit in bits], bool),
        bit_offsets=np.cumsum([0, *map(len, occupancy)]),
        vehicle_offsets=np.cumsum([0, *map(len, arrays)]),
        vehicle_rows=np.concatenate([np.empty(0, VEHICLE_DTYPE), *arrays]),
    )


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
    for fid, bits, vehicles in zip(truth.frame_ids, truth.occupancy, truth.vehicles):
        record = {
            "frame": fid,
            "occupancy": {str(i): bool(b) for i, b in enumerate(bits)},
            "vehicles": [dict(zip(VEHICLE_DTYPE.names, row)) for row in vehicles.tolist()],
        }
        stream.write(json.dumps(record, sort_keys=True))
        stream.write("\n")
