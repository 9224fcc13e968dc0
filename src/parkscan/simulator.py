"""Deterministic synthetic parking-lot scenarios for end-to-end verification.

A scenario is a rows x cols grid of slots on the ground plane, observed
through a camera homography.  Per frame, each slot is independently
occupied; occupied slots carry a vehicle whose center and size are jittered
by Gaussian noise in ground units before projection to image pixels.
Passing vehicles appear along a lane, and violation sites emit detections
with a much larger positional spread than parked vehicles.

Randomness contract
-------------------
Every random decision comes from a named substream derived with
``numpy.random.SeedSequence((seed, frame_index, stream, *key))``:

* ``(STREAM_SLOT, row, col)`` per slot per frame, drawn in this order:
  occupancy uniform; if occupied: center noise (2 normals), size noise
  (2 normals), miss uniform, then confidence uniform if emitted;
* ``(STREAM_PASSING,)`` per frame: Poisson count, then per vehicle one
  position uniform and one confidence uniform;
* ``(STREAM_VIOLATION, site_index)`` per site per frame: emission uniform;
  if emitted: offset (2 normals) and confidence uniform.

Keying slot streams by (row, col) means growing the grid or adding sites
never perturbs the draws of existing slots, so regression fixtures stay
stable.  Identical seed and config give byte-identical logs.
"""

import json
import math
from dataclasses import dataclass, fields
from datetime import datetime, timedelta
from typing import IO, Mapping, Sequence, Union

import numpy as np

from .detections import FrameDetections
from .errors import (
    JSON_NUMBER_TYPES, ConfigError, ValidationError, check_keys, json_frame_id, json_lines, json_number,
    note_first_line,
)
from .geometry import Box, Homography, apply_homography_array
from .slots import ParkingSlot, slot_registry_document

VEHICLE_DTYPE = np.dtype([("cx", float), ("cy", float), ("w", float), ("h", float), ("kind", object)])
_BOX_FIELDS = VEHICLE_DTYPE.names[:4]

STREAM_SLOT = 0
STREAM_PASSING = 1
STREAM_VIOLATION = 2

_BASE_TIMESTAMP = datetime(2026, 1, 1, 8, 0, 0)
_SAMPLE_INTERVAL = timedelta(minutes=5)

# Fixed camera presets (ground plane -> image pixels).  The third row's y
# coefficient produces perspective foreshortening: rows farther from the
# camera are compressed, which is exactly the distortion the bird's-eye
# transform must undo.
CAMERA_PRESETS: Mapping[str, tuple[float, ...]] = {
    "identity": (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0),
    "mild-tilt": (1.0, 0.2, 50.0, 0.0, 1.1, 30.0, 0.0, 0.0008, 1.0),
    "strong-tilt": (1.0, 0.45, 80.0, 0.0, 1.6, 60.0, 0.0, 0.0022, 1.0),
}


@dataclass(frozen=True)
class ViolationSite:
    """A spot where vehicles stop illegally, scattered wider than a slot."""

    x: float
    y: float
    center_spread_sigma: float
    emit_prob: float = 0.5

    def __post_init__(self):
        if self.center_spread_sigma < 0:
            raise ValidationError("center_spread_sigma", "sigma must be >= 0")
        if not 0.0 <= self.emit_prob <= 1.0:
            raise ValidationError("emit_prob", "emit_prob must be in [0, 1]")


@dataclass(frozen=True)
class ScenarioConfig:
    rows: int
    cols: int
    slot_pitch: float
    slot_size: tuple[float, float]
    frame_count: int
    occupancy_prob: float
    center_noise_sigma: float = 0.0
    size_noise_sigma: float = 0.0
    miss_prob: float = 0.0
    passing_rate: float = 0.0
    violation_sites: tuple[ViolationSite, ...] = ()
    camera: Union[str, tuple[float, ...]] = "identity"
    seed: int = 0
    lane_y: Union[float, None] = None

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValidationError("rows", "rows and cols must be >= 1")
        if self.frame_count < 1:
            raise ValidationError("frame_count", "frame_count must be >= 1")
        w, h = self.slot_size
        if w <= 0 or h <= 0:
            raise ValidationError("slot_size", "slot dimensions must be > 0")
        if self.slot_pitch <= max(w, h):
            raise ValidationError(
                "slot_pitch", "pitch must exceed both slot dimensions (no overlap)"
            )
        for name in ("occupancy_prob", "miss_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(name, f"{name} must be in [0, 1]")
        for name in ("center_noise_sigma", "size_noise_sigma", "passing_rate"):
            if getattr(self, name) < 0:
                raise ValidationError(name, f"{name} must be >= 0")
        object.__setattr__(self, "slot_size", (float(w), float(h)))
        object.__setattr__(self, "violation_sites", tuple(self.violation_sites))

    @property
    def slot_count(self) -> int:
        return self.rows * self.cols

    def slot_center_ground(self, row: int, col: int) -> tuple[float, float]:
        return ((col + 0.5) * self.slot_pitch, (row + 0.5) * self.slot_pitch)

    @property
    def effective_lane_y(self) -> float:
        # Default lane runs one pitch below the last slot row.
        if self.lane_y is not None:
            return self.lane_y
        return (self.rows + 1.5) * self.slot_pitch


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Slot layout in image coordinates plus per-frame occupancy and vehicles."""

    frame_ids: tuple[str, ...]
    slots: tuple[Box, ...]
    occupancy: tuple[tuple[bool, ...], ...]
    vehicles: tuple[np.ndarray, ...]  # one read-only VEHICLE_DTYPE array per frame

    def vehicles_by_frame(self) -> dict[str, np.ndarray]:
        """Each frame's vehicle boxes as an ``(n, 4)`` array of (cx, cy, w, h) rows."""
        return {fid: np.column_stack([v[k] for k in _BOX_FIELDS])
                for fid, v in zip(self.frame_ids, self.vehicles)}

    def __eq__(self, other):
        if not isinstance(other, GroundTruth):
            return NotImplemented
        return (self.frame_ids, self.slots, self.occupancy, len(self.vehicles)) == (
            other.frame_ids, other.slots, other.occupancy, len(other.vehicles)
        ) and all(map(np.array_equal, self.vehicles, other.vehicles))

    def occupancy_by_frame(self) -> dict[str, tuple[bool, ...]]:
        return dict(zip(self.frame_ids, self.occupancy))


def camera_homography(camera: Union[str, Sequence[float]]) -> Homography:
    if isinstance(camera, str):
        try:
            flat = CAMERA_PRESETS[camera]
        except KeyError:
            raise ConfigError(
                f"unknown camera preset {camera!r}; known: {sorted(CAMERA_PRESETS)}"
            ) from None
        return Homography.from_flat(flat)
    return Homography.from_flat(tuple(camera))


def _stream(seed: int, frame_index: int, stream: int, *key: int) -> np.random.Generator:
    entropy = (seed & 0xFFFFFFFFFFFFFFFF, frame_index, stream, *key)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _check_boxes(boxes: np.ndarray) -> None:
    """Finite and positive-size checks as masks over an ``(n, 4)`` box array; the first
    bad row is re-raised through :class:`Box`, which names its first bad field."""
    ok = np.isfinite(boxes).all(axis=1) & (boxes[:, 2:] > 0).all(axis=1)
    if not ok.all():
        Box(*boxes[np.argmin(ok)].tolist())  # raises


def _project_boxes(cam: Homography, ground: np.ndarray) -> np.ndarray:
    """Project an ``(n, 4)`` array of ground boxes (cx, cy, w, h) to image pixels.

    Centers map exactly; width and height are the distances between the
    projected midpoints of each box's opposite edges, which keeps sizes
    positive and reflects the local perspective scale.  All five points of
    every box go through one mapping call.  Ground and image boxes both pass
    :func:`_check_boxes`.
    """
    _check_boxes(ground)
    cx, cy, w, h = ground.T
    points = np.column_stack((np.concatenate((cx, cx - w / 2.0, cx + w / 2.0, cx, cx)),
                              np.concatenate((cy, cy, cy, cy - h / 2.0, cy + h / 2.0))))
    center, left, right, top, bottom = np.split(apply_homography_array(cam, points), 5)
    widths = [math.hypot(dx, dy) for dx, dy in (right - left).tolist()]
    heights = [math.hypot(dx, dy) for dx, dy in (bottom - top).tolist()]
    image = np.column_stack((center, widths, heights))
    _check_boxes(image)
    return image


def _noisy_size(nominal: float, rng_delta: float, floor_fraction: float = 0.2) -> float:
    # Sizes stay positive; the clamp never binds for realistic sigmas.
    return max(nominal + rng_delta, floor_fraction * nominal)


def generate_scenario(config: ScenarioConfig) -> tuple[list[FrameDetections], GroundTruth]:
    cam = camera_homography(config.camera)
    slot_w, slot_h = config.slot_size

    slot_ground = [(*config.slot_center_ground(row, col), slot_w, slot_h)
                   for row in range(config.rows) for col in range(config.cols)]
    slot_boxes_image = [Box(*box) for box in _project_boxes(cam, np.array(slot_ground)).tolist()]

    lane_y = config.effective_lane_y
    lane_x_max = config.cols * config.slot_pitch

    frame_ids = []
    frames = []
    occupancy = []
    vehicles_all = []
    for f in range(config.frame_count):
        frame_id = f"f{f:06d}"
        ts = (_BASE_TIMESTAMP + f * _SAMPLE_INTERVAL).isoformat()
        ground: list[tuple[float, float, float, float]] = []  # each vehicle's ground box, in draw order
        kinds: list[str] = []
        emitted: list[tuple[int, float]] = []  # (vehicle index, confidence) of each detection
        bits = []

        for row in range(config.rows):
            for col in range(config.cols):
                rng = _stream(config.seed, f, STREAM_SLOT, row, col)
                occupied = rng.random() < config.occupancy_prob
                bits.append(occupied)
                if not occupied:
                    continue
                dx, dy = rng.normal(0.0, config.center_noise_sigma, 2)
                dw, dh = rng.normal(0.0, config.size_noise_sigma, 2)
                cx, cy = config.slot_center_ground(row, col)
                ground.append((cx + dx, cy + dy, _noisy_size(slot_w, dw), _noisy_size(slot_h, dh)))
                kinds.append("parked")
                missed = rng.random() < config.miss_prob
                if missed:
                    continue
                emitted.append((len(ground) - 1, 0.5 + 0.5 * rng.random()))

        rng_pass = _stream(config.seed, f, STREAM_PASSING)
        for _ in range(rng_pass.poisson(config.passing_rate)):
            x = rng_pass.uniform(0.0, lane_x_max)
            ground.append((x, lane_y, slot_w, slot_h))
            kinds.append("passing")
            emitted.append((len(ground) - 1, 0.5 + 0.5 * rng_pass.random()))

        for site_idx, site in enumerate(config.violation_sites):
            rng_v = _stream(config.seed, f, STREAM_VIOLATION, site_idx)
            if rng_v.random() >= site.emit_prob:
                continue
            dx, dy = rng_v.normal(0.0, site.center_spread_sigma, 2)
            ground.append((site.x + dx, site.y + dy, slot_w, slot_h))
            kinds.append("violation")
            emitted.append((len(ground) - 1, 0.5 + 0.5 * rng_v.random()))

        boxes = _project_boxes(cam, np.array(ground, dtype=float).reshape(-1, 4)).tolist()
        frame_ids.append(frame_id)
        rows = [(*boxes[i], conf, "car") for i, conf in emitted]
        frames.append(FrameDetections(frame_id=frame_id, detections=rows, timestamp=ts))
        occupancy.append(tuple(bits))
        vehicles_all.append(np.array([(*box, kind) for box, kind in zip(boxes, kinds)], VEHICLE_DTYPE))
        vehicles_all[-1].setflags(write=False)

    truth = GroundTruth(
        frame_ids=tuple(frame_ids),
        slots=tuple(slot_boxes_image),
        occupancy=tuple(occupancy),
        vehicles=tuple(vehicles_all),
    )
    return frames, truth


# --- ground truth files ---------------------------------------------------

def write_ground_truth_slots(stream: IO[str], truth: GroundTruth) -> None:
    """Slot layout in the slot-registry schema (spread 0, members = frames occupied)."""
    slots = [
        ParkingSlot(slot_id=i, area=box, spread=0.0, members=sum(bits[i] for bits in truth.occupancy))
        for i, box in enumerate(truth.slots)
    ]
    json.dump(slot_registry_document(slots, {"source": "simulator-ground-truth"}),
              stream, sort_keys=True, indent=2)
    stream.write("\n")


def write_ground_truth_occupancy(stream: IO[str], truth: GroundTruth) -> None:
    """Per-frame record: occupancy bits keyed by slot id plus true vehicle boxes."""
    for fid, bits, vehicles in zip(truth.frame_ids, truth.occupancy, truth.vehicles):
        record = {
            "frame": fid,
            "occupancy": {str(i): bool(b) for i, b in enumerate(bits)},
            "vehicles": [dict(zip(VEHICLE_DTYPE.names, row)) for row in vehicles.tolist()],
        }
        stream.write(json.dumps(record, sort_keys=True))
        stream.write("\n")


def _vehicle_array(entries: list) -> np.ndarray:
    """A truth line's vehicles as one read-only :data:`VEHICLE_DTYPE` array: a type test
    per value, then the finite and positive-size checks as masks over the line."""
    rows = []
    for v in entries:
        row = (v["cx"], v["cy"], v["w"], v["h"], v["kind"])
        if not (JSON_NUMBER_TYPES.issuperset(map(type, row[:4])) and type(row[4]) is str):
            for value, name in zip(row, _BOX_FIELDS):
                json_number(value, name)
            raise TypeError(f"kind must be a string, got {row[4]!r}")
        rows.append(row)
    vehicles = np.array(rows, VEHICLE_DTYPE)
    _check_boxes(np.column_stack([vehicles[k] for k in _BOX_FIELDS]))
    vehicles.setflags(write=False)
    return vehicles


def read_ground_truth_occupancy(occupancy_stream: IO[str]) -> GroundTruth:
    """Ground truth from the per-frame occupancy file alone (empty slot layout).

    A frame id given twice is rejected, naming both lines.
    """
    first_line = {}  # frame id -> line number, in file order
    occupancy = []
    vehicles = []
    for line_no, record in json_lines(occupancy_stream, "occupancy"):
        try:
            frame_id = json_frame_id(record["frame"])
            bits = record["occupancy"]
            frame_bits = tuple(bits[str(i)] for i in range(len(bits)))
            if not all(isinstance(bit, bool) for bit in frame_bits):
                raise TypeError("occupancy bits must be true or false")
            frame_vehicles = _vehicle_array(record["vehicles"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError("occupancy", f"line {line_no}: bad record ({exc})") from exc
        note_first_line(first_line, frame_id, line_no, "occupancy")
        occupancy.append(frame_bits)
        vehicles.append(frame_vehicles)
    return GroundTruth(
        frame_ids=tuple(first_line),
        slots=(),
        occupancy=tuple(occupancy),
        vehicles=tuple(vehicles),
    )


# --- scenario config file ---------------------------------------------------

def scenario_from_document(doc: Mapping) -> ScenarioConfig:
    """Build a ScenarioConfig from its JSON document (field names mirror the class)."""
    check_keys(doc, {f.name for f in fields(ScenarioConfig)}, "scenario config")
    try:
        sites = []
        for i, s in enumerate(doc.get("violation_sites", [])):
            check_keys(s, {f.name for f in fields(ViolationSite)}, f"scenario violation_sites entry {i}")
            sites.append(ViolationSite(**{k: float(v) for k, v in s.items()}))
        camera = doc.get("camera", "identity")
        if isinstance(camera, Mapping):
            camera = tuple(float(v) for v in camera["matrix"])
        elif not isinstance(camera, str):
            camera = tuple(float(v) for v in camera)
        return ScenarioConfig(
            rows=int(doc["rows"]),
            cols=int(doc["cols"]),
            slot_pitch=float(doc["slot_pitch"]),
            slot_size=(float(doc["slot_size"][0]), float(doc["slot_size"][1])),
            frame_count=int(doc["frame_count"]),
            occupancy_prob=float(doc["occupancy_prob"]),
            center_noise_sigma=float(doc.get("center_noise_sigma", 0.0)),
            size_noise_sigma=float(doc.get("size_noise_sigma", 0.0)),
            miss_prob=float(doc.get("miss_prob", 0.0)),
            passing_rate=float(doc.get("passing_rate", 0.0)),
            violation_sites=sites,
            camera=camera,
            seed=int(doc.get("seed", 0)),
            lane_y=None if doc.get("lane_y") is None else float(doc["lane_y"]),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise ConfigError(f"invalid scenario config: {exc}") from exc
        raise ConfigError(f"bad or missing scenario field: {exc}") from exc
