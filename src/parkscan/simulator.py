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

``SeedSequence`` still defines every substream, but none is built: the
PCG64 state it would seed is computed with integer array arithmetic for a
block of frames at a time, and one re-seeded ``Generator`` draws from each
state in turn.  Tests hold the derived states equal to numpy's.  The
derivation takes each entropy element after the seed as one 32-bit word,
which is why ``rows``, ``cols`` and ``frame_count`` stay below 2**32.

Frames are generated per substream block too: after a block's draws, its
boxes are projected in one call into one vehicle and one detection array;
the truth joins the first and the log the second.  The block size changes no
output byte.
"""

import json
import math
from array import array
from dataclasses import dataclass, fields
from datetime import datetime, timedelta
from itertools import accumulate, pairwise
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import IO, Iterator, Mapping, Sequence, Union

import numpy as np

from .detections import DETECTION_DTYPE, DetectionLog
from .errors import (
    JSON_NUMBER_TYPES, ConfigError, ValidationError, check_keys, extend_columns, json_frame_id, json_lines,
    json_number, note_first_line,
)
from .geometry import Box, Homography, apply_homography_array
from .slots import ParkingSlot, slot_registry_document

VEHICLE_DTYPE = np.dtype([("cx", float), ("cy", float), ("w", float), ("h", float), ("kind", object)])
_BOX_FIELDS = VEHICLE_DTYPE.names[:4]
_VEHICLE_ROW = itemgetter(*VEHICLE_DTYPE.names)  # a truth vehicle object's values, in row order

STREAM_SLOT = 0
STREAM_PASSING = 1
STREAM_VIOLATION = 2
# numpy's Generator.poisson rejects a larger mean ("lam value too large").
_POISSON_LAM_MAX = (2**63 - 1) - 10 * math.sqrt(2**63 - 1)

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

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValidationError("rows", "rows and cols must be >= 1")
        if self.frame_count < 1:
            raise ValidationError("frame_count", "frame_count must be >= 1")
        for name in ("rows", "cols", "frame_count"):  # one 32-bit entropy word each
            if getattr(self, name) >= 1 << 32:
                raise ValidationError(name, f"{name} must be below 2**32")
        if len(self.slot_size) != 2:
            raise ValidationError("slot_size", f"slot_size must have two entries, got {len(self.slot_size)}")
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
        if self.passing_rate > _POISSON_LAM_MAX:
            raise ValidationError("passing_rate", f"passing_rate must be at most {_POISSON_LAM_MAX!r}")
        lane_fit = self.cols * self.slot_pitch / w  # slot-width vehicles end to end on the lane
        if self.passing_rate > lane_fit:
            raise ValidationError("passing_rate", f"passing_rate must be at most {lane_fit!r}, the "
                                  "slot-width vehicles that fit on the lane")
        object.__setattr__(self, "slot_size", (float(w), float(h)))
        object.__setattr__(self, "violation_sites", tuple(self.violation_sites))

    @property
    def slot_count(self) -> int:
        return self.rows * self.cols

    def slot_center_ground(self, row: int, col: int) -> tuple[float, float]:
        return ((col + 0.5) * self.slot_pitch, (row + 0.5) * self.slot_pitch)


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Slot layout in image coordinates, and per frame its occupancy bits and true vehicles as
    columns: frame ``i`` has the next ``bit_counts[i]`` of ``bits`` (by slot id), and row ``j`` of
    ``vehicle_rows`` (one read-only :data:`VEHICLE_DTYPE` array in frame order) is in frame
    ``frame_index[j]``. ``occupancy`` and ``vehicles`` give them per frame, derived on demand."""

    frame_ids: tuple[str, ...]
    slots: tuple[Box, ...]
    bits: np.ndarray
    bit_counts: np.ndarray
    frame_index: np.ndarray
    vehicle_rows: np.ndarray

    def __post_init__(self):
        for column in (self.bits, self.bit_counts, self.frame_index, self.vehicle_rows):
            column.setflags(write=False)

    def frames(self) -> Iterator[tuple[str, np.ndarray, np.ndarray]]:
        """Each frame's id, occupancy bits and rows of ``vehicle_rows``, found as it is reached."""
        bit_bounds = pairwise(accumulate(self.bit_counts, initial=0))
        vehicle_bounds = pairwise(map(self.frame_index.searchsorted, range(len(self.frame_ids) + 1)))
        for fid, (b0, b1), (v0, v1) in zip(self.frame_ids, bit_bounds, vehicle_bounds):
            yield fid, self.bits[b0:b1], self.vehicle_rows[v0:v1]

    @property
    def occupancy(self) -> tuple[tuple[bool, ...], ...]:
        return tuple(tuple(bits.tolist()) for _, bits, _ in self.frames())

    @property
    def vehicles(self) -> tuple[np.ndarray, ...]:
        return tuple(vehicles for _, _, vehicles in self.frames())

    def boxes(self) -> np.ndarray:
        """Every vehicle box as an ``(n, 4)`` array of (cx, cy, w, h) rows, in row order."""
        return np.column_stack([self.vehicle_rows[k] for k in _BOX_FIELDS])

    def vehicles_by_frame(self) -> dict[str, np.ndarray]:
        """Each frame's vehicle boxes as an ``(n, 4)`` array of (cx, cy, w, h) rows."""
        return {fid: np.column_stack([v[k] for k in _BOX_FIELDS]) for fid, _, v in self.frames()}

    def __eq__(self, other):
        if not isinstance(other, GroundTruth):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

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


# SeedSequence's entropy hash and generate_state(4, np.uint64), then PCG64's
# seeding step, as fixed-width integer arithmetic (numpy.random's
# bit_generator and pcg64 modules; O'Neill, "PCG", 2014).  hashmix's running
# constant depends only on how many calls came before, never on the data.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_HASHMIX_INIT, _HASHMIX_MULT = 0x43B0D7E5, 0x931E8875
_MIX_LEFT, _MIX_RIGHT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_STATE_INIT, _STATE_MULT = 0x8B51F9DD, 0x58F38DED
_PCG64_MULT = 2549297995355413924 << 64 | 4865540595714422341
_POOL_SIZE = 4
_BLOCK_STREAMS = 1 << 14  # substreams derived per block of frames; bounds the block's memory


def _seed_words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, one word ``0`` for zero."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _mix_entropy(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` for each row of an
    ``(n, L)`` uint32 array of entropy words, as an ``(n, 4)`` uint64 array."""
    n, length = entropy.shape
    h = _HASHMIX_INIT

    def hashmix(v):
        nonlocal h
        v = v ^ np.uint32(h)
        h = h * _HASHMIX_MULT & _MASK32
        v = v * np.uint32(h)
        return v ^ (v >> np.uint32(16))

    def mix(x, y):
        r = _MIX_LEFT * x - _MIX_RIGHT * y
        return r ^ (r >> np.uint32(16))

    with np.errstate(over="ignore"):
        pool = [hashmix(entropy[:, i] if i < length else np.zeros(n, np.uint32))
                for i in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for i in range(_POOL_SIZE, length):
            for dst in range(_POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(entropy[:, i]))
        h = _STATE_INIT
        state = np.empty((n, _POOL_SIZE), np.uint64)
        for i in range(2 * _POOL_SIZE):
            v = pool[i % _POOL_SIZE] ^ np.uint32(h)
            h = h * _STATE_MULT & _MASK32
            v = v * np.uint32(h)
            v ^= v >> np.uint32(16)
            if i % 2:
                state[:, i // 2] |= v.astype(np.uint64) << np.uint64(32)
            else:
                state[:, i // 2] = v
    return state


def _substream_words(seed: int, frames: range, stream: int, keys: np.ndarray) -> np.ndarray:
    """The generate_state words of ``SeedSequence((seed mod 2**64, f, stream, *key))`` for
    each frame ``f`` in ``frames`` and each row ``key`` of the ``(k, m)`` array ``keys``,
    as an ``(len(frames), k, 4)`` uint64 array.  Frames and keys are below 2**32."""
    words = _seed_words(seed & 0xFFFFFFFFFFFFFFFF)
    s = len(words)
    (k, m), n_frames = keys.shape, len(frames)
    entropy = np.empty((n_frames, k, s + 2 + m), np.uint32)
    entropy[..., :s] = words
    entropy[..., s] = np.arange(frames.start, frames.stop, dtype=np.uint32)[:, None]
    entropy[..., s + 1] = stream
    entropy[..., s + 2:] = keys
    return _mix_entropy(entropy.reshape(n_frames * k, s + 2 + m)).reshape(n_frames, k, 4)


def _seed_pcg64(bitgen: np.random.PCG64, words: Sequence[int]) -> None:
    """Put ``bitgen`` in the state ``PCG64(seed_seq)`` starts from, given the four
    generate_state words of ``seed_seq``: ``pcg64_set_seed``, mod 2**128."""
    state_hi, state_lo, inc_hi, inc_lo = words
    inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
    state = ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}


def _frame_substreams(config: ScenarioConfig) -> Iterator[Iterator[tuple[list, list, list]]]:
    """Each block of frames (about :data:`_BLOCK_STREAMS` substreams, which bounds memory by
    the block) as an iterator over its frames' generate_state words, as Python ints: slot
    substreams (grid order), the one passing substream and violation substreams (site order)."""
    slot_keys = np.array([(row, col) for row in range(config.rows) for col in range(config.cols)],
                         dtype=np.uint32)
    keys = ((STREAM_SLOT, slot_keys), (STREAM_PASSING, np.empty((1, 0), np.uint32)),
            (STREAM_VIOLATION, np.arange(len(config.violation_sites), dtype=np.uint32)[:, None]))
    step = max(1, _BLOCK_STREAMS // sum(len(k) for _, k in keys))
    for start in range(0, config.frame_count, step):
        frames = range(start, min(start + step, config.frame_count))
        yield zip(*(_substream_words(config.seed, frames, stream, k).tolist() for stream, k in keys))


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


def _block_arrays(cam: Homography, ground: list, kinds: list, emitted: list,
                  frame_ends: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """A block's vehicles as one :data:`VEHICLE_DTYPE` array and its detections
    (``emitted``: vehicle index, confidence) as one :data:`DETECTION_DTYPE` array, from one
    projection.  A bad box is named as frame-by-frame projection names it, using each
    frame's vehicle end offset in ``frame_ends``: first faulty frame, ground before image."""
    ground = np.array(ground, dtype=float).reshape(-1, 4)
    try:
        image = _project_boxes(cam, ground)
    except ValueError:
        for frame_ground in np.split(ground, frame_ends[:-1]):
            _project_boxes(cam, frame_ground)
        raise
    seen, confs = np.array(emitted, dtype=float).reshape(-1, 2).T
    vehicles = np.zeros(len(image), VEHICLE_DTYPE)  # np.empty fills object fields slowly
    dets = np.zeros(len(emitted), DETECTION_DTYPE)
    for name, column, det_column in zip(_BOX_FIELDS, image.T, image[seen.astype(np.intp)].T):
        vehicles[name] = column
        dets[name] = det_column
    vehicles["kind"] = np.array(kinds, dtype=object)
    dets["conf"] = confs
    dets["cls"] = "car"
    return vehicles, dets


def generate_scenario(config: ScenarioConfig) -> tuple[DetectionLog, GroundTruth]:
    cam = camera_homography(config.camera)
    slot_w, slot_h = config.slot_size
    w_floor, h_floor = 0.2 * slot_w, 0.2 * slot_h  # noisy sizes stay positive; binds only for huge sigmas

    slot_centers = [config.slot_center_ground(row, col)
                    for row in range(config.rows) for col in range(config.cols)]
    slot_ground = np.array([(cx, cy, slot_w, slot_h) for cx, cy in slot_centers])
    slot_boxes_image = [Box(*box) for box in _project_boxes(cam, slot_ground).tolist()]

    lane_y = (config.rows + 1.5) * config.slot_pitch  # one pitch below the last slot row
    lane_x_max = config.cols * config.slot_pitch

    bitgen = np.random.PCG64(0)  # re-seeded for every substream; one Generator draws from it
    rng = np.random.Generator(bitgen)

    bits = []  # every frame's occupancy bits, end to end
    vehicles_all, dets_all = [], []  # each block's vehicles and detections
    counts = []  # each block's frames' vehicle and detection counts
    for block in _frame_substreams(config):
        ground: list[tuple[float, float, float, float]] = []  # each vehicle's ground box, in draw order
        kinds: list[str] = []
        emitted: list[tuple[int, float]] = []  # (vehicle index, confidence) of each detection
        ends: list[tuple[int, int]] = []  # each frame's vehicle and detection end offsets
        for slot_words, (passing_words,), site_words in block:
            for (cx, cy), words in zip(slot_centers, slot_words):
                _seed_pcg64(bitgen, words)
                occupied = rng.random() < config.occupancy_prob
                bits.append(occupied)
                if not occupied:
                    continue
                dx, dy = rng.normal(0.0, config.center_noise_sigma, 2).tolist()
                dw, dh = rng.normal(0.0, config.size_noise_sigma, 2).tolist()
                ground.append((cx + dx, cy + dy, max(slot_w + dw, w_floor), max(slot_h + dh, h_floor)))
                kinds.append("parked")
                if rng.random() < config.miss_prob:
                    continue
                emitted.append((len(ground) - 1, 0.5 + 0.5 * rng.random()))

            _seed_pcg64(bitgen, passing_words)
            for _ in range(rng.poisson(config.passing_rate)):
                x = rng.uniform(0.0, lane_x_max)
                ground.append((x, lane_y, slot_w, slot_h))
                kinds.append("passing")
                emitted.append((len(ground) - 1, 0.5 + 0.5 * rng.random()))

            for site, words in zip(config.violation_sites, site_words):
                _seed_pcg64(bitgen, words)
                if rng.random() >= site.emit_prob:
                    continue
                dx, dy = rng.normal(0.0, site.center_spread_sigma, 2).tolist()
                ground.append((site.x + dx, site.y + dy, slot_w, slot_h))
                kinds.append("violation")
                emitted.append((len(ground) - 1, 0.5 + 0.5 * rng.random()))

            ends.append((len(ground), len(emitted)))

        vehicles, dets = _block_arrays(cam, ground, kinds, emitted, [v for v, _ in ends])
        vehicles_all.append(vehicles)
        dets_all.append(dets)
        counts.append(np.diff(ends, axis=0, prepend=0))

    frames = range(config.frame_count)
    vehicle_counts, det_counts = np.concatenate(counts).T
    log = DetectionLog(
        frame_ids=tuple(f"f{f:06d}" for f in frames),
        timestamps=tuple((_BASE_TIMESTAMP + f * _SAMPLE_INTERVAL).isoformat() for f in frames),
        frame_index=np.repeat(frames, det_counts),
        detections=np.concatenate(dets_all),
    )
    truth = GroundTruth(
        frame_ids=log.frame_ids,
        slots=tuple(slot_boxes_image),
        bits=np.array(bits, bool),
        bit_counts=np.full(config.frame_count, config.slot_count),
        frame_index=np.repeat(frames, vehicle_counts),
        vehicle_rows=np.concatenate(vehicles_all),
    )
    return log, truth


# --- ground truth files ---------------------------------------------------

def write_ground_truth_slots(stream: IO[str], truth: GroundTruth) -> None:
    """Slot layout in the slot-registry schema (spread 0, members = frames occupied)."""
    starts = np.cumsum(truth.bit_counts) - truth.bit_counts
    slot_of_bit = np.arange(len(truth.bits)) - np.repeat(starts, truth.bit_counts)
    members = np.bincount(slot_of_bit[truth.bits], minlength=len(truth.slots)).tolist()
    slots = [ParkingSlot(slot_id=i, area=box, spread=0.0, members=members[i])
             for i, box in enumerate(truth.slots)]
    json.dump(slot_registry_document(slots, {"source": "simulator-ground-truth"}),
              stream, sort_keys=True, indent=2)
    stream.write("\n")


def write_ground_truth_occupancy(stream: IO[str], truth: GroundTruth) -> None:
    """Per-frame record: occupancy bits keyed by slot id plus true vehicle boxes, with the
    bytes ``json.dumps(record, sort_keys=True)`` gives (built as ``write_detections`` does)."""
    bit_formats = {}  # bit count -> '"0": {0}, "1": {1}, "10": {10}, ...', keys in string order
    for fid, bits, vehicles in truth.frames():
        if len(bits) not in bit_formats:
            bit_formats[len(bits)] = ", ".join(f'"{i}": {{{i}}}' for i in sorted(range(len(bits)), key=str))
        occupancy = bit_formats[len(bits)].format(*["true" if bit else "false" for bit in bits.tolist()])
        boxes = ", ".join([f'{{"cx": {cx!r}, "cy": {cy!r}, "h": {h!r}, '
                           f'"kind": {encode_basestring_ascii(kind)}, "w": {w!r}}}'
                           for cx, cy, w, h, kind in vehicles.tolist()])
        stream.write(f'{{"frame": {encode_basestring_ascii(fid)}, "occupancy": {{{occupancy}}}, '
                     f'"vehicles": [{boxes}]}}\n')


def _vehicle_fault(entries) -> None:
    """Name a truth line's first bad vehicle's first bad field, or after every type fault, the
    first integer too large for a float."""
    for row in map(_VEHICLE_ROW, entries):
        if not (JSON_NUMBER_TYPES.issuperset(map(type, row[:4])) and type(row[4]) is str):
            for value, name in zip(row, _BOX_FIELDS):
                json_number(value, name)
            raise TypeError(f"kind must be a string, got {row[4]!r}")
    for row in map(_VEHICLE_ROW, entries):
        for value, name in zip(row, _BOX_FIELDS):
            json_number(value, name)


def read_ground_truth_occupancy(occupancy_stream: IO[str]) -> GroundTruth:
    """Ground truth from the per-frame occupancy file alone (empty slot layout).

    Each line's values are type-tested as it is read and appended to columns; then the
    vehicles go into one read-only array, whose boxes are checked for finite, positive
    sizes at once. A bad box is named with its line, and a frame id given twice is
    rejected, naming both lines.
    """
    first_line = {}  # frame id -> line number, in file order
    bits, bit_counts, counts = [], [], []
    columns = [array("d") for _ in _BOX_FIELDS] + [[]]
    bit_keys = {}  # bit count -> the keys "0", "1", ... of the occupancy object
    for line_no, record in json_lines(occupancy_stream, "occupancy"):
        try:
            frame_id = json_frame_id(record["frame"])
            by_slot = record["occupancy"]
            n = len(by_slot)
            keys = bit_keys.get(n) or bit_keys.setdefault(n, list(map(str, range(n))))
            frame_bits = tuple(map(by_slot.__getitem__, keys))
            if not {bool}.issuperset(map(type, frame_bits)):
                raise TypeError("occupancy bits must be true or false")
            if not extend_columns(columns, record["vehicles"], _VEHICLE_ROW):
                _vehicle_fault(record["vehicles"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError("occupancy", f"line {line_no}: bad record ({exc})") from exc
        note_first_line(first_line, frame_id, line_no, "occupancy")
        bits.extend(frame_bits)
        bit_counts.append(len(frame_bits))
        counts.append(len(record["vehicles"]))
    vehicles = np.zeros(sum(counts), VEHICLE_DTYPE)  # np.empty fills object fields slowly
    for name, column in zip(VEHICLE_DTYPE.names, columns):
        vehicles[name] = column
    truth = GroundTruth(tuple(first_line), (), np.array(bits, bool), np.array(bit_counts, np.intp),
                        np.repeat(np.arange(len(counts)), counts), vehicles)
    boxes = truth.boxes()
    try:
        _check_boxes(boxes)
    except ValidationError:
        for line_no, hi, n in zip(first_line.values(), np.cumsum(counts).tolist(), counts):
            try:  # name the first bad line
                _check_boxes(boxes[hi - n:hi])
            except ValidationError as exc:
                raise ValidationError("occupancy", f"line {line_no}: bad record ({exc})") from exc
        raise
    return truth


# --- scenario config file ---------------------------------------------------

def _finite(value, key: str) -> float:
    """``value`` as a float if it is a finite JSON number; else an error naming ``key``."""
    value = json_number(value, key)
    if not math.isfinite(value):
        raise ValidationError(key, f"{key} must be finite, got {value!r}")
    return value


def _finite_list(value, key: str) -> tuple[float, ...]:
    """``value`` as floats if it is a JSON array of finite numbers; else an error naming ``key``."""
    if not isinstance(value, list):
        raise ValidationError(key, f"{key} must be a list of numbers, got {value!r}")
    return tuple(_finite(v, key) for v in value)


def scenario_from_document(doc: Mapping) -> ScenarioConfig:
    """Build a ScenarioConfig from its JSON document (field names mirror the class).

    Nothing is coerced: counts and the seed must be JSON integers, every other
    number a finite JSON number, and a bool is neither.
    """
    check_keys(doc, {f.name for f in fields(ScenarioConfig)}, "scenario config")
    try:
        sites = []
        for i, s in enumerate(doc.get("violation_sites", [])):
            check_keys(s, {f.name for f in fields(ViolationSite)}, f"scenario violation_sites entry {i}")
            sites.append(ViolationSite(**{k: _finite(v, f"violation_sites entry {i} {k}")
                                          for k, v in s.items()}))
        camera = doc.get("camera", "identity")
        if isinstance(camera, Mapping):
            check_keys(camera, {"matrix"}, "scenario camera")
            camera = camera["matrix"]
        if not isinstance(camera, str):
            camera = _finite_list(camera, "camera")
        return ScenarioConfig(
            rows=json_number(doc["rows"], "rows", int),
            cols=json_number(doc["cols"], "cols", int),
            slot_pitch=_finite(doc["slot_pitch"], "slot_pitch"),
            slot_size=_finite_list(doc["slot_size"], "slot_size"),
            frame_count=json_number(doc["frame_count"], "frame_count", int),
            occupancy_prob=_finite(doc["occupancy_prob"], "occupancy_prob"),
            center_noise_sigma=_finite(doc.get("center_noise_sigma", 0.0), "center_noise_sigma"),
            size_noise_sigma=_finite(doc.get("size_noise_sigma", 0.0), "size_noise_sigma"),
            miss_prob=_finite(doc.get("miss_prob", 0.0), "miss_prob"),
            passing_rate=_finite(doc.get("passing_rate", 0.0), "passing_rate"),
            violation_sites=sites,
            camera=camera,
            seed=json_number(doc.get("seed", 0), "seed", int),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise ConfigError(f"invalid scenario config: {exc}") from exc
        raise ConfigError(f"bad or missing scenario field: {exc}") from exc
