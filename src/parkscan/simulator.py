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
PCG64 state it would seed, and that state's first ``random()`` draw, are
computed with integer array arithmetic for a block of frames at a time.  That
draw is every slot's occupancy uniform and every site's emission uniform, so
a vacant slot or a silent site never reaches a ``Generator``.  One re-seeded
``Generator`` draws the rest, in turn, only for the substreams that draw
more: occupied slots and emitting sites (picked up after their first draw)
and the passing stream (from its seeded state).  Tests hold the derived
states and draws equal to numpy's.  The derivation takes each entropy
element after the seed as one 32-bit word, which is why ``rows``, ``cols``
and ``frame_count`` stay below 2**32.

Frames are generated per substream block too: after a block's draws, its
boxes are projected in one call into one ``(n, 4)`` box and one detection
array; the truth joins the first and the log the second.  The block size
changes no output byte.
"""

import json
import math
from array import array
from dataclasses import dataclass, fields
from datetime import datetime, timedelta
from itertools import pairwise
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

_BOX_FIELDS = ("cx", "cy", "w", "h")
_VEHICLE_ROW = itemgetter(*_BOX_FIELDS, "kind")  # a truth vehicle object's values, in column order

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
    columns: frame ``i`` has ``bits[bit_offsets[i]:bit_offsets[i + 1]]`` (by slot id), and rows
    ``vehicle_offsets[i]`` to ``vehicle_offsets[i + 1]`` of ``boxes`` (one read-only ``(n, 4)``
    array of (cx, cy, w, h) rows in frame order) and of ``kinds`` (each vehicle's kind string).
    ``occupancy`` and ``vehicles`` give them per frame, derived on demand."""

    frame_ids: tuple[str, ...]
    slots: tuple[Box, ...]
    bits: np.ndarray
    bit_offsets: np.ndarray  # one entry per frame, plus one; so is vehicle_offsets
    vehicle_offsets: np.ndarray
    boxes: np.ndarray
    kinds: np.ndarray

    def __post_init__(self):
        for column in (self.bits, self.bit_offsets, self.vehicle_offsets, self.boxes, self.kinds):
            column.setflags(write=False)

    def __reduce__(self):  # through __init__, so an unpickled copy's columns are read-only too
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def frames(self) -> Iterator[tuple[str, np.ndarray, np.ndarray, np.ndarray]]:
        """Each frame's id, occupancy bits, and rows of ``boxes`` and ``kinds``."""
        bit_bounds, vehicle_bounds = pairwise(self.bit_offsets), pairwise(self.vehicle_offsets)
        for fid, (b0, b1), (v0, v1) in zip(self.frame_ids, bit_bounds, vehicle_bounds):
            yield fid, self.bits[b0:b1], self.boxes[v0:v1], self.kinds[v0:v1]

    @property
    def occupancy(self) -> tuple[tuple[bool, ...], ...]:
        return tuple(tuple(bits.tolist()) for _, bits, _, _ in self.frames())

    @property
    def vehicles(self) -> tuple[np.ndarray, ...]:
        """Each frame's vehicle boxes, an ``(n, 4)`` view of ``boxes``."""
        return tuple(boxes for _, _, boxes, _ in self.frames())

    def vehicles_by_frame(self) -> dict[str, np.ndarray]:
        """:attr:`vehicles` keyed by frame id."""
        return dict(zip(self.frame_ids, self.vehicles))

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
# seeding step and first output, as fixed-width integer arithmetic
# (numpy.random's bit_generator and pcg64 modules; O'Neill, "PCG", 2014).
# hashmix's running constant depends only on how many calls came before, never
# on the data.
_MASK32 = 0xFFFFFFFF
_HASHMIX_INIT, _HASHMIX_MULT = 0x43B0D7E5, 0x931E8875
_MIX_LEFT, _MIX_RIGHT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_STATE_INIT, _STATE_MULT = 0x8B51F9DD, 0x58F38DED
_POOL_SIZE = 4
_BLOCK_STREAMS = 1 << 14  # substreams derived per block of frames; bounds the block's memory
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(n) for n in (1, 11, 32, 58, 63, 64))
_LOW32 = np.uint64(_MASK32)
_MULT_HI, _MULT_LO = np.uint64(2549297995355413924), np.uint64(4865540595714422341)  # PCG64's
_MULT_LO_HALVES = _MULT_LO & _LOW32, _MULT_LO >> _U32
_KINDS = np.array(["parked", "passing", "violation"], dtype=object)  # by draw order within a frame


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


# A 128-bit PCG64 value is a (hi, lo) pair of uint64 arrays.  numpy array arithmetic on
# uint64 wraps mod 2**64 without a warning; only 0-d scalars warn, so none is made here.

def _pcg64_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """``state * MULT + inc`` mod 2**128: one PCG64 step.  The high word of ``lo * MULT``'s
    low half comes from four 32-bit partial products."""
    a0, a1 = lo & _LOW32, lo >> _U32
    b0, b1 = _MULT_LO_HALVES
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = carry + lo * _MULT_HI + hi * _MULT_LO + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _pcg64_streams(words: np.ndarray):
    """PCG64 seeded from generate_state ``words`` (last axis: state hi, state lo, inc hi,
    inc lo) as ``pcg64_set_seed`` does, then drawn from once.  Returns each stream's
    increment, seeded state and state after the draw as (hi, lo) pairs, and the draw,
    ``random()``: the XSL-RR output's top 53 bits times 2**-53."""
    state_hi, state_lo, inc_hi, inc_lo = np.moveaxis(words, -1, 0)
    inc = (inc_hi << _U1 | inc_lo >> _U63, inc_lo << _U1 | _U1)
    lo = inc[1] + state_lo
    seeded = _pcg64_step(inc[0] + state_hi + (lo < state_lo), lo, *inc)
    stepped = _pcg64_step(*seeded, *inc)
    hi, lo = stepped
    x, rot = hi ^ lo, hi >> _U58
    output = x >> rot | x << ((_U64 - rot) & _U63)
    return inc, seeded, stepped, (output >> _U11) * 2.0**-53


def _pcg64_ints(value: tuple[np.ndarray, np.ndarray], chosen: np.ndarray) -> list[int]:
    """The ``chosen`` entries of a (hi, lo) pair as Python ints, in row-major order."""
    hi, lo = value
    return [h << 64 | l for h, l in zip(hi[chosen].tolist(), lo[chosen].tolist())]


def _reseeder(bitgen: np.random.PCG64):
    """A function that puts ``bitgen`` at a given PCG64 (state, inc), with nothing buffered."""
    seeding = {"state": 0, "inc": 0}
    whole = {"bit_generator": "PCG64", "state": seeding, "has_uint32": 0, "uinteger": 0}

    def reseed(state: int, inc: int) -> None:
        seeding["state"], seeding["inc"] = state, inc
        bitgen.state = whole

    return reseed


def _redraw(rng: np.random.Generator, reseed, inc, stepped, chosen: np.ndarray,
            n_normals: int, n_uniforms: int) -> tuple[np.ndarray, np.ndarray]:
    """Each ``chosen`` stream of :func:`_pcg64_streams` (``inc``, ``stepped``) picked up after
    its first draw: ``n_normals`` standard normals, then ``n_uniforms`` uniforms, one row per
    stream."""
    n = np.count_nonzero(chosen)
    normals, uniforms = np.empty((n, n_normals)), np.empty((n, n_uniforms))
    for state, increment, z, u in zip(_pcg64_ints(stepped, chosen), _pcg64_ints(inc, chosen),
                                      normals, uniforms):
        reseed(state, increment)
        rng.standard_normal(out=z)
        rng.random(out=u)
    return normals, uniforms


def _frame_substreams(config: ScenarioConfig) -> Iterator[tuple[range, np.ndarray, np.ndarray, np.ndarray]]:
    """Each block of frames (about :data:`_BLOCK_STREAMS` substreams, which bounds memory by
    the block) with its generate_state words as ``(frames, k, 4)`` arrays: slot substreams
    (grid order), the one passing substream and violation substreams (site order)."""
    slot_keys = np.array([(row, col) for row in range(config.rows) for col in range(config.cols)],
                         dtype=np.uint32)
    keys = ((STREAM_SLOT, slot_keys), (STREAM_PASSING, np.empty((1, 0), np.uint32)),
            (STREAM_VIOLATION, np.arange(len(config.violation_sites), dtype=np.uint32)[:, None]))
    step = max(1, _BLOCK_STREAMS // sum(len(k) for _, k in keys))
    for start in range(0, config.frame_count, step):
        frames = range(start, min(start + step, config.frame_count))
        yield frames, *(_substream_words(config.seed, frames, stream, k) for stream, k in keys)


def _check_boxes(boxes: np.ndarray) -> None:
    """Finite and positive-size checks over an ``(n, 4)`` box array; on failure the first
    bad row is re-raised through :class:`Box`, which names its first bad field."""
    if not (np.isfinite(boxes).all() and (boxes[:, 2:] > 0).all()):
        ok = np.isfinite(boxes).all(axis=1) & (boxes[:, 2:] > 0).all(axis=1)
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


def _block_arrays(cam: Homography, ground: np.ndarray, seen: np.ndarray, confs: np.ndarray,
                  frame_ends: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """A block's vehicle boxes in image pixels as one ``(n, 4)`` array and its detections (the
    ``seen`` vehicles, with their ``confs``) as one :data:`DETECTION_DTYPE` array, from one
    projection.  A bad box is named as frame-by-frame projection names it, using each
    frame's vehicle end offset in ``frame_ends``: first faulty frame, ground before image."""
    try:
        image = _project_boxes(cam, ground)
    except ValueError:
        for frame_ground in np.split(ground, frame_ends[:-1]):
            _project_boxes(cam, frame_ground)
        raise
    dets = np.zeros(np.count_nonzero(seen), DETECTION_DTYPE)
    for name, column in zip(_BOX_FIELDS, image.T):
        dets[name] = column[seen]
    dets["conf"] = confs[seen]
    dets["cls"] = "car"
    return image, dets


def generate_scenario(config: ScenarioConfig) -> tuple[DetectionLog, GroundTruth]:
    cam = camera_homography(config.camera)
    slot_w, slot_h = config.slot_size
    slot_size = np.array(config.slot_size)
    size_floor = 0.2 * slot_size  # noisy sizes stay positive; binds only for huge sigmas

    slot_ground = np.array([(*config.slot_center_ground(row, col), slot_w, slot_h)
                            for row in range(config.rows) for col in range(config.cols)])
    slot_boxes_image = [Box(*box) for box in _project_boxes(cam, slot_ground).tolist()]
    sites = config.violation_sites
    site_xy = np.array([(site.x, site.y) for site in sites]).reshape(-1, 2)
    site_sigma = np.array([site.center_spread_sigma for site in sites])[:, None]
    site_emit = np.array([site.emit_prob for site in sites])

    lane_y = (config.rows + 1.5) * config.slot_pitch  # one pitch below the last slot row
    lane_x_max = config.cols * config.slot_pitch

    rng = np.random.Generator(np.random.PCG64(0))  # re-seeded for every substream that draws more
    reseed = _reseeder(rng.bit_generator)

    bits = []  # each block's occupancy bits, frame by frame
    boxes_all, kinds_all, dets_all = [], [], []  # each block's vehicles and detections
    offsets = [np.zeros((1, 2), np.intp)]  # vehicle and detection offsets: 0, then each frame's ends
    for frames, slot_words, passing_words, site_words in _frame_substreams(config):
        inc, _, stepped, first = _pcg64_streams(slot_words)
        occupied = first < config.occupancy_prob
        bits.append(occupied.ravel())
        z, u = _redraw(rng, reseed, inc, stepped, occupied, 4, 2)
        parked_frame, parked_slot = np.nonzero(occupied)

        passing_frame, passing_x, passing_u = [], [], []
        inc, seeded, _, _ = _pcg64_streams(passing_words)
        every = np.ones(passing_words.shape[:2], bool)
        for f, state_inc in enumerate(zip(_pcg64_ints(seeded, every), _pcg64_ints(inc, every))):
            reseed(*state_inc)
            for _ in range(rng.poisson(config.passing_rate)):
                passing_frame.append(f)
                passing_x.append(rng.uniform(0.0, lane_x_max))
                passing_u.append(rng.random())
        n_passing = len(passing_frame)

        inc, _, stepped, first = _pcg64_streams(site_words)
        emitting = first < site_emit
        z_site, u_site = _redraw(rng, reseed, inc, stepped, emitting, 2, 1)
        site_frame, site = np.nonzero(emitting)

        # Within a frame, vehicles run parked (slot order), passing, then violation (site order).
        frame = np.concatenate((parked_frame, np.array(passing_frame, np.intp), site_frame))
        kind = np.repeat(np.arange(len(_KINDS)), (len(parked_frame), n_passing, len(site_frame)))
        order = np.lexsort((kind, frame))
        with np.errstate(over="ignore"):  # a box that overflows to inf is named by _check_boxes
            ground = np.concatenate((
                np.column_stack((slot_ground[parked_slot, :2] + (0.0 + config.center_noise_sigma * z[:, :2]),
                                 np.maximum(slot_size + (0.0 + config.size_noise_sigma * z[:, 2:]), size_floor))),
                np.column_stack((passing_x, np.full((n_passing, 3), (lane_y, slot_w, slot_h)))),
                np.column_stack((site_xy[site] + (0.0 + site_sigma[site] * z_site),
                                 np.broadcast_to(slot_size, (len(site), 2)))),
            ))
        seen = np.concatenate((u[:, 0] >= config.miss_prob, np.ones(n_passing + len(site), bool)))
        confs = 0.5 + 0.5 * np.concatenate((u[:, 1], passing_u, u_site[:, 0]))
        ends = np.column_stack([np.bincount(frame[rows], minlength=len(frames)).cumsum()
                                for rows in (slice(None), seen)])
        boxes, dets = _block_arrays(cam, ground[order], seen[order], confs[order], ends[:, 0])
        boxes_all.append(boxes)
        kinds_all.append(_KINDS[kind[order]])
        dets_all.append(dets)
        offsets.append(offsets[-1][-1] + ends)

    frames = range(config.frame_count)
    vehicle_offsets, det_offsets = np.concatenate(offsets).T
    log = DetectionLog(
        frame_ids=tuple(f"f{f:06d}" for f in frames),
        timestamps=tuple((_BASE_TIMESTAMP + f * _SAMPLE_INTERVAL).isoformat() for f in frames),
        offsets=det_offsets,
        detections=np.concatenate(dets_all),
    )
    truth = GroundTruth(
        frame_ids=log.frame_ids,
        slots=tuple(slot_boxes_image),
        bits=np.concatenate(bits),
        bit_offsets=np.arange(config.frame_count + 1) * config.slot_count,
        vehicle_offsets=vehicle_offsets,
        boxes=np.concatenate(boxes_all),
        kinds=np.concatenate(kinds_all),
    )
    return log, truth


# --- ground truth files ---------------------------------------------------

def write_ground_truth_slots(stream: IO[str], truth: GroundTruth) -> None:
    """Slot layout in the slot-registry schema (spread 0, members = frames occupied)."""
    bit = np.arange(len(truth.bits))
    slot_of_bit = bit - truth.bit_offsets[truth.bit_offsets.searchsorted(bit, "right") - 1]
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
    for fid, bits, boxes, kinds in truth.frames():
        if len(bits) not in bit_formats:
            bit_formats[len(bits)] = ", ".join(f'"{i}": {{{i}}}' for i in sorted(range(len(bits)), key=str))
        occupancy = bit_formats[len(bits)].format(*["true" if bit else "false" for bit in bits.tolist()])
        vehicles = ", ".join([f'{{"cx": {cx!r}, "cy": {cy!r}, "h": {h!r}, '
                              f'"kind": {encode_basestring_ascii(kind)}, "w": {w!r}}}'
                              for (cx, cy, w, h), kind in zip(boxes.tolist(), kinds.tolist())])
        stream.write(f'{{"frame": {encode_basestring_ascii(fid)}, "occupancy": {{{occupancy}}}, '
                     f'"vehicles": [{vehicles}]}}\n')


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
    vehicle boxes go into one ``(n, 4)`` array, checked for finite, positive sizes at once.
    A bad box is named with its line, and a frame id given twice is rejected, naming both
    lines.
    """
    first_line = {}  # frame id -> line number, in file order
    bits, bit_offsets, vehicle_offsets = [], [0], [0]
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
        bit_offsets.append(len(bits))
        vehicle_offsets.append(len(columns[-1]))
    boxes = np.column_stack(columns[:4])
    try:
        _check_boxes(boxes)
    except ValidationError:
        for line_no, lo, hi in zip(first_line.values(), vehicle_offsets, vehicle_offsets[1:]):
            try:  # name the first bad line
                _check_boxes(boxes[lo:hi])
            except ValidationError as exc:
                raise ValidationError("occupancy", f"line {line_no}: bad record ({exc})") from exc
        raise
    return GroundTruth(tuple(first_line), (), np.array(bits, bool), np.array(bit_offsets, np.intp),
                       np.array(vehicle_offsets, np.intp), boxes, np.array(columns[4], object))


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
