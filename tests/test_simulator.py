import io
import json
import math
import pickle
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    AWKWARD_CHARS,
    EDGE_FLOATS,
    ground_truth,
    project_box_scalar,
    scenario_by_substreams,
    seed_sequence_stream,
    vehicle_rows,
    write_ground_truth_occupancy_by_dumps,
)
from parkscan import simulator
from parkscan.detections import serialize_detections, write_detections
from parkscan.errors import ConfigError, ValidationError
from parkscan.geometry import Homography, box_iou, boxes_array
from parkscan.simulator import (
    CAMERA_PRESETS,
    STREAM_PASSING,
    STREAM_SLOT,
    STREAM_VIOLATION,
    GroundTruth,
    ScenarioConfig,
    ViolationSite,
    _block_arrays,
    _pcg64_ints,
    _pcg64_streams,
    _project_boxes,
    _reseeder,
    _substream_words,
    camera_homography,
    generate_scenario,
    read_ground_truth_occupancy,
    scenario_from_document,
    write_ground_truth_occupancy,
    write_ground_truth_slots,
)
from parkscan.slots import read_slot_registry


def small_config(**kw):
    base = dict(
        rows=1,
        cols=3,
        slot_pitch=40.0,
        slot_size=(22.0, 30.0),
        frame_count=10,
        occupancy_prob=1.0,
        seed=123,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def test_same_seed_gives_byte_identical_logs():
    cfg = small_config(
        occupancy_prob=0.5,
        center_noise_sigma=1.0,
        size_noise_sigma=0.5,
        miss_prob=0.1,
        passing_rate=0.7,
        violation_sites=(ViolationSite(60.0, 100.0, 4.0),),
    )
    frames_a, truth_a = generate_scenario(cfg)
    frames_b, truth_b = generate_scenario(cfg)
    assert serialize_detections(frames_a) == serialize_detections(frames_b)
    assert truth_a == truth_b


def test_different_seed_changes_output():
    cfg_a = small_config(occupancy_prob=0.5)
    cfg_b = small_config(occupancy_prob=0.5, seed=124)
    assert serialize_detections(generate_scenario(cfg_a)[0]) != serialize_detections(
        generate_scenario(cfg_b)[0]
    )


def test_zero_probability_means_empty_frames():
    frames, truth = generate_scenario(small_config(occupancy_prob=0.0))
    assert all(len(f.detections) == 0 for f in frames)
    assert all(not any(bits) for bits in truth.occupancy)
    assert all(len(v) == 0 for v in truth.vehicles)


def test_noiseless_identity_camera_hits_exact_centers():
    cfg = small_config()
    frames, truth = generate_scenario(cfg)
    expected = [cfg.slot_center_ground(0, c) for c in range(3)]
    for frame in frames:
        assert len(frame.detections) == 3
        for det, (cx, cy) in zip(frame.detections, expected):
            assert (det["cx"], det["cy"]) == (cx, cy)
            assert (det["w"], det["h"]) == cfg.slot_size


def test_occupancy_bits_match_emitted_detections_when_no_misses():
    cfg = small_config(occupancy_prob=0.6, frame_count=30)
    frames, truth = generate_scenario(cfg)
    for frame, bits in zip(frames, truth.occupancy):
        assert len(frame.detections) == sum(bits)


def test_missed_vehicles_stay_in_ground_truth():
    cfg = small_config(occupancy_prob=1.0, miss_prob=0.5, frame_count=20)
    frames, truth = generate_scenario(cfg)
    total_dets = sum(len(f.detections) for f in frames)
    total_vehicles = sum(len(v) for v in truth.vehicles)
    assert total_vehicles == 20 * 3  # every occupied slot has a vehicle
    assert total_dets < total_vehicles  # some were missed by the detector


def test_ground_truth_files_round_trip():
    cfg = small_config(
        rows=2,
        cols=2,
        occupancy_prob=0.7,
        center_noise_sigma=1.0,
        passing_rate=0.5,
        violation_sites=(ViolationSite(60.0, 130.0, 5.0),),
        camera="mild-tilt",
        frame_count=12,
    )
    _, truth = generate_scenario(cfg)
    slots_buf, occ_buf = io.StringIO(), io.StringIO()
    write_ground_truth_slots(slots_buf, truth)
    write_ground_truth_occupancy(occ_buf, truth)
    registry = read_slot_registry(io.StringIO(slots_buf.getvalue()))
    occupancy = read_ground_truth_occupancy(io.StringIO(occ_buf.getvalue()))
    parsed = ground_truth(occupancy.frame_ids, [slot.area for slot in registry], occupancy.occupancy,
                          vehicle_rows(occupancy))
    assert parsed == truth
    assert [slot.slot_id for slot in registry] == list(range(len(truth.slots)))
    assert [slot.members for slot in registry] == np.array(truth.occupancy).sum(axis=0).tolist()
    assert all(slot.spread == 0.0 for slot in registry)
    assert json.loads(slots_buf.getvalue())["config_echo"] == {"source": "simulator-ground-truth"}


_text = st.one_of(st.text(alphabet=st.sampled_from(AWKWARD_CHARS), min_size=1), st.text(min_size=1))
_coord = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
_size = st.one_of(st.sampled_from([v for v in EDGE_FLOATS if v > 0]),
                  st.floats(min_value=5e-324, allow_infinity=False))
_bits = st.one_of(
    st.sampled_from([0, 1, 11, 101]).flatmap(lambda n: st.lists(st.booleans(), min_size=n, max_size=n)),
    st.lists(st.one_of(st.booleans(), st.booleans().map(np.bool_)), max_size=30),
)
_truth_frame = st.tuples(_text, _bits, st.lists(st.tuples(_coord, _coord, _size, _size, _text), max_size=4))


@given(frames=st.lists(_truth_frame, max_size=6))
@settings(max_examples=200, deadline=None)
def test_write_ground_truth_occupancy_matches_json_dumps_byte_for_byte(frames):
    frame_ids, occupancy, vehicles = zip(*frames) if frames else ((), (), ())
    truth = ground_truth(frame_ids, (), occupancy, vehicles)
    buf, ref = io.StringIO(), io.StringIO()
    write_ground_truth_occupancy(buf, truth)
    write_ground_truth_occupancy_by_dumps(ref, truth)
    assert buf.getvalue() == ref.getvalue()


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def _peak_bytes(write, *args):
    """Peak traced allocation while ``write`` writes to a sink that keeps nothing."""
    tracemalloc.start()
    try:
        write(_Discard(), *args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writers_stream_instead_of_building_the_file():
    cfg = small_config(rows=2, occupancy_prob=0.6, passing_rate=1.0, frame_count=2000)
    log, truth = generate_scenario(cfg)
    head_log, _ = generate_scenario(replace(cfg, frame_count=200))
    head = ground_truth(truth.frame_ids[:200], truth.slots, truth.occupancy[:200], vehicle_rows(truth)[:200])
    assert _peak_bytes(write_detections, log) < 2 * _peak_bytes(write_detections, head_log)
    assert (_peak_bytes(write_ground_truth_occupancy, truth)
            < 2 * _peak_bytes(write_ground_truth_occupancy, head))


def test_slot_streams_stable_when_grid_grows():
    # Slot draws are keyed by (row, col): adding a column must not perturb
    # the existing slots' noise draws.
    kw = dict(occupancy_prob=0.7, center_noise_sigma=1.5, size_noise_sigma=0.5, frame_count=15)
    _, truth_2 = generate_scenario(small_config(cols=2, **kw))
    _, truth_3 = generate_scenario(small_config(cols=3, **kw))
    for bits2, bits3 in zip(truth_2.occupancy, truth_3.occupancy):
        assert bits2 == bits3[:2]
    for v2, v3 in zip(vehicle_rows(truth_2), vehicle_rows(truth_3)):
        assert v2 == v3[: len(v2)]


def test_frames_stable_when_frame_count_grows(monkeypatch):
    # Draws are keyed by frame index: a k-frame scenario is the first k frames of a longer
    # one, whether k ends a substream block or falls inside one.  Three slots and the passing
    # stream are 4 substreams a frame, so a block holds 3 frames.
    monkeypatch.setattr(simulator, "_BLOCK_STREAMS", 3 * 4)
    cfg = small_config(occupancy_prob=0.6, center_noise_sigma=1.0, miss_prob=0.2, passing_rate=0.8,
                       frame_count=12)

    def lines(scenario):
        log, truth = generate_scenario(scenario)
        occupancy = io.StringIO()
        write_ground_truth_occupancy(occupancy, truth)
        return serialize_detections(log).splitlines(), occupancy.getvalue().splitlines()

    full_dets, full_truth = lines(cfg)
    for k in (1, 2, 3, 4, 5, 11):
        dets, truth = lines(replace(cfg, frame_count=k))
        assert (dets, truth) == (full_dets[:k], full_truth[:k])


def test_passing_vehicles_sit_on_the_lane():
    cfg = small_config(occupancy_prob=0.0, passing_rate=2.0, frame_count=20)
    _, truth = generate_scenario(cfg)
    lane_y = (cfg.rows + 1.5) * cfg.slot_pitch  # one pitch below the last slot row
    passing = truth.boxes[truth.kinds == "passing", 1]
    assert passing.size, "expected at least one passing vehicle at rate 2.0"
    assert (passing == lane_y).all()


def test_oracle_consistency_on_noiseless_data():
    # On noiseless data the true vehicle box equals the slot box, so max-IoU
    # against ground-truth vehicles reproduces the occupancy bits exactly.
    cfg = small_config(rows=2, cols=3, occupancy_prob=0.5, frame_count=25)
    _, truth = generate_scenario(cfg)
    slots = boxes_array(truth.slots)
    for bits, boxes in zip(truth.occupancy, truth.vehicles_by_frame().values()):
        best = box_iou(slots[:, None], boxes[None]).max(axis=1, initial=0.0)
        for slot_idx, bit in enumerate(bits):
            assert (best[slot_idx] >= 0.3) == bit


def test_camera_presets():
    assert np.array_equal(camera_homography("identity").m, np.eye(3))
    for name in CAMERA_PRESETS:
        h = camera_homography(name)
        assert abs(np.linalg.det(h.m)) > 1e-6
    with pytest.raises(ConfigError):
        camera_homography("fisheye")


_ground_box = st.tuples(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0),  # center
                        st.floats(1.0, 60.0), st.floats(1.0, 60.0))  # size


@given(camera=st.sampled_from(sorted(CAMERA_PRESETS)), ground=st.lists(_ground_box, max_size=30))
@settings(max_examples=200, deadline=None)
def test_project_boxes_matches_per_box_reference(camera, ground):
    cam = camera_homography(camera)
    image = _project_boxes(cam, np.array(ground, dtype=float).reshape(-1, 4))
    expected = np.array([project_box_scalar(cam.m, box) for box in ground], dtype=float).reshape(-1, 4)
    assert image.shape == expected.shape
    assert image.view(np.int64).tolist() == expected.view(np.int64).tolist()  # bit for bit


@pytest.mark.parametrize("camera", sorted(CAMERA_PRESETS))
def test_project_boxes_matches_per_box_reference_on_many_boxes(camera):
    # Random sides make the edge-midpoint distances irregular enough that a
    # different hypot (np.hypot differs from math.hypot on about 0.5% of them) shows.
    cam = camera_homography(camera)
    rng = np.random.default_rng(5)
    ground = np.column_stack((rng.uniform(0.0, 1000.0, (20_000, 2)), rng.uniform(1.0, 60.0, (20_000, 2))))
    expected = np.array([project_box_scalar(cam.m, box) for box in ground.tolist()])
    assert _project_boxes(cam, ground).view(np.int64).tolist() == expected.view(np.int64).tolist()


def test_project_boxes_names_the_first_bad_field():
    cam = camera_homography("mild-tilt")
    with pytest.raises(ValidationError, match="cx must be finite"):  # on the ground
        _project_boxes(cam, np.array([[10.0, 10.0, 5.0, 5.0], [np.inf, 10.0, 5.0, 5.0]]))
    with pytest.raises(ValidationError, match="width must be > 0"):
        _project_boxes(cam, np.array([[10.0, 10.0, 0.0, 5.0]]))
    stretch = Homography.from_flat((1e10, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0))  # overflows in the image
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValidationError, match="cx must be finite"):
            _project_boxes(stretch, np.array([[10.0, 10.0, 5.0, 5.0], [1e300, 10.0, 5.0, 5.0]]))


def test_block_names_the_first_frame_fault_as_frame_by_frame_projection_did():
    # Frame 0's width is fine on the ground but rounds to 0 in the image; frame 1's
    # width is negative on the ground.  Frame 0 holds the first fault.
    ground = [(0.0, 0.0, 5e-324, 1.0), (0.0, 0.0, -1.0, 1.0)]
    with pytest.raises(ValidationError, match=r"width must be > 0, got 0\.0"):
        _block_arrays(camera_homography("identity"), np.array(ground), np.zeros(2, bool), np.zeros(2), [1, 2])


_WORD = st.integers(0, 2**32 - 1)
_SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]),
    st.integers(max_value=-1),
    st.integers(min_value=2**64, max_value=2**96),
    st.integers(0, 2**64 - 1),
)


def _stream_values(streams, chosen):
    """Each chosen stream's increment, seeded state, post-draw state and first draw."""
    inc, seeded, stepped, first = streams
    return list(zip(_pcg64_ints(inc, chosen), _pcg64_ints(seeded, chosen), _pcg64_ints(stepped, chosen),
                    first[chosen].tolist()))


def _numpy_values(rng):
    """A fresh PCG64 Generator's increment, seeded state, state after one ``random()`` and that draw."""
    seeded = rng.bit_generator.state
    first = rng.random()
    stepped = rng.bit_generator.state
    assert seeded["state"]["inc"] == stepped["state"]["inc"] and stepped["has_uint32"] == 0
    return seeded["state"]["inc"], seeded["state"]["state"], stepped["state"]["state"], first


@given(seed=_SEEDS, first_frame=st.integers(0, 2**32 - 3), n_frames=st.integers(1, 3),
       stream=st.sampled_from([STREAM_SLOT, STREAM_PASSING, STREAM_VIOLATION]),
       keys=st.integers(0, 3).flatmap(
           lambda m: st.lists(st.lists(_WORD, min_size=m, max_size=m), min_size=1, max_size=3)))
@settings(max_examples=300, deadline=None)
def test_derived_substream_states_equal_seed_sequence(seed, first_frame, n_frames, stream, keys):
    frames = range(first_frame, first_frame + n_frames)
    words = _substream_words(seed, frames, stream, np.array(keys, dtype=np.uint32))
    assert words.shape == (n_frames, len(keys), 4)
    derived = _stream_values(_pcg64_streams(words), np.ones(words.shape[:2], bool))
    expected = [_numpy_values(seed_sequence_stream(seed, f, stream, *key)) for f in frames for key in keys]
    assert derived == expected


class _FixedWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose generate_state words are given, so PCG64 seeds from any words."""

    def __init__(self, words):
        self.words = np.array(words, np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, dtype) == (4, np.uint64)
        return self.words


_WORD64 = st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))


@given(words=st.lists(st.lists(_WORD64, min_size=4, max_size=4), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_array_step_equals_pcg64_on_any_words(words):
    # Words 0 and 2**64 - 1 carry through every 64-bit add and multiply of the 128-bit step.
    array = np.array(words, np.uint64)[:, None, :]
    derived = _stream_values(_pcg64_streams(array), np.ones(array.shape[:2], bool))
    assert derived == [_numpy_values(np.random.Generator(np.random.PCG64(_FixedWords(w)))) for w in words]


def test_array_step_keeps_a_single_stream_in_arrays():
    # One substream is a (1, 1) block; no 0-d scalar may form, as its overflow would warn.
    words = np.full((1, 1, 4), 2**64 - 1, np.uint64)
    with np.errstate(all="raise"):
        inc, seeded, stepped, first = _pcg64_streams(words)
    assert all(part.shape == (1, 1) for part in (*inc, *seeded, *stepped, first))


def test_reseeded_generator_draws_like_a_fresh_one():
    keys = [(0, 0), (1, 2), (3, 1)]
    words = _substream_words(-7, range(4), STREAM_SLOT, np.array(keys, dtype=np.uint32))
    inc, seeded, stepped, first = _pcg64_streams(words)
    every = np.ones(words.shape[:2], bool)
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    reseed = _reseeder(bitgen)
    draws = (lambda g: g.random(), lambda g: g.normal(0.0, 2.0, 2), lambda g: g.poisson(0.7),
             lambda g: g.poisson(30.0), lambda g: g.uniform(0.0, 5.0), lambda g: g.standard_normal(4))
    streams = zip(_pcg64_ints(inc, every), _pcg64_ints(seeded, every), _pcg64_ints(stepped, every))
    for (f, key), (increment, seeded_state, stepped_state) in zip(np.ndindex(4, len(keys)), streams):
        for state, picked_up in ((seeded_state, False), (stepped_state, True)):
            fresh = seed_sequence_stream(-7, f, STREAM_SLOT, *keys[key])
            if picked_up:  # after the draw the array step made
                assert fresh.random() == first[f, key]
            rng.integers(0, 10, dtype=np.int32)
            assert bitgen.state["has_uint32"] == 1  # half a 64-bit output is buffered
            reseed(state, increment)
            for draw in draws:
                assert np.array_equal(draw(rng), draw(fresh))
            assert bitgen.state == fresh.bit_generator.state


@pytest.mark.parametrize("sigma", [0.0, 2.0, 5e-324, 1e308])
def test_scaled_standard_normals_equal_generator_normal(sigma):
    # generate_scenario draws standard normals and scales them as normal(0.0, sigma) does.
    scaled, direct = np.random.default_rng(3), np.random.default_rng(3)
    with np.errstate(over="ignore"):
        got = 0.0 + sigma * scaled.standard_normal(64)
    assert got.view(np.int64).tolist() == direct.normal(0.0, sigma, 64).view(np.int64).tolist()
    assert scaled.bit_generator.state == direct.bit_generator.state


@pytest.mark.parametrize("overrides, message", [
    (dict(center_noise_sigma=1e308), r"width must be > 0, got 0\.0"),
    (dict(size_noise_sigma=1e308), "w must be finite"),
    (dict(violation_sites=(ViolationSite(1.7e308, 10.0, 1e308, 1.0),)), "cx must be finite"),
])
def test_noise_beyond_the_float_range_is_named_without_a_warning(overrides, message):
    # Noise that overflows a box to inf is named by the box check, with no numpy warning.
    with pytest.raises(ValidationError, match=message):
        generate_scenario(small_config(frame_count=5, seed=1, **overrides))


_PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
_SIGMA = st.one_of(st.just(0.0), st.floats(0.0, 6.0))
_SITE = st.builds(ViolationSite, x=st.floats(0.0, 120.0), y=st.floats(0.0, 120.0),
                  center_spread_sigma=_SIGMA, emit_prob=_PROBABILITY)


def _written(log, truth):
    slots, occupancy = io.StringIO(), io.StringIO()
    write_ground_truth_slots(slots, truth)
    write_ground_truth_occupancy(occupancy, truth)
    return serialize_detections(log), occupancy.getvalue(), slots.getvalue()


@given(config=st.builds(
           ScenarioConfig, rows=st.integers(1, 3), cols=st.integers(1, 3), slot_pitch=st.just(40.0),
           slot_size=st.just((22.0, 30.0)), frame_count=st.integers(1, 9), occupancy_prob=_PROBABILITY,
           center_noise_sigma=_SIGMA, size_noise_sigma=_SIGMA, miss_prob=_PROBABILITY,
           passing_rate=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
           violation_sites=st.lists(_SITE, max_size=2).map(tuple),
           camera=st.sampled_from(sorted(CAMERA_PRESETS)), seed=_SEEDS),
       block_streams=st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_generate_scenario_writes_what_one_generator_per_substream_draws(config, block_streams):
    # Small blocks put a scenario's frames in several blocks, down to one frame a block.
    with mock.patch.object(simulator, "_BLOCK_STREAMS", block_streams):
        written = _written(*generate_scenario(config))
    assert written == _written(*scenario_by_substreams(config))


def test_config_validation():
    with pytest.raises(ValidationError):
        small_config(slot_pitch=20.0)  # pitch below slot height
    with pytest.raises(ValidationError):
        small_config(occupancy_prob=1.5)
    with pytest.raises(ValidationError):
        small_config(frame_count=0)
    with pytest.raises(ValidationError):
        ViolationSite(0.0, 0.0, -1.0)


def test_passing_rate_is_bounded_by_the_vehicles_that_fit_on_the_lane():
    # Built only, never simulated: 3 columns at pitch 40 hold 3 * 40 / 22 slot-width vehicles.
    bound = 3 * 40.0 / 22.0
    assert small_config(passing_rate=bound).passing_rate == bound
    with pytest.raises(ValidationError, match=r"passing_rate must be at most 5\.45"):
        small_config(passing_rate=math.nextafter(bound, math.inf))


def test_scenario_from_document():
    doc = {
        "rows": 2,
        "cols": 3,
        "slot_pitch": 40.0,
        "slot_size": [22.0, 30.0],
        "frame_count": 5,
        "occupancy_prob": 0.5,
        "violation_sites": [{"x": 10.0, "y": 20.0, "center_spread_sigma": 4.0}],
        "camera": "mild-tilt",
        "seed": 99,
    }
    cfg = scenario_from_document(doc)
    assert cfg.rows == 2 and cfg.cols == 3
    assert cfg.violation_sites[0].emit_prob == 0.5
    assert cfg.camera == "mild-tilt"

    with pytest.raises(ConfigError):
        scenario_from_document({"rows": 2})
    with pytest.raises(ConfigError):
        scenario_from_document({**doc, "occupancy_prob": 7})
    with pytest.raises(ConfigError):
        scenario_from_document([1, 2])


def test_ground_truth_lookup_helpers():
    cfg = small_config(occupancy_prob=0.5, frame_count=4)
    _, truth = generate_scenario(cfg)
    by_frame = truth.vehicles_by_frame()
    occ = truth.occupancy_by_frame()
    assert set(by_frame) == set(truth.frame_ids) == set(occ)
    assert isinstance(truth, GroundTruth)
    assert not truth.boxes.flags.writeable and not truth.kinds.flags.writeable
    for fid, vehicles, rows in zip(truth.frame_ids, truth.vehicles, vehicle_rows(truth)):
        assert vehicles.base is truth.boxes and by_frame[fid].base is truth.boxes  # views, not copies
        assert by_frame[fid].shape == (len(rows), 4)
        assert by_frame[fid].tolist() == [row[:4] for row in rows]


def test_ground_truth_pickles_with_read_only_columns():
    # The forked truth read hands its GroundTruth to the parent as a pickle.
    _, truth = generate_scenario(small_config(occupancy_prob=0.5, frame_count=4, passing_rate=1.0))
    copy = pickle.loads(pickle.dumps(truth, pickle.HIGHEST_PROTOCOL))
    assert copy == truth and copy.frame_ids == truth.frame_ids and copy.slots == truth.slots
    for column in (copy.bits, copy.bit_offsets, copy.vehicle_offsets, copy.boxes, copy.kinds):
        assert not column.flags.writeable


def test_ground_truth_equality_compares_vehicle_values():
    _, truth = generate_scenario(small_config(occupancy_prob=0.5, frame_count=4, passing_rate=1.0))
    copy = ground_truth(truth.frame_ids, truth.slots, truth.occupancy, vehicle_rows(truth))
    assert copy == truth
    moved = vehicle_rows(truth)
    frame = next(i for i, v in enumerate(moved) if len(v))
    moved[frame][0][0] += 1.0
    assert ground_truth(truth.frame_ids, truth.slots, truth.occupancy, moved) != truth
    renamed = vehicle_rows(truth)
    renamed[frame][0][4] = "violation" if renamed[frame][0][4] != "violation" else "parked"
    assert ground_truth(truth.frame_ids, truth.slots, truth.occupancy, renamed) != truth
    # The same rows, with the frame's last vehicle moved into the next frame.
    v = vehicle_rows(truth)
    regrouped = [*v[:frame], v[frame][:-1], v[frame][-1:] + v[frame + 1], *v[frame + 2:]]
    assert ground_truth(truth.frame_ids, truth.slots, truth.occupancy, regrouped) != truth
    emptied = [*v[:frame], v[frame][:0], *v[frame + 1:]]  # the frame's vehicles dropped
    assert ground_truth(truth.frame_ids, truth.slots, truth.occupancy, emptied) != truth
    assert ground_truth(truth.frame_ids[:-1], truth.slots, truth.occupancy[:-1], v[:-1]) != truth
    assert truth != "not ground truth"


_PARKED = {"cx": 0.0, "cy": 0.0, "w": 20.0, "h": 20.0, "kind": "parked"}


@pytest.mark.parametrize(
    "vehicle, message",
    [
        ({"w": 0}, "width must be > 0, got 0.0"),
        ({"h": -1}, "height must be > 0, got -1.0"),
        ({"cy": float("inf")}, "cy must be finite"),
        ({"cx": True}, "cx must be a number, got True"),
        ({"kind": ["parked"]}, "kind must be a string, got ['parked']"),
        ({"w": 10**400}, "w is too large for a float"),
    ],
)
def test_truth_vehicle_faults_name_the_line_and_field(vehicle, message):
    line = {"frame": "f1", "occupancy": {"0": True}, "vehicles": [_PARKED, {**_PARKED, **vehicle}]}
    text = json.dumps({**line, "frame": "f0", "vehicles": [_PARKED]}) + "\n" + json.dumps(line) + "\n"
    with pytest.raises(ValidationError) as exc:
        read_ground_truth_occupancy(io.StringIO(text))
    assert str(exc.value) == f"line 2: bad record ({message})"


@pytest.mark.parametrize(
    "line_2, line_3, message",
    [
        ({"cy": float("inf")}, {"frame": "f2", "vehicles": [{**_PARKED, "cx": True}]},
         "line 3: bad record (cx must be a number, got True)"),
        ({"w": 0}, {}, "line 3: frame 'f1' repeats line 2"),
    ],
)
def test_truth_line_faults_are_named_before_box_value_faults(line_2, line_3, message):
    # Boxes are checked once the whole file is read, so a later line's type fault or
    # repeated frame id is named before an earlier line's bad box.
    line = {"frame": "f1", "occupancy": {"0": True}, "vehicles": [{**_PARKED, **line_2}]}
    text = "".join(json.dumps(record) + "\n" for record in
                   [{**line, "frame": "f0", "vehicles": [_PARKED]}, line, {**line, **line_3}])
    with pytest.raises(ValidationError) as exc:
        read_ground_truth_occupancy(io.StringIO(text))
    assert str(exc.value) == message
