"""Pinned sha256 digests of every file ``simulate`` writes, for seeds and sites the
benchmark's input-digest gate never reaches.

That gate covers seeds 0-63 on lots with one violation site and the mild-tilt
camera.  These cases add a negative seed (masked to two 32-bit words), a seed
of two words, a seed at or above 2**64 (masked back to one word) and a lot
with two violation sites, the strong-tilt camera and heavy passing traffic.
A digest that moves means a simulated byte moved, which the randomness
contract in ``parkscan.simulator`` forbids.

The simulator works through frames in blocks, and every lot above fits in one.
A lot that spans several blocks must write the same bytes as when it fits in one.
"""

import hashlib
import json

import pytest

from parkscan import simulator
from parkscan.cli import main

BASE = {
    "rows": 2,
    "cols": 3,
    "slot_pitch": 40.0,
    "slot_size": [22.0, 30.0],
    "frame_count": 40,
    "occupancy_prob": 0.6,
    "center_noise_sigma": 0.8,
    "size_noise_sigma": 0.5,
    "miss_prob": 0.1,
    "passing_rate": 0.3,
    "violation_sites": [{"x": 60.0, "y": 120.0, "center_spread_sigma": 8.0, "emit_prob": 0.7}],
    "camera": "mild-tilt",
}
CASES = {
    "seed-0": {**BASE, "seed": 0},
    "seed-minus-1": {**BASE, "seed": -1},
    "seed-2**40+3": {**BASE, "seed": 2**40 + 3},
    "seed-2**64+9": {**BASE, "seed": 2**64 + 9},
    "two-sites-strong-tilt": {
        **BASE,
        "seed": 5,
        "camera": "strong-tilt",
        "passing_rate": 2.0,
        "violation_sites": [
            {"x": 60.0, "y": 120.0, "center_spread_sigma": 8.0, "emit_prob": 0.7},
            {"x": 10.0, "y": 5.0, "center_spread_sigma": 3.0, "emit_prob": 0.4},
        ],
    },
}

GOLDEN = {
    "seed-0": {
        "detections.jsonl": "bbfb1ddb6d451a04b77f65ac30aa88a743426e8d61faba3c25703a1b2848d5c6",
        "occupancy_truth.jsonl": "4b9f5362230f5cbab8350cb1e853267182f1ffe80f22ac01df63fb45d0c5da17",
        "slots_truth.json": "ff462a1174c65fde7709ccca18da946914ff6837620c412f779b2c4bd837ef78",
    },
    "seed-minus-1": {
        "detections.jsonl": "6513b65698fa220b796137bb6a7dca14c9775485b8ec2899bd232a6499398ecc",
        "occupancy_truth.jsonl": "c141690113ade6a88eddb93e63bd70f860cb7fc4544583a58da7b486c9b8d226",
        "slots_truth.json": "8b54b717350e9755ed88c537114eeb726ccc4988d4a31c8bf339493a1b372185",
    },
    "seed-2**40+3": {
        "detections.jsonl": "225fed276a5e820593d87da51c021f0de989a6c1f6b3c470e829a5c382619790",
        "occupancy_truth.jsonl": "86151702eb00a0df2325e40cb3a01553aa98b7b27ed1bfa5db2d05b06fa7400e",
        "slots_truth.json": "cc646312edc41a7ee7ee67a3c1ea75f1d5249fc48dbfb8cfbab7670c1e7fe3a4",
    },
    "seed-2**64+9": {
        "detections.jsonl": "1671dc5dfd8d7c640da8fea92452fd41b36a531fb35bcb76fd660eb7599d7cb6",
        "occupancy_truth.jsonl": "07d4fcef8503e8f5a5f374f6b88e5bc01f05a0872a0c5ee6cf5b890bcf755654",
        "slots_truth.json": "17a055ea95de4c6adeebebdb7b6f0a64bd25cc8a015907901ee570172d1d8147",
    },
    "two-sites-strong-tilt": {
        "detections.jsonl": "42bea51dfa46c04feffcb8c690861ff7669fe218d1b1e157e33502a166cdc756",
        "occupancy_truth.jsonl": "a35bccb34b4ec480ff71d4b546960d2314794afd554b764c88f3d302d0dc6c88",
        "slots_truth.json": "c8a303b19e29c42c1a5fcf1a91909cc2061423fc7a98649c6a35e0ac01ccbb9b",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_output_digests(tmp_path, capsys, case):
    (tmp_path / "scenario.json").write_text(json.dumps(CASES[case]), encoding="utf-8")
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(tmp_path / "scenario.json"), "--out-dir", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert digests == GOLDEN[case]


# 3x4 slots, the passing stream and two sites: 15 substreams per frame.
SPANNING_LOT = {
    **CASES["two-sites-strong-tilt"],
    "rows": 3,
    "cols": 4,
    "frame_count": 60,
    "passing_rate": 1.5,
    "seed": 11,
}
STREAMS_PER_FRAME = 3 * 4 + 1 + 2


def simulate_bytes(workdir, doc):
    (workdir / "scenario.json").write_text(json.dumps(doc), encoding="utf-8")
    out = workdir / "sim"
    assert main(["simulate", "--scenario", str(workdir / "scenario.json"), "--out-dir", str(out)]) == 0
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("frames_per_block", [1, 7])  # 7 does not divide 60
def test_simulate_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, frames_per_block):
    (tmp_path / "one-block").mkdir()
    (tmp_path / "blocks").mkdir()
    assert simulator._BLOCK_STREAMS // STREAMS_PER_FRAME >= SPANNING_LOT["frame_count"]
    one_block = simulate_bytes(tmp_path / "one-block", SPANNING_LOT)
    monkeypatch.setattr(simulator, "_BLOCK_STREAMS", frames_per_block * STREAMS_PER_FRAME)
    assert simulate_bytes(tmp_path / "blocks", SPANNING_LOT) == one_block
