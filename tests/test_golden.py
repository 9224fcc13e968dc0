"""Pinned sha256 digests of every file ``run-pipeline`` writes on a small seeded lot.

The lot has a tilted camera, size and center noise, misses, passing traffic
and a violation site, so every output path runs: the IQR fence drops a
cluster, the score table leaves gaps (ERROR records with their reasons) and
holds integer and exactly-at-threshold scores. A digest that moves means an
output byte moved; a change that means to do that must say why and re-pin.
"""

import hashlib
import json

import pytest

from parkscan.cli import main

SCENARIO = {
    "rows": 2,
    "cols": 4,
    "slot_pitch": 40.0,
    "slot_size": [22.0, 30.0],
    "frame_count": 60,
    "occupancy_prob": 0.6,
    "center_noise_sigma": 0.8,
    "size_noise_sigma": 0.5,
    "miss_prob": 0.1,
    "passing_rate": 0.3,
    "violation_sites": [{"x": 80.0, "y": 160.0, "center_spread_sigma": 8.0, "emit_prob": 1.0}],
    "camera": "mild-tilt",
    "seed": 11,
}
RUN_CONFIG = {"n_bottom": 8}
# Clustering in bird's-eye view: the inverse of the "mild-tilt" camera, by
# cofactors scaled to a unit corner, as the benchmark's run.json has it. This
# case pins the rounding of both homography mappings.
TILTED_RUN_CONFIG = {"n_bottom": 8, "homography": {"matrix": [
    0.9781818181818182, -0.14545454545454545, -44.54545454545455,
    0.0, 0.9090909090909091, -27.27272727272727,
    0.0, -0.0007272727272727272, 1.0,
]}}
CASES = {"oracle": ("oracle", RUN_CONFIG), "scores": ("scores", RUN_CONFIG),
         "tilted-oracle": ("oracle", TILTED_RUN_CONFIG)}

GOLDEN = {
    "oracle": {
        "metrics.json": "fc8c9597846bf6124b70ec6b67fda92f8354992e0f8bece79df0f1629f886820",
        "metrics.json.roc.tsv": "15e578bef1aa32e68115bff55f6318a3eb36082069394fdc7c6c2790f6f0e86d",
        "occupancy.jsonl": "7cee8ae77da497f4d285392dc69ebef0bb0e6804a5f46e50eaec64bc6183e30b",
        "report.json": "1803ed8f6247c2ca657aa30e35dd21b77ed47a9934944f494dd2f18c7047058d",
        "slots.json": "2c2f4895dcfeafc249856b1b7d4dbc6c46a8a7347743a70efb3996fc08b98bc5",
        "slots.json.clusters.tsv": "525e002ab41a6936ce48073ffd8855d4bebbb5b7cd0015c2a7d5099d2e199215",
        "slots.json.spreads.tsv": "39544dec3ee7f63e44899d5ee64de79ab276dfd975f0dec83fae392735a05fb3",
    },
    "scores": {
        "metrics.json": "582ed5783b1c976170480eb97cad2b0abf6c0eb242d4e2b056f865848497907d",
        "metrics.json.roc.tsv": "aba92f9c05ce2bf69c1f528216649e2cea40b6184b7cf156f4a031dea2a622a2",
        "occupancy.jsonl": "df191bcb592fcb72529fbb3011334f1ae4a79d57d96cc4a4d917edac674111ac",
        "report.json": "c2c231c28c78a7713a82a7fbf430f76e1a9ead606f5c5d51e32676e56f5b7235",
        "slots.json": "2c2f4895dcfeafc249856b1b7d4dbc6c46a8a7347743a70efb3996fc08b98bc5",
        "slots.json.clusters.tsv": "525e002ab41a6936ce48073ffd8855d4bebbb5b7cd0015c2a7d5099d2e199215",
        "slots.json.spreads.tsv": "39544dec3ee7f63e44899d5ee64de79ab276dfd975f0dec83fae392735a05fb3",
    },
    "tilted-oracle": {
        "metrics.json": "fc8c9597846bf6124b70ec6b67fda92f8354992e0f8bece79df0f1629f886820",
        "metrics.json.roc.tsv": "4ebcf6abbc8e03f46caa33c295f39f7a620b23c8648e86e559386d7bd2b12e99",
        "occupancy.jsonl": "8e5912a4cff0baba27ec88244d9f9d18872cc56805d82c0d2f1a4458ebab0405",
        "report.json": "f97d2b1bb16368c9fb6e7bb8b7e50d9ef3f0df87075a74ed74a2b63fade058c1",
        "slots.json": "4453dbbc0867ce167750de09466f5804566b4c124fc027bcbabe123fe64da072",
        "slots.json.clusters.tsv": "dd3d12efd2885bf6a40701f26154da89d5e7aee2f78a603f53d5d9380ca0184e",
        "slots.json.spreads.tsv": "abea5772f727af2eb05c82c4da997bfe66a6bc3a1a96304432d9639ed3d0d9e8",
    },
}


def _write_scores(path, truth_occupancy):
    # Gaps every 7th key, integer 0 and 1, and scores exactly at the 0.5 threshold.
    with open(path, "w", encoding="utf-8") as fh:
        for f, line in enumerate(truth_occupancy.read_text(encoding="utf-8").splitlines()):
            frame = json.loads(line)["frame"]
            for slot in range(8):
                k = 5 * f + 3 * slot
                if k % 7 == 0:
                    continue
                score = (0, 1, 0.5)[k % 3] if k % 4 == 0 else (k % 10) / 10 + 0.05
                fh.write(json.dumps({"frame": frame, "slot": slot, "score": score}) + "\n")


def _run_pipeline(tmp_path, case):
    """Simulate the golden lot, write its score table, and run ``run-pipeline`` into ``out``."""
    mode, run_config = CASES[case]
    (tmp_path / "scenario.json").write_text(json.dumps(SCENARIO), encoding="utf-8")
    (tmp_path / "run.json").write_text(json.dumps(run_config), encoding="utf-8")
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(tmp_path / "scenario.json"), "--out-dir", str(sim)]) == 0
    _write_scores(tmp_path / "scores.jsonl", sim / "occupancy_truth.jsonl")
    out = tmp_path / "out"
    assert main([
        "run-pipeline", "--detections", str(sim / "detections.jsonl"),
        "--config", str(tmp_path / "run.json"),
        "--truth-slots", str(sim / "slots_truth.json"),
        "--truth-occupancy", str(sim / "occupancy_truth.jsonl"),
        "--mode", mode, "--scores", str(tmp_path / "scores.jsonl"),
        "--out-dir", str(out), "--emit-plot-data",
    ]) == 0
    return sim, out


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_run_pipeline_output_digests(tmp_path, capsys, case):
    _, out = _run_pipeline(tmp_path, case)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert digests == GOLDEN[case]


@pytest.mark.parametrize("case", ["oracle", "scores"])
def test_split_subcommands_write_the_run_pipeline_bytes(tmp_path, capsys, case):
    # run-pipeline hands the occupancy records to evaluate in memory; evaluate
    # on its own reads them back from occupancy.jsonl, ERROR records included.
    sim, out = _run_pipeline(tmp_path, case)
    split = tmp_path / "split"
    split.mkdir()
    config = ["--config", str(tmp_path / "run.json")]
    source = tmp_path / "scores.jsonl" if case == "scores" else sim / "occupancy_truth.jsonl"
    assert main(["detect-slots", "--detections", str(sim / "detections.jsonl"), *config,
                 "--out", str(split / "slots.json")]) == 0
    assert main(["classify", "--slots", str(split / "slots.json"), "--mode", case,
                 "--input", str(source), *config, "--out-records", str(split / "occupancy.jsonl"),
                 "--out-report", str(split / "report.json")]) == 0
    assert main(["evaluate", "--pred-slots", str(split / "slots.json"),
                 "--truth-slots", str(sim / "slots_truth.json"),
                 "--records", str(split / "occupancy.jsonl"),
                 "--truth-occupancy", str(sim / "occupancy_truth.jsonl"), *config,
                 "--out", str(split / "metrics.json"), "--emit-plot-data"]) == 0
    for name in ("slots.json", "occupancy.jsonl", "report.json", "metrics.json", "metrics.json.roc.tsv"):
        assert (split / name).read_bytes() == (out / name).read_bytes(), name
    if case == "scores":
        assert b'"status": "ERROR"' in (split / "occupancy.jsonl").read_bytes()
