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
        "metrics.json.roc.tsv": "4c1082e2685dd2a3c091c234f0f0e7c7abc3eba17e2e11bd7c9c19a1fec1746d",
        "occupancy.jsonl": "1c6dbe73b44d518d88f35206410621a44c16f45281f05177af2547f0081170d4",
        "report.json": "1803ed8f6247c2ca657aa30e35dd21b77ed47a9934944f494dd2f18c7047058d",
        "slots.json": "cdb5482ee07a847ada4c2be0b01ac4af8edfdfdfc989f44a40ce28ae03fef4e7",
        "slots.json.clusters.tsv": "3dd86c56f6c80fa7bddb44acbe344e5255b4731a3d74dc584e0afe86f03dcda8",
        "slots.json.spreads.tsv": "ae4748085ddc37f99137f0e5f8f3d5d51a97a4c59c6099a6519db857daad693c",
    },
    "scores": {
        "metrics.json": "582ed5783b1c976170480eb97cad2b0abf6c0eb242d4e2b056f865848497907d",
        "metrics.json.roc.tsv": "aba92f9c05ce2bf69c1f528216649e2cea40b6184b7cf156f4a031dea2a622a2",
        "occupancy.jsonl": "df191bcb592fcb72529fbb3011334f1ae4a79d57d96cc4a4d917edac674111ac",
        "report.json": "c2c231c28c78a7713a82a7fbf430f76e1a9ead606f5c5d51e32676e56f5b7235",
        "slots.json": "cdb5482ee07a847ada4c2be0b01ac4af8edfdfdfc989f44a40ce28ae03fef4e7",
        "slots.json.clusters.tsv": "3dd86c56f6c80fa7bddb44acbe344e5255b4731a3d74dc584e0afe86f03dcda8",
        "slots.json.spreads.tsv": "ae4748085ddc37f99137f0e5f8f3d5d51a97a4c59c6099a6519db857daad693c",
    },
    "tilted-oracle": {
        "metrics.json": "fc8c9597846bf6124b70ec6b67fda92f8354992e0f8bece79df0f1629f886820",
        "metrics.json.roc.tsv": "5b6c3bbb0229e64ac58eea1eafd73dc076493947e7255197369929f716db4ee2",
        "occupancy.jsonl": "bc67c7ad804aac0ea385877aa8fc48c3bcc4b78fb301f7997ee9c45f7afa7234",
        "report.json": "f97d2b1bb16368c9fb6e7bb8b7e50d9ef3f0df87075a74ed74a2b63fade058c1",
        "slots.json": "c5d6844b7c1d744b3ecb53ff1ec791b4f1657bdb3a1e61bc23562eac73fc89e2",
        "slots.json.clusters.tsv": "2871bd92785f72e5b465b685886e790bbcd21ee5ef281a759d22d68e4ab27a0a",
        "slots.json.spreads.tsv": "f8133817e6f4ee0279089854ef8c607b9f6a5062eabb851dd430de8e6398144a",
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
