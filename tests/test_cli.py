import builtins
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import parkscan
from parkscan import cli
from parkscan.cli import main
from test_golden import GOLDEN
from test_golden import _run_pipeline as _run_golden_pipeline

SCENARIO = {
    "rows": 2,
    "cols": 3,
    "slot_pitch": 40.0,
    "slot_size": [22.0, 30.0],
    "frame_count": 40,
    "occupancy_prob": 0.8,
    "center_noise_sigma": 0.5,
    "camera": "identity",
    "seed": 77,
}

RUN_CONFIG = {
    "filter": {"classes": ["car", "truck"], "min_confidence": 0.5},
    "homography": {"identity": True},
    "n_bottom": 6,
}


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "scenario.json").write_text(json.dumps(SCENARIO))
    (tmp_path / "run.json").write_text(json.dumps(RUN_CONFIG))
    return tmp_path


def simulate(workdir, out="sim"):
    rc = main(
        ["simulate", "--scenario", str(workdir / "scenario.json"), "--out-dir", str(workdir / out)]
    )
    assert rc == 0
    return workdir / out


def test_simulate_writes_files(workdir):
    out = simulate(workdir)
    assert (out / "detections.jsonl").exists()
    assert (out / "slots_truth.json").exists()
    assert (out / "occupancy_truth.jsonl").exists()


def test_simulate_is_deterministic(workdir):
    a = simulate(workdir, "a")
    b = simulate(workdir, "b")
    for name in ("detections.jsonl", "slots_truth.json", "occupancy_truth.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_missing_config_exits_2(workdir):
    assert main(["simulate", "--scenario", str(workdir / "nope.json"), "--out-dir", str(workdir / "x")]) == 2


def test_detect_slots_end_to_end(workdir, capsys):
    sim = simulate(workdir)
    out = workdir / "slots.json"
    rc = main(
        [
            "detect-slots",
            "--detections", str(sim / "detections.jsonl"),
            "--config", str(workdir / "run.json"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    diagnostics = json.loads(capsys.readouterr().out)
    assert diagnostics["slots"] == 6
    assert diagnostics["shortfall"] is False
    doc = json.loads(out.read_text())
    assert len(doc["slots"]) == 6
    assert doc["config_echo"]["n_bottom"] == 6


def test_detect_slots_shortfall_flag(workdir, capsys):
    sim = simulate(workdir)
    (workdir / "run44.json").write_text(json.dumps({**RUN_CONFIG, "n_bottom": 44}))
    rc = main(
        [
            "detect-slots",
            "--detections", str(sim / "detections.jsonl"),
            "--config", str(workdir / "run44.json"),
            "--out", str(workdir / "slots.json"),
        ]
    )
    assert rc == 0
    diagnostics = json.loads(capsys.readouterr().out)
    assert diagnostics["shortfall"] is True
    assert diagnostics["slots"] == 6


def test_detect_slots_is_deterministic(workdir, capsys):
    sim = simulate(workdir)
    args = [
        "detect-slots",
        "--detections", str(sim / "detections.jsonl"),
        "--config", str(workdir / "run.json"),
    ]
    assert main(args + ["--out", str(workdir / "s1.json")]) == 0
    assert main(args + ["--out", str(workdir / "s2.json")]) == 0
    assert (workdir / "s1.json").read_bytes() == (workdir / "s2.json").read_bytes()


def test_detect_slots_corrupt_line_exits_2(workdir, capsys):
    bad = workdir / "bad.jsonl"
    bad.write_text('{"frame": "f1", "dets": []}\n{{{\n')
    rc = main(
        [
            "detect-slots",
            "--detections", str(bad),
            "--config", str(workdir / "run.json"),
            "--out", str(workdir / "slots.json"),
        ]
    )
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


def test_detect_slots_no_detections_exits_3(workdir):
    empty = workdir / "empty.jsonl"
    empty.write_text('{"frame": "f1", "dets": []}\n{"frame": "f2", "dets": []}\n')
    rc = main(
        [
            "detect-slots",
            "--detections", str(empty),
            "--config", str(workdir / "run.json"),
            "--out", str(workdir / "slots.json"),
        ]
    )
    assert rc == 3


def test_detect_slots_plot_data(workdir, capsys):
    sim = simulate(workdir)
    out = workdir / "slots.json"
    rc = main(
        [
            "detect-slots",
            "--detections", str(sim / "detections.jsonl"),
            "--config", str(workdir / "run.json"),
            "--out", str(out),
            "--emit-plot-data",
        ]
    )
    assert rc == 0
    clusters = (workdir / "slots.json.clusters.tsv").read_text().splitlines()
    spreads = (workdir / "slots.json.spreads.tsv").read_text().splitlines()
    assert clusters[0] == "x\ty\tcluster"
    assert spreads[0] == "cluster_id\tspread\tmembers\tkept_by_iqr\tselected"
    assert len(clusters) > 1 and len(spreads) == 7  # 6 clusters + header


def _detect(workdir, sim):
    out = workdir / "slots.json"
    rc = main(
        [
            "detect-slots",
            "--detections", str(sim / "detections.jsonl"),
            "--config", str(workdir / "run.json"),
            "--out", str(out),
        ]
    )
    assert rc == 0
    return out


def test_classify_oracle_matches_ground_truth(workdir, capsys):
    sim = simulate(workdir)
    slots = _detect(workdir, sim)
    rc = main(
        [
            "classify",
            "--slots", str(slots),
            "--mode", "oracle",
            "--input", str(sim / "occupancy_truth.jsonl"),
            "--out-records", str(workdir / "recs.jsonl"),
            "--out-report", str(workdir / "report.json"),
        ]
    )
    assert rc == 0
    report = json.loads((workdir / "report.json").read_text())
    truth_lines = [json.loads(l) for l in (sim / "occupancy_truth.jsonl").read_text().splitlines()]
    # Slot ids differ between prediction and truth, but per-frame occupied
    # counts must match exactly on noise-free-enough data.
    for line in truth_lines:
        expected = sum(line["occupancy"].values())
        assert report[line["frame"]]["occupied"] == expected
        assert report[line["frame"]]["occupied"] + report[line["frame"]]["vacant"] == 6


def test_classify_scores_mode_constant_one(workdir, capsys):
    sim = simulate(workdir)
    slots = _detect(workdir, sim)
    table = workdir / "scores.jsonl"
    with open(table, "w") as fh:
        for slot in range(6):
            fh.write(json.dumps({"frame": "f000000", "slot": slot, "score": 1.0}) + "\n")
    rc = main(
        [
            "classify",
            "--slots", str(slots),
            "--mode", "scores",
            "--input", str(table),
            "--out-records", str(workdir / "recs.jsonl"),
            "--out-report", str(workdir / "report.json"),
        ]
    )
    assert rc == 0
    report = json.loads((workdir / "report.json").read_text())
    assert report["f000000"]["occupied"] == 6


def test_classify_unknown_mode_exits_2(workdir):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--slots", "x", "--mode", "banana", "--input", "y",
              "--out-records", "r", "--out-report", "p"])
    assert exc.value.code == 2


def test_classify_empty_ground_truth_exits_3(workdir):
    sim = simulate(workdir)
    slots = _detect(workdir, sim)
    empty = workdir / "empty.jsonl"
    empty.write_text("")
    rc = main(
        [
            "classify",
            "--slots", str(slots),
            "--mode", "oracle",
            "--input", str(empty),
            "--out-records", str(workdir / "r.jsonl"),
            "--out-report", str(workdir / "p.json"),
        ]
    )
    assert rc == 3


def _write_registry(path, centers):
    doc = {
        "slots": [
            {"id": i, "cx": cx, "cy": cy, "w": 20.0, "h": 20.0, "spread": 0.0, "members": 1}
            for i, (cx, cy) in enumerate(centers)
        ],
        "config_echo": {},
    }
    path.write_text(json.dumps(doc))


def test_evaluate_perfect_predictions(workdir, capsys):
    centers = [(10.0 * i, 0.0) for i in range(5)]
    _write_registry(workdir / "pred.json", centers)
    _write_registry(workdir / "truth.json", centers)
    rc = main(
        [
            "evaluate",
            "--pred-slots", str(workdir / "pred.json"),
            "--truth-slots", str(workdir / "truth.json"),
            "--out", str(workdir / "metrics.json"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "precision: 100.00" in out
    assert "recall: 100.00" in out


def test_evaluate_prints_two_decimal_percentages(workdir, capsys):
    # 43 aligned pairs, one stray prediction, one unmatched truth:
    # tp=43, fp=1, fn=1.
    truth = [(10.0 * i, 0.0) for i in range(43)] + [(0.0, 500.0)]
    pred = [(10.0 * i, 0.0) for i in range(43)] + [(2000.0, 2000.0)]
    _write_registry(workdir / "pred.json", pred)
    _write_registry(workdir / "truth.json", truth)
    (workdir / "tolerance.json").write_text(json.dumps({"tolerance": 1.0}))
    rc = main(
        [
            "evaluate",
            "--pred-slots", str(workdir / "pred.json"),
            "--truth-slots", str(workdir / "truth.json"),
            "--config", str(workdir / "tolerance.json"),
            "--out", str(workdir / "metrics.json"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "precision: 97.73" in out
    assert "recall: 97.73" in out
    doc = json.loads((workdir / "metrics.json").read_text())
    assert (doc["detection"]["tp"], doc["detection"]["fp"], doc["detection"]["fn"]) == (43, 1, 1)


def test_evaluate_one_truth_slot_matches_within_half_its_smaller_side(workdir, capsys):
    # One truth slot, 20 x 30 px: with no "tolerance" in the run config the match radius
    # is 10 px. Prediction 0 lies 9.5 px from it; prediction 1, 11 px away, is a false positive.
    slot = {"spread": 0.0, "members": 3, "w": 20.0, "h": 30.0}
    (workdir / "truth.json").write_text(json.dumps({"slots": [{"id": 0, "cx": 100.0, "cy": 50.0, **slot}]}))
    (workdir / "pred.json").write_text(json.dumps({"slots": [{"id": 0, "cx": 109.5, "cy": 50.0, **slot},
                                                             {"id": 1, "cx": 100.0, "cy": 61.0, **slot}]}))
    records = [("f1", 0, 0.9, "OCCUPIED"), ("f1", 1, 0.1, "VACANT"), ("f2", 0, 0.2, "VACANT"),
               ("f3", 0, 0.95, "OCCUPIED")]
    (workdir / "records.jsonl").write_text("".join(
        json.dumps({"frame": f, "slot": i, "score": v, "status": st}) + "\n" for f, i, v, st in records))
    (workdir / "occupancy.jsonl").write_text("".join(
        json.dumps({"frame": f, "occupancy": {"0": bit}, "vehicles": []}) + "\n"
        for f, bit in (("f1", True), ("f2", False), ("f3", False))))
    rc = main(["evaluate", "--pred-slots", str(workdir / "pred.json"), "--truth-slots", str(workdir / "truth.json"),
               "--records", str(workdir / "records.jsonl"), "--truth-occupancy", str(workdir / "occupancy.jsonl"),
               "--out", str(workdir / "metrics.json")])
    assert rc == 0
    assert capsys.readouterr().out == "precision: 50.00\nrecall: 100.00\naccuracy: 66.67\nauc: 0.5000\n"
    assert (workdir / "metrics.json").read_text() == """{
  "classification": {
    "accuracy": 0.6666666666666666,
    "auc": 0.5,
    "counts": {
      "fn": 0,
      "fp": 1,
      "tn": 1,
      "tp": 1
    }
  },
  "detection": {
    "fn": 0,
    "fp": 1,
    "precision": 0.5,
    "recall": 1.0,
    "tolerance": 10.0,
    "tp": 1
  }
}
"""


def test_evaluate_single_class_auc_is_null_with_exit_0(workdir, capsys):
    sim = simulate(workdir)
    slots = _detect(workdir, sim)
    # Constant-1.0 scores for every frame/slot: every matched label is
    # compared, but predictions are all OCCUPIED.
    truth_lines = [json.loads(l) for l in (sim / "occupancy_truth.jsonl").read_text().splitlines()]
    all_occupied = workdir / "occ_all.jsonl"
    with open(all_occupied, "w") as fh:
        for line in truth_lines:
            line["occupancy"] = {k: True for k in line["occupancy"]}
            fh.write(json.dumps(line) + "\n")
    table = workdir / "scores.jsonl"
    with open(table, "w") as fh:
        for line in truth_lines:
            for slot in range(6):
                fh.write(json.dumps({"frame": line["frame"], "slot": slot, "score": 1.0}) + "\n")
    rc = main(
        [
            "classify",
            "--slots", str(slots),
            "--mode", "scores",
            "--input", str(table),
            "--out-records", str(workdir / "recs.jsonl"),
            "--out-report", str(workdir / "report.json"),
        ]
    )
    assert rc == 0
    rc = main(
        [
            "evaluate",
            "--pred-slots", str(slots),
            "--truth-slots", str(sim / "slots_truth.json"),
            "--records", str(workdir / "recs.jsonl"),
            "--truth-occupancy", str(all_occupied),
            "--out", str(workdir / "metrics.json"),
        ]
    )
    assert rc == 0
    doc = json.loads((workdir / "metrics.json").read_text())
    assert doc["classification"]["auc"] is None
    assert doc["classification"]["accuracy"] == 1.0


def _write_score_table(path, truth_occupancy):
    # A deterministic two-class table over every frame and predicted slot id.
    with open(path, "w") as fh:
        for f, line in enumerate(truth_occupancy.read_text().splitlines()):
            frame = json.loads(line)["frame"]
            for slot in range(6):
                score = ((3 * f + 7 * slot) % 10) / 10 + 0.05
                fh.write(json.dumps({"frame": frame, "slot": slot, "score": score}) + "\n")


@pytest.mark.parametrize(
    "mode, plot",
    [("oracle", False), ("oracle", True), ("scores", False), ("scores", True)],
    ids=["oracle", "oracle-plot-data", "scores", "scores-plot-data"],
)
def test_run_pipeline_matches_manual_steps(workdir, capsys, mode, plot):
    sim = simulate(workdir)
    plot_flag = ["--emit-plot-data"] if plot else []
    scores = workdir / "scores.jsonl"
    _write_score_table(scores, sim / "occupancy_truth.jsonl")

    # Manual composition.
    slots = workdir / "slots.json"
    assert main(
        [
            "detect-slots",
            "--detections", str(sim / "detections.jsonl"),
            "--config", str(workdir / "run.json"),
            "--out", str(slots),
            *plot_flag,
        ]
    ) == 0
    assert main(
        [
            "classify",
            "--slots", str(slots),
            "--mode", mode,
            "--input", str(scores if mode == "scores" else sim / "occupancy_truth.jsonl"),
            "--config", str(workdir / "run.json"),
            "--out-records", str(workdir / "occupancy.jsonl"),
            "--out-report", str(workdir / "report.json"),
        ]
    ) == 0
    assert main(
        [
            "evaluate",
            "--pred-slots", str(slots),
            "--truth-slots", str(sim / "slots_truth.json"),
            "--records", str(workdir / "occupancy.jsonl"),
            "--truth-occupancy", str(sim / "occupancy_truth.jsonl"),
            "--config", str(workdir / "run.json"),
            "--out", str(workdir / "metrics.json"),
            *plot_flag,
        ]
    ) == 0
    manual_stdout = capsys.readouterr().out

    pipe_dir = workdir / "pipe"
    assert main(
        [
            "run-pipeline",
            "--detections", str(sim / "detections.jsonl"),
            "--config", str(workdir / "run.json"),
            "--truth-slots", str(sim / "slots_truth.json"),
            "--truth-occupancy", str(sim / "occupancy_truth.jsonl"),
            "--mode", mode,
            *(["--scores", str(scores)] if mode == "scores" else []),
            "--out-dir", str(pipe_dir),
            *plot_flag,
        ]
    ) == 0
    assert capsys.readouterr().out == manual_stdout

    outputs = ["slots.json", "occupancy.jsonl", "report.json", "metrics.json"]
    if plot:
        outputs += ["slots.json.clusters.tsv", "slots.json.spreads.tsv", "metrics.json.roc.tsv"]
    for name in outputs:
        assert (pipe_dir / name).read_bytes() == (workdir / name).read_bytes(), name
    assert sorted(p.name for p in pipe_dir.iterdir()) == sorted(outputs)

    metrics = json.loads((pipe_dir / "metrics.json").read_text())
    assert metrics["detection"]["precision"] == 1.0
    assert metrics["detection"]["recall"] == 1.0
    if mode == "oracle":
        assert metrics["classification"]["accuracy"] == 1.0


def on_cpus(monkeypatch, count):
    """Show the CLI ``count`` CPUs, so the truth read forks (two) or runs in-line (one);
    return the list of the pids its forks make."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    forks = []
    real_fork = getattr(os, "fork", None)

    def counted_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    if real_fork:
        monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_pipeline_reads_each_input_once(workdir, monkeypatch):
    sim = simulate(workdir)
    pipe_dir = workdir / "pipe"
    forks = on_cpus(monkeypatch, 2)
    real_open = builtins.open
    opens_log = workdir / "opens.log"  # appended to by every process, the truth-reading child too

    def spy_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and "r" in mode:
            with real_open(opens_log, "a", encoding="utf-8") as log:
                log.write(f"{Path(file).resolve()}\n")
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr(io, "open", spy_open)
    assert main(
        [
            "run-pipeline",
            "--detections", str(sim / "detections.jsonl"),
            "--config", str(workdir / "run.json"),
            "--truth-slots", str(sim / "slots_truth.json"),
            "--truth-occupancy", str(sim / "occupancy_truth.jsonl"),
            "--out-dir", str(pipe_dir),
        ]
    ) == 0
    monkeypatch.undo()

    assert len(forks) == hasattr(os, "fork")
    reads = [Path(line) for line in opens_log.read_text(encoding="utf-8").splitlines()]
    assert reads.count((sim / "occupancy_truth.jsonl").resolve()) == 1
    assert reads.count((sim / "detections.jsonl").resolve()) == 1
    assert (pipe_dir / "slots.json").resolve() not in reads
    assert (pipe_dir / "occupancy.jsonl").resolve() not in reads


def _run_pipeline_argv(sim, out):
    return ["run-pipeline", "--detections", str(sim / "detections.jsonl"),
            "--config", str(sim.parent / "run.json"), "--truth-slots", str(sim / "slots_truth.json"),
            "--truth-occupancy", str(sim / "occupancy_truth.jsonl"), "--out-dir", str(out)]


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-line", "forked"])
def test_run_pipeline_bad_truth_line_exits_2_after_slots_json(workdir, capsys, monkeypatch, cpus):
    sim = simulate(workdir)
    truth = sim / "occupancy_truth.jsonl"
    first = truth.read_text(encoding="utf-8").splitlines()[0]
    truth.write_text(first + '\n{"frame": "f2"\n', encoding="utf-8")
    forks = on_cpus(monkeypatch, cpus)
    out = workdir / "pipe"

    assert main(_run_pipeline_argv(sim, out)) == 2

    assert len(forks) == (cpus == 2 and hasattr(os, "fork"))
    assert_no_child_process()
    captured = capsys.readouterr()
    assert json.loads(captured.out)["slots"] == 6  # the detect stage ran and printed first
    assert captured.err.splitlines() == ["error: line 2: invalid JSON (Expecting ',' delimiter)"]
    assert sorted(p.name for p in out.iterdir()) == ["slots.json"]


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-line", "forked"])
def test_run_pipeline_reports_a_detection_error_before_a_truth_error(workdir, capsys, monkeypatch, cpus):
    sim = simulate(workdir)
    (sim / "detections.jsonl").write_text(json.dumps(NAN_DETECTION) + "\n", encoding="utf-8")
    (sim / "occupancy_truth.jsonl").write_text("{not json\n", encoding="utf-8")
    on_cpus(monkeypatch, cpus)

    assert main(_run_pipeline_argv(sim, workdir / "pipe")) == 2

    assert_no_child_process()
    assert capsys.readouterr().err.splitlines() == ["error: line 1: x coordinate must be finite, got nan"]
    assert list((workdir / "pipe").iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_truth_reads_leave_no_child_process(workdir, capsys, monkeypatch):
    sim = simulate(workdir)
    forks = on_cpus(monkeypatch, 2)
    assert main(_run_pipeline_argv(sim, workdir / "pipe")) == 0
    assert_no_child_process()
    assert main(["evaluate", "--pred-slots", str(workdir / "pipe" / "slots.json"),
                 "--truth-slots", str(sim / "slots_truth.json"),
                 "--records", str(workdir / "pipe" / "occupancy.jsonl"),
                 "--truth-occupancy", str(sim / "occupancy_truth.jsonl"),
                 "--out", str(workdir / "metrics.json")]) == 0
    assert_no_child_process()
    assert len(forks) == 2
    assert (workdir / "metrics.json").read_bytes() == (workdir / "pipe" / "metrics.json").read_bytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_bad_detection_log_kills_the_truth_reading_child(workdir, capsys, monkeypatch):
    sim = simulate(workdir)
    (sim / "detections.jsonl").write_text("{not json\n", encoding="utf-8")
    forks = on_cpus(monkeypatch, 2)
    started = workdir / "child-started"
    real_read_detections = cli._read_detections

    def slow_truth_read(path):  # in the child: say so, then read for longer than any test runs
        started.write_text(str(os.getpid()))
        time.sleep(120)

    def read_detections_once_the_child_reads(path, cfg):
        deadline = time.monotonic() + 30
        while not started.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return real_read_detections(path, cfg)

    monkeypatch.setattr(cli, "_read_truth", slow_truth_read)
    monkeypatch.setattr(cli, "_read_detections", read_detections_once_the_child_reads)
    t0 = time.monotonic()
    assert main(_run_pipeline_argv(sim, workdir / "pipe")) == 2
    assert time.monotonic() - t0 < 60  # the child was killed, not waited for

    assert started.read_text() == str(forks[0])
    assert_no_child_process()
    assert capsys.readouterr().err.startswith("error: line 1: invalid JSON")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_child_that_dies_without_a_result_leaves_the_read_to_the_parent(workdir, capsys, monkeypatch):
    sim = simulate(workdir)
    assert main(_run_pipeline_argv(sim, workdir / "expected")) == 0
    forks = on_cpus(monkeypatch, 2)
    parent = os.getpid()
    real_read_truth = cli._read_truth

    def read_truth_or_die(path):
        if os.getpid() != parent:
            os._exit(9)
        return real_read_truth(path)

    monkeypatch.setattr(cli, "_read_truth", read_truth_or_die)
    assert main(_run_pipeline_argv(sim, workdir / "pipe")) == 0

    assert len(forks) == 1
    assert_no_child_process()
    for name in ("slots.json", "occupancy.jsonl", "report.json", "metrics.json"):
        assert (workdir / "pipe" / name).read_bytes() == (workdir / "expected" / name).read_bytes(), name


def _fork_fails():
    raise BlockingIOError(11, "Resource temporarily unavailable")


@pytest.mark.parametrize("cpus, fork, thread", [(1, None, False), (2, _fork_fails, False), (2, None, True)],
                         ids=["one-cpu", "fork-fails", "other-thread"])
def test_truth_read_runs_in_line_when_it_cannot_fork(workdir, capsys, monkeypatch, cpus, fork, thread):
    sim = simulate(workdir)
    on_cpus(monkeypatch, 2)
    assert main(_run_pipeline_argv(sim, workdir / "forked")) == 0
    forks = on_cpus(monkeypatch, cpus)
    if fork:
        monkeypatch.setattr(os, "fork", fork, raising=False)
    done = threading.Event()
    other = threading.Thread(target=done.wait, args=(30,))
    if thread:
        other.start()
    try:
        assert main(_run_pipeline_argv(sim, workdir / "in-line")) == 0
    finally:
        done.set()
    if thread:
        other.join(30)
        assert not other.is_alive()

    assert forks == []
    assert_no_child_process()
    for name in ("slots.json", "occupancy.jsonl", "report.json", "metrics.json"):
        assert (workdir / "in-line" / name).read_bytes() == (workdir / "forked" / name).read_bytes(), name


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_one_cpu_run_pipeline_writes_the_golden_bytes(tmp_path, capsys, monkeypatch, case):
    forks = on_cpus(monkeypatch, 1)
    _, out = _run_golden_pipeline(tmp_path, case)
    assert forks == []
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())} == GOLDEN[case]


GOOD_REGISTRY = {
    "slots": [
        {"id": i, "cx": 100.0 * i, "cy": 0.0, "w": 20.0, "h": 20.0, "spread": 0.0, "members": 5}
        for i in range(3)
    ]
}
ONE_BIT_TRUTH = {"frame": "f1", "occupancy": {"0": True}, "vehicles": []}
SLOT2_RECORD = {"frame": "f1", "slot": 2, "score": 0.9, "status": "OCCUPIED"}
# One frame whose three coincident boxes form one slot.
THREE_DETECTIONS = {"frame": "f1", "dets": [{"cx": 0, "cy": 0, "w": 20, "h": 20, "cls": "car", "conf": 0.9}] * 3}

CLASSIFY = ["classify", "--slots", "{d}/slots.json", "--mode", "oracle", "--input", "{d}/truth.jsonl",
            "--out-records", "{d}/r.jsonl", "--out-report", "{d}/p.json"]
DETECT = ["detect-slots", "--detections", "{d}/d.jsonl", "--config", "{d}/run.json", "--out", "{d}/s.json"]
# Two boxes 9 px apart: eps must not fall below 2**-47 of the largest coordinate, 9.
TWO_DETECTIONS = {"frame": "f1", "dets": [{**THREE_DETECTIONS["dets"][0], "cx": x} for x in (0, 9)]}
NAN_DETECTION = {"frame": "f1", "dets": [{"cx": float("nan"), "cy": 0, "w": 20, "h": 20, "cls": "car", "conf": 0.9}]}
CLASSIFY_SCORES = CLASSIFY[:4] + ["scores", "--input", "{d}/scores.jsonl"] + CLASSIFY[7:]
F1_SLOT0_SCORE = {"frame": "f1", "slot": 0, "score": 0.9}
PARKED_AT_SLOT0 = {"cx": 0.0, "cy": 0.0, "w": 20.0, "h": 20.0, "kind": "parked"}
EVALUATE = ["evaluate", "--pred-slots", "{d}/slots.json", "--truth-slots", "{d}/slots.json",
            "--records", "{d}/records.jsonl", "--truth-occupancy", "{d}/truth.jsonl", "--out", "{d}/m.json"]
RUN_PIPELINE = ["run-pipeline", "--detections", "{d}/d.jsonl", "--config", "{d}/run.json",
                "--truth-slots", "{d}/slots.json", "--truth-occupancy", "{d}/truth.jsonl", "--out-dir", "{d}/out"]
SIMULATE = ["simulate", "--scenario", "{d}/scenario.json", "--out-dir", "{d}/sim"]
# The third homography row sends image x = 100 to the line at infinity.
SINGULAR_RUN_CONFIG = {"n_bottom": 1, "homography": {"matrix": [1, 0, 0, 0, 1, 0, -0.01, 0, 1]}}
NUMERIC_FRAME = 'line 1: bad record ("frame" must be a non-empty string, got 5)'
SITE = {"x": 10.0, "y": 20.0, "center_spread_sigma": 4.0}
SLOT0_RECORD = {"frame": "f1", "slot": 0, "score": 0.9, "status": "OCCUPIED"}
DEEP = b"[" * 100_000 + b"]" * 100_000  # past any recursion limit of the JSON decoder
F1_SLOT0_LINE = json.dumps(F1_SLOT0_SCORE).encode() + b"\n"
EVALUATE_SLOTS = EVALUATE[:5] + EVALUATE[9:]  # slots only: no records, no truth occupancy
# The first two slots coincide, so the median nearest-neighbour distance is 0.
COINCIDENT_REGISTRY = {"slots": [{**GOOD_REGISTRY["slots"][0], "id": i, "cx": cx} for i, cx in enumerate((0, 0, 100))]}
# The unit square onto itself, with one coordinate that only coercion reads as the same number.
UNIT_SQUARE = [{"src": [x, y], "dst": [x, y]} for x, y in ((0, 0), (1, 0), (0, 1), (1, 1))]
SQUARE_STRING_COORDINATE = [{"src": ["0", 0], "dst": [0, 0]}, *UNIT_SQUARE[1:]]
SQUARE_BOOLEAN_COORDINATE = [UNIT_SQUARE[0], {"src": [1, 0], "dst": [True, 0]}, *UNIT_SQUARE[2:]]
SQUARE_HUGE_COORDINATE = [{"src": [10**400, 0], "dst": [0, 0]}, *UNIT_SQUARE[1:]]


@pytest.mark.parametrize(
    "files, argv, names",
    [
        pytest.param({"d.jsonl": THREE_DETECTIONS, "run.json": {"n_bottom": 1}},
                     RUN_PIPELINE + ["--mode", "scores"], "--scores", id="scores-mode-without-scores"),
        pytest.param({"run.json": {"threshold": 1.5}}, CLASSIFY + ["--config", "{d}/run.json"],
                     "threshold must be", id="threshold-config-key"),
        pytest.param({"run.json": {"iou_threshold": 0}}, CLASSIFY + ["--config", "{d}/run.json"],
                     "iou_threshold must be", id="iou-threshold-config-key"),
        pytest.param({"slots.json": {"slots": [{"cx": 0, "cy": 0, "w": 1, "h": 1}]}}, CLASSIFY,
                     "slot entry 0", id="registry-entry-without-id"),
        pytest.param({"slots.json": {"slots": 5}}, CLASSIFY, '"slots" list', id="registry-slots-not-a-list"),
        pytest.param({"slots.json": {"slots": [{"id": 0, "cx": "left", "cy": 0, "w": 1, "h": 1}]}},
                     CLASSIFY, "slot entry 0", id="registry-non-numeric-field"),
        pytest.param({"records.jsonl": SLOT2_RECORD}, EVALUATE, "frame 'f1' has no occupancy bit for truth slot 2",
                     id="truth-frame-missing-slot-bit"),
        pytest.param({}, ["classify", "--mode", "banana"] + CLASSIFY[3:], "invalid choice: 'banana'",
                     id="argparse-usage-error"),
        pytest.param({"d.jsonl": THREE_DETECTIONS, "run.json": {"n_bottom": 1}}, DETECT + ["--iqr-one-sided"],
                     "unrecognized arguments: --iqr-one-sided", id="removed-iqr-flag"),
        *(pytest.param({"d.jsonl": THREE_DETECTIONS, "run.json": {"n_bottom": 1}, "scenario.json": SCENARIO},
                       argv + [flag, value], f"unrecognized arguments: {flag} {value}",
                       id=f"removed-{argv[0]}-{flag[2:]}-flag")
          for argv, flag, value in [
              (SIMULATE, "--seed", "5"),
              (DETECT, "--n-bottom", "1"),
              (DETECT, "--eps", "15"),
              (DETECT, "--min-points", "3"),
              (DETECT, "--min-confidence", "0.5"),
              (DETECT, "--classes", "car"),
              (CLASSIFY, "--threshold", "0.5"),
              (CLASSIFY, "--iou-threshold", "0.3"),
              (EVALUATE_SLOTS, "--tolerance", "1.0"),
              (RUN_PIPELINE, "--n-bottom", "1"),
              (RUN_PIPELINE, "--tolerance", "1.0"),
          ]),
        pytest.param({"d.jsonl": THREE_DETECTIONS, "run.json": {"n_bottom": 1, "epsilon": 99}}, DETECT,
                     "unknown keys ['epsilon']", id="unknown-config-key"),
        pytest.param({"d.jsonl": THREE_DETECTIONS, "run.json": {"n_bottom": 1, "iqr_one_sided": True}}, DETECT,
                     "unknown keys ['iqr_one_sided']", id="stale-iqr-config-key"),
        pytest.param({"d.jsonl": THREE_DETECTIONS, "run.json": {"n_bottom": 1, "filter": {"min_conf": 0.2}}},
                     DETECT, "unknown keys ['min_conf']", id="unknown-filter-key"),
        pytest.param({"d.jsonl": [THREE_DETECTIONS] * 3, "run.json": {"n_bottom": 1}}, DETECT,
                     "line 2: frame 'f1' repeats line 1", id="repeated-frame-id"),
        pytest.param({"d.jsonl": NAN_DETECTION, "run.json": {"n_bottom": 1}}, DETECT,
                     "line 1: x coordinate must be finite", id="nan-center"),
        pytest.param({"truth.jsonl": [ONE_BIT_TRUTH, {**ONE_BIT_TRUTH, "vehicles": [PARKED_AT_SLOT0]}]},
                     CLASSIFY, "line 2: frame 'f1' repeats line 1", id="repeated-truth-frame"),
        pytest.param({"slots.json": {"slots": GOOD_REGISTRY["slots"] + GOOD_REGISTRY["slots"][:1]}},
                     CLASSIFY, "slot entry 3: id 0 repeats slot entry 0", id="repeated-registry-id"),
        pytest.param({"scores.jsonl": [F1_SLOT0_SCORE, {**F1_SLOT0_SCORE, "slot": 1},
                                       {**F1_SLOT0_SCORE, "score": 0.1}]},
                     CLASSIFY_SCORES, "line 3: frame 'f1', slot 0 repeats line 1", id="repeated-score-key"),
        pytest.param({"d.jsonl": {"frame": "f1", "dets": [{**THREE_DETECTIONS["dets"][0], "cx": 100}]},
                      "run.json": SINGULAR_RUN_CONFIG}, DETECT, "point (100.0, 0.0) projects to infinity",
                     id="singular-homography"),
        pytest.param({"d.jsonl": {"frame": "f1", "dets": [{**THREE_DETECTIONS["dets"][0], "cx": 10**400}]},
                      "run.json": {"n_bottom": 1}}, DETECT,
                     'line 1: detection field "cx" is too large for a float', id="detection-integer-beyond-float"),
        pytest.param({"slots.json": {"slots": [{**GOOD_REGISTRY["slots"][0], "cx": 10**400}]},
                      "records.jsonl": SLOT2_RECORD}, EVALUATE,
                     "slot entry 0: bad entry (cx is too large for a float)",
                     id="registry-integer-beyond-float"),
        pytest.param({"d.jsonl": b'{"frame": "f\xff", "dets": []}\n', "run.json": {"n_bottom": 1}}, DETECT,
                     "not UTF-8", id="not-utf-8"),
        pytest.param({"d.jsonl": THREE_DETECTIONS, "run.json": {"n_bottom": 1}, "out": {}}, RUN_PIPELINE,
                     "File exists", id="out-dir-is-a-file"),
        pytest.param({"truth.jsonl": {**ONE_BIT_TRUTH, "occupancy": {"0": "false"}}}, CLASSIFY,
                     "line 1: bad record (occupancy bits must be true or false)", id="truth-bit-not-boolean"),
        # evaluate reads the truth while it reads the records: in a forked child when it can.
        *(pytest.param({"records.jsonl": SLOT0_RECORD, "truth.jsonl": truth}, EVALUATE, message,
                       id=f"evaluate-truth-{case}")
          for case, truth, message in [
              ("repeated-frame", [ONE_BIT_TRUTH, {**ONE_BIT_TRUTH, "vehicles": [PARKED_AT_SLOT0]}],
               "line 2: frame 'f1' repeats line 1"),
              ("bit-not-boolean", {**ONE_BIT_TRUTH, "occupancy": {"0": "false"}},
               "line 1: bad record (occupancy bits must be true or false)"),
              ("vehicle-cx-is-string", {**ONE_BIT_TRUTH, "vehicles": [{**PARKED_AT_SLOT0, "cx": "1.5"}]},
               "line 1: bad record (cx must be a number, got '1.5')"),
              ("vehicle-integer-beyond-float", {**ONE_BIT_TRUTH, "vehicles": [{**PARKED_AT_SLOT0, "cx": 10**400}]},
               "line 1: bad record (cx is too large for a float)"),
              ("invalid-json", json.dumps(ONE_BIT_TRUTH).encode() + b'\n{"frame": "f2"\n',
               "line 2: invalid JSON (Expecting ',' delimiter)"),
          ]),
        pytest.param({"records.jsonl": {**SLOT0_RECORD, "score": 7.5}, "truth.jsonl": b"{not json\n"}, EVALUATE,
                     "line 1: bad record (score must be in [0, 1], got 7.5)", id="evaluate-records-error-before-truth-error"),
        pytest.param({"scores.jsonl": {**F1_SLOT0_SCORE, "slot": 0.7}}, CLASSIFY_SCORES,
                     "line 1: bad record (slot must be an integer, got 0.7)", id="score-slot-not-integer"),
        pytest.param({"scores.jsonl": {**F1_SLOT0_SCORE, "score": True}}, CLASSIFY_SCORES,
                     "line 1: bad record (score must be a number, got True)", id="score-is-boolean"),
        pytest.param({"scores.jsonl": {**F1_SLOT0_SCORE, "score": 10**400}}, CLASSIFY_SCORES,
                     "line 1: bad record (score is too large for a float)", id="score-beyond-float"),
        pytest.param({"slots.json": {"slots": [{**GOOD_REGISTRY["slots"][0], "id": 1.9}]}}, CLASSIFY,
                     "slot entry 0: bad entry (id must be an integer, got 1.9)", id="registry-id-not-integer"),
        pytest.param({"records.jsonl": {**SLOT2_RECORD, "slot": 0.7}}, EVALUATE,
                     "line 1: bad record (slot must be an integer, got 0.7)", id="record-slot-not-integer"),
        pytest.param({"records.jsonl": {**SLOT2_RECORD, "score": True}}, EVALUATE,
                     "line 1: bad record (score must be a number, got True)", id="record-score-is-boolean"),
        pytest.param({"scores.jsonl": [F1_SLOT0_SCORE, {**F1_SLOT0_SCORE, "slot": 1, "score": 1.5}]},
                     CLASSIFY_SCORES, "line 2: bad record (score must be in [0, 1], got 1.5)",
                     id="score-out-of-range"),
        *(pytest.param({"d.jsonl": THREE_DETECTIONS, "run.json": {"n_bottom": 1}, name: data}, argv, message,
                       id=f"nested-too-deeply-{case}")
          for case, name, argv, data, message in [
              ("detection-line", "d.jsonl", DETECT, b'{"frame": "f1", "dets": ' + DEEP + b"}\n",
               "line 1: invalid JSON (nested too deeply)"),
              ("score-table-line", "scores.jsonl", CLASSIFY_SCORES, F1_SLOT0_LINE + b'{"frame": ' + DEEP + b"}\n",
               "line 2: invalid JSON (nested too deeply)"),
              ("registry", "slots.json", CLASSIFY, b'{"slots": ' + DEEP + b"}",
               "slot registry: invalid JSON (nested too deeply)"),
              ("run-config", "run.json", DETECT, DEEP, "invalid JSON (nested too deeply)"),
              ("scenario", "scenario.json", SIMULATE, DEEP, "invalid JSON (nested too deeply)"),
          ]),
        pytest.param({"scores.jsonl": {**F1_SLOT0_SCORE, "frame": 5}}, CLASSIFY_SCORES,
                     NUMERIC_FRAME, id="score-frame-not-string"),
        pytest.param({"records.jsonl": {**SLOT2_RECORD, "frame": 5}}, EVALUATE,
                     NUMERIC_FRAME, id="record-frame-not-string"),
        pytest.param({"truth.jsonl": {**ONE_BIT_TRUTH, "frame": 5}}, CLASSIFY,
                     NUMERIC_FRAME, id="truth-frame-not-string"),
        pytest.param({"slots.json": {"slots": [{**GOOD_REGISTRY["slots"][0], "members": 2.7}]}}, CLASSIFY,
                     "slot entry 0: bad entry (members must be an integer, got 2.7)",
                     id="registry-members-not-integer"),
        pytest.param({"slots.json": {"slots": [{**GOOD_REGISTRY["slots"][0], "cx": "1.5"}]}}, CLASSIFY,
                     "slot entry 0: bad entry (cx must be a number, got '1.5')", id="registry-cx-is-string"),
        pytest.param({"truth.jsonl": {**ONE_BIT_TRUTH, "vehicles": [{**PARKED_AT_SLOT0, "cx": "1.5"}]}},
                     CLASSIFY, "line 1: bad record (cx must be a number, got '1.5')",
                     id="truth-vehicle-cx-is-string"),
        pytest.param({"truth.jsonl": {**ONE_BIT_TRUTH, "vehicles": [{**PARKED_AT_SLOT0, "kind": 5}]}},
                     CLASSIFY, "line 1: bad record (kind must be a string, got 5)",
                     id="truth-vehicle-kind-number"),
        pytest.param({"truth.jsonl": {**ONE_BIT_TRUTH, "vehicles": [{**PARKED_AT_SLOT0, "kind": None}]}},
                     CLASSIFY, "line 1: bad record (kind must be a string, got None)",
                     id="truth-vehicle-kind-null"),
        pytest.param({"truth.jsonl": {**ONE_BIT_TRUTH, "vehicles": [PARKED_AT_SLOT0, {**PARKED_AT_SLOT0,
                                                                                     "cx": float("nan")}]}},
                     CLASSIFY, "line 1: bad record (cx must be finite)", id="truth-vehicle-cx-nan"),
        pytest.param({"d.jsonl": TWO_DETECTIONS, "run.json": {"n_bottom": 1, "eps": 1e-14}}, DETECT,
                     "is below 2**-47 of the largest |coordinate|", id="eps-below-coordinate-resolution"),
        pytest.param({"d.jsonl": {"frame": "f1", "dets": [{**THREE_DETECTIONS["dets"][0], "cx": x}
                                                      for x in (-1e308, 0, 1e308)]},
                      "run.json": {"n_bottom": 1}}, DETECT,
                     "the detection centers span more than the float range", id="default-eps-extent-overflows"),
        pytest.param({"d.jsonl": {"frame": "f1", "dets": [{**THREE_DETECTIONS["dets"][0], "cx": x, "cy": x}
                                                      for x in (-1.15e308, 0, 1.15e308)]},
                      "run.json": {"n_bottom": 1, "eps": 1.7e308, "min_points": 2}}, DETECT,
                     "a cluster of detection centers spreads beyond the float range",
                     id="cluster-spread-overflows"),
        pytest.param({"scenario.json": {**SCENARIO, "miss_probability": 0.9}}, SIMULATE,
                     "unknown keys ['miss_probability']", id="unknown-scenario-key"),
        pytest.param({"scenario.json": {**SCENARIO, "violation_sites": [{**SITE, "emit_probability": 0.5}]}},
                     SIMULATE, "unknown keys ['emit_probability']", id="unknown-violation-site-key"),
        *(pytest.param({"scenario.json": {**SCENARIO, key: value}}, SIMULATE, message,
                       id=f"scenario-{key}-{case}")
          for key, case, value, message in [
              ("seed", "fraction", 1.5, "seed must be an integer, got 1.5"),
              ("seed", "boolean", True, "seed must be an integer, got True"),
              ("rows", "fraction", 2.7, "rows must be an integer, got 2.7"),
              ("rows", "string", "4", "rows must be an integer, got '4'"),
              ("frame_count", "fraction", 3.9, "frame_count must be an integer, got 3.9"),
              ("rows", "2**32", 2**32, "rows must be below 2**32"),
              ("cols", "2**32", 2**32, "cols must be below 2**32"),
              ("frame_count", "2**32", 2**32, "frame_count must be below 2**32"),
              ("center_noise_sigma", "infinite", float("inf"), "center_noise_sigma must be finite, got inf"),
              ("slot_pitch", "infinite", float("inf"), "slot_pitch must be finite, got inf"),
              ("slot_pitch", "beyond-float", 10**400, "slot_pitch is too large for a float"),
              ("lane_y", "removed", 500.0, "unknown keys ['lane_y']"),
              ("passing_rate", "beyond-poisson", 1e300, "passing_rate must be at most 9.22"),
              ("slot_size", "three-entries", [22.0, 30.0, 99.0], "slot_size must have two entries, got 3"),
              ("slot_size", "number", 5, "slot_size must be a list of numbers, got 5"),
              ("camera", "number", 5, "camera must be a list of numbers, got 5"),
              ("camera", "extra-key", {"matrix": [1, 0, 0, 0, 1, 0, 0, 0, 1], "extra": 5},
               "scenario camera has unknown keys ['extra']"),
          ]),
        pytest.param({"scenario.json": {**SCENARIO, "violation_sites": [{**SITE, "x": float("inf")}]}},
                     SIMULATE, "violation_sites entry 0 x must be finite, got inf", id="scenario-site-x-inf"),
        pytest.param({"records.jsonl": SLOT2_RECORD}, EVALUATE[:7] + EVALUATE[9:],
                     "needs both --records and --truth-occupancy", id="evaluate-records-without-truth"),
        pytest.param({}, EVALUATE[:5] + EVALUATE[7:], "needs both --records and --truth-occupancy",
                     id="evaluate-truth-without-records"),
        pytest.param({"records.jsonl": [SLOT0_RECORD, {**SLOT0_RECORD, "status": "VACANT"}]}, EVALUATE,
                     "line 2: frame 'f1', slot 0 repeats line 1", id="repeated-record-key"),
        *(pytest.param({"records.jsonl": {**SLOT0_RECORD, **record}}, EVALUATE, f"line 1: bad record ({message})",
                       id=f"record-{case}")
          for case, record, message in [
              ("score-beyond-float", {"score": 10**400}, "score is too large for a float"),
              ("occupied-score-null", {"score": None}, "score must be a number, got None"),
              ("score-above-one", {"score": 7.5}, "score must be in [0, 1], got 7.5"),
              ("score-negative", {"score": -3}, "score must be in [0, 1], got -3"),
              ("occupied-with-error", {"error": 5}, "only an ERROR record has an error, got 5"),
              ("vacant-with-error", {"status": "VACANT", "score": 0.1, "error": "x"},
               "only an ERROR record has an error, got 'x'"),
              ("error-with-score", {"status": "ERROR", "error": "x"}, "an ERROR record's score must be null, got 0.9"),
              ("error-without-reason", {"status": "ERROR", "score": None}, "error must be a string, got None"),
          ]),
        *(pytest.param({"d.jsonl": THREE_DETECTIONS, "run.json": {"n_bottom": 1, **doc}}, DETECT, message,
                       id=f"run-config-{case}")
          for case, doc, message in [
              ("classes-string", {"filter": {"classes": "car"}}, "classes must be a list of strings, got 'car'"),
              ("classes-number", {"filter": {"classes": ["car", 5]}}, "classes must be a list of strings"),
              ("min-confidence-string", {"filter": {"min_confidence": "0.5"}},
               "min_confidence must be a number, got '0.5'"),
              ("n-bottom-fraction", {"n_bottom": 40.7}, "n_bottom must be an integer, got 40.7"),
              ("n-bottom-boolean", {"n_bottom": True}, "n_bottom must be an integer, got True"),
              ("eps-string", {"eps": "15"}, "eps must be a number, got '15'"),
              ("min-points-fraction", {"min_points": 2.9}, "min_points must be an integer, got 2.9"),
              ("matrix-boolean", {"homography": {"matrix": [True, 0, 0, 0, True, 0, 0, 0, True]}},
               "bad homography matrix: matrix entry must be a number, got True"),
              ("matrix-string", {"homography": {"matrix": ["1", 0, 0, 0, 1, 0, 0, 0, 1]}},
               "bad homography matrix: matrix entry must be a number, got '1'"),
              ("correspondence-string", {"homography": {"correspondences": SQUARE_STRING_COORDINATE}},
               "bad correspondence entry: src coordinate must be a number, got '0'"),
              ("correspondence-boolean", {"homography": {"correspondences": SQUARE_BOOLEAN_COORDINATE}},
               "bad correspondence entry: dst coordinate must be a number, got True"),
              ("eps-beyond-float", {"eps": 10**400}, "bad run config value: eps is too large for a float"),
              ("matrix-beyond-float", {"homography": {"matrix": [10**400, 0, 0, 0, 1, 0, 0, 0, 1]}},
               "bad homography matrix: matrix entry is too large for a float"),
              ("correspondence-beyond-float", {"homography": {"correspondences": SQUARE_HUGE_COORDINATE}},
               "bad correspondence entry: src coordinate is too large for a float"),
          ]),
        # No detection log exists: every subcommand checks its run config before it opens any input.
        *(pytest.param({"run.json": doc}, argv + ["--config", "{d}/run.json"], f"invalid run config: {message}",
                       id=f"run-config-{case}-{argv[0]}")
          for argv in (CLASSIFY, EVALUATE, DETECT, RUN_PIPELINE)
          for case, doc, message in [
              ("n-bottom-zero", {"n_bottom": 0}, "n_bottom must be >= 1, got 0"),
              ("eps-zero", {"eps": 0}, "eps must be finite and > 0, got 0.0"),
              ("eps-negative", {"eps": -1}, "eps must be finite and > 0, got -1.0"),
              ("eps-overflows-to-inf", b'{"eps": 1e400}', "eps must be finite and > 0, got inf"),
              ("min-points-zero", {"min_points": 0}, "min_points must be >= 1, got 0"),
          ]),
        pytest.param({"run.json": {"tolerance": 0}}, EVALUATE_SLOTS + ["--config", "{d}/run.json"],
                     "tolerance must be finite and > 0, got 0", id="tolerance-config-key-zero"),
        *(pytest.param({"run.json": {"tolerance": value}}, EVALUATE_SLOTS + ["--config", "{d}/run.json"],
                       f"tolerance must be finite and > 0, got {float(value)}", id=f"tolerance-config-key-{value}")
          for value in (-1, float("nan"))),
        pytest.param({}, EVALUATE_SLOTS + ["--tolerance", "0"], "unrecognized arguments: --tolerance 0",
                     id="tolerance-flag-0"),
        pytest.param({"coincident.json": COINCIDENT_REGISTRY},
                     EVALUATE_SLOTS[:3] + ["--truth-slots", "{d}/coincident.json"] + EVALUATE_SLOTS[5:],
                     "truth slot registry: more than half of its slot centers coincide with another, so the "
                     "default match tolerance is 0; set \"tolerance\" in the run config", id="coincident-truth-centers"),
    ],
)
def test_bad_input_exits_2_with_one_line(tmp_path, files, argv, names):
    docs = {"slots.json": GOOD_REGISTRY, "truth.jsonl": ONE_BIT_TRUTH, **files}
    for name, doc in docs.items():  # a list is written as JSON lines, bytes as they are
        lines = doc if isinstance(doc, list) else [doc]
        data = doc if isinstance(doc, bytes) else "".join(json.dumps(line) + "\n" for line in lines).encode()
        (tmp_path / name).write_bytes(data)
    src = str(Path(parkscan.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-m", "parkscan.cli", *(a.format(d=tmp_path) for a in argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
        timeout=60,
    )
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert names in lines[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(docs)  # no output written


# Unit-spaced points scaled by 10 px. The core point at the origin has three border
# points 0.99 units away (left, top, bottom); each is also within eps (1 unit, 10 px) of a
# lex-earlier core of its own four-point cluster, so the origin's cluster keeps one
# member, below min_points, and its spread of 0 would rank first.
LONE_CORE_UNITS = [(0, 0), (-0.99, 0), (0, -0.99), (0, 0.99),
                   (-1.98, 0), (-2.48, 0), (-1.98, -0.5), (-1.98, 0.5),
                   (-0.7, -1.7), (-0.7, -2.2), (-1.2, -1.7), (-1.05, -2.05),
                   (-0.7, 1.7), (-0.7, 2.2), (-1.2, 1.7), (-1.05, 2.05)]


def test_cluster_below_min_points_is_never_a_slot(tmp_path, capsys):
    dets = [{"cx": 10 * x, "cy": 10 * y, "w": 20, "h": 20, "cls": "car", "conf": 0.9}
            for x, y in LONE_CORE_UNITS]
    (tmp_path / "d.jsonl").write_text(json.dumps({"frame": "f1", "dets": dets}) + "\n")
    # The identity homography keeps the cloud in pixels: eps is one unit, 10 px.
    (tmp_path / "run.json").write_text(json.dumps({"n_bottom": 1, "min_points": 4, "eps": 10}))
    argv = [a.format(d=tmp_path) for a in DETECT] + ["--emit-plot-data"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["iqr_discarded"] == 0
    rows = [line.split("\t") for line in (tmp_path / "s.json.spreads.tsv").read_text().splitlines()[1:]]
    assert [(members, kept, selected) for _, _, members, kept, selected in rows] == [
        ("5", "1", "1"), ("5", "1", "0"), ("5", "1", "0"), ("1", "0", "0")]
    slots = json.loads((tmp_path / "s.json").read_text())["slots"]
    assert [s["members"] for s in slots] == [5]


# Every detection is finite, but summing the cluster's widths (first case) or its centers
# shifted by one of them (second case) at their own scale overflows.
@pytest.mark.parametrize("dets, run_config, slot", [
    ([{"cx": 10, "cy": 10, "w": 1.5e308, "h": 20}], {"n_bottom": 1},
     {"cx": 10.0, "cy": 10.0, "w": 1.5e308, "h": 20.0, "spread": 0.0, "members": 5}),
    ([{"cx": x, "cy": 10, "w": 20, "h": 20} for x in (-8e307, 8e307)],
     {"n_bottom": 1, "eps": 1.7e308, "min_points": 2},
     {"cx": 0.0, "cy": 10.0, "w": 20.0, "h": 20.0, "spread": 8e307, "members": 10}),
], ids=["mean-width", "shifted-centers"])
def test_cluster_sums_beyond_the_float_range(tmp_path, capsys, dets, run_config, slot):
    (tmp_path / "d.jsonl").write_text("".join(
        json.dumps({"frame": f"f{i}", "dets": [{**d, "cls": "car", "conf": 0.9} for d in dets]}) + "\n"
        for i in range(5)))
    (tmp_path / "run.json").write_text(json.dumps(run_config))
    assert main([a.format(d=tmp_path) for a in DETECT]) == 0  # a numpy RuntimeWarning fails the test
    [found] = json.loads((tmp_path / "s.json").read_text())["slots"]
    assert found == {"id": 0, **slot}


def test_all_noise_plot_data_has_no_spread_rows(tmp_path, capsys):
    dets = [{**THREE_DETECTIONS["dets"][0], "cx": x} for x in (0, 500, 1000)]
    (tmp_path / "d.jsonl").write_text(json.dumps({"frame": "f1", "dets": dets}) + "\n")
    (tmp_path / "run.json").write_text(json.dumps({"n_bottom": 1}))
    assert main([a.format(d=tmp_path) for a in DETECT] + ["--emit-plot-data"]) == 0
    assert json.loads(capsys.readouterr().out)["clusters"] == 0
    spreads = (tmp_path / "s.json.spreads.tsv").read_text()
    assert spreads == "cluster_id\tspread\tmembers\tkept_by_iqr\tselected\n"
    assert len((tmp_path / "s.json.clusters.tsv").read_text().splitlines()) == 4


@pytest.mark.parametrize("xs", [(1e5, math.nextafter(1e5, math.inf), 1e5), (1e20, 1e20, 1e20)],
                         ids=["one-ulp-extent", "coincident-far-out"])
def test_default_eps_is_no_finer_than_the_coordinate_resolution(tmp_path, xs):
    # 0.015 of the cloud's extent, or 1.0 for coincident centers, is below 2**-47 of
    # the largest coordinate here, finer than DBSCAN resolves.
    dets = [{**THREE_DETECTIONS["dets"][0], "cx": x} for x in xs]
    (tmp_path / "d.jsonl").write_text(json.dumps({"frame": "f1", "dets": dets}) + "\n")
    (tmp_path / "run.json").write_text(json.dumps({"n_bottom": 1}))
    assert main([a.format(d=tmp_path) for a in DETECT]) == 0
    doc = json.loads((tmp_path / "s.json").read_text())
    assert [s["members"] for s in doc["slots"]] == [3]
    assert max(xs) < doc["config_echo"]["eps"] * 2.0**47


def test_cli_module_entry_point(workdir):
    result = subprocess.run(
        [sys.executable, "-m", "parkscan.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "detect-slots" in result.stdout
