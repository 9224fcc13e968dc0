"""Work the benchmark runs in fresh processes: set-up, the timed job, the traced job.

    python3 child.py setup|job|trace SPEC.json RESULT.json

SPEC.json names the checkout's ``src`` directory, the workload, the seed and
the files to use; RESULT.json receives timings, counts and output digests.
Each phase imports parkscan from ``src`` and nowhere else.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from unittest import mock

from workloads import WORKLOADS, ScoreModel, sha256

OUTPUTS = ("slots.json", "occupancy.jsonl", "metrics.json")


def _import_parkscan(src: str):
    sys.path.insert(0, src)
    import parkscan

    where = Path(parkscan.__file__).resolve().parent.parent
    if where != Path(src).resolve():
        raise SystemExit(f"parkscan was imported from {where}, not from {src}")


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digests(out: Path) -> dict:
    return {name: sha256(out / name) for name in OUTPUTS}


def _record_counts(out: Path) -> tuple[int, int]:
    text = (out / "occupancy.jsonl").read_text(encoding="utf-8")
    return text.count("\n"), text.count('"status": "ERROR"')


# --- set-up ---------------------------------------------------------------------

def setup(spec: dict) -> dict:
    """Import parkscan and simulate the workload's inputs, timed as one step."""
    t0 = time.perf_counter()
    _import_parkscan(spec["src"])
    from parkscan.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["simulate", "--scenario", spec["scenario"], "--out-dir", spec["sim_dir"]])
    return {"seconds": time.perf_counter() - t0, "rc": rc}


# --- the user's job, untraced -----------------------------------------------------

def _call(main, argv) -> tuple[float, object]:
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(argv)
    except Exception:
        traceback.print_exc()
        rc = None
    return time.perf_counter() - t0, rc


def _subcommands(spec: dict, out: Path) -> list[list[str]]:
    """The CLI calls of one job: run-pipeline, or the three scored-feed steps."""
    common = ["--config", spec["run_config"]]
    if not WORKLOADS[spec["workload"]].scored:
        return [["run-pipeline", "--detections", spec["detections"], *common,
                 "--truth-slots", spec["truth_slots"], "--truth-occupancy", spec["truth_occupancy"],
                 "--out-dir", str(out)]]
    return [
        ["detect-slots", "--detections", spec["detections"], *common,
         "--out", str(out / "slots.json")],
        ["classify", "--slots", str(out / "slots.json"), "--mode", "scores",
         "--input", str(out / "scores.jsonl"), *common,
         "--out-records", str(out / "occupancy.jsonl"), "--out-report", str(out / "report.json")],
        ["evaluate", "--pred-slots", str(out / "slots.json"), "--truth-slots", spec["truth_slots"],
         "--records", str(out / "occupancy.jsonl"), "--truth-occupancy", spec["truth_occupancy"],
         *common, "--out", str(out / "metrics.json"), "--emit-plot-data"],
    ]


def _score_model(spec: dict):
    if not WORKLOADS[spec["workload"]].scored:
        return None
    return ScoreModel(Path(spec["truth_slots"]), Path(spec["truth_occupancy"]), spec["seed"])


def _cli_job(main, spec: dict, out: Path, scorer) -> dict:
    """One user's job through parkscan.cli.main: CLI time, calls, failures, outputs."""
    seconds, calls, failed = 0.0, 0, 0
    for argv in _subcommands(spec, out):
        took, rc = _call(main, argv)
        seconds += took
        calls += 1
        if rc != 0:
            failed += 1
            break
        if argv[0] == "detect-slots":
            # The external model runs between the CLI calls; not timed.
            scorer.write_table(out / "slots.json", out / "scores.jsonl")
    run = {"seconds": seconds, "calls": calls, "failed_calls": failed}
    if not failed:
        run["records"], run["error_records"] = _record_counts(out)
        run["outputs"] = _digests(out)
    return run


def job(spec: dict) -> dict:
    """Repeat the user's job while another fits in spec["seconds"] (at least once);
    report times and the RSS high-water mark."""
    _import_parkscan(spec["src"])
    from parkscan.cli import main

    out = Path(spec["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    scorer = _score_model(spec)
    runs = []
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        t0 = time.perf_counter()
        runs.append(_cli_job(main, spec, out, scorer))
        if runs[-1]["failed_calls"] or not _another_fits(t0, deadline):
            break
    return {"runs": runs, "peak_rss_mb": _max_rss_mb()}


def _another_fits(t0: float, deadline: float) -> bool:
    """Whether a repeat of the step that started at t0 would end by the deadline."""
    now = time.perf_counter()
    return now + (now - t0) <= deadline


# --- the traced job -------------------------------------------------------------------

class Tracer:
    """Spans (name, start, end, parent index) and counts, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = {}
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        """``fn``, recorded as span ``name`` on each call."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def summary(self) -> dict:
        """Total and self seconds per span name, and the summed durations of the
        roots (the subcommands) and of the layer spans directly under them."""
        child_time = [0.0] * len(self.spans)
        depth = []
        for _, t0, t1, parent in self.spans:  # parents precede their children
            depth.append(0 if parent is None else depth[parent] + 1)
            if parent is not None:
                child_time[parent] += t1 - t0
        names: dict = {}
        by_depth = [0.0, 0.0]
        for i, (name, t0, t1, _) in enumerate(self.spans):
            total, self_time = names.get(name, (0.0, 0.0))
            names[name] = (total + (t1 - t0), self_time + (t1 - t0) - child_time[i])
            if depth[i] < 2 and name != "scorer":
                by_depth[depth[i]] += t1 - t0
        return {"spans": names, "roots_s": by_depth[0], "layers_s": by_depth[1],
                "counts": dict(self.counts)}


def _json_text(doc) -> str:
    # The CLI's document format.
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _traced_job(tr: Tracer, spec: dict, out: Path, scorer) -> None:
    """The job's subcommands, step by step through each module's public functions.

    Each step is its own function, as in the CLI, so a step's objects are
    freed before the next starts and the garbage collector sees the same
    heap. The outputs are compared byte for byte with the CLI's.
    """
    scored = WORKLOADS[spec["workload"]].scored
    with tr.span("detect-slots"):
        _traced_detect(tr, spec, out)
    if scored:
        with tr.span("scorer"):
            scorer.write_table(out / "slots.json", out / "scores.jsonl")
    with tr.span("classify"):
        _traced_classify(tr, spec, out, scored)
    with tr.span("evaluate"):
        _traced_evaluate(tr, spec, out, scored)


def _traced_detect(tr: Tracer, spec: dict, out: Path) -> None:
    """cmd_detect_slots."""
    from parkscan.config import config_echo, load_run_config
    from parkscan.detections import filter_detections, parse_detections
    from parkscan.slots import run_slot_detection, slot_registry_document

    cfg = load_run_config(spec["run_config"])
    with tr.span("detections.parse"):
        with open(spec["detections"], encoding="utf-8") as fh:
            frames = parse_detections(fh)
    with tr.span("detections.filter"):
        kept = filter_detections(frames, cfg.det_filter)
    with tr.span("slots.detect"):
        outcome = run_slot_detection(kept, cfg.slot_detection_config())
    with tr.span("slots.registry_io"):
        echo = config_echo(cfg, eps=outcome.eps, min_points=outcome.min_points)
        (out / "slots.json").write_text(_json_text(slot_registry_document(outcome.slots, echo)),
                                        encoding="utf-8")
    tr.counts["detections.parsed"] = sum(len(f.detections) for f in frames)
    tr.counts["detections.kept"] = sum(len(f.detections) for f in kept)
    tr.counts["slots.candidates"] = len(outcome.candidates)
    tr.counts["slots.iqr_dropped"] = outcome.iqr_discarded
    tr.counts["slots.selected"] = len(outcome.slots)


def _traced_classify(tr: Tracer, spec: dict, out: Path, scored: bool) -> None:
    """cmd_classify: score tables when scored, else the IoU oracle."""
    from parkscan.config import load_run_config
    from parkscan.occupancy import (FileScoreClassifier, GeometricOracleClassifier,
                                    OccupancyStatus, aggregate_report, classify_frame,
                                    write_records)
    from parkscan.simulator import read_ground_truth_occupancy
    from parkscan.slots import read_slot_registry

    cfg = load_run_config(spec["run_config"])
    with tr.span("slots.registry_io"):
        with open(out / "slots.json", encoding="utf-8") as fh:
            slots = read_slot_registry(fh)
    if scored:
        with tr.span("occupancy.score_table_read"):
            with open(out / "scores.jsonl", encoding="utf-8") as fh:
                classifier = FileScoreClassifier.from_stream(fh)
        with tr.span("occupancy.classify"):
            records = [r for fid in classifier.frames()
                       for r in classify_frame(slots, fid, classifier, threshold=cfg.threshold)]
    else:
        with tr.span("occupancy.truth_read"):
            with open(spec["truth_occupancy"], encoding="utf-8") as fh:
                truth = read_ground_truth_occupancy(fh)
        with tr.span("occupancy.classify"):
            classifier = GeometricOracleClassifier(
                truth.vehicles_by_frame(), iou_threshold=cfg.iou_threshold)
            records = [r for fid in truth.frame_ids
                       for r in classify_frame(slots, fid, classifier,
                                               threshold=classifier.decision_threshold)]
        tr.counts["occupancy.iou_evals"] = len(slots) * sum(len(v) for v in truth.vehicles)
    with tr.span("occupancy.records_io"):
        with open(out / "occupancy.jsonl", "w", encoding="utf-8") as fh:
            write_records(fh, records)
    with tr.span("occupancy.report"):
        doc = {
            fid: {"occupied": rep.occupied, "vacant": rep.vacant,
                  "vacant_slots": list(rep.vacant_slots), "error_slots": list(rep.error_slots)}
            for fid, rep in aggregate_report(records).items()
        }
        (out / "report.json").write_text(_json_text(doc), encoding="utf-8")
    tr.counts["occupancy.records"] = len(records)
    tr.counts["occupancy.error_records"] = sum(r.status is OccupancyStatus.ERROR for r in records)


def _traced_evaluate(tr: Tracer, spec: dict, out: Path, scored: bool) -> None:
    """cmd_evaluate with records and truth occupancy; ROC plot data when scored."""
    from parkscan.config import load_run_config
    from parkscan.metrics import (accuracy, classification_counts, default_match_tolerance,
                                  match_slots, precision_recall, roc_auc, roc_points)
    from parkscan.occupancy import OccupancyStatus, read_records
    from parkscan.simulator import read_ground_truth_occupancy
    from parkscan.slots import read_slot_registry

    with tr.span("slots.registry_io"):
        with open(out / "slots.json", encoding="utf-8") as fh:
            pred = read_slot_registry(fh)
        with open(spec["truth_slots"], encoding="utf-8") as fh:
            truth = read_slot_registry(fh)
    cfg = load_run_config(spec["run_config"])
    with tr.span("metrics.match"):
        truth_centers = [t.center for t in truth]
        if cfg.tolerance is not None:
            tolerance = cfg.tolerance
        elif len(truth_centers) >= 2:
            tolerance = default_match_tolerance(truth_centers)
        else:
            tolerance = min(truth[0].area.w, truth[0].area.h) / 2.0
        match = match_slots([p.center for p in pred], truth_centers, tolerance)
        precision, recall = precision_recall(match.tp, match.fp, match.fn)
    with tr.span("occupancy.records_io"):
        with open(out / "occupancy.jsonl", encoding="utf-8") as fh:
            records = read_records(fh)
    with tr.span("occupancy.truth_read"):
        with open(spec["truth_occupancy"], encoding="utf-8") as fh:
            gt = read_ground_truth_occupancy(fh)
    occupancy = gt.occupancy_by_frame()
    pred_to_truth = {pred[i].slot_id: truth[j].slot_id for i, j, _ in match.pairs}
    preds, labels, scores = [], [], []
    for rec in records:
        if rec.status is OccupancyStatus.ERROR:
            continue
        if rec.frame_id not in occupancy or rec.slot_id not in pred_to_truth:
            continue
        preds.append(rec.status is OccupancyStatus.OCCUPIED)
        labels.append(occupancy[rec.frame_id][pred_to_truth[rec.slot_id]])
        scores.append(rec.score)
    with tr.span("metrics.counts"):
        counts = classification_counts(preds, labels)
        acc = accuracy(counts)
    with tr.span("metrics.auc"):
        auc = roc_auc(scores, labels)
    if scored:
        with tr.span("metrics.roc_points"):
            points = roc_points(scores, labels)
            with open(str(out / "metrics.json") + ".roc.tsv", "w", encoding="utf-8") as fh:
                fh.write("threshold\tfpr\ttpr\n")
                for thr, fpr, tpr in points:
                    fh.write(f"{thr}\t{fpr}\t{tpr}\n")
        tr.counts["metrics.roc_thresholds"] = len(points) - 1
    detection = {
        "tp": match.tp, "fp": match.fp, "fn": match.fn,
        "precision": None if precision is None else float(precision),
        "recall": None if recall is None else float(recall),
        "tolerance": tolerance,
    }
    classification = {
        "accuracy": None if acc is None else float(acc), "auc": auc,
        "counts": {"tp": counts.tp, "tn": counts.tn, "fp": counts.fp, "fn": counts.fn},
    }
    (out / "metrics.json").write_text(
        _json_text({"detection": detection, "classification": classification}), encoding="utf-8")


# Names run_slot_detection calls in parkscan.slots, and the span each records.
_SLOTS_SPANS = {
    "apply_homography_array": "geometry.birdseye",
    "normalize_point_cloud": "geometry.birdseye",
    "dbscan": "clustering.dbscan",
    "cluster_stats": "clustering.stats",
    "iqr_filter": "slots.select",
    "select_n_bottom": "slots.select",
}


def _layer_patches(tr: Tracer):
    """Spans around the calls run_slot_detection makes into geometry, clustering, slots.

    A name a later parkscan no longer has is skipped with a warning; its span reads 0.
    """
    import numpy as np
    import parkscan.slots as slots_module

    def counted_dbscan(dbscan):
        def traced(points, params):
            before = _max_rss_mb()
            with tr.span("clustering.dbscan"):
                result = dbscan(points, params)
            tr.counts["clustering.rss_growth_mb"] = _max_rss_mb() - before
            tr.counts["clustering.points"] = len(points)
            tr.counts["clustering.clusters"] = result.k
            tr.counts["clustering.noise_points"] = int(np.count_nonzero(result.labels < 0))
            return result
        return traced

    stack = contextlib.ExitStack()
    for name, span in _SLOTS_SPANS.items():
        fn = getattr(slots_module, name, None)
        if fn is None:
            print(f"trace: parkscan.slots has no {name}; span {span} not recorded", file=sys.stderr)
            continue
        traced = counted_dbscan(fn) if name == "dbscan" else tr.wrap(span, fn)
        stack.enter_context(mock.patch.object(slots_module, name, traced))
    return stack


def _traced_simulate(tr: Tracer, spec: dict, sim_dir: Path) -> None:
    """The simulate subcommand's steps: generate, then write the three files."""
    from parkscan.detections import serialize_detections
    from parkscan.simulator import (generate_scenario, scenario_from_document,
                                    write_ground_truth_occupancy, write_ground_truth_slots)

    scenario = scenario_from_document(json.loads(Path(spec["scenario"]).read_text(encoding="utf-8")))
    with tr.span("simulator.generate"):
        frames, truth = generate_scenario(scenario)
    with tr.span("simulator.write"):
        sim_dir.mkdir(parents=True, exist_ok=True)
        (sim_dir / "detections.jsonl").write_text(serialize_detections(frames), encoding="utf-8")
        with open(sim_dir / "slots_truth.json", "w", encoding="utf-8") as fh:
            write_ground_truth_slots(fh, truth)
        with open(sim_dir / "occupancy_truth.jsonl", "w", encoding="utf-8") as fh:
            write_ground_truth_occupancy(fh, truth)
    tr.counts["simulator.detections"] = sum(len(f.detections) for f in frames)


def trace(spec: dict) -> dict:
    """A first traced job, pairs of traced and untraced jobs while they fit in
    spec["seconds"] (at least one), then one traced simulate.

    The first job runs before anything has raised the RSS high-water mark, so
    it gives clustering.rss_growth_mb and the counts; it also pays for growing
    the heap, so its times are left out. Traced and untraced jobs then run in
    pairs in one process, each pair in the other order from the last, so the
    difference between them (the trace's overhead) is clear of drift in
    machine speed and of which job ran first.
    """
    _import_parkscan(spec["src"])
    from parkscan.cli import main

    out, traced_out = Path(spec["out_dir"]), Path(spec["traced_dir"])
    out.mkdir(parents=True, exist_ok=True)
    traced_out.mkdir(parents=True, exist_ok=True)
    scorer = _score_model(spec)
    deadline = time.perf_counter() + spec["seconds"]

    def traced_job() -> dict:
        tr = Tracer()
        with _layer_patches(tr):
            _traced_job(tr, spec, traced_out, scorer)
        return {**tr.summary(), "outputs": _digests(traced_out)}

    first = traced_job()
    traced, untraced = [], []
    while True:
        t0 = time.perf_counter()
        if len(traced) % 2 == 0:
            untraced.append(_cli_job(main, spec, out, scorer))
            traced.append(traced_job())
        else:
            traced.append(traced_job())
            untraced.append(_cli_job(main, spec, out, scorer))
        if untraced[-1]["failed_calls"] or not _another_fits(t0, deadline):
            break
    tr = Tracer()
    sim_dir = Path(spec["sim_dir"])
    _traced_simulate(tr, spec, sim_dir)
    simulate = tr.summary()
    simulate["outputs"] = {p.name: sha256(p) for p in sorted(sim_dir.iterdir())}
    return {"first": first, "traced": traced, "runs": untraced, "simulate": simulate}


PHASES = {"setup": setup, "job": job, "trace": trace}

if __name__ == "__main__":
    phase, spec_path, result_path = sys.argv[1:4]
    result = PHASES[phase](json.loads(Path(spec_path).read_text(encoding="utf-8")))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
