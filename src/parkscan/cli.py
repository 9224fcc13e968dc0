"""Batch CLI: simulate, detect-slots, classify, evaluate, run-pipeline.

Flags name files, the mode, plot output and the log level; every parameter
lives in the run config (detect, classify, evaluate) or the scenario (simulate).
Exit codes: 0 success, 2 usage/config/parse error, 3 data-content error.
stdout carries machine-readable results; logs go to stderr.
"""

import argparse
import json
import logging
import sys
from pathlib import Path

from .config import config_echo, load_run_config
from .detections import filter_detections, parse_detections, write_detections
from .errors import ConfigError, ValidationError
from .geometry import SingularProjectionError
from .metrics import (
    UndefinedAucError,
    accuracy,
    classification_counts,
    default_match_tolerance,
    format_percent,
    match_slots,
    precision_recall,
    roc_auc,
    roc_points,
)
from .occupancy import (
    FileScoreClassifier,
    GeometricOracleClassifier,
    MissingGroundTruthError,
    classify_frames,
    read_records,
    report_json,
)
from .simulator import (
    generate_scenario,
    read_ground_truth_occupancy,
    scenario_from_document,
    write_ground_truth_occupancy,
    write_ground_truth_slots,
)
from .slots import (
    EmptyInputError,
    read_slot_registry,
    run_slot_detection,
    slot_registry_document,
)

log = logging.getLogger("parkscan")


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _json_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def cmd_simulate(args) -> int:
    try:
        doc = json.loads(Path(args.scenario).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario {args.scenario}: invalid JSON ({exc.msg})") from exc
    except RecursionError:
        raise ConfigError(f"scenario {args.scenario}: invalid JSON (nested too deeply)") from None
    scenario = scenario_from_document(doc)
    detections, truth = generate_scenario(scenario)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "detections.jsonl", "w", encoding="utf-8") as fh:
        write_detections(fh, detections)
    with open(out_dir / "slots_truth.json", "w", encoding="utf-8") as fh:
        write_ground_truth_slots(fh, truth)
    with open(out_dir / "occupancy_truth.jsonl", "w", encoding="utf-8") as fh:
        write_ground_truth_occupancy(fh, truth)
    log.info(
        "simulated %d frames, %d slots -> %s", scenario.frame_count, scenario.slot_count, out_dir
    )
    return 0


def _read_detections(path, cfg):
    """The detection log at ``path``, filtered by the config's class/confidence rule."""
    with open(path, encoding="utf-8") as fh:
        return filter_detections(parse_detections(fh), cfg.det_filter)


def _read_registry(path):
    with open(path, encoding="utf-8") as fh:
        return read_slot_registry(fh)


def _read_truth(path):
    with open(path, encoding="utf-8") as fh:
        return read_ground_truth_occupancy(fh)


def _classifier(mode, source, truth, cfg):
    """(classifier, decision threshold, frame ids): the IoU oracle over ``truth``, or
    the score table at ``source``."""
    if mode == "oracle":
        if not truth.frame_ids:
            raise MissingGroundTruthError(f"no ground-truth frames in {source}")
        oracle = GeometricOracleClassifier.from_truth(truth, iou_threshold=cfg.iou_threshold)
        return oracle, oracle.decision_threshold, list(truth.frame_ids)
    with open(source, encoding="utf-8") as fh:
        table = FileScoreClassifier.from_stream(fh)
    frame_ids = table.frames()
    if not frame_ids:
        raise EmptyInputError(f"score table {source} is empty")
    return table, cfg.threshold, frame_ids


# --- pipeline stages: objects in, the stage's files and stdout lines out ------

def detect_stage(detections, cfg, out, emit_plot_data: bool):
    """Find the slots in the ``detections`` log; write the registry to ``out`` and print diagnostics."""
    outcome = run_slot_detection(detections, cfg.slot_detection_config())

    echo = config_echo(cfg, eps=outcome.eps, min_points=outcome.min_points)
    _write_text(out, _json_dumps(slot_registry_document(outcome.slots, echo)))

    diagnostics = {
        "clusters": len(outcome.candidates),
        "noise_points": outcome.noise_points,
        "iqr_discarded": outcome.iqr_discarded,
        "shortfall": outcome.shortfall,
        "slots": len(outcome.slots),
    }
    print(json.dumps(diagnostics, sort_keys=True))
    log.info("detected %d slots from %d clusters", len(outcome.slots), len(outcome.candidates))

    if emit_plot_data:
        _emit_cluster_plot_data(out, outcome)
    return outcome


def _emit_cluster_plot_data(out_path, outcome) -> None:
    base = Path(out_path)
    with open(base.with_suffix(base.suffix + ".clusters.tsv"), "w", encoding="utf-8") as fh:
        fh.write("x\ty\tcluster\n")
        for (x, y), label in zip(outcome.birdseye_points, outcome.labels):
            fh.write(f"{x}\t{y}\t{int(label)}\n")
    with open(base.with_suffix(base.suffix + ".spreads.tsv"), "w", encoding="utf-8") as fh:
        fh.write("cluster_id\tspread\tmembers\tkept_by_iqr\tselected\n")
        for cid, (spread, members, kept, selected) in enumerate(outcome.candidates.tolist()):
            fh.write(f"{cid}\t{spread}\t{members}\t{int(kept)}\t{int(selected)}\n")


def classify_stage(slots, classifier, threshold, frame_ids, out_records, out_report):
    """Classify every slot in every frame; write records and the per-frame report."""
    if not slots:
        raise EmptyInputError("slot registry is empty; nothing to classify")
    table = classify_frames(slots, frame_ids, classifier, threshold=threshold)
    report = table.report()
    with open(out_records, "w", encoding="utf-8") as fh:
        table.write(fh)
    _write_text(out_report, report_json(report))
    errors = sum(len(rep.error_slots) for rep in report.values())
    print(json.dumps({"frames": len(report), "records": len(table.score), "errors": errors}, sort_keys=True))
    return table


def evaluate_stage(pred, truth, table, gt, cfg, out, emit_plot_data: bool) -> None:
    """Score slots against ``truth`` and, given an occupancy table and ``gt``, occupancy;
    write ``out``."""
    truth_centers = [t.center for t in truth]
    pred_centers = [p.center for p in pred]
    if cfg.tolerance is not None:
        tolerance = cfg.tolerance
    elif len(truth_centers) >= 2:
        tolerance = default_match_tolerance(truth_centers)
        if tolerance == 0:
            raise ValidationError("truth_slots", "truth slot registry: more than half of its slot "
                                  "centers coincide with another, so the default match tolerance "
                                  "is 0; set \"tolerance\" in the run config")
    elif truth:
        # Single truth slot: fall back to half its smaller side.
        tolerance = min(truth[0].area.w, truth[0].area.h) / 2.0
    else:
        raise ValidationError("truth_slots", "truth slot registry is empty")

    match = match_slots(pred_centers, truth_centers, tolerance)
    precision, recall = precision_recall(match.tp, match.fp, match.fn)

    acc = None
    auc = None
    counts = None
    if table is not None:
        pred_to_truth = {pred[i].slot_id: truth[j].slot_id for i, j, _ in match.pairs}
        preds, labels, scores = table.join_truth(pred_to_truth, gt)
        if labels:
            counts = classification_counts(preds, labels)
            acc = accuracy(counts)
            try:
                auc = roc_auc(scores, labels)
            except UndefinedAucError:
                log.warning("occupancy labels are single-class; AUC undefined")
            if emit_plot_data and auc is not None:
                base = Path(out)
                with open(base.with_suffix(base.suffix + ".roc.tsv"), "w", encoding="utf-8") as fh:
                    fh.write("threshold\tfpr\ttpr\n")
                    for thr, fpr, tpr in roc_points(scores, labels):
                        fh.write(f"{thr}\t{fpr}\t{tpr}\n")

    print(f"precision: {format_percent(precision)}")
    print(f"recall: {format_percent(recall)}")
    if counts is not None:
        print(f"accuracy: {format_percent(acc)}")
        print(f"auc: {'undefined' if auc is None else f'{auc:.4f}'}")

    detection_doc = {
        "tp": match.tp,
        "fp": match.fp,
        "fn": match.fn,
        "precision": None if precision is None else float(precision),
        "recall": None if recall is None else float(recall),
        "tolerance": tolerance,
    }
    classification_doc = {"accuracy": None if acc is None else float(acc), "auc": auc}
    if counts is not None:
        classification_doc["counts"] = {
            "tp": counts.tp, "tn": counts.tn, "fp": counts.fp, "fn": counts.fn,
        }
    _write_text(
        out,
        _json_dumps({"detection": detection_doc, "classification": classification_doc}),
    )


# --- subcommands: read arguments and files, then run the stages ---------------

def cmd_detect(args) -> int:
    cfg = load_run_config(args.config)
    detect_stage(_read_detections(args.detections, cfg), cfg, args.out, args.emit_plot_data)
    return 0


def cmd_classify(args) -> int:
    cfg = load_run_config(args.config)
    slots = _read_registry(args.slots)
    truth = _read_truth(args.input) if args.mode == "oracle" else None
    classifier = _classifier(args.mode, args.input, truth, cfg)
    classify_stage(slots, *classifier, args.out_records, args.out_report)
    return 0


def cmd_evaluate(args) -> int:
    if (args.records is None) != (args.truth_occupancy is None):
        raise ConfigError("evaluate needs both --records and --truth-occupancy, or neither")
    cfg = load_run_config(args.config)
    pred = _read_registry(args.pred_slots)
    truth = _read_registry(args.truth_slots)
    table = gt = None
    if args.records is not None:
        with open(args.records, encoding="utf-8") as fh:
            table = read_records(fh)
        gt = _read_truth(args.truth_occupancy)
    evaluate_stage(pred, truth, table, gt, cfg, args.out, args.emit_plot_data)
    return 0


def cmd_run_pipeline(args) -> int:
    """detect, classify and evaluate in one pass, reading each input file once."""
    if args.mode == "scores" and args.scores is None:
        raise ConfigError("run-pipeline --mode scores needs --scores")
    cfg = load_run_config(args.config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Only the slots outlive the detect stage: the detection log and the clustering
    # intermediates are freed before classification starts.
    slots = detect_stage(
        _read_detections(args.detections, cfg), cfg, out_dir / "slots.json", args.emit_plot_data
    ).slots
    gt = _read_truth(args.truth_occupancy)
    source = args.truth_occupancy if args.mode == "oracle" else args.scores
    classifier = _classifier(args.mode, source, gt, cfg)
    table = classify_stage(
        slots, *classifier, out_dir / "occupancy.jsonl", out_dir / "report.json"
    )
    evaluate_stage(
        slots, _read_registry(args.truth_slots), table, gt, cfg,
        out_dir / "metrics.json", args.emit_plot_data,
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors print one ``error:`` line and exit 2, like the program's own."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="parkscan",
        description="Parking-slot discovery from detection logs plus occupancy classification.",
    )
    parser.add_argument("--log-level", default="WARNING", help="stderr log level")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scenario")
    p.add_argument("--scenario", required=True, help="scenario config JSON")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("detect-slots", help="discover slot locations from a detection log")
    p.add_argument("--detections", required=True)
    p.add_argument("--config", default=None, help="run config JSON")
    p.add_argument("--out", required=True, help="slot registry output path")
    p.add_argument("--emit-plot-data", action="store_true")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("classify", help="classify per-slot occupancy")
    p.add_argument("--slots", required=True, help="slot registry path")
    p.add_argument("--mode", required=True, choices=["oracle", "scores"])
    p.add_argument("--input", required=True, help="ground-truth occupancy file (oracle) or score table (scores)")
    p.add_argument("--config", default=None)
    p.add_argument("--out-records", required=True)
    p.add_argument("--out-report", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--pred-slots", required=True)
    p.add_argument("--truth-slots", required=True)
    p.add_argument("--records", default=None, help="occupancy records to score")
    p.add_argument("--truth-occupancy", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="metrics report output path")
    p.add_argument("--emit-plot-data", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run-pipeline", help="detect-slots + classify + evaluate")
    p.add_argument("--detections", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--truth-slots", required=True)
    p.add_argument("--truth-occupancy", required=True)
    p.add_argument("--mode", default="oracle", choices=["oracle", "scores"])
    p.add_argument("--scores", default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--emit-plot-data", action="store_true")
    p.set_defaults(func=cmd_run_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, args.log_level.upper(), logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ConfigError, ValidationError, SingularProjectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text ({exc})", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input ({exc.msg}, line {exc.lineno})", file=sys.stderr)
        return 2
    except (EmptyInputError, MissingGroundTruthError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
