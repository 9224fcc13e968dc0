#!/usr/bin/env python3
"""The parkscan benchmark: seeded parking lots through the CLI, checked and timed.

    python3 perfbench/run.py --workload dense-lot --seed 42 --seconds 30 --trace 0

Run it from anywhere; it uses the checkout it sits in and writes only under
``.perfbench/`` there. It generates the workload's inputs from the seed, checks
their sha256 against ``input_digests.json``, runs the user's job through
``parkscan.cli.main`` for ``--seconds`` in one fresh process, checks the
outputs, and prints each metric by name with its unit. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``.

``python3 perfbench/run.py --record SEEDS`` regenerates ``BENCHMARK.json`` and
records the input digests of the given seeds (e.g. ``0-31,42``).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import (WORKLOADS, check_outputs, inject_distractors, quality,
                       run_config_document, scenario_document, sha256)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "input_digests.json"

RUN_SECONDS = 30
SETUP_REPS = 3
CHILD_TIMEOUT_S = 170

END_TO_END = (
    # name, unit, better, bound
    ("pipeline_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
    ("slot_precision", "ratio", "higher", 0.1),
    ("slot_recall", "ratio", "higher", 0.1),
    ("occupancy_accuracy", "ratio", "higher", 0.05),
    ("occupancy_auc", "ratio", "higher", 0.05),
)

# name, unit, better. Seconds are medians over the traced jobs of one run.
PER_LAYER = (
    ("simulator.generate_s", "s", "lower"),
    ("simulator.write_s", "s", "lower"),
    ("simulator.detections", "count", "higher"),
    ("detections.parse_s", "s", "lower"),
    ("detections.filter_s", "s", "lower"),
    ("detections.parsed", "count", "higher"),
    ("detections.kept", "count", "higher"),
    ("detections.kept_ratio", "ratio", "higher"),
    ("geometry.birdseye_s", "s", "lower"),
    ("clustering.dbscan_s", "s", "lower"),
    ("clustering.stats_s", "s", "lower"),
    ("clustering.rss_growth_mb", "MB", "lower"),
    ("clustering.points", "count", "higher"),
    ("clustering.clusters", "count", "higher"),
    ("clustering.noise_points", "count", "lower"),
    ("slots.detect_s", "s", "lower"),
    ("slots.select_s", "s", "lower"),
    ("slots.candidates", "count", "higher"),
    ("slots.iqr_dropped", "count", "lower"),
    ("slots.selected", "count", "higher"),
    ("slots.registry_io_s", "s", "lower"),
    ("occupancy.classify_s", "s", "lower"),
    ("occupancy.iou_evals", "count", "lower"),
    ("occupancy.records", "count", "higher"),
    ("occupancy.error_records", "count", "lower"),
    ("occupancy.truth_read_s", "s", "lower"),
    ("occupancy.score_table_read_s", "s", "lower"),
    ("occupancy.records_io_s", "s", "lower"),
    ("occupancy.report_s", "s", "lower"),
    ("metrics.match_s", "s", "lower"),
    ("metrics.counts_s", "s", "lower"),
    ("metrics.auc_s", "s", "lower"),
    ("metrics.roc_points_s", "s", "lower"),
    ("metrics.roc_thresholds", "count", "lower"),
    ("cli.overhead_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _child_env() -> dict:
    env = dict(os.environ)
    # One process, no helper threads; fixed string hashing keeps work identical.
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def run_child(phase: str, spec: dict, work: Path) -> dict | None:
    """Run one child phase in a fresh process; None if it failed."""
    spec_path = work / f"{phase}.spec.json"
    result_path = work / f"{phase}.result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    result_path.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), phase, str(spec_path), str(result_path)],
            cwd=HERE, env=_child_env(), stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{phase}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.exists():
        print(f"{phase}: exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(result_path.read_text(encoding="utf-8"))


class Inputs:
    """The workload's input files under one work directory."""

    def __init__(self, work: Path, scored: bool):
        self.work = work
        self.scenario = work / "scenario.json"
        self.run_config = work / "run.json"
        self.sim = work / "sim"
        self.truth_slots = self.sim / "slots_truth.json"
        self.truth_occupancy = self.sim / "occupancy_truth.jsonl"
        self.log = self.sim / "detections.jsonl"
        self.injected = work / "detections_injected.jsonl" if scored else None

    @property
    def detections(self) -> Path:
        return self.injected or self.log

    def files(self) -> list[Path]:
        return [self.scenario, self.run_config, self.log, self.truth_slots,
                self.truth_occupancy] + ([self.injected] if self.injected else [])

    def digests(self) -> dict:
        return {p.relative_to(self.work).as_posix(): sha256(p) for p in self.files()}

    def spec(self, name: str, seed: int, **extra) -> dict:
        return {"src": str(ROOT / "src"), "workload": name, "seed": seed,
                "scenario": str(self.scenario), "sim_dir": str(self.sim),
                "run_config": str(self.run_config), "detections": str(self.detections),
                "truth_slots": str(self.truth_slots), "truth_occupancy": str(self.truth_occupancy),
                **extra}


def make_inputs(name: str, seed: int, work: Path, reps: int) -> tuple[Inputs, list[float], list[str]]:
    """Write the workload's inputs, timing ``reps`` set-ups; returns problems found."""
    w = WORKLOADS[name]
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    inputs = Inputs(work, w.scored)
    inputs.scenario.write_text(json.dumps(scenario_document(w, seed), indent=2), encoding="utf-8")
    inputs.run_config.write_text(json.dumps(run_config_document(w), indent=2), encoding="utf-8")
    times, problems, seen = [], [], None
    for _ in range(reps):
        result = run_child("setup", inputs.spec(name, seed), work)
        if result is None:
            raise BenchmarkError("set-up failed: cannot import parkscan from src/ or simulate")
        if result["rc"] != 0:
            problems.append(f"simulate exited with {result['rc']}")
        times.append(result["seconds"])
        sim = [sha256(p) for p in (inputs.log, inputs.truth_slots, inputs.truth_occupancy)]
        if seen is not None and sim != seen:
            problems.append("simulate wrote different files for the same seed")
        seen = sim
    if w.scored:
        inject_distractors(inputs.log, inputs.injected, w, seed)
    return inputs, times, problems


def recorded_digests() -> dict:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def digest_problems(name: str, seed: int, digests: dict) -> list[str]:
    recorded = recorded_digests().get(name, {}).get(str(seed))
    if recorded is None:
        print(f"inputs  seed {seed} has no recorded digests; not gated")
        return []
    return [f"input {f} has sha256 {digests.get(f)}, recorded {d}"
            for f, d in sorted(recorded.items()) if digests.get(f) != d]


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize_job(result: dict | None) -> tuple[dict, list[str]]:
    """Operations attempted and failed, job times and output digests of a child's CLI jobs.

    An operation is one CLI call or one occupancy record; a call fails with a
    nonzero exit or an exception, a record with status ERROR.
    """
    if result is None:
        return {"attempted": 1, "failed": 1, "times": [], "outputs": None}, ["child process failed"]
    runs = result["runs"]
    calls = sum(r["calls"] for r in runs)
    failed_calls = sum(r["failed_calls"] for r in runs)
    records = sum(r.get("records", 0) for r in runs)
    errors = sum(r.get("error_records", 0) for r in runs)
    for traced in result.get("traced", []) + ([result["first"]] if "first" in result else []):
        calls += 3  # detect-slots, classify, evaluate
        records += traced["counts"]["occupancy.records"]
        errors += traced["counts"]["occupancy.error_records"]
    problems = []
    if failed_calls:
        problems.append(f"{failed_calls} of {calls} CLI calls failed")
    if errors:
        problems.append(f"{errors} of {records} occupancy records are ERROR")
    outputs = [r["outputs"] for r in runs if "outputs" in r]
    if any(o != outputs[0] for o in outputs):
        problems.append("repeated jobs wrote different outputs")
    return {"attempted": calls + records, "failed": failed_calls + errors,
            "times": [r["seconds"] for r in runs if not r["failed_calls"]],
            "outputs": outputs[0] if outputs else None, "calls": calls, "records": records,
            "peak_rss_mb": result.get("peak_rss_mb")}, problems


def per_layer_metrics(result: dict) -> dict:
    """Medians over the paired traced jobs of one run, plus the counts of the first job."""
    traced, untraced = result["traced"], [r["seconds"] for r in result["runs"]]

    def seconds(name):
        return _median([r["spans"].get(name, (0.0, 0.0))[0] for r in traced])

    counts = result["first"]["counts"]
    sim = result["simulate"]
    values = {
        "simulator.generate_s": sim["spans"]["simulator.generate"][0],
        "simulator.write_s": sim["spans"]["simulator.write"][0],
        "simulator.detections": sim["counts"]["simulator.detections"],
        "detections.kept_ratio": counts["detections.kept"] / counts["detections.parsed"],
        # Traced and untraced jobs alternate, so each pair saw the same machine.
        "cli.overhead_s": _median([u - t["layers_s"] for t, u in zip(traced, untraced)]),
        "trace.overhead_s": _median([t["roots_s"] - u for t, u in zip(traced, untraced)]),
    }
    for name, unit, _ in PER_LAYER:
        if name not in values:
            values[name] = seconds(name[:-2]) if unit == "s" else counts.get(name, 0)
    return values


def self_time_ranking(traced: list) -> list[tuple[str, float]]:
    """Layer spans by median self time, largest first."""
    names = {n for r in traced for n in r["spans"]} - {"detect-slots", "classify", "evaluate",
                                                       "scorer"}
    ranked = [(n, _median([r["spans"].get(n, (0.0, 0.0))[1] for r in traced])) for n in names]
    return sorted(ranked, key=lambda kv: -kv[1])


def benchmark(name: str, seed: int, seconds: float, traced: bool) -> dict:
    w = WORKLOADS[name]
    if not (ROOT / "src" / "parkscan" / "__init__.py").is_file():
        raise BenchmarkError(f"no parkscan package under {ROOT / 'src'}")
    work = ROOT / ".perfbench" / name
    print(f"parkscan benchmark  workload={name} seed={seed} seconds={seconds:g} trace={int(traced)}")

    inputs, setup_times, problems = make_inputs(name, seed, work, 1 if traced else SETUP_REPS)
    digests = inputs.digests()
    for f, d in sorted(digests.items()):
        print(f"input   {f:32s} sha256 {d}")
    problems += digest_problems(name, seed, digests)

    spec = inputs.spec(name, seed, out_dir=str(work / "out"), seconds=seconds)
    if traced:
        spec.update(traced_dir=str(work / "traced"), sim_dir=str(work / "traced_sim"))
    result = run_child("trace" if traced else "job", spec, work)
    job, job_problems = summarize_job(result)
    problems += job_problems
    if job["outputs"] is not None:
        try:
            problems += check_outputs(w, work / "out", inputs.truth_slots, inputs.truth_occupancy)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"malformed output: {exc!r}")
        for f, d in sorted(job["outputs"].items()):
            print(f"output  {f:32s} sha256 {d}")
    print("jobs    " + " ".join(f"{t:.3f}" for t in job["times"]) + " s")
    print(f"ops     {job['attempted']} attempted ({job.get('calls', 0)} CLI calls,"
          f" {job.get('records', 0)} occupancy records), {job['failed']} failed"
          f" ({job['failed'] / job['attempted']:.2%})")

    metrics, samples = {}, {}
    if not traced:
        specs = END_TO_END
        metrics = {"pipeline_s": _median(job["times"]), "peak_rss_mb": job["peak_rss_mb"],
                   "setup_s": _median(setup_times)}
        samples = {"pipeline_s": len(job["times"]), "setup_s": len(setup_times)}
        if job["outputs"] is not None:
            metrics.update(quality(work / "out"))
    elif result is not None:
        specs = PER_LAYER
        if any(r["outputs"] != job["outputs"] for r in result["traced"] + [result["first"]]):
            problems.append("traced outputs differ from the CLI's")
        if any(digests[f"sim/{f}"] != d for f, d in result["simulate"]["outputs"].items()):
            problems.append("traced simulate wrote different inputs")
        metrics = per_layer_metrics(result)
        samples = {n: len(result["traced"]) for n, u, _ in PER_LAYER
                   if u == "s" and not n.startswith("simulator.")}
        for n, t in self_time_ranking(result["traced"])[:3]:
            print(f"self    {n:32s} {t:.4f} s")
    else:
        specs = PER_LAYER

    for n, unit, *_ in specs:
        note = f"  (median of {samples[n]})" if n in samples else ""
        print(f"metric  {n:32s} {metrics.get(n, float('nan')):.6g} {unit}{note}")
    for p in problems:
        print(f"FAIL    {p}")
    present = {n: {"value": metrics[n], "unit": unit}
               for n, unit, *_ in specs if metrics.get(n) is not None}
    return {"correct": not problems and len(present) == len(specs), "attempted": job["attempted"],
            "failed": job["failed"], "metrics": present}


# --- manifest and digest table ---------------------------------------------------

def _parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(seeds: list[int]) -> None:
    """Write BENCHMARK.json and the input digests of ``seeds`` for every workload."""
    manifest = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    table = recorded_digests()
    for name in WORKLOADS:
        for seed in seeds:
            inputs, _, problems = make_inputs(name, seed, ROOT / ".perfbench" / "record", 1)
            if problems:
                raise BenchmarkError(f"{name} seed {seed}: {problems}")
            table.setdefault(name, {})[str(seed)] = inputs.digests()
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="dense-lot")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="SEEDS",
                        help="write BENCHMARK.json and record input digests for SEEDS, e.g. 0-31,42")
    args = parser.parse_args(argv)
    try:
        if args.record:
            record(_parse_seeds(args.record))
            return 0
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
