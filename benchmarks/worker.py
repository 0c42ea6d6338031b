"""One benchmark process: set-up, one warm-up call, then timed repetitions of
a workload's ``run_experiment`` call, each checked for correctness.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --scratch DIR

``run.py`` starts this with single-threaded BLAS. With ``--trace 1`` the
window is split: untraced repetitions first, then at least two traced ones.
The last line of standard output is one JSON object with the set-up time,
peak RSS, library versions and one record per repetition.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

EVAL_STAGES = ("tune-threshold", "evaluate", "flip", "ood", "attack")
PROB_SUM_TOL = 1e-9


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="measure the set-up and make no calls")
    return parser.parse_args(argv)


def versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_run(out: Path, manifest: dict, config) -> list[str]:
    """Invariants of one finished run; returns the violations found."""
    problems = [f"stage {s['stage']} {s['status']}" for s in manifest["stages"]
                if s["status"] != "ok"]
    with open(out / "predictions.csv", newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        first_p = header.index("p0")
        for row in rows:
            total = sum(float(v) for v in row[first_p:])
            if abs(total - 1.0) > PROB_SUM_TOL:
                problems.append(f"prediction {row[0]} sums to {total!r}")
                break
    reports = json.loads((out / "metrics.json").read_text())
    for name, report in reports.items():
        scores = report["metrics"] if name == "flip" else report
        if not 0.0 <= scores["ua"] <= 1.0:
            problems.append(f"{name} ua = {scores['ua']!r} outside [0, 1]")
        # uauc is None (undefined) when every row is correct or every row wrong
        if scores["uauc"] is not None and not 0.0 <= scores["uauc"] <= 1.0:
            problems.append(f"{name} uauc = {scores['uauc']!r} outside [0, 1]")
    if "attack" in reports:
        linf, eps = reports["attack"]["linf"], config.attack.epsilon
        if not linf <= eps:
            problems.append(f"attack linf {linf!r} > epsilon {eps!r}")
    return problems


def run_facts(out: Path, manifest: dict) -> dict:
    reports = manifest["reports"]
    stages = {s["stage"]: s["wall_time"] for s in manifest["stages"]}
    with open(out / "per_epoch.csv", newline="") as fh:
        epochs = list(csv.DictReader(fh))
    return {
        "stages": stages,
        "train_s": stages["train"],
        "eval_s": sum(stages.get(s, 0.0) for s in EVAL_STAGES),
        # epoch 0 is the validation pass before any training epoch
        "epoch_s": [float(r["wall_time"]) for r in epochs if r["epoch"] != "0"],
        "skipped_epochs": sum(r["skipped"] == "1" for r in epochs),
        "artifact_bytes": sum(p.stat().st_size for p in out.iterdir()),
        "digests": {name: _sha256(out / f"{name}.json") for name in ("metrics", "checkpoint")},
        "test_error": reports["clean"]["error"],
        "test_uauc": reports["clean"]["uauc"],
    }


def run_rep(experiment, config, scratch: Path, phase: str, tracer=None) -> dict:
    """One checked ``run_experiment`` call in a fresh output directory."""
    out = Path(tempfile.mkdtemp(prefix="rep-", dir=scratch))
    rep = {"phase": phase}
    try:
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        manifest = experiment.run_experiment(config, out)
        rep["run_s"] = time.perf_counter() - start
        problems = check_run(out, manifest, config)
        facts = run_facts(out, manifest)
        rep.update(facts)
        if tracer is not None:
            from tracer import layer_values

            half = config.schedule.batch_size // 2
            problems += [
                f"full euat batch with {c} correct and {w} wrong rows"
                for c, w in tracer.counts.batches if c + w == 2 * half and c != w
            ]
            rep["layers"] = layer_values(tracer.summary(), tracer.counts, facts)
        rep["problems"] = problems
    except Exception:  # a failed repetition is counted, not fatal
        rep["problems"] = ["raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
        traceback.print_exc(file=sys.stderr)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return rep


def repeat(experiment, config, scratch, phase, seconds, min_reps, tracer=None):
    reps, start = [], time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        reps.append(run_rep(experiment, config, scratch, phase, tracer))
    return reps


def run_reps(experiment, config, scratch: Path, args) -> list[dict]:
    """The warm-up call, then timed calls; with tracing, untraced calls for
    half the window and traced calls for the other half."""
    reps = [run_rep(experiment, config, scratch, "warmup")]
    if not args.trace:
        return reps + repeat(experiment, config, scratch, "untraced", args.seconds, 1)
    from tracer import Tracer

    reps += repeat(experiment, config, scratch, "untraced", args.seconds / 2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        reps += repeat(experiment, config, scratch, "traced", args.seconds / 2, 2, tracer)
    finally:
        tracer.uninstall()
    return reps


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    from workloads import build_config

    start = time.perf_counter()
    import euatlab
    from euatlab import experiment

    config = build_config(args.workload, args.seed)
    dataset = experiment.build_dataset(config)
    experiment.build_model(config, dataset)
    setup_s = time.perf_counter() - start
    del dataset
    if Path(euatlab.__file__).resolve().parent != SRC / "euatlab":
        print(f"euatlab imported from {euatlab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    reps = [] if args.setup_only else run_reps(experiment, config, Path(args.scratch), args)
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": versions(),
        "reps": reps,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
