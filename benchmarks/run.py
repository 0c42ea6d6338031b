"""The euatlab benchmark command.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) in fresh worker processes with
single-threaded BLAS, one process at a time, checks every repetition, and
prints a table of metrics with their units and sample counts, the output
digests and an environment fingerprint. The last line of standard output
is one JSON object: with ``--trace 0`` it holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run. The exit code is
non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0
# set-ups measured per untraced run, each in a fresh process; workers beyond
# the workload's own processes only set up
SETUP_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "epoch_s_p50": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(worker_versions: dict, load_start, load_end) -> dict:
    return {
        "python": platform.python_version(),
        **worker_versions,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "threads": {v: "1" for v in THREAD_VARS},
        "loadavg_start": list(load_start),
        "loadavg_end": list(load_end),
    }


def nearest_rank(values, q):
    """Value at quantile ``q`` by nearest rank, and how many samples lie
    beyond it."""
    ordered = sorted(values)
    rank = max(math.ceil(q * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank


def run_workers(args, processes: int, scratch: Path) -> list[dict]:
    """Run the worker processes one after another; worker k uses preset seed
    ``seed * processes + k``, so a run averages over several seeds' datasets
    and a given ``--seed`` always covers the same ones."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    deadline = time.monotonic() + DEADLINE_S
    results = []
    for k in range(processes if args.trace else max(processes, SETUP_SAMPLES)):
        seed = args.seed * processes + min(k, processes - 1)
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", repr(args.seconds / processes),
            "--trace", str(args.trace), "--scratch", str(scratch),
        ] + (["--setup-only"] if k >= processes else [])
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        results.append({"seed": seed, **json.loads(proc.stdout.strip().splitlines()[-1])})
    return results


def mark_failures(reps: list[dict]):
    """Determinism checks across the repetitions of one seed: output digests
    equal the first repetition's, and traced per-layer counts repeat
    exactly."""
    from tracer import VARYING

    first = reps[0]
    first_traced = next((r for r in reps if "layers" in r), None)
    for rep in reps[1:]:
        if "digests" in rep and rep["digests"] != first.get("digests"):
            rep["problems"].append("output digests differ from the first repetition")
        if "layers" in rep and rep is not first_traced:
            changed = sorted(k for k, v in rep["layers"].items()
                             if k not in VARYING and v != first_traced["layers"][k])
            if changed:
                rep["problems"].append(f"per-layer counts changed: {changed}")


def end_to_end(results: list[dict], timed: list[dict]) -> dict:
    """Metric name -> (median, sample count)."""
    epochs = [e for r in timed for e in r["epoch_s"]]
    samples = {
        "setup_s": [w["setup_s"] for w in results],
        "run_s": [r["run_s"] for r in timed],
        "train_s": [r["train_s"] for r in timed],
        "eval_s": [r["eval_s"] for r in timed],
        "epoch_s_p50": epochs,
        "peak_rss_mb": [w["peak_rss_mb"] for w in results if w["reps"]],
    }
    return {k: (statistics.median(v), len(v)) for k, v in samples.items()}


def per_layer(timed: list[dict], traced: list[dict]) -> dict:
    """Metric name -> (value, sample count): medians of the varying
    metrics, the (repeating) value of every count."""
    from tracer import LAYER_METRICS, OVERHEAD_METRIC, VARYING

    values = {}
    for name in LAYER_METRICS:
        if name in VARYING:
            values[name] = (statistics.median(r["layers"][name] for r in traced), len(traced))
        else:
            values[name] = (traced[0]["layers"][name], len(traced))
    overhead = (statistics.median(r["run_s"] for r in traced)
                / statistics.median(r["run_s"] for r in timed) - 1.0)
    values[OVERHEAD_METRIC] = (overhead, len(traced))
    return values


def units(trace: int) -> dict:
    if not trace:
        return END_TO_END_UNITS
    from tracer import LAYER_METRICS, OVERHEAD_METRIC

    return {**{n: unit for n, (unit, _, _) in LAYER_METRICS.items()}, OVERHEAD_METRIC: "frac"}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "euatlab" / "__init__.py").is_file():
        print(f"no euatlab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    processes = 1 if args.trace else workload.processes
    scratch = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    load_start = os.getloadavg()
    try:
        results = run_workers(args, processes, scratch)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another run is using it
            pass
    load_end = os.getloadavg()

    workers = [w for w in results if w["reps"]]
    for worker in workers:
        mark_failures(worker["reps"])
    reps = [r for w in results for r in w["reps"]]
    failed = [r for r in reps if r["problems"]]
    ok = [r for r in reps if not r["problems"]]
    timed = [r for r in ok if r["phase"] == "untraced"]
    traced = [r for r in ok if r["phase"] == "traced"]
    for rep in failed:
        print(f"FAILED {rep['phase']} repetition: {'; '.join(rep['problems'])}", file=sys.stderr)
    if not timed or (args.trace and not traced):
        print("no repetition passed its checks", file=sys.stderr)
        return 1

    values = per_layer(timed, traced) if args.trace else end_to_end(results, timed)
    metric_units = units(args.trace)
    print(f"workload {args.workload}  seed {args.seed}  processes {processes}  "
          f"repetitions {len(reps)} (incl. {len(workers)} warm-up)  "
          f"{'traced' if args.trace else 'untraced'}")
    for name, (value, n) in values.items():
        print(f"  {name:<46} {value:>14.6g} {metric_units[name]:<6} n={n}")
    if not args.trace:
        epochs = [e for r in timed for e in r["epoch_s"]]
        p90, beyond = nearest_rank(epochs, 0.9)
        if beyond >= 10:  # a percentile needs ten samples beyond it
            print(f"  {'epoch_s_p90':<46} {p90:>14.6g} {'s':<6} n={len(epochs)}, "
                  f"{beyond} beyond")
    print(f"  {'failed_frac':<46} {len(failed) / len(reps):>14.6g} {'frac':<6} n={len(reps)}")
    for worker in workers:
        first = worker["reps"][0]
        if "digests" in first:
            # deterministic per seed: a change here means the numbers changed
            print(f"seed {worker['seed']}  test_error {first['test_error']!r}  "
                  f"test_uauc {first['test_uauc']!r}  "
                  f"digest metrics={first['digests']['metrics']} "
                  f"checkpoint={first['digests']['checkpoint']}")
    print("env " + json.dumps(fingerprint(results[0]["versions"], load_start, load_end),
                              sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": metric_units[name]}
                    for name, (value, _) in values.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
