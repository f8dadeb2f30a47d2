"""eigenlogic benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of the workloads below, or
`all` to run each in turn.  Every workload is a closed loop with one
caller, one thread and one process; BLAS is pinned to one thread.  With
`--trace 0` the run reports the end-to-end metrics; with `--trace 1` a
separate traced run reports the per-layer metrics and its own tracing
overhead, and writes its spans under `.perfbench/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it print
the same metrics by name with units, plus `failed_share` and the
environment.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The keys of workloads.WORKLOADS; this script imports neither numpy nor
# eigenlogic, so that it can refuse to run before either is loaded.
WORKLOADS = ("formula-small", "table-wide", "fuzzy-states", "cli-process")
# Set-up runs this many times a run, each in a fresh process; setup_s is
# the median.  The last set-up is the one the measured loop follows.
SETUPS = 3
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verify_all_s": "s",
}


def _unit(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    suffix = metric.rsplit("_", 1)[-1]
    if suffix in ("us", "ms", "s", "pct"):
        return "%" if suffix == "pct" else suffix
    return "1/s" if metric.startswith("trace.ops_per_s") else "count"


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload: str, args, mode: str) -> dict:
    """Run worker.py in its own process group; kill the group on timeout."""
    argv = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    argv += ["--toy"] if args.toy else []
    argv += ["--corrupt-expected"] if args.corrupt_expected else []
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=SETUP_TIMEOUT_S if mode == "setup" else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"{workload}: {mode} run timed out")
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: {mode} run exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, args) -> dict:
    if args.trace:
        return run_worker(workload, args, "trace")
    setups = [run_worker(workload, args, "setup")["setup_s"] for _ in range(SETUPS - 1)]
    result = run_worker(workload, args, "measure")
    setups.append(result["setup_s"])
    result["setups"] = setups
    result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def _fmt(value) -> str:
    return "n/a" if value is None else format(value, ".6g")


def report(workload: str, args, result: dict) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"== {workload}  seed {args.seed}  {args.seconds} s  {mode}")
    for key, value in result["env"].items():
        print(f"   {key}: {value}")
    metrics = result["metrics"]
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"   {name:<{width}}  {_fmt(value)} {_unit(name)}")
    share = result["failed"] / result["attempted"]
    print(f"   {'failed_share':<{width}}  {_fmt(share)} 1  ({result['failed']} of {result['attempted']})")
    if args.trace:
        print(f"   spans: {result['spans']}")
    else:
        print(
            f"   samples: {result['samples']} ops, {result['beyond_p90']} beyond p90\n"
            f"   verify all runs (s): {', '.join(_fmt(t) for t in result['verify_times'])}\n"
            f"   set-ups (s): {', '.join(_fmt(t) for t in result['setups'])}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument(
        "--corrupt-expected", action="store_true",
        help="make one expected output wrong, for the self-test",
    )
    args = parser.parse_args()
    if "EIGENLOGIC_DIM_CAP" in os.environ:
        print("EIGENLOGIC_DIM_CAP is set; it changes the workloads, so unset it", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "eigenlogic" / "__init__.py").is_file():
        print(f"no eigenlogic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args)
        report(name, args, results[name])
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else name + "."
        for metric, value in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": _unit(metric)}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
