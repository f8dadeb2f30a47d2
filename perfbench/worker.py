"""One workload in one process: set-up, timed closed loop, untimed checks.

run.py starts this script with BLAS threads pinned to 1 and PYTHONPATH set
to the checkout's src.  It prints one JSON object as its last line.

Modes:
  setup    set up and stop; reports only the set-up time
  measure  set up, then the untraced timed loop: end-to-end metrics
  trace    set up all workloads; traced and untraced passes of the named
           workload alternate to give the tracing overhead, then one traced
           pass of every workload and the layer probes give the per-layer
           metrics
"""

import time

_START = time.perf_counter()  # set-up is timed from here, before any import below

import argparse
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

import eigenlogic
import inputs
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
# A run is whole passes over the cases, so every case weighs the same, and
# at least MIN_OPS ops, so that p90 has at least ten samples beyond it.
MIN_OPS = 100
# `verify all` runs inside the timed loop, at a pass boundary: in
# cli-process after every pass over its commands (1 run per 20 commands),
# elsewhere once at least 1/VERIFY_SPACING of --seconds has passed since the
# previous run.  The median run is reported.
VERIFY_SPACING = 5
LOAD_SHAPE = "closed loop, 1 caller, 1 thread, 1 process"
WAIT_NOTE = "none: no layer queues work, so no layer has a wait time"

# Per-layer timing metrics: the span each one is the median self time of.
LAYER_TIMES = {
    "formula.parse_us": "formula.parse",
    "formula.compile_us": "formula.compile",
    "formula.compile_wide_ms": "formula.compile_wide",
    "synthesis.truth_table_ms": "synthesis.truth_table",
    "synthesis.synthesize_ms": "synthesis.synthesize",
    "synthesis.read_table_ms": "synthesis.read_table",
    "synthesis.binary_catalog_us": "synthesis.binary_catalog",
    "core.classify_us": "core.classify",
    "core.json_roundtrip_ms": "core.json_roundtrip",
    "fuzzy.state_us": "fuzzy.state",
    "fuzzy.membership_us": "fuzzy.membership",
    "fuzzy.born_mean_us": "fuzzy.born_mean",
    "fuzzy.bound_check_us": "fuzzy.bound_check",
    **{f"verify.suite_{n}_ms": f"verify.suite_{n}" for n in eigenlogic.verify.SUITE_NAMES},
    "cli.python_start_ms": "cli.python_start",
    **{f"cli.main_{k}_ms": f"cli.main_{k}" for k in inputs.CLI_KINDS},
}
LAYERS = ("formula", "synthesis", "core", "fuzzy", "verify", "cli")
# Workloads whose cases get one traced pass in every traced run; the CLI
# layer is covered by the in-process and import probes instead.
IN_PROCESS = ("formula-small", "table-wide", "fuzzy-states")
_SCALE_NS = {"us": 1e3, "ms": 1e6, "s": 1e9}

class Loop:
    """Closed loop over a workload's cases: one op at a time, one caller."""

    def __init__(self, workload, pool, context):
        self.workload = workload
        self.cases = pool.cases
        self.context = context
        self.attempted = 0
        self.failed = 0
        self.reported = False

    def count(self, ok: bool, message) -> None:
        """Count one attempted op; print the first failure's details to stderr."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not self.reported:
                self.reported = True
                print(message() if callable(message) else message, file=sys.stderr)

    def check(self, case, result) -> None:
        if isinstance(result, Exception):
            self.count(False, lambda: "".join(traceback.format_exception(result)))
            return
        try:
            ok = self.workload.check(case, result)
        except Exception:
            self.count(False, traceback.format_exc())
            return
        self.count(ok, f"{self.workload.name}: wrong output for a {case.kind} case")

    def run(self, tracers, seconds, min_ops, granule=1, between=None):
        """Run ops until `seconds` have passed, `min_ops` are done and the op
        count is a multiple of `granule`.  A timed loop (seconds > 0) also
        stops at the first multiple of `granule` after 4 x `seconds`.

        Pass k over the cases uses tracers[k % len(tracers)], so alternating
        tracers see identical case mixes.  Returns op latencies in ns, one
        list per tracer.
        """
        latencies = [[] for _ in tracers]
        n = len(self.cases)
        cap = 4 * seconds if seconds > 0 else math.inf
        start = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            boundary = i > 0 and i % granule == 0
            if boundary and elapsed >= seconds and (i >= min_ops or elapsed >= cap):
                return latencies
            slot = (i // n) % len(tracers)
            tracer = tracers[slot]
            case = self.cases[i % n]
            tracer.op += 1
            t0 = time.perf_counter_ns()
            try:
                with tracer.span("op"):
                    result = self.workload.op(case, tracer, self.context)
            except Exception as exc:
                result = exc
            latencies[slot].append(time.perf_counter_ns() - t0)
            self.check(case, result)
            i += 1
            if between is not None:
                between(i)


def set_up(name: str, seed: int, toy: bool, corrupt: bool):
    workload = workloads.WORKLOADS[name]
    pool = workload.build(seed, toy)
    if corrupt:
        pool.cases[0] = inputs.corrupted(pool.cases[0])
    loop = Loop(workload, pool, workload.prepare(pool))
    for case in pool.cases[: workload.warmup]:
        loop.workload.op(case, tracing.NullTracer(), loop.context)
    return loop, pool


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "eigenlogic": eigenlogic.__file__,
        "load": LOAD_SHAPE,
        "wait_time": WAIT_NOTE,
    }


def _median(values):
    return statistics.median(values) if values else None


def measure(args) -> dict:
    loop, pool = set_up(args.workload, args.seed, args.toy, args.corrupt_expected)
    setup_s = time.perf_counter() - _START
    null = tracing.NullTracer()
    verify_times = []

    in_loop = args.workload == "cli-process"
    per_pass = len(pool.cases)
    last_verify = [time.perf_counter()]

    def verify() -> None:
        seconds, ok = workloads.verify_all()
        last_verify[0] = time.perf_counter()
        verify_times.append(seconds)
        loop.count(ok, "verify all did not pass")

    def between(i: int) -> None:
        due = time.perf_counter() - last_verify[0] >= args.seconds / VERIFY_SPACING
        if i % per_pass == 0 and (in_loop or due):
            verify()

    min_ops = 10 if args.toy else MIN_OPS
    latencies = loop.run(
        [null], args.seconds, per_pass * math.ceil(min_ops / per_pass), granule=per_pass,
        between=between,
    )[0]
    if not verify_times:
        verify()
    who = resource.RUSAGE_CHILDREN if in_loop else resource.RUSAGE_SELF
    ms = sorted(ns / 1e6 for ns in latencies)
    rank90 = math.ceil(0.9 * len(ms))  # nearest rank
    return {
        "setup_s": setup_s,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "samples": len(ms),
        "beyond_p90": len(ms) - rank90,
        "verify_times": verify_times,
        "metrics": {
            "ops_per_s": ops_per_s(latencies),
            "op_p50_ms": statistics.median(ms),
            "op_p90_ms": ms[rank90 - 1],
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
            "verify_all_s": statistics.median(verify_times),
        },
        "env": environment(),
    }


def ops_per_s(latencies_ns: list[int]) -> float:
    """Ops per second of time spent inside ops."""
    return len(latencies_ns) / (sum(latencies_ns) / 1e9)


def _import_split(stderr: str) -> tuple[float, float]:
    """(numpy cumulative ms, eigenlogic self ms) from -X importtime output."""
    numpy_us, own_us = 0, 0
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)", line)
        if not match:
            continue
        self_us, cumulative_us, _, module = match.groups()
        if module == "numpy":
            numpy_us = int(cumulative_us)
        elif module.split(".")[0] == "eigenlogic":
            own_us += int(self_us)
    return numpy_us / 1e3, own_us / 1e3


def layer_probes(tr, cli_pool, repeats: int) -> tuple[list[bool], dict]:
    outcomes = workloads.probe_binary_catalog(tr, 10 * repeats)
    outcomes += workloads.probe_cli_main(tr, cli_pool.cases)
    outcomes += workloads.probe_verify_suites(tr, max(1, repeats // 3))
    splits = []
    for _ in range(repeats):
        with tr.span("cli.python_start"):
            subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        with tr.span("cli.importtime"):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import eigenlogic.cli"],
                capture_output=True, text=True, timeout=60,
            )
        outcomes.append(proc.returncode == 0)
        splits.append(_import_split(proc.stderr))
    return outcomes, {
        "cli.import_numpy_ms": _median([s[0] for s in splits]),
        "cli.import_eigenlogic_ms": _median([s[1] for s in splits]),
    }


def trace(args) -> dict:
    loops = {}
    counts = {}
    for name in workloads.WORKLOADS:
        loops[name], pool = set_up(name, args.seed, args.toy, args.corrupt_expected and name == args.workload)
        counts.update(pool.counts)
    setup_s = time.perf_counter() - _START

    # Tracing overhead: whole passes alternate between untraced and traced.
    main = loops[args.workload]
    overhead_tracer = tracing.Tracer()
    per_pass = len(main.cases)
    untraced_ns, traced_ns = main.run(
        [tracing.NullTracer(), overhead_tracer], args.seconds, 2 * per_pass, granule=2 * per_pass
    )
    untraced, traced = ops_per_s(untraced_ns), ops_per_s(traced_ns)

    # Per-layer pass: one traced pass of each in-process workload, then the
    # probes.  Its call counts depend on the inputs only.
    layer_tracer = tracing.Tracer()
    for name in IN_PROCESS:
        n = len(loops[name].cases)
        loops[name].run([layer_tracer], 0.0, n, granule=n)
    probe_ok, import_split = layer_probes(layer_tracer, loops["cli-process"], 1 if args.toy else 5)
    probe_failed = probe_ok.count(False)

    self_ns = layer_tracer.self_times_ns()
    for name, times in overhead_tracer.self_times_ns().items():
        self_ns.setdefault(name, []).extend(times)
    metrics = {}
    for metric, span in LAYER_TIMES.items():
        times = self_ns.get(span)
        scale = _SCALE_NS[metric.rsplit("_", 1)[1]]
        metrics[metric] = statistics.median(times) / scale if times else None
    metrics.update(import_split)
    metrics.update(counts)
    for layer in LAYERS:
        spans = [s for s in layer_tracer.spans if s[tracing.NAME].startswith(layer + ".")]
        metrics[f"{layer}.calls"] = len(spans)
        metrics[f"{layer}.failed"] = sum(1 for s in spans if s[tracing.RAISED])
    metrics["trace.ops_per_s_untraced"] = untraced
    metrics["trace.ops_per_s_traced"] = traced
    metrics["trace.overhead_pct"] = 100.0 * (untraced - traced) / untraced

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"spans-{args.workload}-seed{args.seed}"
    overhead_tracer.write(OUT_DIR / f"{stem}-loop.jsonl")
    layer_tracer.write(OUT_DIR / f"{stem}-layers.jsonl")
    attempted = sum(loop.attempted for loop in loops.values()) + len(probe_ok)
    failed = sum(loop.failed for loop in loops.values()) + probe_failed
    return {
        "setup_s": setup_s,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "env": environment(),
        "spans": str(OUT_DIR / stem) + "-*.jsonl",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--corrupt-expected", action="store_true")
    args = parser.parse_args()
    src = ROOT / "src"
    if not Path(eigenlogic.__file__).resolve().is_relative_to(src.resolve()):
        print(f"eigenlogic resolved to {eigenlogic.__file__}, not under {src}", file=sys.stderr)
        return 2
    if args.mode == "setup":
        set_up(args.workload, args.seed, args.toy, args.corrupt_expected)
        result = {"setup_s": time.perf_counter() - _START}
    elif args.mode == "measure":
        result = measure(args)
    else:
        result = trace(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
