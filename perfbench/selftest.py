"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it checks that an untraced run emits
every end-to-end metric and a traced run every per-layer metric, each with
its unit; that a run with one deliberately corrupted expected output counts
it as failed, so the checks are not vacuous; and that two traced runs with
one seed report identical counts.  It also checks that a directory holding
only BENCHMARK.json and perfbench/ exits non-zero without printing a
result.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
        "--seconds", "0.3", "--trace", str(trace), "--toy", *extra,
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"run exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            problems.append(message)

    def expect_metrics(where: str, res: dict, specs: list[dict]) -> None:
        expect(set(res) == RESULT_KEYS, f"{where}: result keys {sorted(res)}")
        expect(res["correct"] and res["failed"] == 0, f"{where}: {res['failed']} failed")
        names = {spec["name"] for spec in specs}
        expect(set(res["metrics"]) == names, f"{where}: metrics differ from BENCHMARK.json")
        for spec in specs:
            got = res["metrics"].get(spec["name"], {})
            expect(got.get("unit") == spec["unit"], f"{where}: {spec['name']} unit {got.get('unit')}")
            expect(isinstance(got.get("value"), (int, float)), f"{where}: {spec['name']} has no value")

    counts = [spec["name"] for spec in SPEC["per_layer"] if spec["unit"] == "count"]
    for workload in (w["name"] for w in SPEC["workloads"]):
        plain = run(workload, 0)
        expect_metrics(f"{workload} untraced", result(plain), SPEC["end_to_end"])
        expect("failed_share" in plain.stdout, f"{workload}: failed_share not printed")

        first, second = result(run(workload, 1)), result(run(workload, 1))
        expect_metrics(f"{workload} traced", first, SPEC["per_layer"])
        for name in counts:
            expect(
                first["metrics"][name] == second["metrics"][name],
                f"{workload}: count {name} differs between two runs with one seed",
            )

        for trace in (0, 1):
            bad = result(run(workload, trace, "--corrupt-expected"))
            expect(
                bad["failed"] >= 1 and not bad["correct"],
                f"{workload}: a corrupted expected output was not counted (trace {trace})",
            )

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        expect(proc.returncode != 0, "a directory without the program did not fail")
        expect("{" not in proc.stdout, "a directory without the program printed a result")
    finally:
        shutil.rmtree(bare)

    for problem in problems:
        print("FAIL", problem)
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
