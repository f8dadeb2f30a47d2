"""The four workloads: timed calls into eigenlogic and untimed checks.

Each op wraps every public call it makes in a span named after the
per-layer metric the call feeds (`formula.parse` feeds `formula.parse_us`).
Each check compares an op's result with the reference that `inputs`
computed when the inputs were generated, never with a second call into the
code being timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import inputs
from eigenlogic import (
    ISOMETRIC,
    PROJECTIVE,
    TERNARY,
    DiagObservable,
    StateVector,
    TruthTable,
    binary_catalog,
    born_mean,
    bound_check,
    classify,
    cli,
    kron,
    membership,
    product_state,
    qubit_from_probability,
    read_table,
    synthesize,
    verify,
)
from eigenlogic import formula as fdsl

ROOT = Path(__file__).resolve().parent.parent
ALPHABETS = {"01": PROJECTIVE, "pm": ISOMETRIC, "ternary": TERNARY}
MEAN_TOL = 1e-9
BOUND_TOL = 1e-12
CHILD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, bool], inputs.Pool]  # (seed, toy) -> inputs
    op: Callable  # (case, tracer, context) -> result, timed
    check: Callable  # (case, result) -> bool, untimed
    warmup: int  # cases run once during set-up
    prepare: Callable[[inputs.Pool], object] = lambda pool: None  # set-up context


# --- formula-small ----------------------------------------------------------


def _parse_compile(case, tr, parse_span: str, compile_span: str):
    with tr.span(parse_span):
        node = fdsl.parse(case.text)
    with tr.span(compile_span):
        return fdsl.compile(
            node,
            ALPHABETS[case.alphabet],
            arity=case.arity,
            variables=tuple(inputs.LETTERS[: case.arity]),
        )


def formula_op(case, tr, context):
    return _parse_compile(case, tr, "formula.parse", "formula.compile")


def formula_check(case, compiled) -> bool:
    return np.array_equal(compiled.observable.eigenvalues, case.expected)


# --- table-wide -------------------------------------------------------------


def table_op(case, tr, context):
    if case.kind != "roundtrip":
        return _parse_compile(case, tr, "formula.parse_wide", "formula.compile_wide")
    with tr.span("synthesis.truth_table"):
        table = TruthTable(TERNARY, inputs.TABLE_ARITY, case.outputs)
    with tr.span("synthesis.synthesize"):
        observable = synthesize(table)
    with tr.span("core.classify"):
        labels = classify(observable)
    with tr.span("synthesis.read_table"):
        back = read_table(observable, TERNARY)
    with tr.span("core.json_roundtrip"):
        copy = DiagObservable.from_json(json.loads(json.dumps(observable.to_json())))
    return table, labels, back, copy


def table_check(case, result) -> bool:
    if case.kind != "roundtrip":
        return formula_check(case, result)
    table, labels, back, copy = result
    return (
        back == table
        and np.array_equal(np.asarray(back.outputs), case.expected)
        and np.array_equal(copy.eigenvalues, case.expected)
        and (" ".join(labels.labels()) or "none") == inputs.class_text(case.expected)
    )


# --- fuzzy-states -----------------------------------------------------------


@dataclass
class FuzzyContext:
    catalog2: list[DiagObservable]
    catalog3: list[DiagObservable]
    wide: DiagObservable


def fuzzy_prepare(pool: inputs.Pool) -> FuzzyContext:
    catalog = binary_catalog("projective")
    identity = DiagObservable.identity((2,))
    wide = fdsl.compile(
        fdsl.parse(pool.extra["wide_formula"]),
        PROJECTIVE,
        arity=inputs.FUZZY_WIDE_QUBITS,
        variables=tuple(inputs.LETTERS[: inputs.FUZZY_WIDE_QUBITS]),
    ).observable
    if not np.array_equal(wide.eigenvalues, pool.extra["wide_expected"]):
        raise RuntimeError("the 12-variable formula compiled to a wrong observable")
    return FuzzyContext(
        [catalog[name] for name in inputs.CONNECTIVES],
        [kron(catalog[name], identity) for name in inputs.CONNECTIVES],
        wide,
    )


def fuzzy_op(case, tr, context: FuzzyContext):
    if case.kind == "product":
        with tr.span("fuzzy.state"):
            state = product_state(
                [
                    qubit_from_probability(case.p, case.phases[0]),
                    qubit_from_probability(case.q, case.phases[1]),
                ]
            )
        means = {}
        for name in inputs.CONNECTIVES:
            with tr.span("fuzzy.membership"):
                means[name] = membership(state, name)
        return means
    if case.kind == "entangled":
        with tr.span("fuzzy.state"):
            state = StateVector(case.arities, case.amplitudes)
        observables = context.catalog2 if len(case.arities) == 2 else context.catalog3
        within = []
        for observable in observables:
            with tr.span("fuzzy.bound_check"):
                within.append(bound_check(state, observable))
        return within
    with tr.span("fuzzy.state"):
        state = StateVector((2,) * inputs.FUZZY_WIDE_QUBITS, case.amplitudes)
    with tr.span("fuzzy.born_mean"):
        return born_mean(state, context.wide)


def _in_unit_interval(mean: float) -> bool:
    return -BOUND_TOL <= mean <= 1.0 + BOUND_TOL


def fuzzy_check(case, result) -> bool:
    if case.kind == "product":
        return result.keys() == case.expected.keys() and all(
            abs(result[name] - mu) <= MEAN_TOL for name, mu in case.expected.items()
        )
    if case.kind == "entangled":
        return list(result) == [_in_unit_interval(mu) for mu in case.expected]
    return _in_unit_interval(result) and abs(result - case.expected) <= MEAN_TOL


# --- cli-process ------------------------------------------------------------


def run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    """One `python -m eigenlogic` process; it imports this checkout's src."""
    return subprocess.run(
        [sys.executable, "-m", "eigenlogic", *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def cli_op(case, tr, context):
    with tr.span("cli.process"):
        return run_cli(case.argv)


def stdout_matches(case, returncode: int, stdout: str) -> bool:
    if returncode != 0:
        return False
    if not case.json_mean:
        return stdout == case.expected
    got, want = json.loads(stdout), json.loads(case.expected)
    return got.keys() == want.keys() and abs(got["mean"] - want["mean"]) <= 1e-12


def cli_check(case, proc) -> bool:
    return stdout_matches(case, proc.returncode, proc.stdout)


def verify_all() -> tuple[float, bool]:
    """Wall seconds of one `eigenlogic verify all` process, and whether it passed."""
    start = perf_counter()
    proc = run_cli(["verify", "all"])
    seconds = perf_counter() - start
    lines = proc.stdout.splitlines()
    return seconds, proc.returncode == 0 and lines[-1:] == [inputs.VERIFY_ALL_LINE]


# --- workload table ---------------------------------------------------------

WORKLOADS = {
    "formula-small": Workload(
        "formula-small",
        lambda seed, toy: inputs.formula_small(seed, 30 if toy else 1000),
        formula_op,
        formula_check,
        warmup=30,
    ),
    "table-wide": Workload(
        "table-wide",
        lambda seed, toy: inputs.table_wide(seed, 1 if toy else 4),
        table_op,
        table_check,
        warmup=3,
    ),
    "fuzzy-states": Workload(
        "fuzzy-states",
        lambda seed, toy: inputs.fuzzy_states(seed, 1 if toy else 20),
        fuzzy_op,
        fuzzy_check,
        warmup=10,
        prepare=fuzzy_prepare,
    ),
    "cli-process": Workload(
        "cli-process",
        lambda seed, toy: inputs.cli_commands(seed, 1 if toy else 2),
        cli_op,
        cli_check,
        warmup=1,
    ),
}


# --- per-layer probes for the traced run -------------------------------------


def probe_binary_catalog(tr, repeats: int) -> list[bool]:
    outcomes = []
    for _ in range(repeats):
        with tr.span("synthesis.binary_catalog"):
            catalog = binary_catalog("projective")
        outcomes.append(
            all(
                np.array_equal(catalog[name].eigenvalues, inputs.connective_vector(name))
                for name in inputs.CONNECTIVES
            )
        )
    return outcomes


def probe_cli_main(tr, cases) -> list[bool]:
    """`cli.main(argv)` in-process, stdout captured, once per command."""
    outcomes = []
    for case in cases:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), tr.span(f"cli.main_{case.kind}"):
            code = cli.main(case.argv)
        outcomes.append(stdout_matches(case, code, buffer.getvalue()))
    return outcomes


def probe_verify_suites(tr, repeats: int) -> list[bool]:
    outcomes = []
    for _ in range(repeats):
        for name in verify.SUITE_NAMES:
            with tr.span(f"verify.suite_{name}"):
                results = verify.run_suite(name)
            outcomes.append(bool(results) and all(r.ok for r in results))
    return outcomes
