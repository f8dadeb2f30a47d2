"""Command-line front end.

Exit codes: 0 on success, 1 on domain errors (message on stderr), 2 on
usage errors.  Floating-point output is fixed at 12 significant digits.
The environment variable EIGENLOGIC_DIM_CAP overrides the dimension cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import formula as fdsl
from .core import DiagObservable, _arity_for, _diag_text, _fmt, classify
from .errors import EigenlogicError
from .fuzzy import StateVector, born_mean, membership, product_state, qubit_from_probability
from .synthesis import (
    CONVENTIONS,
    TruthTable,
    ValueAlphabet,
    binary_catalog,
    read_table,
    synthesize,
)
from .verify import SUITE_NAMES, VERIFY_SEED, run_timed


class _UsageError(Exception):
    pass


def _class_text(observable) -> str:
    labels = classify(observable).labels()
    return " ".join(labels) if labels else "none"


def _load_json(raw: str):
    try:
        return json.loads(raw)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _print_observable(observable, as_json: bool) -> None:
    if as_json:
        print(json.dumps(observable.to_json()))
    else:
        print(_diag_text(observable))
        print("arities: " + ",".join(str(m) for m in observable.arities))
        print("classification: " + _class_text(observable))


def _cmd_synth(args) -> int:
    if args.table_file and args.outputs:
        raise _UsageError("give either --outputs or --table-file, not both")
    if args.table_file:
        table = TruthTable.from_text(Path(args.table_file).read_text())
    else:
        if not args.outputs or not args.alphabet:
            raise _UsageError("--outputs requires --alphabet (or use --table-file)")
        alphabet = ValueAlphabet._from_text(args.alphabet, args.names)
        outputs = tuple(float(tok) for tok in args.outputs.split(","))
        table = TruthTable(alphabet, _arity_for(len(outputs), alphabet.size), outputs)
    _print_observable(synthesize(table), args.json)
    return 0


def _cmd_table(args) -> int:
    if bool(args.observable) == bool(args.observable_file):
        raise _UsageError("give exactly one of --observable or --observable-file")
    raw = args.observable or Path(args.observable_file).read_text()
    observable = DiagObservable.from_json(_load_json(raw))
    alphabet = ValueAlphabet._from_text(args.alphabet, args.names)
    table = read_table(observable, alphabet, args.tol)
    if args.json:
        print(json.dumps(table.to_json()))
    else:
        print(table.to_text(), end="")
    return 0


def _cmd_compile(args) -> int:
    alphabet = ValueAlphabet._from_text(args.alphabet, args.names)
    variables = tuple(args.variables.split(",")) if args.variables else None
    node = fdsl.parse(args.formula)
    compiled = fdsl.compile(node, alphabet, arity=args.arity, variables=variables)
    if args.json:
        print(
            json.dumps(
                {
                    "arity": compiled.arity,
                    "alphabet": list(alphabet.values),
                    "observable": compiled.observable.to_json(),
                }
            )
        )
    else:
        print("formula: " + fdsl.to_text(node))
        _print_observable(compiled.observable, False)
    return 0


def _build_state(args) -> StateVector:
    sources = sum(1 for s in (args.p is not None, args.state, args.state_file) if s)
    if sources != 1:
        raise _UsageError("give exactly one of --p/--q, --state or --state-file")
    if args.p is not None:
        if args.q is None:
            raise _UsageError("--p requires --q")
        return product_state(
            [
                qubit_from_probability(args.p, args.phase_p or 0.0),
                qubit_from_probability(args.q, args.phase_q or 0.0),
            ]
        )
    if (args.q, args.phase_p, args.phase_q) != (None, None, None):
        raise _UsageError("--q, --phase-p and --phase-q apply to --p only")
    raw = args.state or Path(args.state_file).read_text()
    return StateVector.from_json(_load_json(raw))


def _cmd_fuzzy(args) -> int:
    if bool(args.formula) == bool(args.connective):
        raise _UsageError("give exactly one of --formula or --connective")
    if args.connective and (args.alphabet, args.arity) != (None, None):
        raise _UsageError("--alphabet and --arity apply to --formula only")
    state = _build_state(args)
    if args.connective:
        mean = membership(state, args.connective)
    else:
        alphabet = ValueAlphabet._from_text("0,1" if args.alphabet is None else args.alphabet)
        compiled = fdsl.compile(fdsl.parse(args.formula), alphabet, arity=args.arity)
        mean = born_mean(state, compiled.observable)
    if args.json:
        print(json.dumps({"mean": mean}))
    else:
        print(_fmt(mean))
    return 0


def _cmd_catalog(args) -> int:
    catalog = binary_catalog(args.convention)
    if args.json:
        print(json.dumps({name: obs.to_json() for name, obs in catalog.items()}))
    else:
        width = max(len(name) for name in catalog)
        for name, obs in catalog.items():
            print(f"{name:<{width}}  {_diag_text(obs)}")
    return 0


def _cmd_verify(args) -> int:
    randomized = args.suite in ("fuzzy", "bound", "oracle", "all")
    if randomized and not args.json:
        print(f"seed: {VERIFY_SEED}")
    reports = run_timed(args.suite)
    all_ok = all(report.ok for report in reports)
    if args.json:
        suites = [
            {"name": s.name, "passed": s.passed, "total": s.total, "seconds": s.seconds}
            for s in reports
        ]
        seed = VERIFY_SEED if randomized else None
        print(json.dumps({"seed": seed, "ok": all_ok, "suites": suites}))
    else:
        results = [r for report in reports for r in report.results]
        width = max(len(r.name) for r in results)
        for r in results:
            status = "pass" if r.ok else "FAIL"
            print(f"{r.name:<{width}}  {r.passed}/{r.total} {status}")
        total = sum(r.total for r in results)
        print(f"verify {args.suite}: {'PASS' if all_ok else 'FAIL'} ({total} checks)")
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenlogic",
        description="Synthesize logical observables, read them back as truth "
        "tables, and evaluate fuzzy membership degrees of states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true")
    command = functools.partial(sub.add_parser, parents=[json_flag])

    synth = command("synth", help="build an observable from a truth table")
    synth.add_argument("--alphabet", help="comma-separated truth values, e.g. 0,1")
    synth.add_argument("--names", help="comma-separated value labels, e.g. F,T")
    synth.add_argument("--outputs", help="comma-separated outputs in canonical order")
    synth.add_argument("--table-file", help="truth-table text file")
    synth.set_defaults(func=_cmd_synth)

    table = command("table", help="read the truth table of an observable")
    table.add_argument("--observable", help="observable as inline JSON")
    table.add_argument("--observable-file", help="observable JSON file")
    table.add_argument("--alphabet", required=True)
    table.add_argument("--names")
    table.add_argument("--tol", type=float, default=1e-12)
    table.set_defaults(func=_cmd_table)

    comp = command(
        "compile",
        help="compile a formula to an observable",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "Formula grammar: variables are single uppercase letters; NOT binds\n"
            "tightest, then AND/NAND, then XOR/EQUIV, then OR/NOR, then\n"
            "IMPL/CIMPL (right-associative, loosest); MIN(x,y) and MAX(x,y) use\n"
            "function syntax; parentheses override.  Variables bind to argument\n"
            "positions alphabetically unless --variables declares an order."
        ),
    )
    comp.add_argument("--formula", required=True)
    comp.add_argument("--alphabet", default="0,1")
    comp.add_argument("--names")
    comp.add_argument("--arity", type=int)
    comp.add_argument("--variables", help="explicit variable order, e.g. A,B,C")
    comp.set_defaults(func=_cmd_compile)

    fuzzy = command("fuzzy", help="Born-rule mean of a connective or formula")
    fuzzy.add_argument("--formula")
    fuzzy.add_argument("--connective", help="name from the binary catalog")
    fuzzy.add_argument("--alphabet", help="alphabet for --formula (default 0,1)")
    fuzzy.add_argument("--arity", type=int)
    fuzzy.add_argument("--p", type=float, help="probability of true for argument one")
    fuzzy.add_argument("--q", type=float, help="probability of true for argument two")
    fuzzy.add_argument("--phase-p", type=float)
    fuzzy.add_argument("--phase-q", type=float)
    fuzzy.add_argument("--state", help="state as inline JSON")
    fuzzy.add_argument("--state-file", help="state JSON file")
    fuzzy.set_defaults(func=_cmd_fuzzy)

    catalog = command("catalog", help="print the sixteen binary connectives")
    catalog.add_argument("--convention", choices=CONVENTIONS, required=True)
    catalog.set_defaults(func=_cmd_catalog)

    verify = command("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (EigenlogicError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
