import contextlib
import io
import json
import math
import shlex
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eigenlogic import DEFAULT_TOL, DiagObservable, StateVector, TruthTable
from eigenlogic.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSynth:
    def test_inline_and_table(self, capsys):
        code, out, _ = run(capsys, "synth", "--alphabet", "0,1", "--outputs", "0,0,0,1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "diag(0, 0, 0, 1)"
        assert lines[1] == "arities: 2,2"
        assert lines[2] == "classification: projector"

    def test_json_round_trips(self, capsys):
        code, out, _ = run(
            capsys, "synth", "--alphabet", "0,1", "--outputs", "0,0,0,1", "--json"
        )
        assert code == 0
        obs = DiagObservable.from_json(json.loads(out))
        assert list(obs.eigenvalues) == [0, 0, 0, 1]

    def test_table_file(self, capsys, tmp_path):
        table = TruthTable.from_json(
            {"alphabet": [1, 0, -1], "arity": 1, "outputs": [1, 0, -1]}
        )
        path = tmp_path / "t.txt"
        path.write_text(table.to_text())
        code, out, _ = run(capsys, "synth", "--table-file", str(path))
        assert code == 0
        assert out.splitlines()[0] == "diag(1, 0, -1)"

    def test_both_sources_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("alphabet: 0,1\narity: 1\n0 1\n")
        code, _, err = run(
            capsys, "synth", "--outputs", "0,1", "--alphabet", "0,1",
            "--table-file", str(path),
        )
        assert code == 2
        assert "not both" in err

    def test_outputs_require_alphabet(self, capsys):
        code, _, err = run(capsys, "synth", "--outputs", "0,1")
        assert code == 2

    def test_bad_output_count_is_domain_error(self, capsys):
        code, _, err = run(capsys, "synth", "--alphabet", "0,1", "--outputs", "0,1,0")
        assert code == 1
        assert "error:" in err


class TestTable:
    def test_tolerance_defaults_to_the_library_tolerance(self):
        assert build_parser().parse_args(["table", "--alphabet", "0,1"]).tol == DEFAULT_TOL

    def test_reads_nand(self, capsys):
        observable = json.dumps({"arities": [2, 2], "eigenvalues": [1, 1, 1, 0]})
        code, out, _ = run(capsys, "table", "--observable", observable, "--alphabet", "0,1")
        assert code == 0
        assert out == "alphabet: 0,1\narity: 2\n1 1 1 0\n"

    def test_json_output(self, capsys):
        observable = json.dumps({"arities": [3], "eigenvalues": [1, 0, -1]})
        code, out, _ = run(
            capsys, "table", "--observable", observable, "--alphabet", "1,0,-1", "--json"
        )
        assert code == 0
        table = TruthTable.from_json(json.loads(out))
        assert table.outputs == (1.0, 0.0, -1.0)

    def test_non_member_eigenvalue_is_domain_error(self, capsys):
        observable = json.dumps({"arities": [2], "eigenvalues": [0.5, 1.0]})
        code, _, err = run(capsys, "table", "--observable", observable, "--alphabet", "0,1")
        assert code == 1
        assert "index 0" in err

    def test_requires_exactly_one_source(self, capsys):
        code, _, _ = run(capsys, "table", "--alphabet", "0,1")
        assert code == 2

    def test_observable_without_eigenvalues_is_domain_error(self, capsys):
        observable = '{"arities":[2,2]}'
        code, _, err = run(capsys, "table", "--alphabet", "0,1", "--observable", observable)
        assert code == 1
        assert "'eigenvalues'" in err and "Traceback" not in err

    def test_observable_that_is_not_an_object_is_domain_error(self, capsys):
        code, _, err = run(capsys, "table", "--alphabet", "0,1", "--observable", "[1,2]")
        assert code == 1
        assert "JSON object" in err and "Traceback" not in err


class TestCompile:
    def test_formula_to_observable(self, capsys):
        code, out, _ = run(capsys, "compile", "--formula", "A AND B")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "formula: (A AND B)"
        assert lines[1] == "diag(0, 0, 0, 1)"
        assert lines[3] == "classification: projector"

    def test_ternary_min(self, capsys):
        code, out, _ = run(
            capsys, "compile", "--formula", "MIN(A, B)", "--alphabet", "1,0,-1"
        )
        assert code == 0
        assert "diag(1, 1, 1, 1, 0, 0, 1, 0, -1)" in out

    def test_syntax_error_is_domain_error(self, capsys):
        code, _, err = run(capsys, "compile", "--formula", "A AND")
        assert code == 1
        assert "offset 5" in err

    def test_deep_not_nesting_is_syntax_error(self, capsys):
        code, _, err = run(capsys, "compile", "--formula", "NOT " * 3000 + "A")
        assert code == 1
        assert "syntax error at offset 400" in err and "Traceback" not in err

    def test_deep_parentheses_are_syntax_error(self, capsys):
        code, _, err = run(capsys, "compile", "--formula", "(" * 3000 + "A" + ")" * 3000)
        assert code == 1
        assert "syntax error at offset 100" in err and "Traceback" not in err

    def test_capacity_error_names_requested_dimension(self, capsys):
        code, _, err = run(capsys, "compile", "--formula", "A", "--arity", "40")
        assert code == 1
        assert "dimension 1099511627776 exceeds the cap" in err

    @pytest.mark.parametrize("declared, shown", [("A,,B", "''"), ("A,a", "'a'")])
    def test_declared_variable_names_are_checked(self, capsys, declared, shown):
        code, out, err = run(capsys, "compile", "--formula", "A AND B", "--variables", declared)
        assert (code, out) == (1, "")
        assert err == f"error: variable must be a single uppercase letter, got {shown}\n"

    def test_empty_variables_declares_none(self, capsys):
        declared = run(capsys, "compile", "--formula", "B IMPL A", "--variables", "")
        assert declared == run(capsys, "compile", "--formula", "B IMPL A")
        assert declared[0] == 0

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "compile", "--formula", "NOT A", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["arity"] == 1
        assert DiagObservable.from_json(payload["observable"]).eigenvalues.tolist() == [1, 0]


class TestFuzzy:
    def test_and_mean(self, capsys):
        code, out, _ = run(
            capsys, "fuzzy", "--formula", "A AND B", "--p", "0.3", "--q", "0.5"
        )
        assert code == 0
        assert out.strip() == "0.15"

    def test_or_connective(self, capsys):
        code, out, _ = run(capsys, "fuzzy", "--connective", "OR", "--p", "0.3", "--q", "0.5")
        assert code == 0
        assert out.strip() == "0.65"

    def test_state_json(self, capsys):
        state = json.dumps(StateVector((2, 2), [1, 0, 0, 1]).to_json())
        code, out, _ = run(capsys, "fuzzy", "--connective", "AND", "--state", state)
        assert code == 0
        assert out.strip() == "0.5"

    def test_state_without_im_is_domain_error(self, capsys):
        state = '{"arities":[2],"re":[1,0]}'
        code, _, err = run(capsys, "fuzzy", "--connective", "AND", "--state", state)
        assert code == 1
        assert "'im'" in err and "Traceback" not in err

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "fuzzy", "--formula", "A OR B", "--p", "0.3", "--q", "0.5", "--json"
        )
        assert code == 0
        assert abs(json.loads(out)["mean"] - 0.65) <= 1e-9

    def test_needs_exactly_one_target(self, capsys):
        code, _, _ = run(capsys, "fuzzy", "--p", "0.3", "--q", "0.5")
        assert code == 2
        code, _, _ = run(
            capsys, "fuzzy", "--formula", "A", "--connective", "A", "--p", "0.3", "--q", "0.5"
        )
        assert code == 2

    def test_needs_exactly_one_state(self, capsys):
        code, _, _ = run(capsys, "fuzzy", "--connective", "AND")
        assert code == 2

    def test_p_requires_q(self, capsys):
        code, _, _ = run(capsys, "fuzzy", "--connective", "AND", "--p", "0.3")
        assert code == 2

    def test_unknown_connective_is_domain_error(self, capsys):
        code, _, err = run(capsys, "fuzzy", "--connective", "NOPE", "--p", "0.1", "--q", "0.2")
        assert code == 1

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "fuzzy", "--formula", "A XOR B", "--p", "0.25", "--q", "0.75")
        _, second, _ = run(capsys, "fuzzy", "--formula", "A XOR B", "--p", "0.25", "--q", "0.75")
        assert first == second


class TestCatalog:
    def test_isometric_and_line(self, capsys):
        code, out, _ = run(capsys, "catalog", "--convention", "isometric")
        assert code == 0
        and_lines = [l for l in out.splitlines() if l.startswith("AND")]
        assert and_lines == ["AND     diag(1, 1, 1, -1)"]

    def test_projective_names(self, capsys):
        code, out, _ = run(capsys, "catalog", "--convention", "projective")
        assert code == 0
        assert len(out.splitlines()) == 16
        assert out.splitlines()[0].startswith("FALSE")

    def test_json_round_trips(self, capsys):
        code, out, _ = run(capsys, "catalog", "--convention", "projective", "--json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 16
        xor = DiagObservable.from_json(payload["XOR"])
        assert xor.eigenvalues.tolist() == [0, 1, 1, 0]

    def test_unknown_convention_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "catalog", "--convention", "cartesian")
        assert code == 2


class TestVerify:
    def test_table1_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "table1")
        assert code == 0
        assert "16/16 pass" in out
        assert "verify table1: PASS" in out

    def test_minmax_suite_counts_entries(self, capsys):
        code, out, _ = run(capsys, "verify", "minmax")
        assert code == 0
        assert "18/18 pass" in out

    def test_fuzzy_suite_reports_seed(self, capsys):
        code, out, _ = run(capsys, "verify", "fuzzy")
        assert code == 0
        assert out.splitlines()[0] == "seed: 1729"

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "bogus")
        assert code == 2


class TestTopLevel:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run(capsys, *[])[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_dimension_cap_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("EIGENLOGIC_DIM_CAP", "2")
        code, _, err = run(capsys, "synth", "--alphabet", "0,1", "--outputs", "0,0,0,1")
        assert code == 1
        assert "cap" in err


class TestNonFiniteJson:
    def test_infinite_amplitude_is_a_domain_error_without_a_warning(self, capsys):
        state = '{"arities":[2,2],"re":[0,0,0,1],"im":[Infinity,0,0,0]}'
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, "fuzzy", "--connective", "AND", "--state", state)
        assert code == 1
        assert "'im' is malformed: entry at index 0 is inf, not a finite number" in err
        assert caught == []


class TestArityValidation:
    def test_infinite_arity_is_domain_error(self, capsys):
        observable = '{"arities":[Infinity],"eigenvalues":[0,1]}'
        code, _, err = run(capsys, "table", "--alphabet", "0,1", "--observable", observable)
        assert code == 1
        assert "whole number, got inf" in err

    def test_fractional_arity_is_domain_error(self, capsys):
        observable = '{"arities":[2.5],"eigenvalues":[0,1]}'
        code, _, err = run(capsys, "table", "--alphabet", "0,1", "--observable", observable)
        assert code == 1
        assert "whole number, got 2.5" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--alphabet", "0,1", "--observable",
             '{"arities":"22","eigenvalues":[0,0,0,1]}'],
            ["fuzzy", "--connective", "AND", "--state",
             '{"arities":"4","re":[1,0,0,0],"im":[0,0,0,0]}'],
        ],
    )
    def test_string_arities_are_domain_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: JSON field 'arities' is malformed: ")

    def test_integral_float_arity_is_accepted(self, capsys):
        observable = '{"arities":[2.0],"eigenvalues":[0,1]}'
        code, out, _ = run(capsys, "table", "--alphabet", "0,1", "--observable", observable)
        assert code == 0
        assert out == "alphabet: 0,1\narity: 1\n0 1\n"

    def test_huge_table_file_arity_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("alphabet: 0,1\narity: 99999999999999999999\n0 1\n")
        code, _, err = run(capsys, "synth", "--table-file", str(path))
        assert code == 1
        assert "need 2**99999999999999999999 outputs" in err

    @pytest.mark.parametrize("arity", ["99999999999999999999", "1" + "0" * 400])
    def test_huge_compile_arity_is_capacity_error(self, capsys, arity):
        code, _, err = run(capsys, "compile", "--formula", "A", "--arity", arity)
        assert code == 1
        assert "exceeds the cap" in err


class TestJsonInputLimits:
    def test_deeply_nested_json_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "table", "--alphabet", "0,1", "--observable", "[" * 100000 + "]" * 100000
        )
        assert code == 1
        assert "nested too deeply" in err

    def test_integer_beyond_float_range_is_domain_error(self, capsys):
        state = '{"arities": [2], "re": [1%s, 0], "im": [0, 0]}' % ("0" * 400)
        code, _, err = run(capsys, "fuzzy", "--formula", "A", "--state", state)
        assert code == 1
        assert "'re' is malformed" in err


class TestVerifyJson:
    def test_all_suites_report(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--json")
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"seed", "ok", "suites"}
        assert report["seed"] == 1729 and report["ok"] is True
        assert [(s["name"], s["passed"], s["total"]) for s in report["suites"]] == [
            ("table1", 32, 32),
            ("minmax", 71, 71),
            ("fuzzy", 1200, 1200),
            ("bound", 16000, 16000),
            ("oracle", 1029, 1029),
        ]
        assert all(set(s) == {"name", "passed", "total", "seconds"} for s in report["suites"])
        assert all(s["seconds"] >= 0 for s in report["suites"])

    def test_deterministic_suite_has_no_seed(self, capsys):
        code, out, _ = run(capsys, "verify", "table1", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["seed"] is None
        assert [s["name"] for s in report["suites"]] == ["table1"]


# --- random argv guard -------------------------------------------------------

_NUMBERS = st.one_of(
    st.integers(-3, 70),
    st.integers(min_value=10 ** 18, max_value=10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.5, 2.0, 2.5, 1e-300, math.inf, -math.inf, math.nan]),
)


def _number_text(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _NUMBERS, st.text(max_size=4)),
    lambda children: st.one_of(
        st.lists(children, max_size=9),
        st.dictionaries(
            st.sampled_from(["arities", "eigenvalues", "re", "im", "dim", "x"]),
            children,
            max_size=4,
        ),
    ),
    max_leaves=20,
)


@st.composite
def _json_documents(draw):
    """Observable- and state-shaped JSON with random fields, as text."""
    arities = draw(
        st.one_of(
            st.lists(st.one_of(st.integers(-1, 4), _NUMBERS), max_size=4),
            # Long lists, mostly of valid arities, up to a few hundred entries.
            st.lists(st.one_of(st.integers(2, 3), st.integers(-1, 4)), min_size=5, max_size=300),
        )
    )
    values = draw(st.lists(_NUMBERS, max_size=9))
    doc = draw(
        st.one_of(
            st.just({"arities": arities, "eigenvalues": values}),
            st.just({"arities": arities, "re": values, "im": values[::-1]}),
            _JSON_VALUES,
        )
    )
    return json.dumps(doc)


_NUMBER_TEXT = _NUMBERS.map(_number_text)
_NUMBER_LIST = st.one_of(
    st.sampled_from(["0,1", "1,-1", "1,0,-1", "0,0,0,1"]),
    st.lists(_NUMBER_TEXT, min_size=1, max_size=9).map(",".join),
)
_WORDS = st.one_of(
    st.sampled_from(["A", "A AND B", "NOT A", "MIN(A, B)", "A IMPL B", "A AND", "(", "AND",
                     "OR", "A,B", "A,A", "F,T", "F,N,T", "projective", "isometric", ""]),
    st.text(max_size=8),
)
_PATHS = st.sampled_from(["no/such/file", ".", "-"])
_ARITY = st.one_of(st.integers(-3, 70).map(str), st.integers(71, 10 ** 6).map(str), _NUMBER_TEXT)
_RARELY = st.sampled_from([True] + [False] * 5)
_JSON = _json_documents()

# Each subcommand's options as slots of alternative flags, with a strategy
# for the flag's value (None for a switch); a drawn argv fills most slots.
_OPTIONS = {
    "synth": [
        [("--outputs", _NUMBER_LIST), ("--table-file", _PATHS)],
        [("--alphabet", _NUMBER_LIST)],
        [("--json", None)],
    ],
    "table": [
        [("--observable", _JSON), ("--observable-file", _PATHS)],
        [("--alphabet", _NUMBER_LIST)],
        [("--names", _WORDS)],
        [("--tol", _NUMBER_TEXT)],
        [("--json", None)],
    ],
    "compile": [
        [("--formula", _WORDS)],
        [("--alphabet", _NUMBER_LIST)],
        [("--arity", _ARITY)],
        [("--variables", _WORDS)],
        [("--json", None)],
    ],
    "fuzzy": [
        [("--formula", _WORDS), ("--connective", _WORDS)],
        [("--state", _JSON), ("--state-file", _PATHS), ("--p", _NUMBER_TEXT)],
        [("--q", _NUMBER_TEXT)],
        [("--alphabet", _NUMBER_LIST)],
        [("--arity", _ARITY)],
        [("--phase-p", _NUMBER_TEXT)],
        [("--phase-q", _NUMBER_TEXT)],
        [("--json", None)],
    ],
    "catalog": [[("--convention", _WORDS)], [("--json", None)]],
    "verify": [[("--json", None)]],
}


@st.composite
def _argv(draw):
    # The commands that parse JSON and numbers are drawn twice as often.
    command = draw(st.sampled_from(sorted(_OPTIONS) + ["table", "fuzzy", "compile", "synth"]))
    return draw(_command_argv(command))


@st.composite
def _command_argv(draw, command):
    argv = [command]
    if command == "verify":
        argv.append(draw(st.sampled_from(["table1", "minmax", "bogus"])))
    for slot in _OPTIONS[command]:
        if draw(_RARELY):
            continue
        flag, values = draw(st.sampled_from(slot))
        # "--flag=value", so that values such as "-3" are not read as flags.
        argv.append(flag if values is None else f"{flag}={draw(values)}")
    if draw(_RARELY):
        argv.append(draw(st.one_of(_WORDS, _NUMBER_TEXT)))
    return argv


# Malformed values of EIGENLOGIC_DIM_CAP and the one error line each must give.
_MALFORMED_CAPS = {
    "0": "error: EIGENLOGIC_DIM_CAP must be positive, got 0\n",
    "-5": "error: EIGENLOGIC_DIM_CAP must be positive, got -5\n",
    "abc": "error: EIGENLOGIC_DIM_CAP must be an integer, got 'abc'\n",
    "": "error: EIGENLOGIC_DIM_CAP must be an integer, got ''\n",
}
# Valid caps stay small: no drawn cap may exceed 64.
_CAPS = st.sampled_from(["1", "4", "64"] + sorted(_MALFORMED_CAPS))


@given(_argv(), _CAPS)
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_argv_never_escapes(capsys, monkeypatch, argv, cap):
    monkeypatch.setenv("EIGENLOGIC_DIM_CAP", cap)
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2)
    if cap in _MALFORMED_CAPS and err != _MALFORMED_CAPS[cap]:
        # A call that never read the cap ends as it does under any valid cap.
        monkeypatch.setenv("EIGENLOGIC_DIM_CAP", "1")
        again, _, err_again = run(capsys, *argv)
        assert (again, err_again) == (code, err)
    elif cap in _MALFORMED_CAPS:
        assert code == 1


@pytest.mark.parametrize("cap", sorted(_MALFORMED_CAPS))
def test_a_malformed_cap_is_a_domain_error(capsys, monkeypatch, cap):
    monkeypatch.setenv("EIGENLOGIC_DIM_CAP", cap)
    assert run(capsys, "compile", "--formula=A AND B") == (1, "", _MALFORMED_CAPS[cap])


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 2.00 GiB for an array")


# An allocation the machine cannot satisfy, under a cap raised past its memory,
# is a domain error; numpy's own allocation error subclasses MemoryError.
@pytest.mark.parametrize(
    "target, argv",
    [
        ("synthesize", ["synth", "--alphabet=0,1", "--outputs=0,0,0,1"]),
        ("fdsl.compile", ["compile", "--formula=A AND B"]),
    ],
    ids=["synth", "compile"],
)
def test_memory_error_is_a_domain_error(capsys, monkeypatch, target, argv):
    monkeypatch.setattr(f"eigenlogic.cli.{target}", _out_of_memory)
    assert run(capsys, *argv) == (1, "", "error: Unable to allocate 2.00 GiB for an array\n")


# The most memory one argv of a subcommand may allocate at a cap of 64,
# measured by tracemalloc above what was live before the call.  The largest
# peak seen was 245 kB, a first `verify minmax` in a fresh process; every
# other subcommand stayed under 80 kB over 1,000 drawn argvs each.
MAIN_PEAK_BOUND = 512 * 1024


def _main_peak(monkeypatch, argv) -> tuple[int, int]:
    """Exit code and traced peak bytes of one `main` call at a cap of 64."""
    monkeypatch.setenv("EIGENLOGIC_DIM_CAP", "64")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            code = main(argv)
            return code, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("command", sorted(_OPTIONS))
@given(data=st.data())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_argv_allocates_little_at_a_small_cap(monkeypatch, command, data):
    argv = data.draw(_command_argv(command))
    code, peak = _main_peak(monkeypatch, argv)
    assert code in (0, 1, 2)
    assert peak < MAIN_PEAK_BOUND, (argv, peak)


_LONG_ARITIES = json.dumps({"arities": [2] * 300, "eigenvalues": [0, 1]})
_LONG_STATE = json.dumps({"arities": [2] * 300, "re": [1, 0], "im": [0, 0]})


# Valid arguments at the largest sizes the random draws reach, which those
# draws seldom combine.
@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--alphabet=0,1", "--outputs=" + ",".join(["0"] * 64), "--json"],
        ["synth", "--alphabet=0,1", "--outputs=" + ",".join(["0"] * 128)],
        ["table", "--alphabet=0,1", f"--observable={_LONG_ARITIES}"],
        ["compile", "--formula=A AND B", "--arity=1000000"],
        ["compile", "--formula=A AND B", "--arity=6", "--json"],
        ["fuzzy", "--formula=A AND B", "--arity=1000000", "--p=0.5", "--q=0.5"],
        ["fuzzy", "--formula=A AND B", f"--state={_LONG_STATE}"],
        ["catalog", "--convention=isometric", "--json"],
        ["verify", "table1", "--json"],
        ["verify", "minmax", "--json"],
    ],
    ids=lambda argv: argv[0],
)
def test_largest_argv_allocates_little_at_a_small_cap(monkeypatch, argv):
    code, peak = _main_peak(monkeypatch, argv)
    assert code in (0, 1)
    assert peak < MAIN_PEAK_BOUND, peak


def _readme_examples():
    """(command, printed lines) for each README command-line example that shows output.

    Output is shown as ``#   `` lines under the command or as a trailing
    ``# value``; a ``| grep WORD`` suffix keeps the lines containing WORD.
    """
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    examples = []
    for line in section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines():
        if line.startswith("eigenlogic "):
            command, _, value = line.partition("  #")
            examples.append((command.rstrip(), [value.strip()] if value.strip() else []))
        elif line.startswith("#   ") and examples:
            examples[-1][1].append(line[4:])
    shown = [(command, lines) for command, lines in examples if lines]
    assert shown, "no command-line example with output found in README.md"
    return shown


@pytest.mark.parametrize("command, expected", _readme_examples())
def test_readme_examples_print_what_the_readme_shows(capsys, command, expected):
    command, _, word = command.partition(" | grep ")
    code, out, _ = run(capsys, *shlex.split(command)[1:])
    assert code == 0
    assert [line for line in out.splitlines() if word in line] == expected


@pytest.mark.parametrize("tol, text", [("-1", "-1.0"), ("nan", "nan")])
def test_table_refuses_negative_and_nan_tolerance(capsys, tol, text):
    observable = '{"arities":[2],"eigenvalues":[0,1]}'
    result = run(capsys, "table", "--observable", observable, "--alphabet", "0,1", "--tol", tol)
    assert result == (1, "", f"error: tolerance must be non-negative, got {text}\n")


# 1e400 parses to inf; an infinite tolerance printed "0 0" and exited 0.
@pytest.mark.parametrize("tol", ["inf", "1e400"])
def test_table_refuses_an_infinite_tolerance(capsys, tol):
    observable = '{"arities":[2],"eigenvalues":[0,1]}'
    result = run(capsys, "table", "--observable", observable, "--alphabet", "0,1", "--tol", tol)
    assert result == (1, "", "error: tolerance must be finite, got inf\n")


_BELL = '{"arities": [2, 2], "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]}'


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--connective=AND", "--p=0.3", "--q=0.5", "--alphabet=0,1"], "--alphabet and --arity"),
        (["--connective=AND", "--p=0.3", "--q=0.5", "--alphabet=1,0,-1"], "--alphabet and --arity"),
        (["--connective=AND", "--p=0.3", "--q=0.5", "--arity=2"], "--alphabet and --arity"),
        (["--connective=AND", f"--state={_BELL}", "--arity=7"], "--alphabet and --arity"),
        (["--connective=AND", f"--state={_BELL}", "--q=0.5"], "--q, --phase-p and --phase-q"),
        (["--connective=AND", f"--state={_BELL}", "--phase-p=0"], "--q, --phase-p and --phase-q"),
        (["--formula=A AND B", f"--state={_BELL}", "--phase-q=1"], "--q, --phase-p and --phase-q"),
        (["--formula=A", "--state-file=no/such/file", "--q=0.5"], "--q, --phase-p and --phase-q"),
    ],
)
def test_fuzzy_refuses_flags_its_mode_ignores(capsys, argv, message):
    code, out, err = run(capsys, "fuzzy", *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: {message} apply to")


@pytest.mark.parametrize(
    "argv, mean",
    [
        (["--formula=A AND B", "--p=0.3", "--q=0.5", "--alphabet=0,1", "--arity=2"], "0.15"),
        (["--formula=A AND B", f"--state={_BELL}", "--alphabet=0,1", "--arity=2"], "0.5"),
        (["--connective=AND", "--p=0.3", "--q=0.5", "--phase-p=1.5", "--phase-q=-0.0"], "0.15"),
    ],
)
def test_fuzzy_takes_the_flags_its_mode_uses(capsys, argv, mean):
    assert run(capsys, "fuzzy", *argv) == (0, mean + "\n", "")


# Most random fuzzy argvs above fill a slot that their mode refuses, so
# state JSON gets its own draws.
@given(st.sampled_from(["--connective=AND", "--formula=A AND B"]), _JSON, st.booleans())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_random_state_json_never_escapes(monkeypatch, target, state, as_json):
    monkeypatch.setenv("EIGENLOGIC_DIM_CAP", "64")
    argv = ["fuzzy", target, f"--state={state}"] + ["--json"] * as_json
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1)


# A flag counts as given when it is present, even with an empty value.
@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["fuzzy", "--connective=AND", "--state=", "--p=0.3", "--q=0.5"], 2,
         "usage error: give exactly one of --p/--q, --state or --state-file\n"),
        (["fuzzy", "--formula=", "--connective=AND", "--p=0.3", "--q=0.5"], 2,
         "usage error: give exactly one of --formula or --connective\n"),
        (["synth", "--table-file=", "--alphabet=0,1", "--outputs=0,1"], 2,
         "usage error: give either --outputs or --table-file, not both\n"),
        (["table", "--observable=", "--observable-file=no/such/file", "--alphabet=0,1"], 2,
         "usage error: give exactly one of --observable or --observable-file\n"),
        (["fuzzy", "--connective=AND", "--state="], 1,
         "error: Expecting value: line 1 column 1 (char 0)\n"),
        (["table", "--observable=", "--alphabet=0,1"], 1,
         "error: Expecting value: line 1 column 1 (char 0)\n"),
    ],
    ids=["state-and-p", "formula-and-connective", "table-file-and-outputs",
         "observable-and-file", "state-alone", "observable-alone"],
)
def test_an_empty_flag_counts_as_given(capsys, argv, code, err):
    assert run(capsys, *argv) == (code, "", err)


@pytest.mark.parametrize("flag", ["--alphabet=0,1"])
def test_synth_table_file_refuses_alphabet_and_names(capsys, tmp_path, flag):
    path = tmp_path / "t.txt"
    path.write_text("alphabet: 0,1\narity: 1\n0 1\n")
    assert run(capsys, "synth", f"--table-file={path}", flag) == (
        2, "", "usage error: --alphabet applies to --outputs only\n"
    )


# No output of `synth` or `compile` reads value names; only `table` takes them.
@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--alphabet=0,1", "--outputs=0,0,0,1", "--names=F,T"],
        ["synth", "--table-file=no/such/file", "--names=F,T"],
        ["compile", "--formula=A AND B", "--names=F,T"],
        ["compile", "--formula=A AND B", "--names=F,T", "--json"],
    ],
    ids=["synth", "synth-table-file", "compile", "compile-json"],
)
def test_names_is_a_usage_error_outside_table(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --names=F,T\n")


def test_membership_refuses_a_small_cap_by_element_count(capsys, monkeypatch):
    monkeypatch.setenv("EIGENLOGIC_DIM_CAP", "3")
    result = run(capsys, "fuzzy", "--connective=AND", f"--state={_BELL}")
    assert result == (1, "", "error: 4 elements exceed the cap of 3\n")


@pytest.mark.parametrize(
    "argv, err",
    [
        (["--p=0.5", "--q=0.5", "--phase-p=inf"], "error: phi must be finite, got inf\n"),
        (["--p=0.5", "--q=0.5", "--phase-q=nan"], "error: phi must be finite, got nan\n"),
        (
            ["--p=0.5", "--q=0.5", "--phase-p=0.5", "--phase-q=-inf"],
            "error: phi must be finite, got -inf\n",
        ),
        (
            ['--state={"arities":[2,2],"re":[1e300,1e300,0,0],"im":[0,0,0,0]}'],
            "error: cannot normalize a state of norm 1.414e+300 "
            "(accepted range [1e-06, 1000000.0])\n",
        ),
        (
            ['--state={"arities":[2,2],"re":[1e-300,0,0,0],"im":[0,0,0,0]}'],
            "error: cannot normalize a state of norm 1.000e-300 "
            "(accepted range [1e-06, 1000000.0])\n",
        ),
    ],
    ids=["phase-p-inf", "phase-q-nan", "phase-q-minus-inf", "overflowing-norm", "underflowing-norm"],
)
def test_fuzzy_refuses_non_finite_phases_and_huge_states_by_name(capsys, argv, err):
    assert run(capsys, "fuzzy", "--connective=AND", *argv) == (1, "", err)
