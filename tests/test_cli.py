import json

from eigenlogic import DiagObservable, StateVector, TruthTable
from eigenlogic.cli import main


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
