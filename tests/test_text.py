"""The text forms of values and alphabets, pinned byte for byte.

Values print with 12 significant digits, so -0.0 prints as "-0", 0.1 + 0.2
as "0.3" and 1e16 as "1e+16".  The CLI and truth-table files read an
alphabet by one rule.
"""

import json

import pytest

from eigenlogic import DiagObservable, EigenlogicError, TruthTable, ValueAlphabet
from eigenlogic.cli import main

TRICKY = (-0.0, 1e-300, 0.1 + 0.2, 1e16)
# -0.0 and 1e-300 coincide within the alphabet tolerance, so each alphabet holds one.
SIGNED_ZERO = ValueAlphabet((-0.0, 0.1 + 0.2, 1e16))
TINY = ValueAlphabet((1e-300, 0.1 + 0.2, 1e16))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repr_golden():
    assert repr(DiagObservable((2, 2), TRICKY)) == (
        "DiagObservable(arities=(2, 2), diag(-0, 1e-300, 0.3, 1e+16))"
    )


def test_label_golden():
    assert [SIGNED_ZERO.label(i) for i in range(3)] == ["-0", "0.3", "1e+16"]
    assert [TINY.label(i) for i in range(3)] == ["1e-300", "0.3", "1e+16"]


def test_to_text_golden():
    signed = TruthTable(SIGNED_ZERO, 1, (1e16, -0.0, 0.1 + 0.2))
    tiny = TruthTable(TINY, 1, (1e16, 1e-300, 0.1 + 0.2))
    assert signed.to_text() == "alphabet: -0,0.3,1e+16\narity: 1\n1e+16 -0 0.3\n"
    assert tiny.to_text() == "alphabet: 1e-300,0.3,1e+16\narity: 1\n1e+16 1e-300 0.3\n"


@pytest.mark.parametrize(
    "alphabet, outputs, text, json_text",
    [
        (
            "-0.0,0.30000000000000004,1e16",
            "1e16,-0.0,0.30000000000000004",
            "diag(1e+16, -0, 0.3)\narities: 3\nclassification: none\n",
            '{"arities": [3], "eigenvalues": [1e+16, -0.0, 0.30000000000000004]}\n',
        ),
        (
            "1e-300,0.30000000000000004,1e16",
            "1e16,1e-300,0.30000000000000004",
            "diag(1e+16, 1e-300, 0.3)\narities: 3\nclassification: none\n",
            '{"arities": [3], "eigenvalues": [1e+16, 1e-300, 0.30000000000000004]}\n',
        ),
    ],
)
def test_synth_golden(capsys, alphabet, outputs, text, json_text):
    argv = ("synth", f"--alphabet={alphabet}", f"--outputs={outputs}")
    assert run(capsys, *argv) == (0, text, "")
    assert run(capsys, *argv, "--json") == (0, json_text, "")


CATALOG_TEXT = {
    "projective": (
        "FALSE   diag(0, 0, 0, 0)\n"
        "NOR     diag(1, 0, 0, 0)\n"
        "NCIMPL  diag(0, 1, 0, 0)\n"
        "NOTA    diag(1, 1, 0, 0)\n"
        "NIMPL   diag(0, 0, 1, 0)\n"
        "NOTB    diag(1, 0, 1, 0)\n"
        "XOR     diag(0, 1, 1, 0)\n"
        "NAND    diag(1, 1, 1, 0)\n"
        "AND     diag(0, 0, 0, 1)\n"
        "EQUIV   diag(1, 0, 0, 1)\n"
        "B       diag(0, 1, 0, 1)\n"
        "IMPL    diag(1, 1, 0, 1)\n"
        "A       diag(0, 0, 1, 1)\n"
        "CIMPL   diag(1, 0, 1, 1)\n"
        "OR      diag(0, 1, 1, 1)\n"
        "TRUE    diag(1, 1, 1, 1)\n"
    ),
    "isometric": (
        "FALSE   diag(1, 1, 1, 1)\n"
        "NOR     diag(-1, 1, 1, 1)\n"
        "NCIMPL  diag(1, -1, 1, 1)\n"
        "NOTA    diag(-1, -1, 1, 1)\n"
        "NIMPL   diag(1, 1, -1, 1)\n"
        "NOTB    diag(-1, 1, -1, 1)\n"
        "XOR     diag(1, -1, -1, 1)\n"
        "NAND    diag(-1, -1, -1, 1)\n"
        "AND     diag(1, 1, 1, -1)\n"
        "EQUIV   diag(-1, 1, 1, -1)\n"
        "B       diag(1, -1, 1, -1)\n"
        "IMPL    diag(-1, -1, 1, -1)\n"
        "A       diag(1, 1, -1, -1)\n"
        "CIMPL   diag(-1, 1, -1, -1)\n"
        "OR      diag(1, -1, -1, -1)\n"
        "TRUE    diag(-1, -1, -1, -1)\n"
    ),
}


@pytest.mark.parametrize("convention", sorted(CATALOG_TEXT))
def test_catalog_text_golden(capsys, convention):
    expected = (0, CATALOG_TEXT[convention], "")
    assert run(capsys, "catalog", "--convention", convention) == expected


ALPHABET_TEXTS = [
    "0,1", "1,-1", "1,0,-1", " 0 , 1 ", "0,1,2,3", "-0.0,1e16", "1e-300,0.3",
    "0", "", ",", "0,1,", "0,0", "0,1e-13", "0,x", "0;1", "0,inf", "nan,1", "1e400,0",
]


@pytest.mark.parametrize("text", ALPHABET_TEXTS)
def test_cli_and_table_files_read_alphabets_alike(capsys, text):
    code, out, err = run(capsys, "compile", "--formula=A", f"--alphabet={text}", "--json")
    first = text.split(",")[0]
    try:
        table = TruthTable.from_text(f"alphabet:{text}\narity: 0\n{first}\n")
    except (EigenlogicError, ValueError) as exc:
        assert (code, out, err) == (1, "", f"error: {exc}\n")
    else:
        assert code == 0
        assert json.loads(out)["alphabet"] == list(table.alphabet.values)


@pytest.mark.parametrize("names, expected", [("", None), ("F,T", ("F", "T"))])
def test_empty_names_mean_no_names(capsys, names, expected):
    observable = '{"arities": [2], "eigenvalues": [0, 1]}'
    argv = ("table", f"--observable={observable}", "--alphabet=0,1", f"--names={names}", "--json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out).get("names") == (list(expected) if expected else None)
