"""The README's library quick start runs and shows what its comments say."""

import ast
from pathlib import Path

import pytest


def _quick_start_values():
    """Run the quick-start block; map each expression statement's text to its value."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    source = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.get_source_segment(source, stmt)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return values


def test_quick_start_shows_the_documented_values():
    values = _quick_start_values()
    assert values["read_table(nand, PROJECTIVE)"].outputs == (1, 1, 1, 0)
    assert values["to_isometric(nand)"].eigenvalues.tolist() == [-1, -1, -1, 1]
    assert values['binary_catalog("projective")["OR"]'].eigenvalues.tolist() == [0, 1, 1, 1]
    assert values["min_observable()"].arities == (3, 3)
    mean = values['born_mean(state, binary_catalog("projective")["AND"])']
    assert mean == pytest.approx(0.15, abs=1e-12)
    means = values['born_means([state], list(binary_catalog("projective").values()))']
    assert means.shape == (1, 16)
