import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eigenlogic import (
    AlphabetError,
    ArityMismatchError,
    CapacityError,
    FormulaSyntaxError,
    ISOMETRIC,
    PROJECTIVE,
    TERNARY,
    binary_catalog,
    dictator,
    min_observable,
)
from eigenlogic import formula as formula_module
from eigenlogic.formula import (
    BINARY_OPS,
    MAX_DEPTH,
    BinOp,
    CompiledFormula,
    Not,
    Var,
    compile,
    eval_classical,
    parse,
    to_text,
    variables_of,
)
from eigenlogic.verify import formula_corpus, formula_matches_oracle


class TestParse:
    def test_minimal_binary_formula(self):
        assert parse("A AND B") == BinOp("AND", Var("A"), Var("B"))

    def test_grouping(self):
        assert parse("NOT (A OR B)") == Not(BinOp("OR", Var("A"), Var("B")))

    def test_truncated_input(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("A AND")
        assert err.value.offset == 5
        assert "operand" in str(err.value)

    def test_not_binds_tightest(self):
        assert parse("NOT A AND B") == BinOp("AND", Not(Var("A")), Var("B"))

    def test_and_binds_tighter_than_or(self):
        assert parse("A OR B AND C") == BinOp("OR", Var("A"), BinOp("AND", Var("B"), Var("C")))

    def test_xor_between_and_and_or(self):
        assert parse("A XOR B OR C") == BinOp("OR", BinOp("XOR", Var("A"), Var("B")), Var("C"))
        assert parse("A XOR B AND C") == BinOp("XOR", Var("A"), BinOp("AND", Var("B"), Var("C")))

    def test_implication_is_loosest_and_right_associative(self):
        assert parse("A IMPL B IMPL C") == BinOp(
            "IMPL", Var("A"), BinOp("IMPL", Var("B"), Var("C"))
        )
        assert parse("A OR B IMPL C") == BinOp("IMPL", BinOp("OR", Var("A"), Var("B")), Var("C"))

    def test_left_associative_chains(self):
        assert parse("A AND B AND C") == BinOp("AND", BinOp("AND", Var("A"), Var("B")), Var("C"))

    def test_min_max_function_syntax(self):
        assert parse("MIN(A, B)") == BinOp("MIN", Var("A"), Var("B"))
        assert parse("MAX(MIN(A, B), C)") == BinOp(
            "MAX", BinOp("MIN", Var("A"), Var("B")), Var("C")
        )

    def test_parentheses_override(self):
        assert parse("(A OR B) AND C") == BinOp("AND", BinOp("OR", Var("A"), Var("B")), Var("C"))

    def test_unexpected_character(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("A & B")
        assert err.value.offset == 2

    def test_lowercase_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse("a AND B")

    def test_unknown_word(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("A AND FOO")
        assert err.value.offset == 6

    def test_min_requires_parentheses(self):
        with pytest.raises(FormulaSyntaxError):
            parse("MIN A, B")

    def test_missing_close_paren(self):
        with pytest.raises(FormulaSyntaxError):
            parse("(A OR B")

    def test_trailing_tokens(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("A B")
        assert err.value.offset == 2

    def test_operator_as_operand(self):
        with pytest.raises(FormulaSyntaxError):
            parse("AND A B")


class TestNestingLimit:
    @pytest.mark.parametrize(
        "text, offset",
        [
            ("NOT " * (MAX_DEPTH + 1) + "A", 4 * MAX_DEPTH),
            ("(" * (MAX_DEPTH + 1) + "A" + ")" * (MAX_DEPTH + 1), MAX_DEPTH),
            ("MIN(A, " * (MAX_DEPTH + 1) + "A" + ")" * (MAX_DEPTH + 1), 7 * MAX_DEPTH),
            (" IMPL ".join("A" * (MAX_DEPTH + 2)), 2),
            (" AND ".join("A" * (MAX_DEPTH + 2)), 6 * MAX_DEPTH + 2),
            ("NOT (" + " OR ".join("A" * (MAX_DEPTH + 1)) + ")", 0),
        ],
    )
    def test_one_level_too_deep_is_rejected_at_its_token(self, text, offset):
        with pytest.raises(FormulaSyntaxError) as err:
            parse(text)
        assert err.value.offset == offset

    @pytest.mark.parametrize(
        "text",
        [
            "NOT " * MAX_DEPTH + "A",
            "(" * MAX_DEPTH + "A" + ")" * MAX_DEPTH,
            "MIN(A, " * MAX_DEPTH + "A" + ")" * MAX_DEPTH,
            " AND ".join("A" * (MAX_DEPTH + 1)),
            " IMPL ".join("A" * (MAX_DEPTH + 1)),
        ],
    )
    def test_deepest_accepted_formula_compiles_and_prints(self, text):
        node = parse(text)
        alphabet = ISOMETRIC if "MIN" in text else PROJECTIVE
        assert compile(node, alphabet).arity == 1
        assert parse(to_text(node)) == node
        assert variables_of(node) == {"A"}
        assert eval_classical(node, (alphabet.values[0],), alphabet) in alphabet.values


VARIABLES = st.sampled_from(["A", "B", "C"]).map(Var)


def _extend(children):
    return st.one_of(
        children.map(Not),
        st.builds(BinOp, st.sampled_from(BINARY_OPS), children, children),
    )


FORMULAS = st.recursive(VARIABLES, _extend, max_leaves=10)


@given(FORMULAS)
@settings(max_examples=150, deadline=None)
def test_pretty_print_round_trip(node):
    assert parse(to_text(node)) == node


def test_canonical_text_forms():
    assert to_text(parse("A AND B")) == "(A AND B)"
    assert to_text(parse("NOT (A OR B)")) == "NOT (A OR B)"
    assert to_text(parse("A AND B AND C")) == "((A AND B) AND C)"
    assert to_text(parse("A IMPL B IMPL C")) == "(A IMPL (B IMPL C))"
    assert to_text(parse("MIN(A,B)")) == "MIN(A, B)"
    assert to_text(parse("NOT NOT A")) == "NOT NOT A"


class TestCompile:
    def test_not_on_binary(self):
        compiled = compile(parse("NOT A"), PROJECTIVE, arity=1)
        assert list(compiled.observable.eigenvalues) == [1.0, 0.0]

    def test_xor_isometric(self):
        compiled = compile(parse("A XOR B"), ISOMETRIC, arity=2)
        assert list(compiled.observable.eigenvalues) == [1.0, -1.0, -1.0, 1.0]

    def test_min_ternary(self):
        compiled = compile(parse("MIN(A, B)"), TERNARY, arity=2)
        assert compiled.observable.isclose(min_observable())

    def test_arity_defaults_to_variable_count(self):
        assert compile(parse("A AND B"), PROJECTIVE).arity == 2
        assert compile(parse("NOT A"), PROJECTIVE).arity == 1

    def test_alphabetical_binding(self):
        # In "B IMPL A" the variables bind alphabetically, so the compiled
        # table is the converse implication in argument order.
        compiled = compile(parse("B IMPL A"), PROJECTIVE, arity=2)
        assert compiled.observable.isclose(binary_catalog("projective")["CIMPL"])

    def test_explicit_variable_order(self):
        compiled = compile(parse("B IMPL A"), PROJECTIVE, arity=2, variables=("B", "A"))
        assert compiled.observable.isclose(binary_catalog("projective")["IMPL"])

    def test_arity_too_small(self):
        with pytest.raises(ArityMismatchError):
            compile(parse("A AND B"), PROJECTIVE, arity=1)

    def test_undeclared_variable(self):
        with pytest.raises(ArityMismatchError):
            compile(parse("A"), PROJECTIVE, arity=1, variables=("B",))

    def test_duplicate_declaration(self):
        with pytest.raises(ValueError):
            compile(parse("A"), PROJECTIVE, arity=2, variables=("A", "A"))

    def test_unused_arguments_allowed(self):
        compiled = compile(parse("A"), PROJECTIVE, arity=2, variables=("A", "B"))
        assert list(compiled.observable.eigenvalues) == [0.0, 0.0, 1.0, 1.0]


class TestAlphabetRestrictions:
    def test_not_undefined_on_ternary(self):
        with pytest.raises(AlphabetError):
            compile(parse("NOT A"), TERNARY, arity=1)

    def test_boolean_ops_undefined_on_ternary(self):
        with pytest.raises(AlphabetError):
            compile(parse("A AND B"), TERNARY, arity=2)

    def test_min_undefined_on_01_alphabet(self):
        with pytest.raises(AlphabetError):
            compile(parse("MIN(A, B)"), PROJECTIVE, arity=2)

    def test_min_allowed_on_pm1_and_reduces_to_and(self):
        min_compiled = compile(parse("MIN(A, B)"), ISOMETRIC, arity=2)
        max_compiled = compile(parse("MAX(A, B)"), ISOMETRIC, arity=2)
        iso = binary_catalog("isometric")
        assert min_compiled.observable.isclose(iso["AND"])
        assert max_compiled.observable.isclose(iso["OR"])

    def test_eval_classical_same_errors(self):
        with pytest.raises(AlphabetError):
            eval_classical(parse("NOT A"), [0.0], TERNARY)
        with pytest.raises(AlphabetError):
            eval_classical(parse("MIN(A, B)"), [0.0, 1.0], PROJECTIVE)


class TestEvalClassical:
    def test_implication_false_case(self):
        assert eval_classical(parse("A IMPL B"), [1.0, 0.0], PROJECTIVE) == 0.0

    def test_min_false_true(self):
        assert eval_classical(parse("MIN(A, B)"), [1.0, -1.0], TERNARY) == 1.0

    def test_reflexive_equivalence(self):
        for alphabet in (PROJECTIVE, ISOMETRIC):
            for v in alphabet.values:
                true_value = alphabet.values[-1]
                assert eval_classical(parse("A EQUIV A"), [v], alphabet) == true_value

    def test_rejects_values_outside_alphabet(self):
        with pytest.raises(Exception):
            eval_classical(parse("A"), [0.5], PROJECTIVE)


DSL_FORMS = {
    "FALSE": "A XOR A",
    "NOR": "A NOR B",
    "NCIMPL": "NOT (A CIMPL B)",
    "NOTA": "NOT A",
    "NIMPL": "NOT (A IMPL B)",
    "NOTB": "NOT B",
    "XOR": "A XOR B",
    "NAND": "A NAND B",
    "AND": "A AND B",
    "EQUIV": "A EQUIV B",
    "B": "B",
    "IMPL": "A IMPL B",
    "A": "A",
    "CIMPL": "A CIMPL B",
    "OR": "A OR B",
    "TRUE": "A EQUIV A",
}


@pytest.mark.parametrize("convention,alphabet", [("projective", PROJECTIVE), ("isometric", ISOMETRIC)])
def test_catalog_agreement(convention, alphabet):
    catalog = binary_catalog(convention)
    for name, text in DSL_FORMS.items():
        compiled = compile(parse(text), alphabet, arity=2, variables=("A", "B"))
        assert compiled.observable.isclose(catalog[name]), name


@pytest.mark.parametrize("alphabet", [PROJECTIVE, ISOMETRIC])
def test_de_morgan(alphabet):
    nand = compile(parse("NOT (A AND B)"), alphabet, arity=2)
    or_of_nots = compile(parse("(NOT A) OR (NOT B)"), alphabet, arity=2)
    assert nand.observable.isclose(or_of_nots.observable)
    nor = compile(parse("NOT (A OR B)"), alphabet, arity=2)
    and_of_nots = compile(parse("(NOT A) AND (NOT B)"), alphabet, arity=2)
    assert nor.observable.isclose(and_of_nots.observable)


def test_oracle_equivalence_over_corpus():
    corpus = formula_corpus(240, seed=99)
    assert all(formula_matches_oracle(node, alphabet) for node, alphabet in corpus)


def test_exhaustive_oracle_small_formulas():
    # Every depth-2 two-variable formula over the boolean fragment.
    leaves = [Var("A"), Var("B"), Not(Var("A")), Not(Var("B"))]
    boolean_ops = [op for op in BINARY_OPS if op not in ("MIN", "MAX")]
    for alphabet in (PROJECTIVE, ISOMETRIC):
        for op, left, right in itertools.product(boolean_ops, leaves, leaves):
            node = BinOp(op, left, right)
            order = sorted(variables_of(node))
            compiled = compile(node, alphabet, arity=len(order), variables=order)
            for w, assignment in enumerate(
                itertools.product(alphabet.values, repeat=len(order))
            ):
                expected = eval_classical(node, assignment, alphabet, variables=order)
                assert compiled.observable.eigenvalues[w] == expected


def test_compiled_formula_validates_shape():
    observable = compile(parse("A AND B"), PROJECTIVE).observable
    with pytest.raises(ValueError):
        CompiledFormula(arity=1, alphabet=PROJECTIVE, observable=observable)


def test_variables_of():
    assert variables_of(parse("MAX(MIN(A, C), C)")) == {"A", "C"}


# --- one dictator per distinct variable ----------------------------------------


def _count_dictators(monkeypatch) -> list:
    """Record the arguments of every `dictator` call that `compile` makes."""
    calls = []
    real = formula_module.dictator

    def counting(position, arity, alphabet):
        calls.append((position, arity))
        return real(position, arity, alphabet)

    monkeypatch.setattr(formula_module, "dictator", counting)
    return calls


@pytest.mark.parametrize(
    "text, alphabet, expected",
    [
        ("(A AND B) OR (A AND NOT B)", PROJECTIVE, [(0, 2), (1, 2)]),
        ("MIN(A, MIN(A, A))", TERNARY, [(0, 1)]),
        ("MAX(C, MIN(A, C))", ISOMETRIC, [(1, 2), (0, 2)]),
    ],
)
def test_each_distinct_variable_builds_one_dictator(monkeypatch, text, alphabet, expected):
    calls = _count_dictators(monkeypatch)
    compile(parse(text), alphabet)
    assert calls == expected


def test_repeated_leaf_matches_the_dictator_exactly():
    for alphabet in (TERNARY, ISOMETRIC):
        compiled = compile(parse("MIN(A, MAX(A, A))"), alphabet)
        assert compiled.observable == dictator(0, 1, alphabet)


def test_no_dictator_is_kept_between_compiles(monkeypatch):
    calls = _count_dictators(monkeypatch)
    node = parse("A XOR (B AND A)")
    compile(node, PROJECTIVE)
    compile(node, PROJECTIVE)
    assert calls == [(0, 2), (1, 2)] * 2


def _compile_peak_bytes(text: str, arity: int) -> int:
    node = parse(text)
    tracemalloc.start()
    try:
        compile(node, PROJECTIVE, arity=arity)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_dictator_is_dropped_after_its_last_occurrence():
    # Twelve variables used once each may not hold twelve dictators at a time:
    # the compile peaks within a few vectors of one variable used twelve times.
    vector_bytes = 8 * 2 ** 12
    distinct = _compile_peak_bytes(" AND ".join("ABCDEFGHIJKL"), 12)
    repeated = _compile_peak_bytes(" AND ".join("A" * 12), 12)
    assert distinct < repeated + 4 * vector_bytes


def test_compiling_twice_gives_equal_observables_sharing_no_writable_array():
    node = parse("(A AND B) OR (NOT A AND B)")
    first, second = compile(node, PROJECTIVE), compile(node, PROJECTIVE)
    assert first.observable == second.observable
    a, b = first.observable.eigenvalues, second.observable.eigenvalues
    assert not a.flags.writeable and not b.flags.writeable
    assert not np.shares_memory(a, b)


_FRAGMENTS = [
    (PROJECTIVE, tuple(op for op in BINARY_OPS if op not in ("MIN", "MAX")), True),
    (ISOMETRIC, BINARY_OPS, True),
    (TERNARY, ("MIN", "MAX"), False),
]


def _repetitive_formulas(ops, allow_not):
    """Formulas of up to 24 leaves over at most three names, so leaves repeat."""

    def extend(children):
        binary = st.builds(BinOp, st.sampled_from(ops), children, children)
        return st.one_of(children.map(Not), binary) if allow_not else binary

    return st.recursive(VARIABLES, extend, max_leaves=24)


_FRAGMENT_FORMULAS = st.sampled_from(_FRAGMENTS).flatmap(
    lambda fragment: st.tuples(st.just(fragment[0]), _repetitive_formulas(*fragment[1:]))
)


@given(_FRAGMENT_FORMULAS)
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_compile_with_repeated_leaves_matches_classical_evaluation(monkeypatch, case):
    alphabet, node = case
    order = sorted(variables_of(node))
    calls = _count_dictators(monkeypatch)
    compiled = compile(node, alphabet, arity=len(order), variables=order)
    assert sorted(calls) == [(i, len(order)) for i in range(len(order))]
    eigenvalues = compiled.observable.eigenvalues
    for w, assignment in enumerate(itertools.product(alphabet.values, repeat=len(order))):
        assert eigenvalues[w] == eval_classical(node, assignment, alphabet, variables=order)


# Exception type and message for each case: a repeated variable moves no
# error and changes no text, because its first occurrence still raises first.
@pytest.mark.parametrize(
    "text, alphabet, arity, cap, error, message",
    [
        ("NOT A", TERNARY, None, None, AlphabetError,
         "NOT is defined for two-valued alphabets only, got 3 values"),
        ("A AND (NOT A)", TERNARY, None, None, AlphabetError,
         "NOT is defined for two-valued alphabets only, got 3 values"),
        ("MIN(A, A)", PROJECTIVE, None, None, AlphabetError,
         "MIN requires the (+1, 0, -1) or (+1, -1) alphabet, got (0.0, 1.0)"),
        ("A", PROJECTIVE, 10, "64", CapacityError, "dimension 1024 exceeds the cap of 64"),
        ("(A AND B) OR A", PROJECTIVE, 7, "64", CapacityError,
         "dimension 128 exceeds the cap of 64"),
        ("MIN(A, NOT B)", TERNARY, 4, "64", CapacityError, "dimension 81 exceeds the cap of 64"),
        ("NOT A", TERNARY, 4, "64", AlphabetError,
         "NOT is defined for two-valued alphabets only, got 3 values"),
    ],
)
def test_compile_errors_keep_their_order_and_text(
    monkeypatch, text, alphabet, arity, cap, error, message
):
    if cap is not None:
        monkeypatch.setenv("EIGENLOGIC_DIM_CAP", cap)
    with pytest.raises(error) as err:
        compile(parse(text), alphabet, arity=arity)
    assert type(err.value) is error
    assert str(err.value) == message


# --- the arity argument -------------------------------------------------------


@pytest.mark.parametrize("arity", [2, 2.0, np.int64(2), np.float64(2.0)])
def test_compile_reads_a_whole_number_arity(arity):
    compiled = compile(parse("A"), PROJECTIVE, arity=arity)
    assert type(compiled.arity) is int and compiled.arity == 2
    assert compiled.observable == dictator(0, 2, PROJECTIVE)


@pytest.mark.parametrize("arity, shown", [(2.5, "2.5"), (-1, "-1"), (math.inf, "inf")])
def test_compile_rejects_a_fractional_or_negative_arity(arity, shown):
    with pytest.raises(ValueError) as err:
        compile(parse("A"), PROJECTIVE, arity=arity)
    assert str(err.value) == f"an arity must be a non-negative whole number, got {shown}"


def test_compile_with_too_small_a_whole_arity_is_still_an_arity_mismatch():
    with pytest.raises(ArityMismatchError, match="formula needs at least 2 arguments, got arity 1"):
        compile(parse("A AND B"), PROJECTIVE, arity=1.0)


def _count_variables_of(monkeypatch) -> list:
    calls = []
    real = formula_module.variables_of

    def counting(node):
        calls.append(node)
        return real(node)

    monkeypatch.setattr(formula_module, "variables_of", counting)
    return calls


@pytest.mark.parametrize(
    "arity, variables", [(None, None), (None, ("C", "B", "A")), (4, None), (3, ("A", "B", "C"))]
)
def test_compile_finds_variables_in_its_one_counting_walk(monkeypatch, arity, variables):
    calls = _count_variables_of(monkeypatch)
    node = parse("MIN(A, MAX(C, A))")
    compiled = compile(node, TERNARY, arity=arity, variables=variables)
    assert calls == []
    order = list(variables or ("A", "C"))
    expected_arity = arity or len(order)
    assert compiled.arity == expected_arity
    inputs = itertools.product(TERNARY.values, repeat=expected_arity)  # canonical order
    for eig, digits in zip(compiled.observable.eigenvalues, inputs):
        assert eig == eval_classical(node, digits, TERNARY, variables)
    assert calls  # the oracle keeps its own walk
