import functools
import itertools
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eigenlogic import (
    ArityMismatchError,
    BasisPolynomial,
    CapacityError,
    ClassificationError,
    ConventionError,
    DiagObservable,
    DuplicatePointError,
    ISOMETRIC,
    NonMemberError,
    PROJECTIVE,
    TERNARY,
    TruthTable,
    ValueAlphabet,
    affine,
    apply_pointwise,
    binary_catalog,
    canonical_projectors,
    compose_entrywise,
    connective_table,
    dictator,
    enumerate_tables,
    kron,
    lagrange_basis,
    lambda_observable,
    max_observable,
    max_truth_table,
    min_observable,
    min_truth_table,
    minmax_from_dictators,
    minmax_interpolation_route,
    read_table,
    seed_projector,
    synthesize,
    synthesize_by_projectors,
    to_isometric,
    to_projective,
    value_observable,
)
from eigenlogic.synthesis import BINARY_CONNECTIVE_OUTPUTS, CONNECTIVE_NAMES


def obs(arities, values):
    return DiagObservable(tuple(arities), np.asarray(values, dtype=float))


QUATERNARY = ValueAlphabet((0.0, 1.0, 2.0, 3.0))


class TestValueAlphabet:
    def test_needs_two_values(self):
        with pytest.raises(ValueError):
            ValueAlphabet((0.0,))

    def test_rejects_duplicates(self):
        with pytest.raises(DuplicatePointError):
            ValueAlphabet((0.0, 1.0, 1.0 + 1e-13))

    def test_duplicate_names_the_first_coinciding_pair(self):
        # Pairs are tried as (0, 1), (0, 2), (0, 3), (1, 2), ...: (0, 3) comes first.
        with pytest.raises(DuplicatePointError) as err:
            ValueAlphabet((0, 1, 1 + 1e-13, 0))
        assert str(err.value) == "alphabet values 0.0 and 0.0 coincide"

    def test_names_must_parallel_values(self):
        with pytest.raises(ValueError):
            ValueAlphabet((0.0, 1.0), ("F",))

    def test_index_of(self):
        assert TERNARY.index_of(0.0) == 1
        assert TERNARY.index_of(-1.0) == 2
        assert TERNARY.index_of(0.5) == -1

    def test_labels(self):
        assert TERNARY.label(0) == "F" and TERNARY.label(2) == "T"
        assert QUATERNARY.label(3) == "3"


class TestTruthTable:
    def test_output_count_must_match(self):
        with pytest.raises(ValueError):
            TruthTable(PROJECTIVE, 2, (0.0, 1.0))

    def test_outputs_snap_to_alphabet_values(self):
        t = TruthTable(PROJECTIVE, 1, (1e-14, 1.0 - 1e-14))
        assert t.outputs == (0.0, 1.0)

    def test_non_member_output_rejected(self):
        with pytest.raises(NonMemberError) as err:
            TruthTable(PROJECTIVE, 1, (0.0, 0.5))
        assert err.value.index == 1

    @pytest.mark.parametrize(
        "make, source",
        [
            (lambda a: TruthTable(PROJECTIVE, 2, a), np.array([0.0, 1.0, 1.0, 0.0])),
            (
                lambda a: TruthTable._from_positions(PROJECTIVE, 2, a),
                np.array([0, 1, 1, 0], dtype=np.uint8),
            ),
        ],
        ids=["snapped", "from_positions"],
    )
    def test_neither_aliases_nor_freezes_the_callers_array(self, make, source):
        t = make(source)
        assert not t.positions.flags.writeable
        assert not np.shares_memory(t.positions, source)
        assert source.flags.writeable
        source[0] = 1
        assert t.positions.tolist() == [0, 1, 1, 0]

    def test_arity_zero(self):
        t = TruthTable(PROJECTIVE, 0, (1.0,))
        assert len(t.outputs) == 1

    def test_inputs_enumerate_canonical_order(self):
        t = TruthTable(PROJECTIVE, 2, (0, 0, 0, 1))
        assert list(t.inputs()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_text_round_trip(self):
        t = TruthTable(TERNARY, 2, (1, 1, 1, 1, 0, 0, 1, 0, -1))
        text = t.to_text()
        assert text.splitlines()[0] == "alphabet: 1,0,-1"
        assert TruthTable.from_text(text) == t

    def test_text_rejects_bad_header(self):
        with pytest.raises(ValueError):
            TruthTable.from_text("arity: 2\n0 0 0 1")

    def test_json_round_trip_keeps_names(self):
        t = TruthTable(TERNARY, 1, (1.0, 0.0, -1.0))
        again = TruthTable.from_json(t.to_json())
        assert again == t
        assert again.alphabet.names == ("F", "N", "T")


class TestSeedProjector:
    def test_is_diag_0_1(self):
        assert seed_projector() == obs((2,), [0, 1])

    def test_complement(self):
        assert affine(1, -1, seed_projector()) == obs((2,), [1, 0])

    def test_idempotent(self):
        seed = seed_projector()
        assert compose_entrywise(seed, seed) == seed


class TestCanonicalProjectors:
    def test_binary_two_arguments(self):
        ps = canonical_projectors(PROJECTIVE, 2)
        expected = [
            obs((2, 2), [1, 0, 0, 0]),
            obs((2, 2), [0, 1, 0, 0]),
            obs((2, 2), [0, 0, 1, 0]),
            obs((2, 2), [0, 0, 0, 1]),
        ]
        assert all(p.isclose(e) for p, e in zip(ps, expected))

    def test_ternary_single_argument(self):
        ps = canonical_projectors(TERNARY, 1)
        lam = lambda_observable()
        by_polynomial = [
            apply_pointwise([0, 0.5, 0.5], lam),
            apply_pointwise([1, 0, -1], lam),
            apply_pointwise([0, -0.5, 0.5], lam),
        ]
        assert all(p.isclose(e) for p, e in zip(ps, by_polynomial))

    def test_arity_zero_gives_scalar_one(self):
        ps = canonical_projectors(PROJECTIVE, 0)
        assert len(ps) == 1 and ps[0] == obs((), [1.0])

    @pytest.mark.parametrize("alphabet,arity", [(PROJECTIVE, 2), (TERNARY, 2), (QUATERNARY, 1)])
    def test_orthogonal_and_complete(self, alphabet, arity):
        ps = canonical_projectors(alphabet, arity)
        dim = alphabet.size ** arity
        zero = DiagObservable.constant((alphabet.size,) * arity, 0.0)
        for i, j in itertools.combinations(range(dim), 2):
            assert compose_entrywise(ps[i], ps[j]).isclose(zero)
        total = zero
        for p in ps:
            total = total + p
        assert total.isclose(DiagObservable.identity((alphabet.size,) * arity))


class TestSynthesizeAndReadTable:
    def test_and_table(self):
        t = TruthTable(PROJECTIVE, 2, (0, 0, 0, 1))
        assert synthesize(t) == obs((2, 2), [0, 0, 0, 1])

    def test_all_false(self):
        t = TruthTable(PROJECTIVE, 2, (0, 0, 0, 0))
        assert synthesize(t) == DiagObservable.constant((2, 2), 0.0)

    def test_min_map(self):
        assert synthesize(min_truth_table()).isclose(min_observable())

    def test_read_nand(self):
        t = read_table(obs((2, 2), [1, 1, 1, 0]), PROJECTIVE)
        assert t == connective_table("NAND")

    def test_read_ternary_dictator(self):
        t = read_table(lambda_observable(), TERNARY)
        assert t == TruthTable(TERNARY, 1, (1.0, 0.0, -1.0))

    def test_read_non_member_names_first_offender(self):
        with pytest.raises(NonMemberError) as err:
            read_table(obs((2,), [0.5, 1.0]), PROJECTIVE)
        assert err.value.index == 0

    def test_read_with_loose_tolerance(self):
        slightly_off = obs((2,), [1e-9, 1.0 - 1e-9])
        with pytest.raises(NonMemberError):
            read_table(slightly_off, PROJECTIVE)
        t = read_table(slightly_off, PROJECTIVE, tol=1e-6)
        assert t.outputs == (0.0, 1.0)

    def test_read_requires_matching_arities(self):
        with pytest.raises(ArityMismatchError):
            read_table(lambda_observable(), PROJECTIVE)

    def test_spectral_route_agrees(self):
        t = TruthTable(TERNARY, 2, tuple(TERNARY.values[i % 3] for i in range(9)))
        assert synthesize_by_projectors(t).isclose(synthesize(t))


class TestConventionMaps:
    def test_and_becomes_control_z(self):
        and_proj = obs((2, 2), [0, 0, 0, 1])
        assert to_isometric(and_proj) == obs((2, 2), [1, 1, 1, -1])

    def test_seed_becomes_z(self):
        assert to_isometric(seed_projector()) == obs((2,), [1, -1])

    def test_inverse_on_all_sixteen(self):
        for name in CONNECTIVE_NAMES:
            f = synthesize(connective_table(name))
            assert to_projective(to_isometric(f)) == f

    def test_to_isometric_rejects_non_projector(self):
        with pytest.raises(ClassificationError):
            to_isometric(lambda_observable())

    def test_to_projective_rejects_non_isometry(self):
        with pytest.raises(ClassificationError):
            to_projective(seed_projector())


class TestDictator:
    def test_binary_first_position(self):
        assert dictator(0, 2, PROJECTIVE) == obs((2, 2), [0, 0, 1, 1])

    def test_ternary_second_position(self):
        expected = kron(DiagObservable.identity((3,)), lambda_observable())
        assert dictator(1, 2, TERNARY) == expected

    def test_single_argument_isometric(self):
        assert dictator(0, 1, ISOMETRIC) == obs((2,), [1, -1])

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            dictator(2, 2, PROJECTIVE)

    @pytest.mark.parametrize("alphabet", [PROJECTIVE, ISOMETRIC, TERNARY])
    def test_bytes_equal_a_plain_np_kron_chain(self, alphabet):
        ones = np.ones(alphabet.size)
        values = np.array(alphabet.values)
        for arity in range(1, 7):
            for position in range(arity):
                factors = [values if i == position else ones for i in range(arity)]
                expected = functools.reduce(np.kron, factors)
                got = dictator(position, arity, alphabet)
                assert got.arities == (alphabet.size,) * arity
                assert got.eigenvalues.tobytes() == expected.tobytes()

    # At the default cap, with the value observable first, in the middle and last.
    @pytest.mark.parametrize(
        "alphabet, arity", [(TERNARY, 10), (PROJECTIVE, 15), (ISOMETRIC, 15)]
    )
    def test_wide_bytes_equal_a_plain_np_kron_chain(self, alphabet, arity):
        ones = np.ones(alphabet.size)
        values = np.array(alphabet.values)
        for position in (0, arity // 2, arity - 1):
            factors = [values if i == position else ones for i in range(arity)]
            expected = functools.reduce(np.kron, factors)
            got = dictator(position, arity, alphabet)
            assert got.arities == (alphabet.size,) * arity
            assert got.eigenvalues.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "position, error, message",
        [
            (1.5, TypeError, "list indices must be integers or slices, not float"),
            (1.0, TypeError, "list indices must be integers or slices, not float"),
            (-1, ValueError, "position -1 out of range for arity 3"),
            (3, ValueError, "position 3 out of range for arity 3"),
        ],
    )
    def test_position_errors(self, position, error, message):
        with pytest.raises(error) as err:
            dictator(position, 3, TERNARY)
        assert str(err.value) == message

    # The last product holds the output, the product before it and the
    # finiteness mask: under 2x the output.  Copying each product held 2.5x.
    @pytest.mark.parametrize("alphabet, arity", [(TERNARY, 10), (PROJECTIVE, 15)])
    def test_peak_memory_stays_under_twice_the_output(self, alphabet, arity):
        dictator(0, 2, alphabet)  # leave first-call allocations out of the peak
        tracemalloc.start()
        try:
            for position in (0, arity // 2, arity - 1):
                tracemalloc.reset_peak()
                output_bytes = dictator(position, arity, alphabet).eigenvalues.nbytes
                assert tracemalloc.get_traced_memory()[1] <= 2.0 * output_bytes
        finally:
            tracemalloc.stop()


class TestLagrangeBasis:
    def test_ternary_points_exact_coefficients(self):
        phis = lagrange_basis((1.0, 0.0, -1.0))
        assert np.array_equal(phis[0].coefficients, [0.0, 0.5, 0.5])
        assert np.array_equal(phis[1].coefficients, [1.0, 0.0, -1.0])
        assert np.array_equal(phis[2].coefficients, [0.0, -0.5, 0.5])

    def test_binary_points(self):
        phis = lagrange_basis((0.0, 1.0))
        assert np.array_equal(phis[0].coefficients, [1.0, -1.0])
        assert np.array_equal(phis[1].coefficients, [0.0, 1.0])
        for i, xi in enumerate((0.0, 1.0)):
            for j, xj in enumerate((0.0, 1.0)):
                assert phis[i](xj) == (1.0 if i == j else 0.0)

    def test_partition_of_unity_on_coefficients(self):
        phis = lagrange_basis((1.0, 0.0, -1.0))
        total = sum(phi.coefficients for phi in phis)
        assert np.all(np.abs(total - np.array([1.0, 0.0, 0.0])) <= 1e-12)

    def test_duplicate_points_rejected(self):
        with pytest.raises(DuplicatePointError):
            lagrange_basis((0.0, 1.0, 0.0))

    def test_duplicate_names_the_first_coinciding_pair(self):
        with pytest.raises(DuplicatePointError) as err:
            lagrange_basis((0, 1, 0, 1))
        assert str(err.value) == "points 0.0 and 0.0 coincide"

    def test_large_points_rejected(self):
        with pytest.raises(ValueError):
            lagrange_basis((0.0, 11.0))

    def test_nan_point_rejected(self):
        with pytest.raises(ValueError) as err:
            lagrange_basis((math.nan, 0.0))
        assert str(err.value) == "interpolation point nan exceeds magnitude 10.0"

    def test_polynomial_neither_aliases_nor_freezes_the_callers_array(self):
        coeffs = np.array([0.0, 1.0])
        phi = BasisPolynomial(coeffs)
        assert not phi.coefficients.flags.writeable
        assert not np.shares_memory(phi.coefficients, coeffs)
        assert coeffs.flags.writeable
        coeffs[1] = 2.0
        assert phi.coefficients.tolist() == [0.0, 1.0]

    def test_partition_of_unity_random_sets(self):
        rng = np.random.default_rng(1729)
        for _ in range(25):
            m = int(rng.integers(2, 6))
            pts = _separated_points(rng, m)
            phis = lagrange_basis(pts)
            xs = rng.uniform(-10, 10, size=100)
            total = sum(phi(xs) for phi in phis)
            assert np.all(np.abs(total - 1.0) <= 1e-9)


def _separated_points(rng, m, separation=1.0):
    while True:
        pts = sorted(rng.uniform(-10, 10, size=m))
        if all(b - a >= separation for a, b in zip(pts, pts[1:])):
            return pts


class TestLambdaObservable:
    def test_diagonal(self):
        assert lambda_observable() == obs((3,), [1, 0, -1])

    def test_square(self):
        assert apply_pointwise([0, 0, 1], lambda_observable()) == obs((3,), [1, 0, 1])

    def test_equals_single_argument_dictator(self):
        assert lambda_observable() == dictator(0, 1, TERNARY)


class TestMinMax:
    def test_min_of_false_and_true_is_false(self):
        # input (F, T) sits at canonical index 0*3 + 2
        assert min_observable().eigenvalues[2] == 1.0

    def test_max_of_neutral_and_true_is_true(self):
        assert max_observable().eigenvalues[1 * 3 + 2] == -1.0

    def test_corner_entries(self):
        assert min_observable().eigenvalues[8] == -1.0
        assert max_observable().eigenvalues[0] == 1.0

    def test_polynomial_equals_map_synthesis(self):
        assert min_observable().isclose(synthesize(min_truth_table()))
        assert max_observable().isclose(synthesize(max_truth_table()))

    def test_interpolation_route_agrees(self):
        assert minmax_interpolation_route("MIN").isclose(min_observable())
        assert minmax_interpolation_route("MAX").isclose(max_observable())

    def test_numerical_oracle(self):
        u = dictator(0, 2, TERNARY)
        v = dictator(1, 2, TERNARY)
        assert np.array_equal(
            min_observable().eigenvalues, np.maximum(u.eigenvalues, v.eigenvalues)
        )
        assert np.array_equal(
            max_observable().eigenvalues, np.minimum(u.eigenvalues, v.eigenvalues)
        )

    def test_binary_reduction_gives_and_or(self):
        u = dictator(0, 2, ISOMETRIC)
        v = dictator(1, 2, ISOMETRIC)
        reduced_min, reduced_max = minmax_from_dictators(u, v)
        iso = binary_catalog("isometric")
        assert np.array_equal(reduced_min.eigenvalues, iso["AND"].eigenvalues)
        assert np.array_equal(reduced_max.eigenvalues, iso["OR"].eigenvalues)

    def test_sign_inversion_swaps_min_and_max(self):
        minimum = min_observable().eigenvalues
        maximum = max_observable().eigenvalues
        for i in range(3):
            for j in range(3):
                w = 3 * i + j
                w_flipped = 3 * (2 - i) + (2 - j)
                assert -minimum[w_flipped] == maximum[w]


class TestBinaryCatalog:
    def test_or_projective(self):
        assert binary_catalog("projective")["OR"] == obs((2, 2), [0, 1, 1, 1])

    def test_xor_isometric(self):
        assert binary_catalog("isometric")["XOR"] == obs((2, 2), [1, -1, -1, 1])

    def test_implication_projective(self):
        assert binary_catalog("projective")["IMPL"] == obs((2, 2), [1, 1, 0, 1])

    def test_all_sixteen_match_their_tables(self):
        catalog = binary_catalog("projective")
        assert set(catalog) == set(CONNECTIVE_NAMES) and len(catalog) == 16
        for name in CONNECTIVE_NAMES:
            assert catalog[name].isclose(synthesize(connective_table(name))), name

    def test_isometric_is_convention_map_of_projective(self):
        projective = binary_catalog("projective")
        isometric = binary_catalog("isometric")
        for name in CONNECTIVE_NAMES:
            assert isometric[name].isclose(to_isometric(projective[name])), name

    def test_de_morgan(self):
        cat = binary_catalog("projective")
        i = DiagObservable.identity((2, 2))
        not_a, not_b = i - cat["A"], i - cat["B"]
        or_of_complements = not_a + not_b - not_a * not_b
        assert cat["NAND"].isclose(or_of_complements)
        and_of_complements = not_a * not_b
        assert cat["NOR"].isclose(and_of_complements)

    def test_unknown_convention(self):
        with pytest.raises(ConventionError):
            binary_catalog("spherical")


class TestEnumerateTables:
    def test_binary_two_argument_count(self):
        assert len(list(enumerate_tables(PROJECTIVE, 2))) == 16

    def test_ternary_one_argument_count(self):
        assert len(list(enumerate_tables(TERNARY, 1))) == 27

    def test_tables_are_distinct(self):
        seen = {t.outputs for t in enumerate_tables(PROJECTIVE, 2)}
        assert len(seen) == 16


ALPHABETS = st.sampled_from([PROJECTIVE, ISOMETRIC, TERNARY, QUATERNARY])


@st.composite
def truth_tables(draw):
    alphabet = draw(ALPHABETS)
    arity = draw(st.integers(min_value=0, max_value=3))
    count = alphabet.size ** arity
    idx = draw(st.lists(st.integers(0, alphabet.size - 1), min_size=count, max_size=count))
    return TruthTable(alphabet, arity, tuple(alphabet.values[i] for i in idx))


@given(truth_tables())
@settings(max_examples=60, deadline=None)
def test_round_trip_table_synthesis(table):
    assert read_table(synthesize(table), table.alphabet) == table


@given(truth_tables())
@settings(max_examples=40, deadline=None)
def test_projector_route_matches_eigenvalue_route(table):
    assert synthesize_by_projectors(table).isclose(synthesize(table))


def test_value_observable_copies_alphabet():
    assert value_observable(QUATERNARY) == obs((4,), [0, 1, 2, 3])


# --- synthesize keeps its own lookup, unchecked ---------------------------------

SIGNED_ZERO = ValueAlphabet((-0.0, 1.0, 2.5))


@st.composite
def wide_truth_tables(draw):
    alphabet = draw(st.sampled_from([PROJECTIVE, ISOMETRIC, TERNARY, SIGNED_ZERO]))
    arity = draw(st.integers(min_value=0, max_value=4))
    count = alphabet.size ** arity
    idx = draw(st.lists(st.integers(0, alphabet.size - 1), min_size=count, max_size=count))
    return TruthTable(alphabet, arity, tuple(alphabet.values[i] for i in idx))


@given(wide_truth_tables())
@example(TruthTable(SIGNED_ZERO, 1, (2.5, -0.0, 1.0)))
@settings(max_examples=200, deadline=None)
def test_synthesize_bytes_equal_the_checked_constructor(table):
    expected = DiagObservable(
        (table.alphabet.size,) * table.arity, np.take(table.alphabet.values, table.positions)
    )
    got = synthesize(table)
    assert type(got) is DiagObservable
    assert got.arities == expected.arities
    assert all(type(m) is int for m in got.arities)
    assert got.eigenvalues.dtype == expected.eigenvalues.dtype
    assert got.eigenvalues.shape == expected.eigenvalues.shape
    assert got.eigenvalues.tobytes() == expected.eigenvalues.tobytes()


def test_synthesized_eigenvalues_are_read_only_and_unshared():
    table = connective_table("AND")
    first, second = synthesize(table), synthesize(table)
    assert not first.eigenvalues.flags.writeable
    with pytest.raises(ValueError):
        first.eigenvalues[0] = 1.0
    assert not np.shares_memory(first.eigenvalues, table.positions)
    assert not np.shares_memory(first.eigenvalues, second.eigenvalues)
    assert first == second == obs((2, 2), [0, 0, 0, 1])


# --- the vectorized alphabet snap ---------------------------------------------


@st.composite
def snap_inputs(draw):
    alphabet = draw(ALPHABETS)
    # Tolerances reach twice the smallest spacing, so two alphabet values
    # can match one input and the first of them must win.
    # Negative tolerances are refused by both; see TOLERANCE_CALLS in test_core.
    tol = draw(st.sampled_from([0.0, 1e-12]) | st.floats(0.0, 2.0))
    near = st.tuples(st.sampled_from(alphabet.values), st.floats(-2 * tol, 2 * tol)).map(sum)
    anything = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf])
    values = draw(st.lists(st.sampled_from(alphabet.values) | near | anything, max_size=20))
    return alphabet, values, tol


@given(snap_inputs())
@settings(max_examples=300, deadline=None)
def test_indices_of_agrees_with_index_of(case):
    alphabet, values, tol = case
    expected = [alphabet.index_of(v, tol) for v in values]
    assert alphabet.indices_of(values, tol).tolist() == expected


def test_indices_of_first_match_wins():
    assert TERNARY.indices_of([0.5, -0.5, 2.0], tol=0.6).tolist() == [0, 1, -1]


def test_truth_table_reports_first_offender():
    with pytest.raises(NonMemberError) as err:
        TruthTable(TERNARY, 1, (1.0, 0.5, 7.0))
    assert (err.value.index, err.value.value) == (1, 0.5)
    assert str(err.value) == "output 0.5 at index 1 is not an alphabet value"


def test_read_table_reports_first_offender():
    with pytest.raises(NonMemberError) as err:
        read_table(obs((3,), [1.0, 0.25, 9.0]), TERNARY, tol=0.1)
    assert (err.value.index, err.value.value) == (1, 0.25)
    assert str(err.value) == "eigenvalue 0.25 at index 1 matches no alphabet value within 0.1"


def test_snapped_outputs_are_the_alphabet_floats():
    # A fresh float per entry would cost a 3^10 table about 1.35 MB more.
    noisy = [TERNARY.values[i % 3] + 1e-13 for i in range(27)]
    written = TruthTable(TERNARY, 3, tuple(noisy))
    read = read_table(obs((3, 3, 3), noisy), TERNARY)
    for table in (written, read):
        assert all(any(v is a for a in TERNARY.values) for v in table.outputs)


def test_dictator_names_the_requested_dimension():
    with pytest.raises(CapacityError, match="dimension 1099511627776 exceeds"):
        dictator(0, 40, PROJECTIVE)


def test_huge_arity_is_rejected_without_forming_the_power():
    with pytest.raises(ValueError, match=r"need 2\*\*100000000000000000000 outputs"):
        TruthTable(PROJECTIVE, 10 ** 20, (0.0, 1.0))
    with pytest.raises(ValueError, match="need 1099511627776 outputs for arity 40"):
        TruthTable(PROJECTIVE, 40, (0.0, 1.0))
    with pytest.raises(CapacityError, match=r"dimension 3\*\*100000000000000000000 exceeds"):
        dictator(0, 10 ** 20, TERNARY)
    with pytest.raises(CapacityError, match=r"dimension 2\*\*100000000000000000000 exceeds"):
        canonical_projectors(PROJECTIVE, 10 ** 20)


@pytest.mark.parametrize(
    "call",
    [
        lambda: TruthTable(PROJECTIVE, 2.7, (0.0, 0.0, 0.0, 1.0)),
        lambda: TruthTable(PROJECTIVE, -1, (0.0,)),
        lambda: dictator(0, 1.5, PROJECTIVE),
        lambda: canonical_projectors(PROJECTIVE, 2.5),
        lambda: next(enumerate_tables(PROJECTIVE, 1.5)),
        lambda: next(enumerate_tables(PROJECTIVE, -1)),
        lambda: TruthTable(PROJECTIVE, Fraction(3, 2), (0, 1)),
        lambda: TruthTable(PROJECTIVE, "1", (0, 1)),
    ],
)
def test_argument_counts_must_be_non_negative_whole_numbers(call):
    with pytest.raises(ValueError, match="non-negative whole number, got"):
        call()


def test_table_json_arity_must_be_a_whole_number():
    data = {"alphabet": [0, 1], "arity": 1.9, "outputs": [0, 1]}
    with pytest.raises(ValueError, match="'arity' is malformed: .*whole number, got 1.9"):
        TruthTable.from_json(data)
    assert TruthTable.from_json({**data, "arity": 1.0}).arity == 1


def test_output_count_that_is_no_power_of_the_alphabet_size():
    with pytest.raises(ValueError, match="5 outputs is not a power of the alphabet size 2"):
        TruthTable(PROJECTIVE, 2, (0.0,) * 5)


# --- the position-backed truth table ------------------------------------------


ALPHABET_VALUES = st.lists(st.integers(-80, 80), min_size=2, max_size=6, unique=True)
RANDOM_ALPHABETS = ALPHABET_VALUES.map(lambda xs: ValueAlphabet(tuple(x / 8 for x in xs)))


@st.composite
def noisy_columns(draw):
    alphabet = draw(RANDOM_ALPHABETS | ALPHABETS)
    arity = draw(st.integers(min_value=0, max_value=3))
    count = alphabet.size ** arity
    idx = draw(st.lists(st.integers(0, alphabet.size - 1), min_size=count, max_size=count))
    noise = draw(st.lists(st.floats(-4e-13, 4e-13), min_size=count, max_size=count))
    return alphabet, arity, [alphabet.values[i] + e for i, e in zip(idx, noise)]


def _snapped(alphabet, noisy):
    """The snapped output tuple, by the scalar rule of `index_of`."""
    return tuple(alphabet.values[alphabet.index_of(v)] for v in noisy)


@given(noisy_columns())
@settings(max_examples=150, deadline=None)
def test_outputs_are_the_snapped_alphabet_floats(case):
    alphabet, arity, noisy = case
    table = TruthTable(alphabet, arity, noisy)
    assert table.outputs == _snapped(alphabet, noisy)
    assert all(any(v is a for a in alphabet.values) for v in table.outputs)
    assert table.positions.dtype == np.min_scalar_type(alphabet.size - 1)
    assert read_table(synthesize(table), alphabet) == table


@given(noisy_columns(), noisy_columns(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_table_equality_is_tuple_equality(first, second, same):
    a = TruthTable(*first)
    b = TruthTable(first[0], first[1], list(a.outputs)) if same else TruthTable(*second)
    old = (a.alphabet.values, a.arity, a.outputs) == (b.alphabet.values, b.arity, b.outputs)
    assert (a == b) is old
    assert (a != b) is not old


def test_table_repr_is_unchanged():
    assert repr(TruthTable(PROJECTIVE, 2, (0, 0, 0, 1))) == (
        "TruthTable(alphabet=ValueAlphabet(values=(0.0, 1.0), names=('F', 'T')), "
        "arity=2, outputs=(0.0, 0.0, 0.0, 1.0))"
    )


def test_table_is_immutable_and_unhashable():
    table = TruthTable(TERNARY, 1, (1.0, 0.0, -1.0))
    table.outputs  # the cached tuple must not open a way to assign
    for name in ("alphabet", "arity", "outputs", "positions", "other"):
        with pytest.raises(AttributeError):
            setattr(table, name, None)
        with pytest.raises(AttributeError):
            delattr(table, name)
    with pytest.raises(ValueError):
        table.positions[0] = 2
    with pytest.raises(TypeError):
        hash(table)
    assert table.outputs == (1.0, 0.0, -1.0)


def test_table_accepts_keyword_arguments():
    table = TruthTable(alphabet=TERNARY, arity=1, outputs=[-1, 0, 1])
    assert table == TruthTable(TERNARY, 1, (-1.0, 0.0, 1.0))


def test_wide_table_text_and_json_match_an_independent_formatting():
    digits = np.random.default_rng(1729).integers(0, 3, size=3 ** 10)
    exact = [TERNARY.values[d] for d in digits.tolist()]
    table = TruthTable(TERNARY, 10, [v + 1e-13 for v in exact])
    rows = " ".join(format(v, ".12g") for v in exact)
    assert table.to_text() == f"alphabet: 1,0,-1\narity: 10\n{rows}\n"
    expected = {"alphabet": [1.0, 0.0, -1.0], "arity": 10, "outputs": exact, "names": ["F", "N", "T"]}
    assert json.dumps(table.to_json()) == json.dumps(expected)
    assert TruthTable.from_text(table.to_text()) == table


def test_read_table_snaps_once(monkeypatch):
    calls = []
    snap = ValueAlphabet.indices_of

    def counted(self, values, tol=1e-12):
        calls.append(len(values))
        return snap(self, values, tol)

    monkeypatch.setattr(ValueAlphabet, "indices_of", counted)
    observable = obs((3, 3), [TERNARY.values[i % 3] for i in range(9)])
    table = read_table(observable, TERNARY)
    assert calls == [9]
    assert synthesize(table) == observable


def test_enumerated_tables_match_the_constructor():
    for table in enumerate_tables(TERNARY, 1):
        assert TruthTable(TERNARY, 1, table.outputs) == table
        assert not table.positions.flags.writeable


def test_snap_distances_past_the_float_range_match_nothing():
    # 1e308 - (-1e308) overflows to inf; it must neither warn nor match.
    wide = ValueAlphabet((1e308, -1e308))
    assert wide.indices_of([1e308, -1e308, 0.0, math.inf]).tolist() == [0, 1, -1, -1]


@pytest.mark.parametrize("size", [127, 128, 129, 256, 257])
def test_snap_and_positions_at_integer_type_boundaries(size):
    # The last position and -1 must both fit the narrow types chosen by size.
    alphabet = ValueAlphabet(tuple(float(k) for k in range(size)))
    values = [size - 1.0, 0.0, 0.5, size - 1.0 + 1e-13, size + 0.0]
    expected = [alphabet.index_of(v) for v in values]
    assert alphabet.indices_of(values).tolist() == expected
    table = TruthTable(alphabet, 1, [alphabet.values[-1 - k] for k in range(size)])
    assert table.positions.tolist() == list(range(size - 1, -1, -1))
    assert read_table(synthesize(table), alphabet) == table


@pytest.mark.parametrize("tol, text", [(-1.0, "-1.0"), (math.nan, "nan")])
def test_read_table_rejects_negative_and_nan_tolerance(tol, text):
    # The tolerance is refused before any eigenvalue is blamed.
    with pytest.raises(ValueError) as err:
        read_table(seed_projector(), PROJECTIVE, tol)
    assert str(err.value) == f"tolerance must be non-negative, got {text}"
    assert not isinstance(err.value, NonMemberError)


@pytest.mark.parametrize("name", sorted(BINARY_CONNECTIVE_OUTPUTS))
def test_connective_table_equals_the_snapped_table(name):
    table = connective_table(name)
    snapped = TruthTable(PROJECTIVE, 2, BINARY_CONNECTIVE_OUTPUTS[name])
    assert table == snapped
    assert table.outputs == snapped.outputs
    assert repr(table) == repr(snapped)
    assert table.to_json() == snapped.to_json()
    assert table.positions.dtype == np.uint8
    assert not table.positions.flags.writeable


def test_connective_table_rejects_an_unknown_name():
    with pytest.raises(KeyError, match="MAYBE"):
        connective_table("MAYBE")
