import functools
import json
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from eigenlogic import (
    ArityMismatchError,
    CapacityError,
    DenseMatrix,
    DiagObservable,
    PROJECTIVE,
    StateVector,
    TERNARY,
    TruthTable,
    ValueAlphabet,
    add,
    affine,
    apply_pointwise,
    classify,
    compile_formula,
    compose_entrywise,
    dictator,
    dimension_cap,
    kron,
    kron_all,
    materialize,
    parse,
    read_table,
    synthesize,
    to_isometric,
)
from eigenlogic.core import check_power_capacity

from class_values import NEAR_CLASS_VALUES, reference_classes


def obs(arities, values):
    return DiagObservable(tuple(arities), np.asarray(values, dtype=float))


PI = obs((2,), [0, 1])
Z = obs((2,), [1, -1])
I2 = DiagObservable.identity((2,))


class TestDiagObservable:
    def test_length_must_match_arities(self):
        with pytest.raises(ValueError):
            obs((2, 2), [0, 1, 0])

    def test_arities_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            obs((1,), [0])

    def test_eigenvalues_must_be_finite(self):
        with pytest.raises(ValueError):
            obs((2,), [0, np.inf])

    def test_zero_argument_observable_is_a_scalar(self):
        scalar = obs((), [3.0])
        assert scalar.dim == 1

    def test_eigenvalues_are_immutable(self):
        with pytest.raises(ValueError):
            PI.eigenvalues[0] = 5.0

    def test_constructor_copies_input(self):
        buf = np.array([0.0, 1.0])
        f = DiagObservable((2,), buf)
        buf[0] = 9.0
        assert f.eigenvalues[0] == 0.0

    def test_json_round_trip(self):
        f = obs((2, 3), [0, 1, 2, 3, 4, 5])
        assert DiagObservable.from_json(f.to_json()) == f


class TestKron:
    def test_projector_with_projector(self):
        assert kron(PI, PI) == obs((2, 2), [0, 0, 0, 1])

    def test_identity_with_identity(self):
        assert kron(I2, I2) == obs((2, 2), [1, 1, 1, 1])

    def test_z_with_z(self):
        # entrywise products over all four index pairs, by hand
        assert kron(Z, Z) == obs((2, 2), [1, -1, -1, 1])

    def test_arities_concatenate(self):
        lam = obs((3,), [1, 0, -1])
        assert kron(PI, lam).arities == (2, 3)

    def test_capacity_cap(self, monkeypatch):
        monkeypatch.setenv("EIGENLOGIC_DIM_CAP", "3")
        assert dimension_cap() == 3
        with pytest.raises(CapacityError):
            kron(PI, PI)

    def test_associativity_is_exact(self):
        # Truth-value eigenvalues are small binary fractions, for which
        # float multiplication is associative without rounding.
        rng = np.random.default_rng(7)
        pool = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
        for _ in range(20):
            a = obs((2,), rng.choice(pool, 2))
            b = obs((3,), rng.choice(pool, 3))
            c = obs((2,), rng.choice(pool, 2))
            left = kron(kron(a, b), c)
            right = kron(a, kron(b, c))
            assert left.arities == right.arities
            assert np.array_equal(left.eigenvalues, right.eigenvalues)

    # The result keeps kron's own product; the finiteness mask is an eighth
    # of it.  Copying the product into the result held over 2x.
    @pytest.mark.parametrize("long_first", [True, False], ids=["long-short", "short-long"])
    def test_peak_memory_stays_under_one_and_a_half_results(self, long_first):
        long = obs((3,) * 9, np.linspace(-1.0, 1.0, 3 ** 9))
        short = obs((3,), [1, 0, -1])
        pair = (long, short) if long_first else (short, long)
        kron(*pair)  # leave first-call allocations out of the peak
        tracemalloc.start()
        try:
            result_bytes = kron(*pair).eigenvalues.nbytes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * result_bytes


class TestComposeEntrywise:
    def test_and_from_dictators(self):
        a = obs((2, 2), [0, 0, 1, 1])
        b = obs((2, 2), [0, 1, 0, 1])
        assert compose_entrywise(a, b) == obs((2, 2), [0, 0, 0, 1])

    def test_identity_is_neutral(self):
        f = obs((2, 2), [0.25, -1, 3, 0])
        assert compose_entrywise(f, DiagObservable.identity((2, 2))) == f

    def test_xor_from_isometric_dictators(self):
        u = obs((2, 2), [1, 1, -1, -1])
        v = obs((2, 2), [1, -1, 1, -1])
        assert compose_entrywise(u, v) == obs((2, 2), [1, -1, -1, 1])

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            compose_entrywise(PI, obs((3,), [1, 0, -1]))

    def test_projector_idempotence(self):
        f = obs((2, 2), [0, 0, 0, 1])
        assert compose_entrywise(f, f) == f

    def test_isometry_squares_to_identity(self):
        g = obs((2, 2), [1, -1, -1, 1])
        assert compose_entrywise(g, g) == DiagObservable.identity((2, 2))


class TestAffine:
    def test_negation_map_on_projector(self):
        assert affine(1, -2, PI) == Z

    def test_complement(self):
        a = obs((2, 2), [0, 0, 1, 1])
        assert affine(1, -1, a) == obs((2, 2), [1, 1, 0, 0])

    def test_identity_map(self):
        f = obs((2,), [0.5, -3])
        assert affine(0, 1, f) == f

    def test_convention_bijection_inverts(self):
        f = obs((2, 2), [0, 1, 1, 0])
        assert affine(0.5, -0.5, affine(1, -2, f)) == f


class TestApplyPointwise:
    def test_one_minus_x_squared(self):
        lam = obs((3,), [1, 0, -1])
        assert apply_pointwise([1, 0, -1], lam) == obs((3,), [0, 1, 0])

    def test_half_x_times_x_plus_one(self):
        lam = obs((3,), [1, 0, -1])
        assert apply_pointwise([0, 0.5, 0.5], lam) == obs((3,), [1, 0, 0])

    def test_constant_polynomial(self):
        f = obs((2, 2), [3, -1, 0, 7])
        assert apply_pointwise([1], f) == DiagObservable.identity((2, 2))

    def test_accepts_objects_with_coefficients(self):
        from eigenlogic import lagrange_basis

        phi0 = lagrange_basis([0.0, 1.0])[0]
        assert apply_pointwise(phi0, PI) == obs((2,), [1, 0])

    def test_no_coefficients_is_a_value_error(self):
        from eigenlogic import BasisPolynomial

        for poly in ([], np.zeros((2, 0)), BasisPolynomial([])):
            with pytest.raises(ValueError, match="^a polynomial needs at least one coefficient$"):
                apply_pointwise(poly, PI)

    def test_coefficients_of_another_shape_fail_the_length_check(self):
        # affine and apply_pointwise take caller arrays of any shape, so they keep
        # the constructor's full check.
        message = "^eigenvalue vector has length 4, expected 2 for 1 arities$"
        with pytest.raises(ValueError, match=message):
            affine(np.ones((2, 1)), 1.0, PI)
        with pytest.raises(ValueError, match=message):
            apply_pointwise([[1.0, 2.0], [3.0, 4.0]], PI)


class TestMaterialize:
    def test_single_one_on_diagonal(self):
        m = materialize(obs((2, 2), [0, 0, 0, 1]))
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 3] = 1.0
        assert np.array_equal(m.entries, expected)

    def test_control_z(self):
        m = materialize(obs((2, 2), [1, 1, 1, -1]))
        assert np.array_equal(m.entries, np.diag([1, 1, 1, -1]).astype(complex))

    def test_two_by_two_layout(self):
        m = materialize(obs((2,), [2.5, -0.5]))
        assert m.dim == 2
        assert m.entries[0, 0] == 2.5 and m.entries[1, 1] == -0.5
        assert m.entries[0, 1] == 0 and m.entries[1, 0] == 0

    def test_always_hermitian(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = obs((2, 3), rng.uniform(-5, 5, 6))
            assert materialize(f).is_hermitian()

    def test_capacity(self, monkeypatch):
        monkeypatch.setenv("EIGENLOGIC_DIM_CAP", "2")
        with pytest.raises(CapacityError):
            materialize(obs((2, 2), [0, 0, 0, 1]))

    def test_json_round_trip(self):
        m = materialize(obs((2,), [1, -1]))
        again = DenseMatrix.from_json(m.to_json())
        assert again == m


@pytest.mark.parametrize(
    "cls, data, named",
    [
        (DiagObservable, {"arities": [2, 2]}, "'eigenvalues'"),
        (DiagObservable, [1, 2], "got list"),
        (DiagObservable, {"arities": 5, "eigenvalues": [1]}, "'arities'"),
        (DiagObservable, {"arities": [None], "eigenvalues": [1]}, "'arities'"),
        (DiagObservable, {"arities": [2], "eigenvalues": {"a": 1}}, "'eigenvalues'"),
        (DenseMatrix, {"dim": None, "re": [1], "im": [0]}, "'dim'"),
        (DenseMatrix, {"dim": 1, "re": [1]}, "'im'"),
        (StateVector, {"arities": [2], "re": [1, 0]}, "'im'"),
        (StateVector, "state", "got str"),
        (StateVector, {"arities": [2], "re": [1, 0], "im": [0]}, "'re' and 'im'"),
        (TruthTable, {"alphabet": [0, None], "arity": 1, "outputs": [0, 1]}, "'alphabet'"),
        (TruthTable, {"alphabet": [0, 1], "outputs": [0, 1]}, "'arity'"),
        (TruthTable, {"alphabet": [0, 1], "arity": 1, "outputs": 7}, "'outputs'"),
    ],
)
def test_from_json_names_the_bad_field(cls, data, named):
    with pytest.raises(ValueError, match=named):
        cls.from_json(data)


class TestClassify:
    def test_projector(self):
        c = classify(obs((2, 2), [0, 0, 0, 1]))
        assert c.is_projector and not c.is_isometry

    def test_isometry(self):
        c = classify(obs((2, 2), [1, -1, -1, 1]))
        assert c.is_isometry and not c.is_projector

    def test_neither(self):
        c = classify(obs((3,), [1, 0, -1]))
        assert not c.is_projector and not c.is_isometry

    def test_identity_is_both(self):
        c = classify(DiagObservable.identity((2, 2)))
        assert c.is_projector and c.is_isometry and c.is_identity

    def test_zero(self):
        c = classify(obs((2,), [0, 0]))
        assert c.is_zero and c.is_projector and not c.is_isometry

    def test_tolerance(self):
        f = obs((2,), [1e-9, 1.0])
        assert not classify(f, tol=1e-12).is_projector
        assert classify(f, tol=1e-6).is_projector

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            classify(PI, tol=-1.0)


class TestArithmetic:
    def test_add_matches_function(self):
        a = obs((2,), [1, 2])
        b = obs((2,), [10, 20])
        assert a + b == add(a, b) == obs((2,), [11, 22])

    def test_scalar_multiple_and_negation(self):
        a = obs((2,), [1, -2])
        assert 0.5 * a == obs((2,), [0.5, -1])
        assert -a == obs((2,), [-1, 2])

    def test_power(self):
        u = obs((3,), [1, 0, -1])
        assert u ** 2 == obs((3,), [1, 0, 1])

    def test_subtract(self):
        assert I2 - PI == obs((2,), [1, 0])

    def test_kron_all_empty_is_scalar_one(self):
        assert kron_all([]) == obs((), [1.0])


@given(
    st.lists(st.floats(min_value=-4, max_value=4, allow_nan=False), min_size=2, max_size=2),
    st.lists(st.floats(min_value=-4, max_value=4, allow_nan=False), min_size=3, max_size=3),
)
def test_kron_entry_formula(avals, bvals):
    a = obs((2,), avals)
    b = obs((3,), bvals)
    k = kron(a, b)
    for i in range(2):
        for j in range(3):
            assert k.eigenvalues[i * 3 + j] == a.eigenvalues[i] * b.eigenvalues[j]


# --- JSON lists and arity validation -----------------------------------------

AWKWARD = np.array([-0.0, 1e-300, 0.1 + 0.2, 1.0, -7.25])


def _old_json_list(arr):
    return json.dumps([float(v) for v in arr])


def test_to_json_lists_are_byte_identical_to_float_loops():
    observable = DiagObservable((5,), AWKWARD)
    assert json.dumps(observable.to_json()["eigenvalues"]) == _old_json_list(AWKWARD)
    state = StateVector((5,), AWKWARD + 1j * AWKWARD[::-1])
    data = state.to_json()
    assert json.dumps(data["re"]) == _old_json_list(state.amplitudes.real)
    assert json.dumps(data["im"]) == _old_json_list(state.amplitudes.imag)
    square = np.outer(AWKWARD, AWKWARD[::-1])[:4, :4] + 1j * np.eye(4) * -0.0
    dense = DenseMatrix(4, square)
    data = dense.to_json()
    assert json.dumps(data["re"]) == _old_json_list(dense.entries.reshape(-1).real)
    assert json.dumps(data["im"]) == _old_json_list(dense.entries.reshape(-1).imag)
    assert "-0.0" in json.dumps(observable.to_json())


def test_truth_table_json_is_byte_identical_to_float_loop():
    alphabet = ValueAlphabet((-0.0, 0.1 + 0.2, 7.5))
    table = TruthTable(alphabet, 1, (0.30000000000000004, -0.0, 7.5))
    data = table.to_json()
    assert json.dumps(data["outputs"]) == _old_json_list(table.outputs)
    assert json.dumps(data["alphabet"]) == _old_json_list(alphabet.values)
    assert json.dumps(data) == '{"alphabet": [-0.0, 0.30000000000000004, 7.5], "arity": 1, ' \
        '"outputs": [0.30000000000000004, -0.0, 7.5]}'


@pytest.mark.parametrize(
    "bad", [float("inf"), float("-inf"), float("nan"), 2.5, np.float64(3.5), "2", Fraction(5, 2)]
)
def test_arities_must_be_whole_numbers(bad):
    with pytest.raises(ValueError, match=f"whole number, got {bad}"):
        DiagObservable((bad,), [0.0, 1.0])


def test_integral_float_arities_are_accepted():
    assert DiagObservable((2.0, np.float64(3.0)), np.zeros(6)).arities == (2, 3)
    assert StateVector((2.0,), [1, 0]).arities == (2,)


def test_arity_json_error_names_the_field():
    with pytest.raises(ValueError, match="'arities' is malformed: .*got inf"):
        DiagObservable.from_json({"arities": [float("inf")], "eigenvalues": [0, 1]})


def test_json_integer_too_large_for_a_float_is_a_value_error():
    with pytest.raises(ValueError, match="'eigenvalues' is malformed"):
        DiagObservable.from_json({"arities": [2], "eigenvalues": [10 ** 400, 1]})
    with pytest.raises(ValueError, match="'re' is malformed"):
        StateVector.from_json({"arities": [2], "re": [10 ** 400, 0], "im": [0, 0]})


@pytest.mark.parametrize(
    "re, im, field, index, value",
    [
        ([0, 0, 0, 1], [float("inf"), 0, 0, 0], "im", 0, "inf"),
        ([0, 0, float("nan"), 1], [0, 0, 0, 0], "re", 2, "nan"),
        ([0, 0, 0, float("-inf")], [0, 0, 0, 0], "re", 3, "-inf"),
    ],
)
def test_json_amplitudes_must_be_finite(re, im, field, index, value):
    message = f"'{field}' is malformed: entry at index {index} is {value}, not a finite number"
    with pytest.raises(ValueError, match=message):
        StateVector.from_json({"arities": [2, 2], "re": re, "im": im})
    with pytest.raises(ValueError, match=message):
        DenseMatrix.from_json({"dim": 2, "re": re, "im": im})


@pytest.mark.parametrize("dim", [2.9, -1, float("inf"), float("nan")])
def test_dense_json_dimension_must_be_a_whole_number(dim):
    data = {"dim": dim, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]}
    with pytest.raises(ValueError, match=f"'dim' is malformed: a dimension must be .*got {dim}"):
        DenseMatrix.from_json(data)
    with pytest.raises(ValueError, match=f"a dimension must be .*got {dim}"):
        DenseMatrix(dim, np.eye(2))


def test_dense_json_accepts_an_integral_float_dimension():
    data = {"dim": 2.0, "re": [1, 0, 0, 1], "im": [0, 0, 0, 0]}
    assert DenseMatrix.from_json(data) == DenseMatrix(2, np.eye(2))


def test_power_capacity_never_forms_a_huge_power():
    check_power_capacity(3, 10)
    with pytest.raises(CapacityError, match=r"dimension 2\*\*100000000000000000000 exceeds"):
        check_power_capacity(2, 10 ** 20)
    with pytest.raises(CapacityError, match="dimension 1099511627776 exceeds"):
        check_power_capacity(2, 40)


def test_power_exceeds_agrees_with_the_power(monkeypatch):
    for cap in (1, 7, 8, 9, 64, 59048, 59049, 2 ** 20):
        monkeypatch.setenv("EIGENLOGIC_DIM_CAP", str(cap))
        for base in range(2, 7):
            for exponent in range(30):
                if base ** exponent > cap:
                    with pytest.raises(CapacityError, match=f"exceeds the cap of {cap}$"):
                        check_power_capacity(base, exponent)
                else:
                    assert check_power_capacity(base, exponent) == base ** exponent
    monkeypatch.setenv("EIGENLOGIC_DIM_CAP", "64")
    with pytest.raises(CapacityError, match=r"dimension 2\*\*10{400} exceeds the cap of 64"):
        check_power_capacity(2, 10 ** 400)


@pytest.mark.parametrize("tol, text", [(-1.0, "-1.0"), (float("nan"), "nan")])
def test_classify_rejects_negative_and_nan_tolerance(tol, text):
    with pytest.raises(ValueError) as err:
        classify(PI, tol=tol)
    assert str(err.value) == f"tolerance must be non-negative, got {text}"


# An infinite tolerance made classify report all four classes at once,
# isclose hold any two observables of equal arities equal, read_table return
# (0.0, 0.0) and to_isometric turn [0.3, 5.0] into [0.4, -9.0].
TOLERANCE_CALLS = {
    "classify": lambda tol: classify(PI, tol),
    "isclose": lambda tol: PI.isclose(Z, tol),
    "is_hermitian": lambda tol: materialize(PI).is_hermitian(tol),
    "read_table": lambda tol: read_table(PI, PROJECTIVE, tol),
    "to_isometric": lambda tol: to_isometric(obs((2,), [0.3, 5.0]), tol),
    "index_of": lambda tol: PROJECTIVE.index_of(0.0, tol),
    "indices_of": lambda tol: PROJECTIVE.indices_of([0.0, 1.0], tol),
}


@pytest.mark.parametrize("name", sorted(TOLERANCE_CALLS))
@pytest.mark.parametrize(
    "tol, message",
    [
        (-1.0, "tolerance must be non-negative, got -1.0"),
        (math.nan, "tolerance must be non-negative, got nan"),
        (-math.inf, "tolerance must be non-negative, got -inf"),
        (math.inf, "tolerance must be finite, got inf"),
        (np.float64(math.inf), "tolerance must be finite, got inf"),
        (np.float32(math.inf), "tolerance must be finite, got inf"),
    ],
)
def test_tolerance_arguments_are_checked(name, tol, message):
    with pytest.raises(ValueError) as err:
        TOLERANCE_CALLS[name](tol)
    assert str(err.value) == message
    assert type(err.value) is ValueError  # refused before any value is blamed


# Comparing a float32 with the largest float64 overflowed in numpy's cast.
@pytest.mark.parametrize("tol", [np.float32(1e-6), np.float16(1e-3)])
def test_a_narrow_float_tolerance_is_taken_without_a_warning(tol):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert classify(PI, tol) == classify(PI, float(tol))
        assert read_table(PI, PROJECTIVE, tol) == read_table(PI, PROJECTIVE, float(tol))
        assert PI.isclose(PI, tol) and not PI.isclose(Z, tol)


def test_large_finite_tolerances_still_hold():
    assert classify(PI, tol=1e300).labels() == ("projector", "isometry", "identity", "zero")
    assert not PI.isclose(Z, 1.0) and PI.isclose(Z, 2.0) and PI.isclose(Z, 1e308)
    assert PI.isclose(PI, 0.0) and not PI.isclose(Z, 0.0)
    assert not PI.isclose(obs((3,), [0, 1, 0]), 1e308)  # arities still differ
    skew = DenseMatrix(2, [[0, 1j], [1j, 0]])
    assert not skew.is_hermitian(0.0) and not skew.is_hermitian(1.9)
    assert skew.is_hermitian(2.0) and materialize(PI).is_hermitian(0.0)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_eigenvalues_must_be_finite_by_name(bad):
    with pytest.raises(ValueError, match="^eigenvalues must all be finite$"):
        obs((2, 2), [0, 1, bad, 0])


# Tolerances 0.5, 0.6 and 2.0 let one eigenvalue sit near two class values.
@pytest.mark.parametrize("tol", [0.0, 1e-12, 0.5, 0.6, 2.0])
@given(values=st.lists(NEAR_CLASS_VALUES, min_size=2, max_size=9))
def test_classify_matches_a_per_entry_reference(tol, values):
    assert classify(obs((len(values),), values), tol) == reference_classes(values, tol)


# --- Overflow, the Kronecker kernel and result buffers ------------------------

HUGE = obs((2,), [1e200, 1.0])


@pytest.mark.parametrize(
    "op",
    [
        lambda: kron(HUGE, HUGE),
        lambda: compose_entrywise(HUGE, HUGE),
        lambda: add(obs((2,), [1.7e308, 1.0]), obs((2,), [1.7e308, 1.0])),
        lambda: affine(0.0, 1e200, HUGE),
        lambda: HUGE ** 2,
        lambda: apply_pointwise([0.0, 0.0, 1.0], HUGE),
    ],
    ids=["kron", "compose_entrywise", "add", "affine", "pow", "apply_pointwise"],
)
def test_overflow_is_the_finite_error_without_a_numpy_warning(op):
    # Tier-1 turns any RuntimeWarning into an error, so a warning would surface here.
    with pytest.raises(ValueError, match="^eigenvalues must all be finite$"):
        op()


KRON_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def product_observables(draw):
    """An observable over 1-3 factors of 2-4 values each."""
    arities = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=3)))
    size = math.prod(arities)
    return obs(arities, draw(st.lists(KRON_VALUES, min_size=size, max_size=size)))


def _np_kron_chain(factors):
    with np.errstate(over="ignore", invalid="ignore"):
        return functools.reduce(np.kron, [f.eigenvalues for f in factors], np.ones(1))


@given(product_observables(), product_observables())
def test_kron_bytes_equal_np_kron(a, b):
    expected = _np_kron_chain([a, b])
    if not np.isfinite(expected).all():
        with pytest.raises(ValueError, match="^eigenvalues must all be finite$"):
            kron(a, b)
        return
    k = kron(a, b)
    assert k.arities == a.arities + b.arities
    assert k.eigenvalues.tobytes() == expected.tobytes()


@given(st.lists(product_observables(), max_size=3))
@example([])
def test_kron_all_bytes_equal_an_np_kron_chain(factors):
    expected = _np_kron_chain(factors)
    if not np.isfinite(expected).all():
        with pytest.raises(ValueError, match="^eigenvalues must all be finite$"):
            kron_all(factors)
        return
    k = kron_all(factors)
    assert k.arities == sum((f.arities for f in factors), ())
    assert k.eigenvalues.tobytes() == expected.tobytes()


def test_results_are_read_only_and_share_no_memory_with_inputs():
    a = obs((2, 3), [0.5, -1, 2, 0, 3, -0.0])
    b = obs((2, 3), [1, 2, 3, 4, 5, 6])
    coefficients = np.array([1.0, -2.0, 0.5])
    table = TruthTable(TERNARY, 2, (1, 0, -1, 0, 0, -1, -1, -1, -1))
    formula = parse("A AND NOT B")
    # Each result with the input arrays it was built from.
    cases = [
        (kron(a, b), [a.eigenvalues, b.eigenvalues]),
        (add(a, b), [a.eigenvalues, b.eigenvalues]),
        (affine(1.0, -2.0, a), [a.eigenvalues]),
        (compose_entrywise(a, b), [a.eigenvalues, b.eigenvalues]),
        (a ** 1, [a.eigenvalues]),
        (a ** 0, [a.eigenvalues]),
        (apply_pointwise(coefficients, a), [a.eigenvalues, coefficients]),
        (synthesize(table), [table.positions]),
    ]
    # constant, dictator and compile build from no array of the caller: two calls
    # must not share one.
    for build in (
        lambda: DiagObservable.constant((2, 3), 0.5),
        lambda: dictator(1, 3, TERNARY),
        lambda: compile_formula(formula, PROJECTIVE).observable,
    ):
        first = build()
        cases.append((build(), [first.eigenvalues]))
    for result, inputs in cases:
        assert not result.eigenvalues.flags.writeable
        # kron keeps a flat view of its product: the product must be read-only too,
        # or the view could be made writeable again.
        if result.eigenvalues.base is not None:
            assert not result.eigenvalues.base.flags.writeable
        for arr in inputs:
            assert not np.shares_memory(result.eigenvalues, arr)
