import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from eigenlogic import (
    ClassificationError,
    ConventionError,
    DiagObservable,
    DimensionMismatchError,
    NormalizationError,
    QubitAngles,
    StateVector,
    UnknownConnectiveError,
    basis_state,
    binary_catalog,
    born_mean,
    born_means,
    bound_check,
    classify,
    membership,
    product_state,
    qubit_from_probability,
    qubit_state,
)
from eigenlogic import fuzzy, synthesis
from eigenlogic.fuzzy import within_bounds

from class_values import NEAR_CLASS_VALUES

SEED = 1729


def obs(arities, values):
    return DiagObservable(tuple(arities), np.asarray(values, dtype=float))


AND = obs((2, 2), [0, 0, 0, 1])


class TestStateVector:
    def test_normalizes_input(self):
        s = StateVector((2,), [3.0, 4.0])
        assert np.isclose(np.linalg.norm(s.amplitudes), 1.0, atol=1e-12)
        assert np.isclose(abs(s.amplitudes[0]), 0.6)

    def test_zero_vector_rejected(self):
        with pytest.raises(NormalizationError):
            StateVector((2,), [0.0, 0.0])

    def test_absurd_scale_rejected(self):
        with pytest.raises(NormalizationError):
            StateVector((2,), [1e9, 0.0])
        with pytest.raises(NormalizationError):
            StateVector((2,), [1e-9, 0.0])

    def test_length_must_match_arities(self):
        with pytest.raises(ValueError):
            StateVector((2, 2), [1.0, 0.0])

    def test_amplitudes_immutable(self):
        s = basis_state((2,), 0)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_neither_aliases_nor_freezes_the_callers_array(self):
        amps = np.array([0.6, 0.8j])
        s = StateVector((2,), amps)
        assert not np.shares_memory(s.amplitudes, amps)
        assert amps.flags.writeable
        amps[0] = 0.0
        assert s.amplitudes[0] == 0.6

    def test_json_round_trip(self):
        s = StateVector((2, 2), [0.5, 0.5j, -0.5, 0.5])
        again = StateVector.from_json(s.to_json())
        assert again.arities == s.arities
        assert np.allclose(again.amplitudes, s.amplitudes)


class TestQubitState:
    def test_north_pole_is_false_state(self):
        s = qubit_state(QubitAngles(0.0, 0.3))
        assert abs(s.amplitudes[0]) == 1.0 and s.amplitudes[1] == 0.0

    def test_south_pole_is_true_state(self):
        s = qubit_state(QubitAngles(math.pi, 1.1))
        assert abs(abs(s.amplitudes[1]) - 1.0) <= 1e-12
        assert abs(s.amplitudes[0]) <= 1e-12

    def test_equator_is_balanced(self):
        s = qubit_state(QubitAngles(math.pi / 2, 0.0))
        r = 1 / math.sqrt(2)
        assert np.allclose(s.amplitudes, [r, r], atol=1e-12)

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            QubitAngles(-0.1, 0.0)
        with pytest.raises(ValueError):
            QubitAngles(math.pi + 0.1, 0.0)

    def test_probability_helper(self):
        s = qubit_from_probability(0.3)
        assert abs(abs(s.amplitudes[1]) ** 2 - 0.3) <= 1e-12
        with pytest.raises(ValueError):
            qubit_from_probability(1.5)


class TestBasisState:
    @pytest.mark.parametrize("index", [1, True, 1.0])
    def test_a_whole_index_picks_one_basis_vector(self, index):
        assert basis_state((2,), index).amplitudes.tolist() == [0, 1]

    def test_a_fractional_index_is_refused(self):
        with pytest.raises(ValueError) as err:
            basis_state((2,), 1.5)
        assert str(err.value) == "an index must be a non-negative whole number, got 1.5"

    @pytest.mark.parametrize("index", [-1, 2])
    def test_an_integer_out_of_range_names_the_dimension(self, index):
        with pytest.raises(ValueError) as err:
            basis_state((2,), index)
        assert str(err.value) == f"index {index} out of range for dimension 2"


class TestProductState:
    def test_two_true_qubits(self):
        one = basis_state((2,), 1)
        s = product_state([one, one])
        assert np.array_equal(s.amplitudes, [0, 0, 0, 1])
        assert s.arities == (2, 2)

    def test_component_probabilities_multiply(self):
        s = product_state([qubit_from_probability(0.3), qubit_from_probability(0.5)])
        assert abs(abs(s.amplitudes[3]) ** 2 - 0.15) <= 1e-12

    def test_single_part_unchanged(self):
        q = qubit_from_probability(0.7, phase=0.4)
        s = product_state([q])
        assert np.array_equal(s.amplitudes, q.amplitudes)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            product_state([])


# Real and imaginary parts with signed zeros, subnormals and magnitudes whose
# products overflow.
AMPLITUDE_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def complex_vectors(draw):
    size = draw(st.integers(2, 4))
    parts = st.lists(AMPLITUDE_PARTS, min_size=size, max_size=size)
    # complex(re, im) keeps the sign of a zero part; re + 1j * im would not.
    return np.array([complex(r, i) for r, i in zip(draw(parts), draw(parts))])


@given(st.lists(complex_vectors(), min_size=2, max_size=3))
def test_product_state_multiplies_amplitudes_like_an_np_kron_chain(vectors):
    # The raw product, caught before StateVector normalizes it, so that
    # values no normalized state holds reach the kernel too.
    parts = [SimpleNamespace(arities=(v.size,), amplitudes=v) for v in vectors]
    caught = []
    with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
        patch.setattr(fuzzy, "StateVector", lambda arities, amps: caught.append((arities, amps)))
        product_state(parts)
        expected = functools.reduce(np.kron, vectors)
    [(arities, amplitudes)] = caught
    assert arities == tuple(v.size for v in vectors)
    assert amplitudes.tobytes() == expected.tobytes()


class TestBornMean:
    def test_eigenvector_returns_eigenvalue_exactly(self):
        assert born_mean(basis_state((2, 2), 3), AND) == 1.0

    def test_dictator_means_are_the_probabilities(self):
        s = product_state([qubit_from_probability(0.3), qubit_from_probability(0.5)])
        a = obs((2, 2), [0, 0, 1, 1])
        b = obs((2, 2), [0, 1, 0, 1])
        assert abs(born_mean(s, a) - 0.3) <= 1e-9
        assert abs(born_mean(s, b) - 0.5) <= 1e-9

    def test_conjunction_mean_is_product(self):
        s = product_state([qubit_from_probability(0.3), qubit_from_probability(0.5)])
        assert abs(born_mean(s, AND) - 0.15) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            born_mean(basis_state((2,), 0), AND)

    def test_reproduces_every_eigenvalue(self):
        rng = np.random.default_rng(SEED)
        f = obs((2, 3), rng.uniform(-5, 5, 6))
        for w in range(6):
            assert born_mean(basis_state((2, 3), w), f) == f.eigenvalues[w]


class TestMembership:
    def test_or_formula(self):
        s = product_state([qubit_from_probability(0.3), qubit_from_probability(0.5)])
        assert abs(membership(s, "OR") - 0.65) <= 1e-9

    def test_complement(self):
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            s = StateVector((2, 2), amps)
            assert abs(membership(s, "NOTA") - (1.0 - membership(s, "A"))) <= 1e-9

    def test_true_is_one(self):
        rng = np.random.default_rng(SEED + 1)
        s = StateVector((2, 2), rng.normal(size=4) + 1j * rng.normal(size=4))
        assert abs(membership(s, "TRUE") - 1.0) <= 1e-12

    def test_unknown_connective(self):
        with pytest.raises(UnknownConnectiveError):
            membership(basis_state((2, 2), 0), "MAYBE")

    def test_isometric_convention_rejected(self):
        with pytest.raises(ConventionError):
            membership(basis_state((2, 2), 0), "AND", convention="isometric")

    def test_error_texts(self):
        with pytest.raises(ConventionError) as err:
            membership(basis_state((2, 2), 0), "MAYBE", convention="isometric")
        assert str(err.value) == (
            "membership degrees are defined for the projective convention only"
        )
        with pytest.raises(UnknownConnectiveError) as err:
            membership(basis_state((2, 2), 0), "MAYBE")
        assert str(err.value) == (
            "unknown connective 'MAYBE'; expected one of: A, AND, B, CIMPL, EQUIV, FALSE, "
            "IMPL, NAND, NCIMPL, NIMPL, NOR, NOTA, NOTB, OR, TRUE, XOR"
        )

    def test_equals_the_catalog_mean_bit_for_bit(self):
        rng = np.random.default_rng(SEED)
        random = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(200)]
        entangled = [[1, 0, 0, 1], [0, 1, 1, 0], [1, 0, 0, -1], [0, 1j, -1j, 0], [2, 1, 1, 3j]]
        states = [StateVector((2, 2), amps) for amps in random + entangled]
        states += [basis_state((2, 2), w) for w in range(4)]
        catalog = binary_catalog("projective")
        for state in states:
            for name, f in catalog.items():
                assert np.float64(membership(state, name)).tobytes() == (
                    np.float64(born_mean(state, f)).tobytes()
                ), name

    def test_does_not_build_the_catalog(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the catalog was built")

        monkeypatch.setattr(synthesis, "binary_catalog", refuse)
        monkeypatch.setattr(synthesis, "dictator", refuse)
        s = product_state([qubit_from_probability(0.3), qubit_from_probability(0.5)])
        assert abs(membership(s, "AND") - 0.15) <= 1e-12
        assert abs(membership(s, "OR") - 0.65) <= 1e-12


class TestBoundCheck:
    def test_bell_state_against_and(self):
        bell = StateVector((2, 2), [1, 0, 0, 1])
        assert abs(born_mean(bell, AND) - 0.5) <= 1e-12
        assert bound_check(bell, AND)

    def test_edge_cases(self):
        true_obs = DiagObservable.identity((2, 2))
        false_obs = DiagObservable.constant((2, 2), 0.0)
        assert born_mean(basis_state((2, 2), 3), true_obs) == 1.0
        assert bound_check(basis_state((2, 2), 3), true_obs)
        rng = np.random.default_rng(SEED)
        s = StateVector((2, 2), rng.normal(size=4) + 1j * rng.normal(size=4))
        assert born_mean(s, false_obs) == 0.0
        assert bound_check(s, false_obs)

    def test_rejects_non_projective(self):
        with pytest.raises(ClassificationError):
            bound_check(basis_state((3,), 0), obs((3,), [1, 0, -1]))
        # The class is checked before the state's dimension.
        with pytest.raises(ClassificationError, match="^bound_check requires a projective observable$"):
            bound_check(basis_state((2, 2), 0), obs((3,), [1, 0, -1]))


# Values within `DEFAULT_TOL` of 0 or 1 and a hair beyond it: most such lists
# are projectors, unlike most lists of `NEAR_CLASS_VALUES`.
_NEAR_PROJECTOR_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0]),
    st.builds(
        lambda v, d: v + d,
        st.sampled_from([0.0, 1.0]),
        st.sampled_from([1e-13, -1e-13, 1e-12, -1e-12, 2e-12]),
    ),
)


@given(
    values=st.one_of(
        st.lists(NEAR_CLASS_VALUES, min_size=2, max_size=9),
        st.lists(_NEAR_PROJECTOR_VALUES, min_size=2, max_size=9),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_bound_check_is_the_projector_class_then_the_bound(values, seed):
    f = obs((len(values),), values)
    rng = np.random.default_rng(seed)
    state = StateVector(f.arities, rng.normal(size=f.dim) + 1j * rng.normal(size=f.dim))
    if not classify(f).is_projector:
        with pytest.raises(ClassificationError, match="^bound_check requires a projective observable$"):
            bound_check(state, f)
    else:
        assert bound_check(state, f) is bool(within_bounds(born_mean(state, f)))


class TestInvariances:
    def test_phase_independence(self):
        f = binary_catalog("projective")["OR"]
        base = born_mean(
            product_state([qubit_from_probability(0.3, 0.0), qubit_from_probability(0.5, 0.0)]), f
        )
        for phase_p, phase_q in [(0.7, 0.0), (0.0, 2.2), (1.0, -1.0)]:
            s = product_state(
                [qubit_from_probability(0.3, phase_p), qubit_from_probability(0.5, phase_q)]
            )
            assert abs(born_mean(s, f) - base) <= 1e-12

    def test_complement_law_random_states(self):
        from eigenlogic import kron, seed_projector

        rng = np.random.default_rng(SEED)
        catalog = binary_catalog("projective")
        id2 = DiagObservable.identity((2,))
        pools = {
            (2,): [seed_projector(), id2 - seed_projector()],
            (2, 2): list(catalog.values()),
            (2, 2, 2): [kron(f, id2) for f in catalog.values()],
        }
        arity_choices = list(pools)
        for k in range(100):
            arities = arity_choices[k % 3]
            dim = int(np.prod(arities))
            s = StateVector(arities, rng.normal(size=dim) + 1j * rng.normal(size=dim))
            pool = pools[arities]
            f = pool[rng.integers(len(pool))]
            complement = DiagObservable.identity(arities) - f
            assert abs(born_mean(s, f) + born_mean(s, complement) - 1.0) <= 1e-9

    def test_product_state_factorization(self):
        rng = np.random.default_rng(SEED + 2)
        catalog = binary_catalog("projective")
        for _ in range(50):
            p, q = rng.uniform(0, 1, size=2)
            phases = rng.uniform(0, 2 * math.pi, size=2)
            s = product_state(
                [qubit_from_probability(p, phases[0]), qubit_from_probability(q, phases[1])]
            )
            assert abs(born_mean(s, catalog["A"]) - p) <= 1e-9
            assert abs(born_mean(s, catalog["B"]) - q) <= 1e-9
            assert abs(born_mean(s, catalog["AND"]) - p * q) <= 1e-9
            assert abs(born_mean(s, catalog["OR"]) - (p + q - p * q)) <= 1e-9
            assert abs(born_mean(s, catalog["XOR"]) - (p + q - 2 * p * q)) <= 1e-9


@st.composite
def random_states(draw):
    re = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=4, max_size=4))
    im = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=4, max_size=4))
    amps = np.asarray(re) + 1j * np.asarray(im)
    if np.linalg.norm(amps) < 1e-3:
        amps = amps + 1.0
    return StateVector((2, 2), amps)


@given(random_states(), st.floats(0, 2 * math.pi, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_global_phase_invariance(state, gamma):
    f = obs((2, 2), [2.0, -1.0, 0.25, 1.0])
    rotated = StateVector((2, 2), state.amplitudes * np.exp(1j * gamma))
    assert abs(born_mean(rotated, f) - born_mean(state, f)) <= 1e-12


@given(random_states())
@settings(max_examples=60, deadline=None)
def test_mean_stays_within_spectrum(state):
    f = obs((2, 2), [-3.0, 0.5, 2.0, 7.0])
    mu = born_mean(state, f)
    assert f.eigenvalues.min() - 1e-9 <= mu <= f.eigenvalues.max() + 1e-9


_ARITY_SHAPES = [(2,), (2, 2), (3,), (2, 3), (3, 3), (2, 2, 2)]


@st.composite
def state_and_observable_batches(draw):
    arities = draw(st.sampled_from(_ARITY_SHAPES))
    dim = math.prod(arities)
    part = st.floats(-1, 1, allow_nan=False)
    states = []
    for _ in range(draw(st.integers(1, 5))):
        re = np.asarray(draw(st.lists(part, min_size=dim, max_size=dim)))
        im = np.asarray(draw(st.lists(part, min_size=dim, max_size=dim)))
        amps = re + 1j * im
        if np.linalg.norm(amps) < 1e-3:
            amps = amps + 1.0
        states.append(StateVector(arities, amps))
    eig = st.floats(-10, 10, allow_nan=False)
    observables = [
        obs(arities, draw(st.lists(eig, min_size=dim, max_size=dim)))
        for _ in range(draw(st.integers(1, 5)))
    ]
    return states, observables


def _assert_born_means_equal_born_mean(states, observables):
    means = born_means(states, observables)
    assert means.shape == (len(states), len(observables))
    for i, state in enumerate(states):
        for j, f in enumerate(observables):
            assert float(means[i, j]).hex() == born_mean(state, f).hex()


@given(state_and_observable_batches())
@settings(max_examples=80, deadline=None)
def test_born_means_matches_scalar_means(batch):
    _assert_born_means_equal_born_mean(*batch)


# At 2^12 numpy's pairwise sum splits into blocks, where a matrix product
# would sum in another order.
def test_born_means_matches_scalar_means_at_2_to_the_12():
    rng = np.random.default_rng(SEED)
    arities = (2,) * 12
    states = [StateVector(arities, rng.normal(size=4096) + 1j * rng.normal(size=4096)) for _ in range(4)]
    observables = [obs(arities, rng.normal(scale=10, size=4096)) for _ in range(4)]
    observables.append(obs(arities, rng.integers(0, 2, size=4096)))
    _assert_born_means_equal_born_mean(states, observables)


class TestBornMeans:
    def test_bell_state_row(self):
        bell = StateVector((2, 2), [1, 0, 0, 1])
        catalog = binary_catalog("projective")
        means = born_means([bell], [catalog["AND"], catalog["XOR"], catalog["EQUIV"]])
        assert means.shape == (1, 3)
        assert means[0].tolist() == pytest.approx([0.5, 0.0, 1.0], abs=1e-12)

    def test_observable_mismatch_uses_born_mean_message(self):
        s4 = basis_state((2, 2), 0)
        with pytest.raises(DimensionMismatchError) as batched:
            born_means([s4, s4], [AND, obs((2, 2, 2), [0] * 8)])
        with pytest.raises(DimensionMismatchError) as scalar:
            born_mean(s4, obs((2, 2, 2), [0] * 8))
        assert str(batched.value) == str(scalar.value)
        assert str(batched.value) == "state dimension 4 does not match observable dimension 8"

    def test_state_mismatch_is_first_in_row_major_order(self):
        s4 = basis_state((2, 2), 0)
        s8 = basis_state((2, 2, 2), 0)
        with pytest.raises(DimensionMismatchError, match="state dimension 8 does not match observable dimension 4"):
            born_means([s4, s8], [AND, AND])

    def test_empty_batches(self):
        assert born_means([], [AND]).shape == (0, 1)
        assert born_means([basis_state((2, 2), 1)], []).shape == (1, 0)


# An argument of the wrong type is a TypeError naming the expected type,
# not an AttributeError from deep inside the call.
QUBIT = basis_state((2,), 1)
PROJECTOR = obs((2,), [0, 1])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: born_mean(QUBIT, 3), "born_mean expects a DiagObservable, got int"),
        (lambda: born_mean(3, PROJECTOR), "born_mean expects a StateVector, got int"),
        (lambda: born_means([3], [PROJECTOR]), "born_means expects StateVectors, got int"),
        (lambda: bound_check(3, PROJECTOR), "bound_check expects a StateVector, got int"),
        (lambda: born_means([QUBIT], [3]), "born_means expects DiagObservables, got int"),
        (lambda: bound_check(QUBIT, "AND"), "bound_check expects a DiagObservable, got str"),
        (lambda: product_state([0.0, 1.0]), "product_state expects StateVector parts, got float"),
        (lambda: product_state([0.0]), "product_state expects StateVector parts, got float"),
    ],
)
def test_a_wrong_argument_type_is_a_type_error(call, message):
    with pytest.raises(TypeError) as err:
        call()
    assert str(err.value) == message


def test_within_bounds_is_the_bound_check_interval():
    mu = np.array([-2e-12, -1e-12, 0.0, 0.5, 1.0 + 1e-12, 1.0 + 3e-12, np.nan])
    assert within_bounds(mu).tolist() == [False, True, True, True, True, False, False]
    assert within_bounds(0.25) is True


# Mixed arities, ternary included, and 2^12, where numpy's pairwise sum
# splits into blocks.
_BORN_ARITIES = st.one_of(
    st.lists(st.sampled_from([2, 3]), min_size=1, max_size=6).map(tuple),
    st.just((2,) * 12),
)


@given(_BORN_ARITIES, st.integers(0, 2 ** 32 - 1), st.booleans())
@settings(max_examples=150, deadline=None)
def test_born_mean_is_bit_identical_to_np_sum(arities, seed, projective):
    rng = np.random.default_rng(seed)
    dim = math.prod(arities)
    state = StateVector(arities, rng.normal(size=dim) + 1j * rng.normal(size=dim))
    eig = rng.integers(0, 2, size=dim) if projective else rng.normal(scale=10, size=dim)
    f = obs(arities, eig)
    expected = float(np.sum(state.probabilities() * f.eigenvalues))
    assert born_mean(state, f).hex() == expected.hex()


@given(_BORN_ARITIES, st.integers(0, 2 ** 32 - 1), st.floats(-5, 5))
@settings(max_examples=100, deadline=None)
def test_in_band_amplitudes_are_divided_by_np_linalg_norm(arities, seed, log_scale):
    rng = np.random.default_rng(seed)
    dim = math.prod(arities)
    amps = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) * 10.0 ** log_scale
    norm = np.linalg.norm(amps)
    assume(1e-6 <= norm <= 1e6)
    assert np.array_equal(StateVector(arities, amps).amplitudes, amps / norm)


@pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
def test_phi_must_be_finite(phi):
    with pytest.raises(ValueError, match=f"^phi must be finite, got {phi}$"):
        QubitAngles(1.0, phi)
    with pytest.raises(ValueError, match=f"^phi must be finite, got {phi}$"):
        qubit_from_probability(0.5, phi)


@pytest.mark.parametrize(
    "amplitudes, text",
    [
        ([math.inf, 0], "amplitude at index 0 is (inf+0j)"),
        ([0, 0, complex(1, math.nan), 0], "amplitude at index 2 is (1+nanj)"),
        ([1, 0, 0, complex(-math.inf, 0)], "amplitude at index 3 is (-inf+0j)"),
    ],
)
def test_non_finite_amplitudes_are_refused_by_index(amplitudes, text):
    arities = (2,) * (len(amplitudes) // 2)
    with pytest.raises(ValueError) as err:
        StateVector(arities, amplitudes)
    assert str(err.value) == text + ", not a finite number"


# The sum of squares of these finite amplitudes overflows, or underflows to 0;
# the norm must not.
@pytest.mark.parametrize(
    "amplitudes, norm",
    [
        ([1e300, 1e300, 0, 0], "1.414e+300"),
        ([0, 3e200j, 0, 4e200], "5.000e+200"),
        ([1.5e308, 1.5e308j], "inf"),
        ([1e-200, 0], "1.000e-200"),
        ([0, 3e-300j, 0, 4e-300], "5.000e-300"),
        ([5e-324, 0], "4.941e-324"),
        ([0, 0], "0.000e+00"),
    ],
)
def test_an_overflowing_norm_is_refused_with_its_size(amplitudes, norm):
    arities = (2,) * (len(amplitudes) // 2)
    with pytest.raises(NormalizationError) as err:
        StateVector(arities, amplitudes)
    assert str(err.value) == (
        f"cannot normalize a state of norm {norm} (accepted range [1e-06, 1000000.0])"
    )
