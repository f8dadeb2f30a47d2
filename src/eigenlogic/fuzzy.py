"""State vectors and Born-rule mean values of logical observables.

The mean of a projective observable over a normalized state is a fuzzy
membership degree in [0, 1].  Means are computed as the |amplitude|^2
weighted sum of eigenvalues, never via dense matrix products.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    DiagObservable,
    _as_arities,
    _capped_dimension,
    _check_length,
    _finite_array,
    _json_complex,
    _json_field,
    _whole_number,
)
from .errors import (
    ClassificationError,
    ConventionError,
    DimensionMismatchError,
    NormalizationError,
)
from .synthesis import connective_table, synthesize

_NORM_FLOOR = 1e-6
_NORM_CEILING = 1e6

# A projective mean is a probability: it must lie in [0, 1] up to this slack.
BOUND_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over the canonical eigenbasis, unit-normalized.

    The constructor rescales inputs whose norm lies in [1e-6, 1e6] and
    rejects anything outside that band; a silently rescaled huge or tiny
    vector almost always means a caller bug.  Entangled states are
    first-class: any amplitude vector of matching length is a valid state.
    """

    arities: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        arities = _as_arities(self.arities)
        amps = np.ravel(np.asarray(self.amplitudes, dtype=complex))
        _check_length("amplitude vector", amps.size, arities)
        with np.errstate(over="ignore"):  # finite amplitudes can overflow the sum of squares
            norm = float(np.linalg.norm(amps))
        if not _NORM_FLOOR <= norm <= _NORM_CEILING:  # also true for NaN
            _finite_array(amps, complex, "amplitude")
            # Report the true norm of a sum of squares that over- or underflowed.
            # Rescale the real parts: a complex division overflows on a subnormal.
            parts = amps.view(float)
            peak = float(np.abs(parts).max())
            if peak:
                norm = peak * float(np.linalg.norm(parts / peak))
            raise NormalizationError(
                f"cannot normalize a state of norm {norm:.3e} "
                f"(accepted range [{_NORM_FLOOR}, {_NORM_CEILING}])"
            )
        amps = amps / norm
        amps.flags.writeable = False
        object.__setattr__(self, "arities", arities)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def to_json(self) -> dict:
        return {
            "arities": list(self.arities),
            "re": self.amplitudes.real.tolist(),
            "im": self.amplitudes.imag.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "StateVector":
        return cls(_json_field(data, "arities", _as_arities), _json_complex(data))


@dataclass(frozen=True)
class QubitAngles:
    """Polar and azimuthal angles of a qubit state, theta in [0, pi]."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")


def qubit_state(angles: QubitAngles) -> StateVector:
    """cos(theta/2) |0> + e^(i phi) sin(theta/2) |1>; P(|1>) = sin^2(theta/2)."""
    half = angles.theta / 2.0
    amps = np.array([math.cos(half), cmath.exp(1j * angles.phi) * math.sin(half)])
    return StateVector((2,), amps)


def qubit_from_probability(p: float, phase: float = 0.0) -> StateVector:
    """Qubit whose probability of the true state |1> is ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p}")
    theta = 2.0 * math.asin(math.sqrt(p))
    return qubit_state(QubitAngles(theta, phase))


def basis_state(arities: Iterable[int], index: int) -> StateVector:
    """Canonical basis state |index> over the given argument structure."""
    arities = _as_arities(arities)
    dim = _capped_dimension(arities)
    if not 0 <= index < dim:
        raise ValueError(f"index {index} out of range for dimension {dim}")
    index = _whole_number(index, "an index")  # so True is 1, not a mask, and 1.5 is refused
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(arities, amps)


def product_state(parts: Sequence[StateVector]) -> StateVector:
    """Kronecker product of component states; arities concatenate."""
    if not parts:
        raise ValueError("product_state needs at least one component")
    for part in parts:
        if not hasattr(part, "amplitudes"):  # a part is read only for its arities and amplitudes
            raise TypeError(f"product_state expects StateVector parts, got {type(part).__name__}")
    if len(parts) == 1:
        return parts[0]
    arities = tuple(m for part in parts for m in part.arities)
    _capped_dimension(arities)
    # np.kron's products in its order, without its reshaping.
    amplitudes = parts[0].amplitudes
    for part in parts[1:]:
        amplitudes = np.multiply.outer(amplitudes, part.amplitudes).ravel()
    return StateVector(arities, amplitudes)


def _check_dims(state_dim: int, observable_dim: int) -> None:
    if state_dim != observable_dim:
        raise DimensionMismatchError(
            f"state dimension {state_dim} does not match observable dimension {observable_dim}"
        )


def born_mean(state: StateVector, f: DiagObservable) -> float:
    """Mean value of the observable in the given state.

    Weighted sum of eigenvalues by |amplitude|^2; equals the trace of the
    pure-state density operator times the observable.  For a basis state
    this returns the eigenvalue at its index exactly.
    """
    if not isinstance(state, StateVector):
        raise TypeError(f"born_mean expects a StateVector, got {type(state).__name__}")
    if not isinstance(f, DiagObservable):
        raise TypeError(f"born_mean expects a DiagObservable, got {type(f).__name__}")
    _check_dims(state.dim, f.dim)
    # np.sum without its Python wrapper: the same pairwise sum, so the same bits.
    # A dot product would sum in another order.
    return float(np.add.reduce(state.probabilities() * f.eigenvalues))


def born_means(
    states: Sequence[StateVector], observables: Sequence[DiagObservable]
) -> np.ndarray:
    """Matrix of means: entry [i, j] is ``born_mean(states[i], observables[j])``.

    Each entry equals `born_mean` bit for bit.  Every state and every
    observable must share one dimension; the first mismatching pair in
    row-major order raises `DimensionMismatchError`.
    """
    if not states or not observables:
        return np.zeros((len(states), len(observables)))
    for state in states:
        if not isinstance(state, StateVector):
            raise TypeError(f"born_means expects StateVectors, got {type(state).__name__}")
    # Row 0 against every column, then every row against column 0: with all
    # dimensions equal to states[0].dim this covers every pair.
    for f in observables:
        if not isinstance(f, DiagObservable):
            raise TypeError(f"born_means expects DiagObservables, got {type(f).__name__}")
        _check_dims(states[0].dim, f.dim)
    for state in states:
        _check_dims(state.dim, observables[0].dim)
    rows = np.stack([state.probabilities() for state in states])
    # Row by row, the pairwise sum of `born_mean`; a matrix product sums in another order.
    return np.stack([np.add.reduce(rows * f.eigenvalues, axis=1) for f in observables], axis=1)


def within_bounds(mu):
    """True where a projective mean lies in [0, 1] within `BOUND_TOL`.

    Works elementwise on arrays of means as well as on one float.
    """
    return (-BOUND_TOL <= mu) & (mu <= 1.0 + BOUND_TOL)


def membership(state: StateVector, connective_name: str, convention: str = "projective") -> float:
    """Fuzzy membership degree of a named binary connective.

    Defined for the projective convention only, where the connective is a
    projector and the mean is a probability in [0, 1].  The projector is
    synthesized from the truth table; `verify` checks it against `binary_catalog`.
    """
    if convention != "projective":
        raise ConventionError(
            "membership degrees are defined for the projective convention only"
        )
    return born_mean(state, synthesize(connective_table(connective_name)))


def bound_check(state: StateVector, f: DiagObservable) -> bool:
    """True iff the mean of a projective observable lies in [0, 1].

    Holds for every normalized state, entangled ones included; the mean of
    a projector is a probability.  Tolerance is `BOUND_TOL` at both ends.
    The projector rule is `classify(f).is_projector` at `DEFAULT_TOL`: every
    eigenvalue within `DEFAULT_TOL` of 0 or 1.
    """
    if not isinstance(state, StateVector):
        raise TypeError(f"bound_check expects a StateVector, got {type(state).__name__}")
    if not isinstance(f, DiagObservable):
        raise TypeError(f"bound_check expects a DiagObservable, got {type(f).__name__}")
    # `classify`'s projector test alone, without building the other three classes.
    eig = f.eigenvalues
    if not ((np.abs(eig) <= DEFAULT_TOL) | (np.abs(eig - 1.0) <= DEFAULT_TOL)).all():
        raise ClassificationError("bound_check requires a projective observable")
    return bool(within_bounds(born_mean(state, f)))
