"""Synthesis of logical observables from truth tables and algebraic formulas.

Two construction routes are kept deliberately.  `synthesize` uses the fact
that in the canonical basis the output column of a truth table *is* the
eigenvalue vector.  `synthesize_by_projectors` builds the same observable as
a weighted sum of rank-1 canonical projectors, which are Kronecker products
of Lagrange basis polynomials applied to the single-argument value
observable.  Agreement of the two routes is part of the test strategy, not
an implementation detail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .core import (
    DEFAULT_TOL,
    DiagObservable,
    _arity_for,
    _check_tolerance,
    _fmt,
    _frozen_array,
    _json_field,
    _power_text,
    _whole_number,
    add,
    affine,
    apply_pointwise,
    check_capacity,
    check_power_capacity,
    classify,
    kron,
    kron_all,
)
from .errors import (
    ArityMismatchError,
    ClassificationError,
    ConventionError,
    DuplicatePointError,
    NonMemberError,
    UnknownConnectiveError,
)

# Interpolation points are kept at desk scale so the expanded monomial
# coefficients stay well conditioned.
MAX_POINT_MAGNITUDE = 10.0


def _check_distinct(values: Sequence[float], what: str) -> None:
    """Refuse the first pair of values within DEFAULT_TOL of each other."""
    for i, j in itertools.combinations(range(len(values)), 2):
        if abs(values[i] - values[j]) <= DEFAULT_TOL:
            raise DuplicatePointError(f"{what} {values[i]} and {values[j]} coincide")


@dataclass(frozen=True)
class ValueAlphabet:
    """An ordered set of distinct real truth values, optionally labelled.

    The order is semantic: position 0 is the most false value, the last
    position the most true one, and digit k of a canonical mixed-radix index
    selects ``values[k]`` for that argument.
    """

    values: tuple[float, ...]
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        if len(values) < 2:
            raise ValueError("an alphabet needs at least two values")
        if not all(np.isfinite(values)):
            raise ValueError("alphabet values must be finite")
        _check_distinct(values, "alphabet values")
        names = self.names
        if names is not None:
            names = tuple(str(n) for n in names)
            if len(names) != len(values):
                raise ValueError("names must parallel values")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", names)

    @classmethod
    def _from_text(cls, values: str, names: str | None = None) -> "ValueAlphabet":
        """An alphabet from comma-separated values and, unless empty, names."""
        return cls(tuple(map(float, values.split(","))), names.split(",") if names else None)

    @property
    def size(self) -> int:
        return len(self.values)

    def index_of(self, value: float, tol: float = DEFAULT_TOL) -> int:
        """Position of ``value`` in the alphabet, or -1 if none matches."""
        _check_tolerance(tol)
        for i, v in enumerate(self.values):
            if abs(v - value) <= tol:
                return i
        return -1

    def indices_of(self, values, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Vectorized `index_of`: positions of ``values``, -1 where none matches.

        The positions have the smallest signed integer type that holds -size.
        """
        _check_tolerance(tol)
        values = np.asarray(values, dtype=float)
        positions = np.full(values.shape, -1, dtype=np.min_scalar_type(-self.size))
        distance = np.empty_like(values)
        # A distance beyond the float range is inf and matches nothing.
        with np.errstate(over="ignore"):
            for i in reversed(range(self.size)):  # so that the first match wins
                hit = np.abs(np.subtract(values, self.values[i], out=distance), out=distance) <= tol
                # Becomes i where hit and stays put elsewhere; a masked store is far slower.
                positions -= hit * (positions - i)
        return positions

    def label(self, position: int) -> str:
        if self.names is not None:
            return self.names[position]
        return _fmt(self.values[position])


PROJECTIVE = ValueAlphabet((0.0, 1.0), ("F", "T"))
ISOMETRIC = ValueAlphabet((1.0, -1.0), ("F", "T"))
TERNARY = ValueAlphabet((1.0, 0.0, -1.0), ("F", "N", "T"))


@dataclass(frozen=True, init=False, eq=False, repr=False)
class TruthTable:
    """Explicit map from input tuples to output truth values.

    ``outputs`` has length size^arity in canonical mixed-radix input order
    (first argument most significant).  Outputs are snapped onto the exact
    alphabet values at construction and stored as ``positions``, a read-only
    array of alphabet positions; ``outputs`` is the tuple of the alphabet's
    own floats at those positions, built on first use.  Instances are
    immutable.
    """

    alphabet: ValueAlphabet
    arity: int
    positions: np.ndarray

    def __init__(self, alphabet: ValueAlphabet, arity: int, outputs: Sequence[float]):
        arity = _whole_number(arity)
        size = alphabet.size
        outputs = np.asarray(outputs, dtype=float)
        if outputs.ndim != 1:
            raise ValueError("outputs must be a flat sequence of numbers")
        if _arity_for(outputs.size, size) != arity:
            raise ValueError(
                f"need {_power_text(size, arity)} outputs for arity {arity} over "
                f"{size} values, got {outputs.size}"
            )
        positions = alphabet.indices_of(outputs)
        w = int(positions.argmin())  # the first miss, if there is one
        if positions[w] < 0:
            v = float(outputs[w])
            raise NonMemberError(w, v, f"output {v!r} at index {w} is not an alphabet value")
        self._set(alphabet, arity, positions)

    @classmethod
    def _from_positions(cls, alphabet: ValueAlphabet, arity: int, positions) -> "TruthTable":
        """A table from valid alphabet positions and a checked arity, without a snap."""
        table = cls.__new__(cls)
        table._set(alphabet, arity, positions)
        return table

    def _set(self, alphabet: ValueAlphabet, arity: int, positions) -> None:
        positions = _frozen_array(positions, np.min_scalar_type(alphabet.size - 1))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "positions", positions)

    @cached_property
    def outputs(self) -> tuple[float, ...]:
        # The alphabet's own floats, not one new float per entry.
        return tuple(np.array(self.alphabet.values, dtype=object)[self.positions].tolist())

    def __eq__(self, other) -> bool:
        # Names are display labels; equality is over values, arity, outputs.
        # Alphabet values are distinct, so equal positions mean equal outputs.
        if not isinstance(other, TruthTable):
            return NotImplemented
        return (
            self.alphabet.values == other.alphabet.values
            and self.arity == other.arity
            and np.array_equal(self.positions, other.positions)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(alphabet={self.alphabet!r}, "
            f"arity={self.arity!r}, outputs={self.outputs!r})"
        )

    def inputs(self) -> Iterator[tuple[float, ...]]:
        """All input tuples in canonical index order."""
        for digits in itertools.product(range(self.alphabet.size), repeat=self.arity):
            yield tuple(self.alphabet.values[d] for d in digits)

    def to_text(self) -> str:
        labels = [_fmt(v) for v in self.alphabet.values]
        rows = " ".join([labels[p] for p in self.positions.tolist()])
        return f"alphabet: {','.join(labels)}\narity: {self.arity}\n{rows}\n"

    @classmethod
    def from_text(cls, text: str) -> "TruthTable":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if len(lines) < 2 or not lines[0].startswith("alphabet:") or not lines[1].startswith("arity:"):
            raise ValueError("expected 'alphabet: ...' then 'arity: ...' header lines")
        alphabet = ValueAlphabet._from_text(lines[0].split(":", 1)[1])
        arity = int(lines[1].split(":", 1)[1])
        outputs = [float(tok) for ln in lines[2:] for tok in ln.split()]
        return cls(alphabet, arity, tuple(outputs))

    def to_json(self) -> dict:
        data = {
            "alphabet": list(self.alphabet.values),
            "arity": self.arity,
            "outputs": list(self.outputs),
        }
        if self.alphabet.names is not None:
            data["names"] = list(self.alphabet.names)
        return data

    @classmethod
    def from_json(cls, data: dict) -> "TruthTable":
        values = _json_field(data, "alphabet", lambda v: tuple(map(float, v)))
        names = _json_field(data, "names", tuple) if "names" in data else None
        arity = _json_field(data, "arity", _whole_number)
        return cls(ValueAlphabet(values, names), arity, _json_field(data, "outputs", tuple))


@dataclass(frozen=True, eq=False)
class BasisPolynomial:
    """Polynomial stored as coefficients in ascending powers."""

    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _frozen_array(np.ravel(self.coefficients), float))

    def __call__(self, x):
        return npoly.polyval(x, self.coefficients)

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1


def lagrange_basis(points: Sequence[float]) -> list[BasisPolynomial]:
    """Interpolation basis over the given points.

    Returns one polynomial per point, of degree len(points)-1, such that
    the i-th evaluates to 1 at points[i] and to 0 at every other point.
    Their sum is the constant 1 (partition of unity).
    """
    pts = [float(x) for x in points]
    if not pts:
        raise ValueError("at least one interpolation point is required")
    for x in pts:
        if not abs(x) <= MAX_POINT_MAGNITUDE:  # also rejects NaN
            raise ValueError(
                f"interpolation point {x} exceeds magnitude {MAX_POINT_MAGNITUDE}"
            )
    _check_distinct(pts, "points")
    basis = []
    for i, xi in enumerate(pts):
        coeffs = np.ones(1)
        denom = 1.0
        for j, xj in enumerate(pts):
            if j == i:
                continue
            coeffs = npoly.polymul(coeffs, np.array([-xj, 1.0]))
            denom *= xi - xj
        basis.append(BasisPolynomial(coeffs / denom))
    return basis


def value_observable(alphabet: ValueAlphabet) -> DiagObservable:
    """Single-argument observable whose eigenvalues are the alphabet values."""
    return DiagObservable((alphabet.size,), np.asarray(alphabet.values))


def seed_projector() -> DiagObservable:
    """The 2x2 rank-1 projector diag(0, 1); |1> is the column vector (0, 1)."""
    return DiagObservable((2,), np.array([0.0, 1.0]))


def lambda_observable() -> DiagObservable:
    """The ternary value observable diag(+1, 0, -1), basis |+1>, |0>, |-1>."""
    return value_observable(TERNARY)


def canonical_projectors(alphabet: ValueAlphabet, arity: int) -> list[DiagObservable]:
    """The size^arity rank-1 projectors onto the canonical basis states.

    The w-th projector has eigenvalue 1 exactly at index w.  Each is the
    Kronecker product of single-argument basis projectors, which are the
    Lagrange basis polynomials applied to the value observable.
    """
    arity = _whole_number(arity)
    check_capacity(check_power_capacity(alphabet.size, arity) ** 2)
    value_obs = value_observable(alphabet)
    singles = [apply_pointwise(phi, value_obs) for phi in lagrange_basis(alphabet.values)]
    projectors = []
    for digits in itertools.product(range(alphabet.size), repeat=arity):
        projectors.append(kron_all([singles[d] for d in digits]))
    return projectors


def synthesize(table: TruthTable) -> DiagObservable:
    """Observable whose eigenvalue vector is the table's output column."""
    check_capacity(table.positions.size)
    eig = np.array(table.alphabet.values).take(table.positions)
    return DiagObservable._of((table.alphabet.size,) * table.arity, eig)


def synthesize_by_projectors(table: TruthTable) -> DiagObservable:
    """Spectral route: weighted sum of canonical projectors.

    Mathematically identical to `synthesize`; kept as an independent
    construction for cross-checking.
    """
    projectors = canonical_projectors(table.alphabet, table.arity)
    result = DiagObservable.constant(projectors[0].arities, 0.0)
    for weight, projector in zip(table.outputs, projectors):
        result = add(result, affine(0.0, weight, projector))
    return result


def read_table(
    f: DiagObservable, alphabet: ValueAlphabet, tol: float = DEFAULT_TOL
) -> TruthTable:
    """Inverse of `synthesize`: recover the truth table of an observable.

    Raises NonMemberError at the first eigenvalue that matches no alphabet
    value within ``tol``.
    """
    _check_tolerance(tol)
    for m in f.arities:
        if m != alphabet.size:
            raise ArityMismatchError(
                f"observable has per-argument arity {m}, alphabet has {alphabet.size} values"
            )
    positions = alphabet.indices_of(f.eigenvalues, tol)
    w = int(positions.argmin())  # the first miss, if there is one
    if positions[w] < 0:
        eig = float(f.eigenvalues[w])
        raise NonMemberError(
            w, eig, f"eigenvalue {eig!r} at index {w} matches no alphabet value within {tol}"
        )
    return TruthTable._from_positions(alphabet, len(f.arities), positions)


def to_isometric(f: DiagObservable, tol: float = DEFAULT_TOL) -> DiagObservable:
    """Convention change I - 2F: eigenvalue 0 becomes +1 and 1 becomes -1."""
    if not classify(f, tol).is_projector:
        raise ClassificationError("input is not projective (eigenvalues outside {0, 1})")
    return affine(1.0, -2.0, f)


def to_projective(g: DiagObservable, tol: float = DEFAULT_TOL) -> DiagObservable:
    """Inverse convention change (I - G)/2: +1 becomes 0 and -1 becomes 1."""
    if not classify(g, tol).is_isometry:
        raise ClassificationError("input is not isometric (eigenvalues outside {+1, -1})")
    return affine(0.5, -0.5, g)


def dictator(position: int, arity: int, alphabet: ValueAlphabet) -> DiagObservable:
    """Connective whose output copies the argument at ``position``.

    Built as the value observable times one identity over the arguments after
    it; the identity over the arguments before it is then folded in from the
    left in blocks no wider than the product so far, so position 14 of 15
    takes blocks of 1, 2, 4 and 7 arguments.  That is at most
    1 + ceil(log2(arity)) `kron` calls, and no block is longer than the
    product after it, so no call puts a long factor first and each outer
    product runs long inner loops.  Every factor but one is all ones, so each
    product is exact and the bytes equal `kron_all`'s left fold.
    """
    arity = _whole_number(arity)
    if not 0 <= position < arity:
        raise ValueError(f"position {position} out of range for arity {arity}")
    check_power_capacity(alphabet.size, arity)
    head = [*range(arity)][position]  # a non-integral position raises TypeError
    one_arg = (alphabet.size,)
    result = kron(value_observable(alphabet), DiagObservable.identity(one_arg * (arity - head - 1)))
    while head:
        block = min(head, len(result.arities))
        result = kron(DiagObservable.identity(one_arg * block), result)
        head -= block
    return result


# ---------------------------------------------------------------------------
# The sixteen two-argument binary connectives.
#
# Truth values are stored in ascending canonical input order (FF, FT, TF, TT);
# reference listings of these connectives conventionally print the reverse
# column (TT, TF, FT, FF), so the transcription below reverses it once.
# ---------------------------------------------------------------------------

BINARY_CONNECTIVE_OUTPUTS: dict[str, tuple[int, int, int, int]] = {
    "FALSE": (0, 0, 0, 0),
    "NOR": (1, 0, 0, 0),
    "NCIMPL": (0, 1, 0, 0),
    "NOTA": (1, 1, 0, 0),
    "NIMPL": (0, 0, 1, 0),
    "NOTB": (1, 0, 1, 0),
    "XOR": (0, 1, 1, 0),
    "NAND": (1, 1, 1, 0),
    "AND": (0, 0, 0, 1),
    "EQUIV": (1, 0, 0, 1),
    "B": (0, 1, 0, 1),
    "IMPL": (1, 1, 0, 1),
    "A": (0, 0, 1, 1),
    "CIMPL": (1, 0, 1, 1),
    "OR": (0, 1, 1, 1),
    "TRUE": (1, 1, 1, 1),
}

CONNECTIVE_NAMES: tuple[str, ...] = tuple(BINARY_CONNECTIVE_OUTPUTS)

CONVENTIONS = ("projective", "isometric")


def connective_table(name: str) -> TruthTable:
    """Frozen two-argument truth table of a named binary connective ({0,1} values)."""
    if name not in BINARY_CONNECTIVE_OUTPUTS:
        known = ", ".join(sorted(BINARY_CONNECTIVE_OUTPUTS))
        raise UnknownConnectiveError(f"unknown connective {name!r}; expected one of: {known}")
    # The 0/1 outputs are already PROJECTIVE's positions, so nothing needs snapping.
    return TruthTable._from_positions(PROJECTIVE, 2, BINARY_CONNECTIVE_OUTPUTS[name])


def binary_catalog(convention: str) -> dict[str, DiagObservable]:
    """All sixteen two-argument binary connectives, built algebraically.

    Each observable is assembled from its closed-form expansion in the
    dictators (never by table lookup), so the catalog cross-checks
    `synthesize` rather than restating it.
    """
    if convention not in CONVENTIONS:
        raise ConventionError(f"unknown convention {convention!r}; use one of {CONVENTIONS}")
    if convention == "projective":
        a = dictator(0, 2, PROJECTIVE)
        b = dictator(1, 2, PROJECTIVE)
        i = DiagObservable.identity((2, 2))
        ab = a * b
        return {
            "FALSE": 0.0 * i,
            "NOR": i - a - b + ab,
            "NCIMPL": b - ab,
            "NOTA": i - a,
            "NIMPL": a - ab,
            "NOTB": i - b,
            "XOR": a + b - 2.0 * ab,
            "NAND": i - ab,
            "AND": ab,
            "EQUIV": i - a - b + 2.0 * ab,
            "B": b,
            "IMPL": i - a + ab,
            "A": a,
            "CIMPL": i - b + ab,
            "OR": a + b - ab,
            "TRUE": i,
        }
    u = dictator(0, 2, ISOMETRIC)
    v = dictator(1, 2, ISOMETRIC)
    i = DiagObservable.identity((2, 2))
    uv = u * v
    return {
        "FALSE": i,
        "NOR": 0.5 * (i - u - v - uv),
        "NCIMPL": 0.5 * (i - u + v + uv),
        "NOTA": -u,
        "NIMPL": 0.5 * (i + u - v + uv),
        "NOTB": -v,
        "XOR": uv,
        "NAND": 0.5 * (-i - u - v + uv),
        "AND": 0.5 * (i + u + v - uv),
        "EQUIV": -uv,
        "B": v,
        "IMPL": 0.5 * (-i - u + v - uv),
        "A": u,
        "CIMPL": 0.5 * (-i + u - v - uv),
        "OR": 0.5 * (-i + u + v + uv),
        "TRUE": -i,
    }


# ---------------------------------------------------------------------------
# Three-valued Min and Max connectives.
#
# Under the convention F = +1, N = 0, T = -1, the Min connective (the falser
# of its arguments) is the numerical maximum of the two values and the Max
# connective the numerical minimum.  The maps below are frozen data in
# canonical input order, rows F, N, T by columns F, N, T.
# ---------------------------------------------------------------------------

MIN_CONNECTIVE_OUTPUTS: tuple[int, ...] = (1, 1, 1, 1, 0, 0, 1, 0, -1)
MAX_CONNECTIVE_OUTPUTS: tuple[int, ...] = (1, 0, -1, 0, 0, -1, -1, -1, -1)


def min_truth_table() -> TruthTable:
    return TruthTable(TERNARY, 2, MIN_CONNECTIVE_OUTPUTS)


def max_truth_table() -> TruthTable:
    return TruthTable(TERNARY, 2, MAX_CONNECTIVE_OUTPUTS)


def minmax_from_dictators(
    u: DiagObservable, v: DiagObservable
) -> tuple[DiagObservable, DiagObservable]:
    """Evaluate the closed-form Min and Max polynomials in two dictators.

    Min(U, V) = (U + V + U^2 + V^2 - U.V - U^2.V^2) / 2
    Max(U, V) = (U + V - U^2 - V^2 + U.V + U^2.V^2) / 2

    Passing the two ternary dictators yields the three-valued connectives;
    passing the binary +1/-1 dictators (where U^2 = V^2 = I) reduces Min to
    the conjunction and Max to the disjunction.
    """
    u2 = u * u
    v2 = v * v
    uv = u * v
    u2v2 = u2 * v2
    minimum = 0.5 * (u + v + u2 + v2 - uv - u2v2)
    maximum = 0.5 * (u + v - u2 - v2 + uv + u2v2)
    return minimum, maximum


def min_observable() -> DiagObservable:
    """Three-valued two-argument Min connective as an observable."""
    u = dictator(0, 2, TERNARY)
    v = dictator(1, 2, TERNARY)
    return minmax_from_dictators(u, v)[0]


def max_observable() -> DiagObservable:
    """Three-valued two-argument Max connective as an observable."""
    u = dictator(0, 2, TERNARY)
    v = dictator(1, 2, TERNARY)
    return minmax_from_dictators(u, v)[1]


def minmax_interpolation_route(name: str) -> DiagObservable:
    """Min or Max built from interpolation-basis Kronecker terms.

    Expands the connective over products phi_i(value) (x) phi_j(value) with
    the map's own coefficients, dropping zero terms.  Independent of the
    closed-form polynomial route and of `synthesize`.
    """
    outputs = {"MIN": MIN_CONNECTIVE_OUTPUTS, "MAX": MAX_CONNECTIVE_OUTPUTS}[name]
    lam = lambda_observable()
    singles = [apply_pointwise(phi, lam) for phi in lagrange_basis(TERNARY.values)]
    result = DiagObservable.constant((3, 3), 0.0)
    for w, weight in enumerate(outputs):
        if weight == 0:
            continue
        i, j = divmod(w, 3)
        result = add(result, affine(0.0, weight, kron(singles[i], singles[j])))
    return result


def enumerate_tables(alphabet: ValueAlphabet, arity: int) -> Iterator[TruthTable]:
    """All size^(size^arity) truth tables, in lexicographic output order."""
    arity = _whole_number(arity)
    entries = check_power_capacity(alphabet.size, arity)
    for positions in itertools.product(range(alphabet.size), repeat=entries):
        yield TruthTable._from_positions(alphabet, arity, positions)
