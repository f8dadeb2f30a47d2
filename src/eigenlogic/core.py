"""Dense/diagonal operator algebra for logical observables.

A logical observable is diagonal in the canonical basis, so it is stored as
its real eigenvalue vector plus the per-argument arity structure.  Indexing is
mixed-radix with the first argument as the most significant digit, which is
exactly the ordering produced by a Kronecker product A (x) B.  Densification
is an explicit export step (`materialize`), never the working representation.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ArityMismatchError, CapacityError

DEFAULT_DIM_CAP = 3 ** 10
DEFAULT_TOL = 1e-12

_CAP_ENV_VAR = "EIGENLOGIC_DIM_CAP"


def dimension_cap() -> int:
    """Active dimension cap: EIGENLOGIC_DIM_CAP if set, else 3^10."""
    raw = os.environ.get(_CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise CapacityError(f"{_CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise CapacityError(f"{_CAP_ENV_VAR} must be positive, got {cap}")
    return cap


def check_capacity(size: int) -> None:
    """Raise CapacityError if allocating ``size`` elements would exceed the active cap."""
    cap = dimension_cap()
    if size > cap:
        raise CapacityError(f"{size} elements exceed the cap of {cap}")


def _power_text(base: int, exponent: int) -> str:
    """``base ** exponent`` written out, or as ``base**exponent`` when too long."""
    if exponent * base.bit_length() <= 4096:
        return str(base ** exponent)
    return f"{base}**{exponent}"


def check_power_capacity(base: int, exponent: int) -> int:
    """`check_capacity` for the dimension ``base ** exponent``, which it returns.

    For base >= 2, a power that is plainly too large is never formed, so a
    huge requested arity costs neither time nor memory.
    """
    cap = dimension_cap()
    # base ** exponent >= 2 ** exponent, which exceeds any cap of that bit length.
    if exponent >= cap.bit_length() or base ** exponent > cap:
        raise CapacityError(f"dimension {_power_text(base, exponent)} exceeds the cap of {cap}")
    return base ** exponent


def _arity_for(length: int, size: int) -> int:
    arity, total = 0, 1
    while total < length:
        arity, total = arity + 1, total * size
    if total != length:
        raise ValueError(f"{length} outputs is not a power of the alphabet size {size}")
    return arity


def _dimension(arities: tuple[int, ...], limit: int = 2 ** 64) -> int | None:
    """The product of ``arities``, or None once it exceeds ``limit``."""
    dim = 1
    for m in arities:  # each m >= 2, so this stops within limit.bit_length() + 1 steps
        dim *= m
        if dim > limit:
            return None
    return dim


def _capped_dimension(arities: tuple[int, ...]) -> int:
    cap = dimension_cap()
    dim = _dimension(arities, cap)
    if dim is None:
        dim = _dimension(arities) or "over 2**64"
        raise CapacityError(f"dimension {dim} exceeds the cap of {cap}")
    return dim


def _check_length(what: str, length: int, arities: tuple[int, ...]) -> None:
    if len(arities) > length.bit_length() or math.prod(arities) != length:  # each arity >= 2
        dim = _dimension(arities) or "over 2**64"
        raise ValueError(f"{what} has length {length}, expected {dim} for {len(arities)} arities")


def _whole_number(m, what: str = "an arity") -> int:
    # int() refuses NaN and infinities but truncates 2.5 and Fraction(3, 2) and parses "2",
    # so a whole number is one that int() takes and returns equal.
    try:
        if int(m) == m >= 0:
            return int(m)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} must be a non-negative whole number, got {m}")


def _as_arities(arities: Iterable[int]) -> tuple[int, ...]:
    # Plain ints, the common case, skip the conversion call.
    out = tuple(m if type(m) is int else _whole_number(m) for m in arities)
    for m in out:
        if m < 2:
            raise ValueError(f"every per-argument arity must be >= 2, got {m}")
    return out


def _check_tolerance(tol: float) -> None:
    if not tol >= 0:  # also rejects NaN
        raise ValueError(f"tolerance must be non-negative, got {tol}")
    try:
        # Read as a Python float: against a float64 bound, numpy casts the bound
        # down to a float32 tolerance's type, and the cast overflows.
        finite = math.isfinite(tol)
    except OverflowError:  # an exact number beyond the largest float
        finite = False
    if not finite:
        raise ValueError(f"tolerance must be finite, got {tol}")


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _diag_text(f: DiagObservable) -> str:
    return "diag(" + ", ".join(map(_fmt, f.eigenvalues)) + ")"


def _json_field(data, key: str, convert):
    """``convert(data[key])``, or a ValueError naming the missing or bad field."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    if key not in data:
        raise ValueError(f"JSON object has no {key!r} field")
    try:
        return convert(data[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"JSON field {key!r} is malformed: {exc}") from exc


def _float_array(values) -> np.ndarray:
    return np.asarray(values, dtype=float)


def _finite_array(values, dtype=float, what: str = "entry") -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"{what} at index {bad[0]} is {arr.flat[bad[0]]}, not a finite number")
    return arr


def _json_complex(data) -> np.ndarray:
    """The complex array stored in the "re" and "im" fields of a JSON object."""
    # Checked before re + 1j * im, where an infinity would turn into nan.
    re = _json_field(data, "re", _finite_array)
    im = _json_field(data, "im", _finite_array)
    if re.shape != im.shape:
        raise ValueError(f"JSON fields 're' and 'im' differ in shape: {re.shape} and {im.shape}")
    return re + 1j * im


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class DiagObservable:
    """A logical observable given by its eigenvalue vector.

    ``arities`` lists the number of truth values of each argument;
    ``eigenvalues`` has length prod(arities) in canonical mixed-radix order.
    Instances are immutable and safe to share across threads.
    """

    arities: tuple[int, ...]
    eigenvalues: np.ndarray

    def __post_init__(self):
        arities = _as_arities(self.arities)
        eig = _frozen_array(np.ravel(self.eigenvalues), float)
        _check_length("eigenvalue vector", eig.size, arities)
        if not np.isfinite(eig).all():
            raise ValueError("eigenvalues must all be finite")
        object.__setattr__(self, "arities", arities)
        object.__setattr__(self, "eigenvalues", eig)

    @classmethod
    def _of(cls, arities: tuple[int, ...], eig: np.ndarray) -> "DiagObservable":
        """An observable from a vector the library computed, kept without a copy.

        ``arities`` must be valid and fit ``eig``, a fresh flat float vector
        that is marked read-only.  Arithmetic can overflow, so finiteness is
        the one check.
        """
        if not np.isfinite(eig).all():
            raise ValueError("eigenvalues must all be finite")
        eig.flags.writeable = False
        result = cls.__new__(cls)
        object.__setattr__(result, "arities", arities)
        object.__setattr__(result, "eigenvalues", eig)
        return result

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @classmethod
    def identity(cls, arities: Iterable[int]) -> "DiagObservable":
        return cls.constant(arities, 1.0)

    @classmethod
    def constant(cls, arities: Iterable[int], value: float) -> "DiagObservable":
        arities = _as_arities(arities)
        return cls._of(arities, np.full(_capped_dimension(arities), float(value)))

    def isclose(self, other: "DiagObservable", tol: float = DEFAULT_TOL) -> bool:
        """Entrywise equality of eigenvalues within ``tol`` (same arities)."""
        _check_tolerance(tol)
        return self.arities == other.arities and bool(
            (np.abs(self.eigenvalues - other.eigenvalues) <= tol).all()
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiagObservable):
            return NotImplemented
        return self.arities == other.arities and np.array_equal(
            self.eigenvalues, other.eigenvalues
        )

    def __repr__(self) -> str:
        return f"DiagObservable(arities={self.arities}, {_diag_text(self)})"

    # Operator arithmetic.  Co-diagonal observables commute, so sums, scalar
    # multiples and entrywise products are again observables of the family.
    def __add__(self, other: "DiagObservable") -> "DiagObservable":
        return add(self, other)

    def __sub__(self, other: "DiagObservable") -> "DiagObservable":
        return add(self, affine(0.0, -1.0, other))

    def __mul__(self, other):
        if isinstance(other, DiagObservable):
            return compose_entrywise(self, other)
        return affine(0.0, float(other), self)

    def __rmul__(self, scalar) -> "DiagObservable":
        return affine(0.0, float(scalar), self)

    def __neg__(self) -> "DiagObservable":
        return affine(0.0, -1.0, self)

    def __pow__(self, exponent: int) -> "DiagObservable":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers are defined")
        with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the finite check
            eig = self.eigenvalues ** exponent
        return DiagObservable._of(self.arities, eig)

    def to_json(self) -> dict:
        return {
            "arities": list(self.arities),
            "eigenvalues": self.eigenvalues.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "DiagObservable":
        return cls(
            _json_field(data, "arities", _as_arities),
            _json_field(data, "eigenvalues", _float_array),
        )


@dataclass(frozen=True, eq=False)
class DenseMatrix:
    """Explicit square complex matrix, row-major."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        dim = _whole_number(self.dim, "a dimension")
        if dim < 1:
            raise ValueError("dimension must be positive")
        entries = _frozen_array(np.asarray(self.entries, dtype=complex).reshape(dim, dim), complex)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.entries, other.entries)

    def is_hermitian(self, tol: float = DEFAULT_TOL) -> bool:
        _check_tolerance(tol)
        return bool((np.abs(self.entries - self.entries.conj().T) <= tol).all())

    def to_json(self) -> dict:
        flat = self.entries.reshape(-1)
        return {
            "dim": self.dim,
            "re": flat.real.tolist(),
            "im": flat.imag.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "DenseMatrix":
        dim = _json_field(data, "dim", lambda v: _whole_number(v, "a dimension"))
        return cls(dim, _json_complex(data).reshape(dim, dim))


@dataclass(frozen=True)
class ObservableClass:
    """Structural classification of an observable's eigenvalue set."""

    is_projector: bool
    is_isometry: bool
    is_identity: bool
    is_zero: bool

    def labels(self) -> tuple[str, ...]:
        pairs = (
            ("projector", self.is_projector),
            ("isometry", self.is_isometry),
            ("identity", self.is_identity),
            ("zero", self.is_zero),
        )
        return tuple(name for name, flag in pairs if flag)


def kron(a: DiagObservable, b: DiagObservable) -> DiagObservable:
    """Kronecker product; arities concatenate, eigenvalues multiply pairwise."""
    check_capacity(a.dim * b.dim)
    # On 1-D real vectors this is np.kron's products in its order, without its reshaping.
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the finite check
        product = np.multiply.outer(a.eigenvalues, b.eigenvalues)
    product.flags.writeable = False  # so the flat view's base is read-only too
    return DiagObservable._of(a.arities + b.arities, product.ravel())


def compose_entrywise(a: DiagObservable, b: DiagObservable) -> DiagObservable:
    """Matrix product of two co-diagonal observables (entrywise on eigenvalues)."""
    if a.arities != b.arities:
        raise ArityMismatchError(
            f"cannot compose observables with arities {a.arities} and {b.arities}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the finite check
        eig = a.eigenvalues * b.eigenvalues
    return DiagObservable._of(a.arities, eig)


def add(a: DiagObservable, b: DiagObservable) -> DiagObservable:
    """Operator sum of two co-diagonal observables."""
    if a.arities != b.arities:
        raise ArityMismatchError(
            f"cannot add observables with arities {a.arities} and {b.arities}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the finite check
        eig = a.eigenvalues + b.eigenvalues
    return DiagObservable._of(a.arities, eig)


def affine(a: float, b: float, f: DiagObservable) -> DiagObservable:
    """The observable a*I + b*F; covers negation and convention changes."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the finite check
        eig = a + b * f.eigenvalues
    return DiagObservable(f.arities, eig)


def apply_pointwise(poly, f: DiagObservable) -> DiagObservable:
    """Apply a polynomial to an observable, i.e. to each eigenvalue.

    ``poly`` is a sequence of coefficients in ascending powers, or any object
    with such a ``coefficients`` attribute.
    """
    coeffs = np.asarray(getattr(poly, "coefficients", poly), dtype=float)
    if not coeffs.size:  # numpy's polyval would fail with an IndexError
        raise ValueError("a polynomial needs at least one coefficient")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow fails the finite check
        eig = npoly.polyval(f.eigenvalues, coeffs)
    return DiagObservable(f.arities, eig)


def materialize(f: DiagObservable) -> DenseMatrix:
    """Render the observable as an explicit diagonal matrix."""
    check_capacity(f.dim * f.dim)
    return DenseMatrix(f.dim, np.diag(f.eigenvalues.astype(complex)))


def classify(f: DiagObservable, tol: float = DEFAULT_TOL) -> ObservableClass:
    """Classify by eigenvalue membership within ``tol``.

    Projector: all eigenvalues in {0, 1}.  Isometry: all in {+1, -1}
    (the observable squares to the identity).  The two overlap exactly
    when every eigenvalue is 1, i.e. for the identity.
    """
    _check_tolerance(tol)
    eig = f.eigenvalues
    near_zero = np.abs(eig) <= tol
    near_one = np.abs(eig - 1.0) <= tol
    near_minus_one = np.abs(eig + 1.0) <= tol
    return ObservableClass(
        is_projector=bool((near_zero | near_one).all()),
        is_isometry=bool((near_one | near_minus_one).all()),
        is_identity=bool(near_one.all()),
        is_zero=bool(near_zero.all()),
    )


def kron_all(factors: Sequence[DiagObservable]) -> DiagObservable:
    """Left-to-right Kronecker product of a sequence of observables.

    The order is part of the result: with general floats, (a*b)*c and
    a*(b*c) can differ in the last bit.
    """
    result = DiagObservable((), np.ones(1))
    for f in factors:
        result = kron(result, f)
    return result
