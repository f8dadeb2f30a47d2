"""Logical connectives as diagonal observables over canonical bases.

A connective over m truth values and n arguments becomes a Hermitian
operator, diagonal in the canonical basis, whose eigenvalues are the
connective's truth values and whose eigenvectors are the atomic input
cases.  States that are not eigenvectors get a fuzzy degree of truth via
the Born-rule mean of the observable.
"""

from .core import (
    DEFAULT_DIM_CAP,
    DEFAULT_TOL,
    DenseMatrix,
    DiagObservable,
    ObservableClass,
    add,
    affine,
    apply_pointwise,
    classify,
    compose_entrywise,
    dimension_cap,
    kron,
    kron_all,
    materialize,
)
from .errors import (
    AlphabetError,
    ArityMismatchError,
    CapacityError,
    ClassificationError,
    ConventionError,
    DimensionMismatchError,
    DuplicatePointError,
    EigenlogicError,
    FormulaSyntaxError,
    NonMemberError,
    NormalizationError,
    UnknownConnectiveError,
)
from .formula import BinOp, CompiledFormula, Not, Var, eval_classical, parse, to_text
from .formula import compile as compile_formula
from .fuzzy import (
    QubitAngles,
    StateVector,
    basis_state,
    born_mean,
    born_means,
    bound_check,
    membership,
    product_state,
    qubit_from_probability,
    qubit_state,
)
from .synthesis import (
    BINARY_CONNECTIVE_OUTPUTS,
    CONNECTIVE_NAMES,
    ISOMETRIC,
    MAX_CONNECTIVE_OUTPUTS,
    MIN_CONNECTIVE_OUTPUTS,
    PROJECTIVE,
    TERNARY,
    BasisPolynomial,
    TruthTable,
    ValueAlphabet,
    binary_catalog,
    canonical_projectors,
    connective_table,
    dictator,
    enumerate_tables,
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

__version__ = "0.1.0"
