"""The dimension cap bounds the memory a call allocates, and size checks stay cheap."""

import time
import tracemalloc

import numpy as np
import pytest

from eigenlogic import (
    PROJECTIVE,
    CapacityError,
    DiagObservable,
    StateVector,
    TruthTable,
    basis_state,
    canonical_projectors,
    dictator,
    enumerate_tables,
    kron,
    materialize,
    product_state,
    qubit_from_probability,
    synthesize,
    synthesize_by_projectors,
)

CAP = 64
# A few complex vectors at the cap; any allocation that grows with the
# requested size (dim or dim**2 entries) passes this at the sizes below.
ALLOCATION_BOUND = 4 * CAP * 16

SIX_BITS = DiagObservable((2,) * 6, np.arange(64.0))  # dim 64, dim**2 = 4096 entries
TABLE_SIX_BITS = TruthTable(PROJECTIVE, 6, (0.0,) * 64)
TABLE_TEN_BITS = TruthTable(PROJECTIVE, 10, (0.0,) * 1024)
QUBIT = qubit_from_probability(0.3)

# Each call asks for more than CAP elements: ten binary arguments give dim
# 1024, and the dense forms of a dim-64 observable hold 4096 entries.
CALLS = {
    "constant": lambda: DiagObservable.constant((2,) * 10, 0.0),
    "identity": lambda: DiagObservable.identity((2,) * 10),
    "basis_state": lambda: basis_state((2,) * 10, 0),
    "materialize": lambda: materialize(SIX_BITS),
    "canonical_projectors": lambda: canonical_projectors(PROJECTIVE, 6),
    "synthesize": lambda: synthesize(TABLE_TEN_BITS),
    "synthesize_by_projectors": lambda: synthesize_by_projectors(TABLE_SIX_BITS),
    "enumerate_tables": lambda: next(enumerate_tables(PROJECTIVE, 10)),
    "dictator": lambda: dictator(0, 10, PROJECTIVE),
    "kron": lambda: kron(SIX_BITS, SIX_BITS),
    "product_state": lambda: product_state([QUBIT] * 10),
}


def _peak_bytes(call) -> tuple[int, BaseException | None]:
    """Peak traced allocation of one call above what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        raised = None
        try:
            call()
        except CapacityError as exc:
            raised = exc
        return tracemalloc.get_traced_memory()[1] - before, raised
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_cap_bounds_what_a_call_allocates(monkeypatch, name):
    monkeypatch.setenv("EIGENLOGIC_DIM_CAP", str(CAP))
    _peak_bytes(CALLS[name])  # first-call costs, such as lazy imports, are not the call's
    peak, raised = _peak_bytes(CALLS[name])
    assert peak <= ALLOCATION_BOUND, f"{name} peaked at {peak} bytes"
    assert raised is not None, f"{name} allocated above the cap of {CAP} without refusing"


def test_materialize_counts_dense_entries(monkeypatch):
    monkeypatch.setenv("EIGENLOGIC_DIM_CAP", str(CAP))
    assert materialize(DiagObservable((2,) * 3, np.arange(8.0))).dim == 8
    with pytest.raises(CapacityError, match="256 elements exceed the cap of 64"):
        materialize(DiagObservable((2,) * 4, np.arange(16.0)))


def test_default_cap_materializes_up_to_dim_243():
    assert materialize(DiagObservable((3,) * 5, np.zeros(243))).dim == 243
    with pytest.raises(CapacityError):
        materialize(DiagObservable((2,) * 8, np.zeros(256)))


@pytest.mark.parametrize(
    "cls, fields",
    [
        (DiagObservable, {"eigenvalues": [0.0, 1.0]}),
        (StateVector, {"re": [1.0, 0.0], "im": [0.0, 0.0]}),
    ],
)
def test_length_check_is_linear_in_the_number_of_arities(cls, fields):
    data = {"arities": [2] * 1_000_000, **fields}
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        cls.from_json(data)
    elapsed = time.perf_counter() - start
    message = str(err.value)
    assert "length 2" in message and "1000000 arities" in message
    assert "4300 digits" not in message
    assert elapsed < 1.0
