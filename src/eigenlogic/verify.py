"""Runtime verification suites behind the CLI ``verify`` subcommand.

Each suite re-derives a family of observables along two or more independent
routes and counts entrywise agreements.  Randomized suites use a fixed seed
so a report is reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import formula as fdsl
from .core import DiagObservable, _capped_dimension, classify, kron
from .errors import ClassificationError
from .fuzzy import StateVector, born_means, product_state, qubit_from_probability, within_bounds
from .synthesis import (
    CONNECTIVE_NAMES,
    ISOMETRIC,
    PROJECTIVE,
    TERNARY,
    TruthTable,
    binary_catalog,
    connective_table,
    dictator,
    enumerate_tables,
    max_truth_table,
    min_truth_table,
    minmax_from_dictators,
    minmax_interpolation_route,
    read_table,
    synthesize,
    to_isometric,
)

VERIFY_SEED = 1729
TOL_EXACT = 1e-12
TOL_STAT = 1e-9

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: int
    total: int

    @property
    def ok(self) -> bool:
        return self.passed == self.total


def _count(name: str, outcomes) -> CheckResult:
    outcomes = np.asarray(outcomes, dtype=bool)
    return CheckResult(name, int(np.count_nonzero(outcomes)), outcomes.size)


def suite_table1() -> list[CheckResult]:
    """The sixteen binary connectives: algebra vs synthesis vs convention map."""
    projective = binary_catalog("projective")
    isometric = binary_catalog("isometric")
    from_tables = {name: synthesize(connective_table(name)) for name in CONNECTIVE_NAMES}
    return [
        _count(
            "table1: algebraic formulas vs synthesized tables (projective)",
            [projective[n].isclose(from_tables[n], TOL_EXACT) for n in CONNECTIVE_NAMES],
        ),
        _count(
            "table1: isometric formulas vs convention map of projective",
            [isometric[n].isclose(to_isometric(from_tables[n]), TOL_EXACT) for n in CONNECTIVE_NAMES],
        ),
    ]


def _close(a: np.ndarray, b: np.ndarray) -> list[bool]:
    return (np.abs(a - b) <= TOL_EXACT).tolist()


def _entrywise(a: DiagObservable, b: DiagObservable) -> list[bool]:
    return _close(a.eigenvalues, b.eigenvalues)


def suite_minmax() -> list[CheckResult]:
    """Min/Max: polynomial, interpolation and numerical routes vs the maps."""
    u3 = dictator(0, 2, TERNARY)
    v3 = dictator(1, 2, TERNARY)
    poly_min, poly_max = minmax_from_dictators(u3, v3)
    map_min = synthesize(min_truth_table())
    map_max = synthesize(max_truth_table())

    entries = _entrywise(poly_min, map_min) + _entrywise(poly_max, map_max)
    interp = _entrywise(minmax_interpolation_route("MIN"), map_min) + _entrywise(
        minmax_interpolation_route("MAX"), map_max
    )

    # Independent numerical oracle: True is the most negative value, so the
    # Min connective is the entrywise numerical maximum and Max the minimum.
    numeric_min = np.maximum(u3.eigenvalues, v3.eigenvalues)
    numeric_max = np.minimum(u3.eigenvalues, v3.eigenvalues)
    numeric = _close(numeric_min, map_min.eigenvalues) + _close(numeric_max, map_max.eigenvalues)

    # With binary +1/-1 dictators the squares collapse to the identity and
    # the same polynomials must give the conjunction and disjunction.
    u2 = dictator(0, 2, ISOMETRIC)
    v2 = dictator(1, 2, ISOMETRIC)
    red_min, red_max = minmax_from_dictators(u2, v2)
    iso = binary_catalog("isometric")
    reduction = _entrywise(red_min, iso["AND"]) + _entrywise(red_max, iso["OR"])

    # Full sign inversion on inputs and output swaps the two connectives.
    # Negating both ternary inputs maps input index w to 8 - w.
    symmetry = _close(-map_min.eigenvalues[::-1], map_max.eigenvalues)

    return [
        _count("minmax: closed-form polynomial vs maps", entries),
        _count("minmax: interpolation route vs maps", interp),
        _count("minmax: numerical min/max oracle vs maps", numeric),
        _count("minmax: binary reduction equals AND/OR", reduction),
        _count("minmax: sign-inversion symmetry", symmetry),
    ]


def suite_fuzzy(samples: int = 200, seed: int = VERIFY_SEED) -> list[CheckResult]:
    """Born means of product states against the product-probability identities."""
    rng = np.random.default_rng(seed)
    catalog = binary_catalog("projective")
    p = np.empty(samples)
    q = np.empty(samples)
    states = []
    for k in range(samples):
        p[k], q[k] = rng.uniform(0.0, 1.0, size=2)
        phase_p, phase_q = rng.uniform(0.0, 2.0 * np.pi, size=2)
        states.append(
            product_state(
                [qubit_from_probability(p[k], phase_p), qubit_from_probability(q[k], phase_q)]
            )
        )
    means = born_means(states, list(catalog.values()))
    mu = {name: means[:, j] for j, name in enumerate(catalog)}

    def near(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.abs(a - b) <= TOL_STAT

    return [
        _count("fuzzy: mean of first dictator equals p", near(mu["A"], p)),
        _count("fuzzy: mean of second dictator equals q", near(mu["B"], q)),
        _count("fuzzy: conjunction mean equals p*q", near(mu["AND"], p * q)),
        _count("fuzzy: disjunction mean equals p+q-p*q", near(mu["OR"], p + q - p * q)),
        _count("fuzzy: exclusive-or mean equals p+q-2*p*q", near(mu["XOR"], p + q - 2 * p * q)),
        _count("fuzzy: complement mean equals 1-mean", near(mu["NOTA"], 1.0 - mu["A"])),
    ]


def _random_state(rng: np.random.Generator, arities: tuple[int, ...]) -> StateVector:
    dim = _capped_dimension(arities)
    while True:
        amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        if np.linalg.norm(amps) > 1e-3:
            return StateVector(arities, amps)


def suite_bound(samples: int = 1000, seed: int = VERIFY_SEED) -> list[CheckResult]:
    """Means of projective observables stay in [0, 1] for arbitrary states."""
    rng = np.random.default_rng(seed)
    catalog = list(binary_catalog("projective").values())
    identity2 = DiagObservable.identity((2,))
    extended = [kron(obs, identity2) for obs in catalog]
    for obs in catalog + extended:
        if not classify(obs).is_projector:
            raise ClassificationError("suite_bound requires projective observables")
    half = samples // 2
    two_qubit = [_random_state(rng, (2, 2)) for _ in range(half)]
    three_qubit = [_random_state(rng, (2, 2, 2)) for _ in range(samples - half)]
    within = np.concatenate(
        [
            within_bounds(born_means(two_qubit, catalog)).ravel(),
            within_bounds(born_means(three_qubit, extended)).ravel(),
        ]
    )
    return [_count("bound: projective means within [0, 1]", within)]


# --- oracle suite ----------------------------------------------------------


def random_formula(
    rng: np.random.Generator,
    names: tuple[str, ...],
    ops: tuple[str, ...],
    allow_not: bool,
    depth: int,
) -> fdsl.FormulaNode:
    """One random AST of at most the given depth over the given operators."""
    if depth == 0 or rng.random() < 0.3:
        return fdsl.Var(names[rng.integers(len(names))])
    if allow_not and rng.random() < 0.25:
        return fdsl.Not(random_formula(rng, names, ops, allow_not, depth - 1))
    op = ops[rng.integers(len(ops))]
    return fdsl.BinOp(
        op,
        random_formula(rng, names, ops, allow_not, depth - 1),
        random_formula(rng, names, ops, allow_not, depth - 1),
    )


def formula_corpus(count: int, seed: int = VERIFY_SEED):
    """Random formulas of depth 1 to 4, cycling over the three alphabet fragments."""
    rng = np.random.default_rng(seed)
    fragments = (
        (PROJECTIVE, tuple(fdsl._VEC_BOOL_OPS), True),
        (ISOMETRIC, fdsl.BINARY_OPS, True),
        (TERNARY, fdsl._FUNC_OPS, False),
    )
    corpus = []
    for k in range(count):
        alphabet, ops, allow_not = fragments[k % len(fragments)]
        arity = int(rng.integers(1, 4))
        names = ("A", "B", "C")[:arity]
        depth = int(rng.integers(1, 5))
        corpus.append((random_formula(rng, names, ops, allow_not, depth), alphabet))
    return corpus


def formula_matches_oracle(node: fdsl.FormulaNode, alphabet) -> bool:
    """Exhaustive agreement of compiled eigenvalues with classical evaluation."""
    # Both bind the variables in sorted order unless told otherwise.
    arity = max(len(fdsl.variables_of(node)), 1)
    compiled = fdsl.compile(node, alphabet, arity=arity)
    expected = [
        fdsl.eval_classical(node, assignment, alphabet)
        for assignment in itertools.product(alphabet.values, repeat=arity)
    ]
    return all(_close(compiled.observable.eigenvalues, np.array(expected)))


def suite_oracle(samples: int = 500, seed: int = VERIFY_SEED) -> list[CheckResult]:
    """Round-trip and compiler-vs-oracle checks over generated inputs."""
    rng = np.random.default_rng(seed)

    binary_two_arg = list(enumerate_tables(PROJECTIVE, 2))
    ternary_one_arg = list(enumerate_tables(TERNARY, 1))
    counts = [len(binary_two_arg) == 16, len(ternary_one_arg) == 27]

    round_trips = [read_table(synthesize(t), t.alphabet) == t for t in ternary_one_arg]
    for _ in range(samples):
        outputs = tuple(TERNARY.values[d] for d in rng.integers(0, 3, size=9))
        table = TruthTable(TERNARY, 2, outputs)
        round_trips.append(read_table(synthesize(table), TERNARY) == table)

    corpus = formula_corpus(samples, seed=seed)
    dsl = [formula_matches_oracle(node, alphabet) for node, alphabet in corpus]

    return [
        _count("oracle: generator enumerates 16 and 27 tables", counts),
        _count("oracle: synthesize/read_table round trips", round_trips),
        _count("oracle: compiled formulas match classical evaluation", dsl),
    ]


_SUITE_FUNCS = {
    "table1": suite_table1,
    "minmax": suite_minmax,
    "fuzzy": suite_fuzzy,
    "bound": suite_bound,
    "oracle": suite_oracle,
}

SUITE_NAMES = tuple(_SUITE_FUNCS)


@dataclass(frozen=True)
class SuiteReport:
    """The check results of one suite and the wall seconds it took."""

    name: str
    results: list[CheckResult]
    seconds: float

    @property
    def passed(self) -> int:
        return sum(r.passed for r in self.results)

    @property
    def total(self) -> int:
        return sum(r.total for r in self.results)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)


def run_timed(name: str) -> list[SuiteReport]:
    """Run one named suite, or all of them in order, timing each suite."""
    reports = []
    for suite in SUITE_NAMES if name == "all" else (name,):
        start = time.perf_counter()
        results = _SUITE_FUNCS[suite]()
        reports.append(SuiteReport(suite, results, time.perf_counter() - start))
    return reports


def run_suite(name: str) -> list[CheckResult]:
    """Run one named suite, or all of them in order."""
    return [r for report in run_timed(name) for r in report.results]
