"""Seeded inputs and reference results for the benchmark workloads.

This module is the benchmark's own code and imports nothing from
eigenlogic: formulas, truth tables, states and CLI commands are generated
here from the seed, and the expected outputs are computed here by
independent means (a numpy evaluator over the mixed-radix digit grid,
product-probability sums, plain string formatting).  A change to the
library therefore cannot change what a workload runs or what it is
checked against.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

# Alphabet keys map to the library's PROJECTIVE, ISOMETRIC and TERNARY
# constants; position 0 is the most false value, the last the most true.
ALPHABETS = {"01": (0.0, 1.0), "pm": (1.0, -1.0), "ternary": (1.0, 0.0, -1.0)}
ALPHABET_ARGS = {"01": "0,1", "pm": "1,-1", "ternary": "1,0,-1"}

BOOL_OPS = ("AND", "OR", "XOR", "NAND", "NOR", "EQUIV", "IMPL", "CIMPL")
_BOOL_FUNCS = {
    "AND": lambda a, b: a & b,
    "OR": lambda a, b: a | b,
    "XOR": lambda a, b: a ^ b,
    "NAND": lambda a, b: ~(a & b),
    "NOR": lambda a, b: ~(a | b),
    "EQUIV": lambda a, b: ~(a ^ b),
    "IMPL": lambda a, b: ~a | b,
    "CIMPL": lambda a, b: a | ~b,
}

# The sixteen binary connectives as functions of two truth values, in the
# order the library's catalog lists them.
CONNECTIVES = {
    "FALSE": lambda a, b: False,
    "NOR": lambda a, b: not (a or b),
    "NCIMPL": lambda a, b: (not a) and b,
    "NOTA": lambda a, b: not a,
    "NIMPL": lambda a, b: a and not b,
    "NOTB": lambda a, b: not b,
    "XOR": lambda a, b: a != b,
    "NAND": lambda a, b: not (a and b),
    "AND": lambda a, b: a and b,
    "EQUIV": lambda a, b: a == b,
    "B": lambda a, b: b,
    "IMPL": lambda a, b: (not a) or b,
    "A": lambda a, b: a,
    "CIMPL": lambda a, b: a or not b,
    "OR": lambda a, b: a or b,
    "TRUE": lambda a, b: True,
}

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

# formula-small: one fragment per alphabet, cycled so each holds a third.
FRAGMENTS = (
    ("01", BOOL_OPS, True),
    ("pm", BOOL_OPS + ("MIN", "MAX"), True),
    ("ternary", ("MIN", "MAX"), False),
)

# fuzzy-states: per 10 ops, 3 product states (membership, slowest), 6 small
# entangled states (bound_check) and 1 state over 12 qubits (born_mean).
# The shares put p50 inside the entangled mode and p90 inside the product
# mode, so neither percentile sits on the gap between two modes.
FUZZY_CYCLE = "PEEBEPEEPE"
FUZZY_WIDE_QUBITS = 12

TABLE_ARITY = 10
BOOL_WIDE_ARITY = 15
SNAP_NOISE = 5e-13

CLI_KINDS = ("synth", "table", "compile", "fuzzy", "catalog")
VERIFY_ALL_LINE = "verify all: PASS (18332 checks)"


# --- formulas --------------------------------------------------------------
#
# A formula is a tuple tree: ("var", i), ("not", child) or (op, left, right).


def random_tree(rng: random.Random, arity: int, ops, allow_not: bool, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return ("var", rng.randrange(arity))
    if allow_not and rng.random() < 0.25:
        return ("not", random_tree(rng, arity, ops, allow_not, depth - 1))
    return (
        rng.choice(ops),
        random_tree(rng, arity, ops, allow_not, depth - 1),
        random_tree(rng, arity, ops, allow_not, depth - 1),
    )


def balanced_random_tree(rng: random.Random, leaves: list[int], ops, not_share: float):
    """A tree using each leaf variable once, split at random points."""
    if len(leaves) == 1:
        return ("var", leaves[0])
    cut = rng.randint(1, len(leaves) - 1)
    node = (
        rng.choice(ops),
        balanced_random_tree(rng, leaves[:cut], ops, not_share),
        balanced_random_tree(rng, leaves[cut:], ops, not_share),
    )
    if rng.random() < not_share:
        node = ("not", node)
    return node


def render(tree) -> str:
    """Fully parenthesized text, the same canonical form `to_text` prints."""
    kind = tree[0]
    if kind == "var":
        return LETTERS[tree[1]]
    if kind == "not":
        return "NOT " + render(tree[1])
    if kind in ("MIN", "MAX"):
        return f"{kind}({render(tree[1])}, {render(tree[2])})"
    return f"({render(tree[1])} {kind} {render(tree[2])})"


def tree_size(tree) -> tuple[int, int]:
    """(nodes, variable occurrences) of a tree."""
    if tree[0] == "var":
        return 1, 1
    totals = [tree_size(child) for child in tree[1:]]
    return 1 + sum(t[0] for t in totals), sum(t[1] for t in totals)


def variables(tree) -> set[int]:
    if tree[0] == "var":
        return {tree[1]}
    return set().union(*(variables(child) for child in tree[1:]))


def digit_grid(arity: int, size: int) -> np.ndarray:
    """Digits of every canonical index, first argument most significant."""
    return np.indices((size,) * arity, dtype=np.int8).reshape(arity, -1)


def evaluate(tree, values: tuple[float, ...], arity: int, positions=None) -> np.ndarray:
    """Reference eigenvalue vector of a formula over the digit grid.

    ``positions`` maps a variable to its argument slot; by default variable
    i binds to slot i.
    """
    vals = np.asarray(values)
    args = vals[digit_grid(arity, len(values))]
    false_v, true_v = values[0], values[-1]

    def walk(t):
        kind = t[0]
        if kind == "var":
            return args[t[1] if positions is None else positions[t[1]]]
        if kind == "not":
            return np.where(walk(t[1]) == true_v, false_v, true_v)
        left, right = walk(t[1]), walk(t[2])
        # True is the most negative value of both MIN/MAX alphabets, so the
        # logical minimum is the numerical maximum.
        if kind == "MIN":
            return np.maximum(left, right)
        if kind == "MAX":
            return np.minimum(left, right)
        return np.where(_BOOL_FUNCS[kind](left == true_v, right == true_v), true_v, false_v)

    return walk(tree).astype(float)


# --- workload cases --------------------------------------------------------


@dataclass
class FormulaCase:
    kind: str
    text: str
    alphabet: str
    arity: int
    expected: np.ndarray
    nodes: int
    var_occurrences: int


@dataclass
class RoundTripCase:
    kind: str
    outputs: tuple[float, ...]
    expected: np.ndarray


@dataclass
class ProductCase:
    kind: str
    p: float
    q: float
    phases: tuple[float, float]
    expected: dict[str, float]


@dataclass
class EntangledCase:
    kind: str
    arities: tuple[int, ...]
    amplitudes: np.ndarray
    expected: np.ndarray  # reference means of the 16 catalog projectors


@dataclass
class WideStateCase:
    kind: str
    amplitudes: np.ndarray
    expected: float


@dataclass
class CliCase:
    kind: str
    argv: list[str]
    expected: str
    json_mean: bool = False  # compare the one float within 1e-12, not as text


@dataclass
class Pool:
    """Generated inputs of one workload and the counts they imply per pass."""

    cases: list
    counts: dict[str, int] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def _formula_case(kind, tree, alphabet, arity) -> FormulaCase:
    nodes, occurrences = tree_size(tree)
    return FormulaCase(
        kind, render(tree), alphabet, arity,
        evaluate(tree, ALPHABETS[alphabet], arity), nodes, occurrences,
    )


def formula_small(seed: int, count: int) -> Pool:
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        alphabet, ops, allow_not = FRAGMENTS[k % len(FRAGMENTS)]
        arity = rng.randint(1, 6)
        depth = rng.randint(1, 6)
        tree = random_tree(rng, arity, ops, allow_not, depth)
        cases.append(_formula_case("formula", tree, alphabet, arity))
    counts = {
        "formula.nodes": sum(c.nodes for c in cases),
        "formula.var_occurrences": sum(c.var_occurrences for c in cases),
    }
    return Pool(cases, counts)


def table_wide(seed: int, rounds: int) -> Pool:
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    ternary = np.asarray(ALPHABETS["ternary"])
    cases = []
    # The round trip is the slowest kind and holds a third of the ops, so p90
    # falls inside it and p50 inside the slower of the two compile kinds.
    for _ in range(rounds):
        exact = ternary[nrng.integers(0, 3, size=3 ** TABLE_ARITY)]
        noisy = exact + nrng.uniform(-SNAP_NOISE, SNAP_NOISE, size=exact.size)
        cases.append(RoundTripCase("roundtrip", tuple(noisy.tolist()), exact))
        leaves = list(range(TABLE_ARITY))
        rng.shuffle(leaves)
        nest = balanced_random_tree(rng, leaves, ("MIN", "MAX"), 0.0)
        cases.append(_formula_case("nest", nest, "ternary", TABLE_ARITY))
        leaves = list(range(BOOL_WIDE_ARITY))
        rng.shuffle(leaves)
        boolean = balanced_random_tree(rng, leaves, BOOL_OPS, 0.2)
        cases.append(_formula_case("bool", boolean, "01", BOOL_WIDE_ARITY))
    entries = sum(c.expected.size for c in cases if c.kind == "roundtrip")
    counts = {
        # TruthTable snaps each entry, and read_table snaps it again.
        "synthesis.entries_snapped": 2 * entries,
        # classify and the JSON round trip each visit every eigenvalue.
        "core.entries": 2 * entries,
    }
    return Pool(cases, counts)


def connective_vector(name: str) -> np.ndarray:
    fn = CONNECTIVES[name]
    return np.array([float(fn(a, b)) for a in (False, True) for b in (False, True)])


def product_rule(name: str, p: float, q: float) -> float:
    """Membership of a connective on independent arguments true with p and q.

    For AND, OR and XOR this is p*q, p+q-p*q and p+q-2pq.
    """
    fn = CONNECTIVES[name]
    return sum(
        (p if a else 1.0 - p) * (q if b else 1.0 - q)
        for a in (False, True)
        for b in (False, True)
        if fn(a, b)
    )


def _random_amplitudes(nrng: np.random.Generator, dim: int) -> np.ndarray:
    return nrng.normal(size=dim) + 1j * nrng.normal(size=dim)


def fuzzy_states(seed: int, cycles: int) -> Pool:
    rng = random.Random(seed)
    nrng = np.random.default_rng(seed)
    leaves = list(range(FUZZY_WIDE_QUBITS))
    rng.shuffle(leaves)
    wide_tree = balanced_random_tree(rng, leaves, BOOL_OPS, 0.2)
    wide_eig = evaluate(wide_tree, ALPHABETS["01"], FUZZY_WIDE_QUBITS)
    catalog2 = np.array([connective_vector(n) for n in CONNECTIVES])
    catalog3 = np.kron(catalog2, np.ones(2))
    cases = []
    for _ in range(cycles):
        for kind in FUZZY_CYCLE:
            if kind == "P":
                p, q = (float(v) for v in nrng.uniform(0.0, 1.0, size=2))
                phases = tuple(float(v) for v in nrng.uniform(0.0, 2.0 * math.pi, size=2))
                expected = {name: product_rule(name, p, q) for name in CONNECTIVES}
                cases.append(ProductCase("product", p, q, phases, expected))
            elif kind == "E":
                qubits = int(nrng.integers(2, 4))
                amps = _random_amplitudes(nrng, 2 ** qubits)
                probs = np.abs(amps) ** 2 / np.sum(np.abs(amps) ** 2)
                table = catalog2 if qubits == 2 else catalog3
                cases.append(EntangledCase("entangled", (2,) * qubits, amps, table @ probs))
            else:
                amps = _random_amplitudes(nrng, 2 ** FUZZY_WIDE_QUBITS)
                probs = np.abs(amps) ** 2 / np.sum(np.abs(amps) ** 2)
                cases.append(WideStateCase("wide", amps, float(probs @ wide_eig)))
    counts = {"fuzzy.states": len(cases)}
    extra = {"wide_formula": render(wide_tree), "wide_expected": wide_eig}
    return Pool(cases, counts, extra)


# --- CLI commands ----------------------------------------------------------


def fmt(value: float) -> str:
    return format(value, ".12g")


def diag_text(values) -> str:
    return "diag(" + ", ".join(fmt(v) for v in values) + ")"


def class_text(values) -> str:
    vals = set(float(v) for v in values)
    labels = [
        label
        for label, members in (
            ("projector", {0.0, 1.0}),
            ("isometry", {1.0, -1.0}),
            ("identity", {1.0}),
            ("zero", {0.0}),
        )
        if vals <= members
    ]
    return " ".join(labels) if labels else "none"


def _observable_text(values, arity: int, size: int) -> str:
    return (
        f"{diag_text(values)}\narities: {','.join([str(size)] * arity)}\n"
        f"classification: {class_text(values)}\n"
    )


def _observable_json(values, arity: int, size: int) -> dict:
    return {"arities": [size] * arity, "eigenvalues": [float(v) for v in values]}


def _desk_probability(rng: random.Random) -> float:
    # Multiples of 0.05 keep every mean far from a 12-digit rounding edge,
    # so the printed text is exact.
    return rng.randint(1, 19) / 20


def _cli_case(rng: random.Random, kind: str, as_json: bool) -> CliCase:
    flag = ["--json"] if as_json else []
    if kind == "catalog":
        convention = rng.choice(("projective", "isometric"))
        table = {n: connective_vector(n) for n in CONNECTIVES}
        if convention == "isometric":
            table = {n: 1.0 - 2.0 * v for n, v in table.items()}
        if as_json:
            text = json.dumps({n: _observable_json(v, 2, 2) for n, v in table.items()}) + "\n"
        else:
            text = "".join(f"{n:<6}  {diag_text(v)}\n" for n, v in table.items())
        return CliCase(kind, ["catalog", "--convention", convention] + flag, text)
    if kind == "fuzzy":
        p, q = _desk_probability(rng), _desk_probability(rng)
        if rng.random() < 0.5:
            name = rng.choice(list(CONNECTIVES))
            source = ["--connective", name]
            mean = product_rule(name, p, q)
        else:
            tree = random_tree(rng, 2, BOOL_OPS, True, rng.randint(1, 3))
            # The CLI binds the variables the formula uses, alphabetically.
            positions = {v: i for i, v in enumerate(sorted(variables(tree)))}
            eig = evaluate(tree, ALPHABETS["01"], len(positions), positions)
            if len(positions) == 1:
                eig = np.kron(eig, np.ones(2))  # --arity 2 adds an unused argument
            probs = np.outer([1 - p, p], [1 - q, q]).ravel()
            source = ["--formula=" + render(tree), "--arity", "2"]
            mean = float(probs @ eig)
        argv = ["fuzzy"] + source + [f"--p={p}", f"--q={q}"] + flag
        if as_json:
            return CliCase(kind, argv, json.dumps({"mean": mean}) + "\n", json_mean=True)
        return CliCase(kind, argv, fmt(round(mean, 9)) + "\n")
    alphabet = rng.choice(tuple(ALPHABETS))
    values = ALPHABETS[alphabet]
    size = len(values)
    if kind == "compile":
        ops = next(f[1] for f in FRAGMENTS if f[0] == alphabet)
        allow_not = alphabet != "ternary"
        tree = random_tree(rng, 3, ops, allow_not, rng.randint(1, 3))
        positions = {v: i for i, v in enumerate(sorted(variables(tree)))}
        arity = len(positions)
        eig = evaluate(tree, values, arity, positions)
        argv = ["compile", "--formula=" + render(tree), "--alphabet=" + ALPHABET_ARGS[alphabet]]
        if as_json:
            body = {
                "arity": arity,
                "alphabet": list(values),
                "observable": _observable_json(eig, arity, size),
            }
            return CliCase(kind, argv + flag, json.dumps(body) + "\n")
        text = f"formula: {render(tree)}\n" + _observable_text(eig, arity, size)
        return CliCase(kind, argv, text)
    arity = rng.randint(1, 3 if size == 2 else 2)
    outputs = [rng.choice(values) for _ in range(size ** arity)]
    if kind == "synth":
        argv = [
            "synth", "--alphabet=" + ALPHABET_ARGS[alphabet],
            "--outputs=" + ",".join(fmt(v) for v in outputs),
        ]
        if as_json:
            return CliCase(kind, argv + flag, json.dumps(_observable_json(outputs, arity, size)) + "\n")
        return CliCase(kind, argv, _observable_text(outputs, arity, size))
    observable = json.dumps(_observable_json(outputs, arity, size))
    argv = ["table", "--observable=" + observable, "--alphabet=" + ALPHABET_ARGS[alphabet]]
    if as_json:
        body = {"alphabet": list(values), "arity": arity, "outputs": outputs}
        return CliCase(kind, argv + flag, json.dumps(body) + "\n")
    header = f"alphabet: {ALPHABET_ARGS[alphabet]}\narity: {arity}\n"
    return CliCase(kind, argv, header + " ".join(fmt(v) for v in outputs) + "\n")


def cli_commands(seed: int, per_kind: int) -> Pool:
    rng = random.Random(seed)
    cases = [
        _cli_case(rng, kind, as_json)
        for _ in range(per_kind)
        for kind in CLI_KINDS
        for as_json in (False, True)
    ]
    # One `verify all` process runs per pass over the commands.
    return Pool(cases, {"cli.subprocesses": len(cases) + 1})


def corrupted(case):
    """A copy of a case whose expected output is wrong, for the self-test."""
    expected = case.expected
    if isinstance(expected, np.ndarray):
        expected = expected.copy()
        expected[0] += 1.0
    elif isinstance(expected, dict):
        expected = dict(expected)
        first = next(iter(expected))
        expected[first] += 1.0
    elif isinstance(expected, str):
        expected = expected + "corrupted\n"
    else:
        expected = expected + 1.0
    return type(case)(**{**case.__dict__, "expected": expected})
