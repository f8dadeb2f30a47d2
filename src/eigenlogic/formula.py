"""A small logical-formula language compiled to diagonal observables.

Grammar (loosest binding first):

    formula := or_level (("IMPL" | "CIMPL") formula)?      right-associative
    or_level := xor_level (("OR" | "NOR") xor_level)*
    xor_level := and_level (("XOR" | "EQUIV") and_level)*
    and_level := unary (("AND" | "NAND") unary)*
    unary := "NOT" unary | atom
    atom := VARIABLE | ("MIN" | "MAX") "(" formula "," formula ")"
          | "(" formula ")"

Variables are single uppercase letters.  Formulas nest at most
`MAX_DEPTH` levels deep; deeper text is a syntax error.  Compilation is
eigenvalue-wise: each subformula maps to its eigenvalue vector over all
input tuples, with variables entering as dictator observables.  Each
distinct variable enters as one dictator per compile, built at its first
occurrence, shared by the later ones and dropped after its last; nothing
is kept between compiles.  `eval_classical` recomputes single outputs by
plain scalar recursion and serves as the oracle for the compiler.  Its
Boolean connectives read the paper's truth table, `BINARY_CONNECTIVE_OUTPUTS`,
while the compiler keeps its own vector form of them; the two share only the
alphabet type, the variable binding and the alphabet checks.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import AbstractSet, Sequence, Union

import numpy as np

from .core import DiagObservable, _whole_number
from .errors import AlphabetError, ArityMismatchError, FormulaSyntaxError, NonMemberError
from .synthesis import BINARY_CONNECTIVE_OUTPUTS, ISOMETRIC, TERNARY, ValueAlphabet, dictator

BINARY_OPS = ("AND", "OR", "XOR", "NAND", "NOR", "EQUIV", "IMPL", "CIMPL", "MIN", "MAX")

_FUNC_OPS = ("MIN", "MAX")
# Precedence levels, loosest first; the first level is right-associative.
_LEVELS = (("IMPL", "CIMPL"), ("OR", "NOR"), ("XOR", "EQUIV"), ("AND", "NAND"))
_KEYWORDS = frozenset(BINARY_OPS) | {"NOT"}


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self):
        if len(self.name) != 1 or not "A" <= self.name <= "Z":
            raise ValueError(f"variable must be a single uppercase letter, got {self.name!r}")


@dataclass(frozen=True)
class Not:
    child: "FormulaNode"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "FormulaNode"
    right: "FormulaNode"

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown operator {self.op!r}")


FormulaNode = Union[Var, Not, BinOp]


@dataclass(frozen=True, eq=False)
class CompiledFormula:
    """A formula lowered to an observable over a fixed alphabet and arity."""

    arity: int
    alphabet: ValueAlphabet
    observable: DiagObservable

    def __post_init__(self):
        expected = (self.alphabet.size,) * self.arity
        if self.observable.arities != expected:
            raise ValueError(
                f"observable arities {self.observable.arities} do not match "
                f"{self.arity} arguments over {self.alphabet.size} values"
            )


# --- parsing ---------------------------------------------------------------


def _tokenize(text: str) -> list[tuple[str, int]]:
    # Each token is a (text, offset) pair: a word of letters, one of "(", ")"
    # and ",", and last ("", len(text)).
    tokens = []
    # Whitespace is what the pattern skips; group 1 catches any other character.
    for match in re.finditer(r"[A-Z]+|[(),]|(\S)", text):
        if match.lastindex:
            raise FormulaSyntaxError(
                match.start(), f"a letter, parenthesis or comma (found {match[1]!r})"
            )
        tokens.append((match[0], match.start()))
    tokens.append(("", len(text)))
    return tokens


# The deepest accepted nesting.  NOT, a parenthesis and each MIN/MAX
# argument open a level while they are parsed, and every NOT, MIN/MAX and
# binary-operator node is one level of the AST.  Parsing takes up to eight
# stack frames per open level, and compile, to_text and eval_classical
# one per AST level, so accepted formulas stay well inside
# Python's default recursion limit.  The text `to_text` prints for an AST
# opens no more levels than the AST has, so it always parses again.
MAX_DEPTH = 100


class _Parser:
    # Each parse method returns the parsed node and the height of its AST.
    def __init__(self, tokens: list[tuple[str, int]]):
        self.tokens = tokens
        self.pos = 0
        self.open_levels = 0

    def peek(self) -> tuple[str, int]:
        return self.tokens[self.pos]

    def advance(self) -> None:
        self.pos += 1

    def expect(self, text: str, expected: str) -> None:
        found, offset = self.peek()
        if found != text:
            raise FormulaSyntaxError(offset, expected)
        self.advance()

    @staticmethod
    def check_depth(offset: int, depth: int) -> None:
        if depth > MAX_DEPTH:
            raise FormulaSyntaxError(offset, f"at most {MAX_DEPTH} levels of nesting")

    def nested(self, offset: int, parse, *args) -> tuple[FormulaNode, int]:
        """Run ``parse`` inside one more open level, opened at ``offset``."""
        self.open_levels += 1
        self.check_depth(offset, self.open_levels)
        result = parse(*args)
        self.open_levels -= 1
        return result

    def node(self, offset: int, node: FormulaNode, *heights: int) -> tuple[FormulaNode, int]:
        height = 1 + max(heights)
        self.check_depth(offset, height)
        return node, height

    def parse_level(self, level: int) -> tuple[FormulaNode, int]:
        if level == len(_LEVELS):
            return self.parse_unary()
        ops = _LEVELS[level]
        left, height = self.parse_level(level + 1)
        chain = []
        op, offset = self.peek()
        while op in ops:
            self.advance()
            right, right_height = self.parse_level(level + 1)
            if level == 0:
                chain.append((op, offset, left, height))
                left, height = right, right_height
            else:
                left, height = self.node(offset, BinOp(op, left, right), height, right_height)
            op, offset = self.peek()
        # Implications chain to the right, so fold them from the end.
        for op, offset, operand, operand_height in reversed(chain):
            left, height = self.node(offset, BinOp(op, operand, left), operand_height, height)
        return left, height

    def parse_unary(self) -> tuple[FormulaNode, int]:
        text, offset = self.peek()
        if text == "NOT":
            self.advance()
            child, height = self.nested(offset, self.parse_unary)
            return self.node(offset, Not(child), height)
        return self.parse_atom()

    def parse_atom(self) -> tuple[FormulaNode, int]:
        text, offset = self.peek()
        if text == "(":
            self.advance()
            result = self.nested(offset, self.parse_level, 0)
            self.expect(")", "')'")
            return result
        if text.isalpha():
            if text in _FUNC_OPS:
                self.advance()
                self.expect("(", "'(' after " + text)
                left, left_height = self.nested(offset, self.parse_level, 0)
                self.expect(",", "','")
                right, right_height = self.nested(offset, self.parse_level, 0)
                self.expect(")", "')'")
                return self.node(offset, BinOp(text, left, right), left_height, right_height)
            if text in _KEYWORDS:
                raise FormulaSyntaxError(offset, "an operand")
            if len(text) == 1:
                self.advance()
                return Var(text), 0
            raise FormulaSyntaxError(
                offset, f"a connective or single-letter variable (found {text!r})"
            )
        raise FormulaSyntaxError(offset, "an operand")


def parse(text: str) -> FormulaNode:
    """Parse formula text into an AST; deterministic for every accepted string."""
    parser = _Parser(_tokenize(text))
    node, _ = parser.parse_level(0)
    tail, offset = parser.peek()
    if tail:
        raise FormulaSyntaxError(offset, "end of input")
    return node


def to_text(node: FormulaNode) -> str:
    """Canonical parenthesized rendering; re-parsing yields an equal AST."""
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Not):
        return "NOT " + to_text(node.child)
    if node.op in _FUNC_OPS:
        return f"{node.op}({to_text(node.left)}, {to_text(node.right)})"
    return f"({to_text(node.left)} {node.op} {to_text(node.right)})"


def _occurrences(node: FormulaNode):
    """The name of each variable leaf of ``node``, once per occurrence."""
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, Var):
            yield n.name
        elif isinstance(n, Not):
            stack.append(n.child)
        else:
            stack += (n.left, n.right)


def variables_of(node: FormulaNode) -> set[str]:
    return set(_occurrences(node))


# --- semantics -------------------------------------------------------------


def _require_two_valued(alphabet: ValueAlphabet, op: str) -> None:
    if alphabet.size != 2:
        raise AlphabetError(
            f"{op} is defined for two-valued alphabets only, got {alphabet.size} values"
        )


def _require_minmax_alphabet(alphabet: ValueAlphabet, op: str) -> None:
    if alphabet.values not in (TERNARY.values, ISOMETRIC.values):
        raise AlphabetError(
            f"{op} requires the (+1, 0, -1) or (+1, -1) alphabet, got {alphabet.values}"
        )


def _bind_positions(
    used: AbstractSet[str], arity: int, variables: Sequence[str] | None
) -> dict[str, int]:
    """Argument positions of the variable names ``used`` by a formula."""
    if variables is None:
        order = sorted(used)
    else:
        order = [Var(str(v)).name for v in variables]
        if len(set(order)) != len(order):
            raise ValueError(f"duplicate names in variable declaration {order}")
        missing = used - set(order)
        if missing:
            raise ArityMismatchError(
                f"formula uses undeclared variables {sorted(missing)}"
            )
    positions = {name: i for i, name in enumerate(order)}
    worst = max((positions[name] for name in used), default=-1)
    if worst >= arity:
        raise ArityMismatchError(
            f"formula needs at least {worst + 1} arguments, got arity {arity}"
        )
    return positions


_VEC_BOOL_OPS = {
    "AND": lambda l, r: l & r,
    "OR": lambda l, r: l | r,
    "XOR": lambda l, r: l ^ r,
    "NAND": lambda l, r: ~(l & r),
    "NOR": lambda l, r: ~(l | r),
    "EQUIV": lambda l, r: ~(l ^ r),
    "IMPL": lambda l, r: ~l | r,
    "CIMPL": lambda l, r: l | ~r,
}


def _eigen_vector(
    node: FormulaNode,
    alphabet: ValueAlphabet,
    positions: dict[str, int],
    arity: int,
    leaves: dict[str, tuple[int, np.ndarray | None]],
) -> np.ndarray:
    """Eigenvalue vector of ``node``.

    ``leaves`` maps each variable to its occurrences still to be compiled
    and, between its first and last occurrence, its dictator eigenvalues.
    Those are read-only and every operation below returns a new array, so
    the occurrences can share them; a variable used once keeps nothing.
    """
    false_v, true_v = alphabet.values[0], alphabet.values[-1]
    if isinstance(node, Var):
        uses, vec = leaves[node.name]
        if vec is None:
            vec = dictator(positions[node.name], arity, alphabet).eigenvalues
        leaves[node.name] = (uses - 1, vec if uses > 1 else None)
        return vec
    if isinstance(node, Not):
        _require_two_valued(alphabet, "NOT")
        child = _eigen_vector(node.child, alphabet, positions, arity, leaves)
        return np.where(child == true_v, false_v, true_v)
    left = _eigen_vector(node.left, alphabet, positions, arity, leaves)
    right = _eigen_vector(node.right, alphabet, positions, arity, leaves)
    if node.op == "MIN":
        _require_minmax_alphabet(alphabet, node.op)
        # True is the most negative value, so the logically smaller of two
        # values is the numerically larger one.
        return np.maximum(left, right)
    if node.op == "MAX":
        _require_minmax_alphabet(alphabet, node.op)
        return np.minimum(left, right)
    _require_two_valued(alphabet, node.op)
    out = _VEC_BOOL_OPS[node.op](left == true_v, right == true_v)
    return np.where(out, true_v, false_v)


def compile(
    node: FormulaNode,
    alphabet: ValueAlphabet,
    arity: int | None = None,
    variables: Sequence[str] | None = None,
) -> CompiledFormula:
    """Lower a formula to an observable by eigenvalue-wise evaluation.

    Variables bind to argument positions alphabetically unless an explicit
    ``variables`` order is declared.  ``arity`` may exceed the number of
    variables (unused arguments); it defaults to the number bound.
    """
    # One walk: the names bind positions, and each count drops a dictator after its last use.
    uses = Counter(_occurrences(node))
    if arity is None:
        arity = len(variables) if variables is not None else len(uses)
    arity = _whole_number(arity)
    positions = _bind_positions(uses.keys(), arity, variables)
    leaves = {name: (count, None) for name, count in uses.items()}
    vec = _eigen_vector(node, alphabet, positions, arity, leaves)
    observable = DiagObservable._of((alphabet.size,) * arity, vec)
    return CompiledFormula(arity, alphabet, observable)


def eval_classical(
    node: FormulaNode,
    assignment: Sequence[float],
    alphabet: ValueAlphabet,
    variables: Sequence[str] | None = None,
) -> float:
    """Evaluate one assignment by plain recursion; the compiler's oracle.

    ``assignment`` holds one alphabet value per argument position and fixes
    the arity.  No observable machinery is involved: a Boolean connective
    reads its row of the paper's truth table, `BINARY_CONNECTIVE_OUTPUTS`,
    not the compiler's vector form.
    """
    values = []
    for i, v in enumerate(assignment):
        pos = alphabet.index_of(float(v))
        if pos < 0:
            raise NonMemberError(i, float(v), f"assignment value {v!r} is not in the alphabet")
        values.append(alphabet.values[pos])
    positions = _bind_positions(variables_of(node), len(values), variables)

    def walk(n: FormulaNode) -> float:
        if isinstance(n, Var):
            return values[positions[n.name]]
        if isinstance(n, Not):
            _require_two_valued(alphabet, "NOT")
            is_true = walk(n.child) == alphabet.values[-1]
            return alphabet.values[0] if is_true else alphabet.values[-1]
        if n.op == "MIN":
            _require_minmax_alphabet(alphabet, n.op)
            return max(walk(n.left), walk(n.right))
        if n.op == "MAX":
            _require_minmax_alphabet(alphabet, n.op)
            return min(walk(n.left), walk(n.right))
        _require_two_valued(alphabet, n.op)
        # Rows in canonical order: FF, FT, TF, TT.
        true_v = alphabet.values[-1]
        row = 2 * (walk(n.left) == true_v) + (walk(n.right) == true_v)
        return alphabet.values[BINARY_CONNECTIVE_OUTPUTS[n.op][row]]

    return walk(node)
