"""The formula language: AST, parser, printer, and structural measures.

Concrete syntax (tightest to loosest):

    unary   !  (negation)   ?  (square root)
    binary  .  (product)    *  (strong conjunction)   +  (strong disjunction)
            &  (meet)       |  (join)
            -> (implication, right associative)
            <->  sugar for  (a -> b) * (b -> a), expanded at parse time

All binary connectives except ``->`` associate to the left.  Constants are
dyadic fractions such as ``3/8``; ``bot``, ``top`` and ``half`` name 0, 1
and 1/2.  All six binary connectives and both unaries are primitive AST
nodes; only ``<->`` is surface sugar.

Theory files are newline-separated formulas; ``#`` starts a comment and
blank lines are ignored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .algebra import SConstant

OPLUS = "+"
ODOT = "*"
IMPLIES = "->"
PRODUCT = "."
MEET = "&"
JOIN = "|"

BINARY_OPS = (PRODUCT, ODOT, OPLUS, MEET, JOIN, IMPLIES)


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Const:
    value: SConstant


@dataclass(frozen=True)
class Neg:
    arg: "Formula"


@dataclass(frozen=True)
class Sqrt:
    arg: "Formula"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Formula"
    right: "Formula"

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown binary connective: {self.op!r}")


Formula = Union[Atom, Const, Neg, Sqrt, Bin]

BOT = Const(SConstant(0, 0))
TOP = Const(SConstant(1, 0))
CHALF = Const(SConstant(1, 1))

_ALIASES = {"bot": BOT.value, "top": TOP.value, "half": CHALF.value}


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class _Token:
    kind: str  # 'op', 'name', 'number', 'lparen', 'rparen', 'eof'
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<op><->|->|[!?.*+&|])"
    r"|(?P<lparen>\()"
    r"|(?P<rparen>\))"
    r"|(?P<number>\d+(?:/\d+)?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
)


def _tokenize(text: str) -> Iterator[_Token]:
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            yield _Token(kind, chunk, line, col)
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    yield _Token("eof", "", line, col)


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.index = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.current
        self.index += 1
        return tok

    def error(self, message: str):
        tok = self.current
        raise ParseError(message, tok.line, tok.column)

    def accept_op(self, *ops: str) -> str | None:
        tok = self.current
        if tok.kind == "op" and tok.text in ops:
            self.advance()
            return tok.text
        return None

    def parse_formula(self) -> Formula:
        f = self.parse_iff()
        if self.current.kind != "eof":
            self.error(f"unexpected trailing input {self.current.text!r}")
        return f

    def parse_iff(self) -> Formula:
        left = self.parse_implies()
        while self.accept_op("<->"):
            right = self.parse_implies()
            left = Bin(
                ODOT, Bin(IMPLIES, left, right), Bin(IMPLIES, right, left)
            )
        return left

    def parse_implies(self) -> Formula:
        left = self.parse_join()
        if self.accept_op("->"):
            return Bin(IMPLIES, left, self.parse_implies())
        return left

    def parse_join(self) -> Formula:
        left = self.parse_meet()
        while self.accept_op("|"):
            left = Bin(JOIN, left, self.parse_meet())
        return left

    def parse_meet(self) -> Formula:
        left = self.parse_oplus()
        while self.accept_op("&"):
            left = Bin(MEET, left, self.parse_oplus())
        return left

    def parse_oplus(self) -> Formula:
        left = self.parse_odot()
        while self.accept_op("+"):
            left = Bin(OPLUS, left, self.parse_odot())
        return left

    def parse_odot(self) -> Formula:
        left = self.parse_product()
        while self.accept_op("*"):
            left = Bin(ODOT, left, self.parse_product())
        return left

    def parse_product(self) -> Formula:
        left = self.parse_unary()
        while self.accept_op("."):
            left = Bin(PRODUCT, left, self.parse_unary())
        return left

    def parse_unary(self) -> Formula:
        if self.accept_op("!"):
            return Neg(self.parse_unary())
        if self.accept_op("?"):
            return Sqrt(self.parse_unary())
        return self.parse_atomic()

    def parse_atomic(self) -> Formula:
        tok = self.current
        if tok.kind == "lparen":
            self.advance()
            inner = self.parse_iff()
            if self.current.kind != "rparen":
                self.error("expected ')'")
            self.advance()
            return inner
        if tok.kind == "name":
            self.advance()
            alias = _ALIASES.get(tok.text)
            if alias is not None:
                return Const(alias)
            return Atom(tok.text)
        if tok.kind == "number":
            self.advance()
            if "/" in tok.text:
                num, den = tok.text.split("/")
                value = Fraction(int(num), int(den))
            else:
                value = Fraction(int(tok.text))
            try:
                return Const(SConstant.from_fraction(value))
            except ValueError as exc:
                raise ParseError(str(exc), tok.line, tok.column) from None
        self.error(f"expected a formula, found {tok.text or 'end of input'!r}")


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula tree."""
    return _Parser(text).parse_formula()


# Precedence levels used by the printer; higher binds tighter.
_LEVEL = {IMPLIES: 1, JOIN: 2, MEET: 3, OPLUS: 4, ODOT: 5, PRODUCT: 6}
_UNARY_LEVEL = 7
_ATOM_LEVEL = 8


def _const_text(c: SConstant) -> str:
    if c == SConstant(0, 0):
        return "bot"
    if c == SConstant(1, 0):
        return "top"
    if c == SConstant(1, 1):
        return "half"
    return str(c)


def _render(f: Formula, min_level: int) -> str:
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Const):
        return _const_text(f.value)
    if isinstance(f, Neg):
        text, level = "!" + _render(f.arg, _UNARY_LEVEL), _UNARY_LEVEL
    elif isinstance(f, Sqrt):
        text, level = "?" + _render(f.arg, _UNARY_LEVEL), _UNARY_LEVEL
    else:
        level = _LEVEL[f.op]
        if f.op == IMPLIES:
            left = _render(f.left, level + 1)
            right = _render(f.right, level)
        else:
            left = _render(f.left, level)
            right = _render(f.right, level + 1)
        text = f"{left} {f.op} {right}"
    if level < min_level:
        return f"({text})"
    return text


def print_formula(f: Formula) -> str:
    """Minimal-parenthesis rendering; parse(print_formula(f)) == f."""
    return _render(f, 0)


def complexity(f: Formula) -> int:
    """0 on atomic formulas, 1 + the children's total otherwise."""
    if isinstance(f, (Atom, Const)):
        return 0
    if isinstance(f, (Neg, Sqrt)):
        return 1 + complexity(f.arg)
    return 1 + complexity(f.left) + complexity(f.right)


def atoms(f: Formula) -> set[str]:
    if isinstance(f, Atom):
        return {f.name}
    if isinstance(f, Const):
        return set()
    if isinstance(f, (Neg, Sqrt)):
        return atoms(f.arg)
    return atoms(f.left) | atoms(f.right)


def is_pmv_fragment(f: Formula) -> bool:
    """True iff every square-root node wraps a propositional variable."""
    if isinstance(f, (Atom, Const)):
        return True
    if isinstance(f, Sqrt):
        return isinstance(f.arg, Atom)
    if isinstance(f, Neg):
        return is_pmv_fragment(f.arg)
    return is_pmv_fragment(f.left) and is_pmv_fragment(f.right)


def parse_theory_text(text: str) -> list[Formula]:
    """Formulas from a theory file: one per line, '#' comments ignored."""
    result = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            result.append(parse(line))
        except ParseError as exc:
            raise ParseError(
                f"theory line {lineno}: {exc}", lineno, getattr(exc, "column", 1)
            ) from None
    return result
