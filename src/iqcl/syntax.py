"""The formula language: AST, parser, printer, and structural measures.

Concrete syntax (tightest to loosest):

    unary   !  (negation)   ?  (square root)
    binary  .  (product)    *  (strong conjunction)   +  (strong disjunction)
            &  (meet)       |  (join)
            -> (implication, right associative)
            <-> (equivalence, loosest, left associative): sugar for
                (a -> b) * (b -> a), expanded at parse time

All binary connectives except ``->`` associate to the left.  Constants are
dyadic fractions such as ``3/8``; ``bot``, ``top`` and ``half`` name 0, 1
and 1/2.  All six binary connectives and both unaries are primitive AST
nodes; only ``<->`` is surface sugar.

Theory files are newline-separated formulas; ``#`` starts a comment and
blank lines are ignored.

Formulas are immutable values, equal and hashed by structure; each
compound node stores its hash.  Nodes are shared within one parse: one
call of ``parse`` or ``parse_theory_text`` (and of
``calculus.parse_proof``) returns equal subterms as one object, however
many lines they occur on.  The table that does this lives only for the
call.

A proof file in the plain form repeats each subterm's text on many
lines, so ``calculus.parse_proof`` reads its formulas span by span with a
``SpanReader``: a span whose exact text it has read before costs one
lookup, ``->`` and enclosing parentheses are split off by position, and
only what remains goes to the token parser.  A proof file in the
definitions form writes each subterm once, and ``parse_proof`` builds its
nodes through the same node table with ``shared_node``.  ``parse`` and
theory files use the token parser alone.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Union

from .algebra import SConstant

OPLUS = "+"
ODOT = "*"
IMPLIES = "->"
PRODUCT = "."
MEET = "&"
JOIN = "|"

BINARY_OPS = (PRODUCT, ODOT, OPLUS, MEET, JOIN, IMPLIES)


@dataclass(frozen=True, slots=True)
class Atom:
    name: str


@dataclass(frozen=True, slots=True)
class Const:
    value: SConstant


class _Compound:
    """Base of the compound nodes.

    Each works out its structural hash once, from its children's stored
    hashes, so hashing a formula never walks it.  The constructors set
    the slots directly, and ``==`` tries identity, then the stored hash,
    then the fields, so two shared or differently hashed nodes compare
    without a walk.  Pickling rebuilds a node from its fields, so a
    process that loads one works the hash out anew.
    """

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Neg(_Compound):
    arg: "Formula"
    _hash: int = field(init=False, repr=False, compare=False)

    def __init__(self, arg: "Formula"):
        _set_neg_arg(self, arg)
        _set_neg_hash(self, hash((Neg, arg)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Neg:
            return NotImplemented
        return self._hash == other._hash and self.arg == other.arg

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Sqrt(_Compound):
    arg: "Formula"
    _hash: int = field(init=False, repr=False, compare=False)

    def __init__(self, arg: "Formula"):
        _set_sqrt_arg(self, arg)
        _set_sqrt_hash(self, hash((Sqrt, arg)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Sqrt:
            return NotImplemented
        return self._hash == other._hash and self.arg == other.arg

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Bin(_Compound):
    op: str
    left: "Formula"
    right: "Formula"
    _hash: int = field(init=False, repr=False, compare=False)

    def __init__(self, op: str, left: "Formula", right: "Formula"):
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary connective: {op!r}")
        _set_bin_op(self, op)
        _set_bin_left(self, left)
        _set_bin_right(self, right)
        _set_bin_hash(self, hash((op, left, right)))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Bin:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.op == other.op
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return self._hash


# The frozen classes refuse ``setattr``, so each constructor sets its
# slots through their descriptors.
_set_neg_arg, _set_neg_hash = (Neg.__dict__[name].__set__ for name in ("arg", "_hash"))
_set_sqrt_arg, _set_sqrt_hash = (Sqrt.__dict__[name].__set__ for name in ("arg", "_hash"))
_set_bin_op, _set_bin_left, _set_bin_right, _set_bin_hash = (
    Bin.__dict__[name].__set__ for name in ("op", "left", "right", "_hash")
)

Formula = Union[Atom, Const, Neg, Sqrt, Bin]

BOT = Const(SConstant(0, 0))
TOP = Const(SConstant(1, 0))
CHALF = Const(SConstant(1, 1))

_ALIASES = {"bot": BOT, "top": TOP, "half": CHALF}


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# Binding power of each binary connective, loosest first; the parser and
# the printer both read it.  ``<->`` is parse-time sugar and never reaches
# the printer, and ``->`` is the one right-associative level.
_LEVEL = {"<->": 0, IMPLIES: 1, JOIN: 2, MEET: 3, OPLUS: 4, ODOT: 5, PRODUCT: 6}
_UNARY_LEVEL = 7
_UNARY = {"!": Neg, "?": Sqrt}
# The parser's view of the table: a token's level and the module's own
# string for the connective, which every Bin then shares.
_BINARY = {op: (level, op) for op, level in _LEVEL.items()}
_NOT_BINARY = (-1, None)

# One match per token, and an empty one at the end of the input.  findall
# skips whatever no token matches, so ``_Parser`` checks by length that it
# skipped only whitespace.
_TOKEN_RE = re.compile(r"<->|->|[!?.*+&|()]|\d+(?:/\d+)?|[A-Za-z][A-Za-z0-9_]*|\Z")


class _Parser:
    """Precedence climbing over the tokens of ``text[start:end]``.

    Tokens are plain strings.  Offsets, lines and columns are worked out
    only when a ``ParseError`` is raised.

    Every node comes from ``memo``, so equal subterms come back as one
    object.  A leaf is keyed by its token, a compound node by its
    connective and the ids of its children.  An id is safe as a key
    because each keyed child is itself a node in the memo, and so stays
    alive for as long as the memo does.
    """

    def __init__(self, text: str, start: int, end: int, line: int, memo: dict):
        self.text, self.start, self.end, self.line = text, start, end, line
        self.memo = memo
        self.tokens = _TOKEN_RE.findall(text, start, end)
        self.pos = 0
        if len("".join(self.tokens)) != len("".join(text[start:end].split())):
            at = start
            for m in _TOKEN_RE.finditer(text, start, end):
                stray = text[at:m.start()].lstrip()
                if stray:
                    self.fail(f"unexpected character {stray[0]!r}", m.start() - len(stray))
                at = m.end()

    def fail(self, message: str, at: int):
        """Raise at offset ``at`` of the text."""
        text = self.text
        raise ParseError(
            message, self.line + text.count("\n", 0, at), at - text.rfind("\n", 0, at)
        )

    def fail_at_token(self, message: str, index: int):
        matches = _TOKEN_RE.finditer(self.text, self.start, self.end)
        self.fail(message, next(islice(matches, index, None)).start())

    def expr(self, min_level: int) -> Formula:
        """One operand, then every connective that binds at ``min_level`` or tighter."""
        tokens, memo = self.tokens, self.memo
        tok = tokens[self.pos]
        self.pos += 1
        left = memo.get(tok)
        if left is not None:
            pass
        elif tok.isidentifier():
            left = memo[tok] = _ALIASES.get(tok) or Atom(tok)
        elif tok == "(":
            left = self.expr(0)
            if tokens[self.pos] != ")":
                self.fail_at_token("expected ')'", self.pos)
            self.pos += 1
        elif tok in _UNARY:
            left = shared_node(memo, tok, self.expr(_UNARY_LEVEL))
        elif tok[:1].isdigit():
            num, _, den = tok.partition("/")
            try:
                left = Const(SConstant.from_fraction(Fraction(int(num), int(den or 1))))
            except ValueError as exc:
                self.fail_at_token(str(exc), self.pos - 1)
            except ZeroDivisionError:
                self.fail_at_token(f"zero denominator: {tok}", self.pos - 1)
            memo[tok] = left
        else:
            self.fail_at_token(f"expected a formula, found {tok or 'end of input'!r}", self.pos - 1)
        while True:
            level, op = _BINARY.get(tokens[self.pos], _NOT_BINARY)
            if level < min_level:
                return left
            self.pos += 1
            right = self.expr(level if op == IMPLIES else level + 1)
            if level:
                left = shared_node(memo, op, left, right)
            else:
                left = shared_node(
                    memo, ODOT, shared_node(memo, IMPLIES, left, right), shared_node(memo, IMPLIES, right, left)
                )


def shared_node(memo: dict, op: str, left: Formula, right: Formula | None = None) -> Formula:
    """The node of connective ``op`` over its operands, from the node table ``memo``.

    ``op`` is ``!``, ``?`` (with no ``right``) or a binary connective.  A
    node already in ``memo`` is returned as it is; a new one is made and
    stored, so that equal nodes built through one table are one object.
    """
    if right is None:
        key = (op, id(left))
        return memo.get(key) or memo.setdefault(key, _UNARY[op](left))
    key = (op, id(left), id(right))
    return memo.get(key) or memo.setdefault(key, Bin(op, left, right))


def parse_span(text: str, start: int, end: int, line: int, memo: dict) -> Formula:
    """Parse ``text[start:end]``, whose text begins on line ``line``.

    A ``ParseError`` gives the line and the column in ``text``, so a file
    reader passes a raw line and the span of its formula.  ``memo`` is the
    node table of the whole input: a reader passes one dict for all of
    its lines, so a subterm shared between lines is one object.
    """
    parser = _Parser(text, start, end, line, memo)
    try:
        f = parser.expr(0)
    except RecursionError:
        parser.fail_at_token("formula nested too deeply", parser.pos - 1)
    tok = parser.tokens[parser.pos]
    if tok:  # not the empty end-of-input token
        parser.fail_at_token(f"unexpected trailing input {tok!r}", parser.pos)
    return f


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula tree."""
    return parse_span(text, 0, len(text), 1, {})


# Frames a span reader leaves spare below the recursion limit, for the
# calls that ``parse_span`` makes on top of its own recursion.
_SPARE_FRAMES = 50
_PAREN_RE = re.compile(r"[()]")


class _NotFast(Exception):
    """A line the span reader leaves to ``parse_span`` whole."""


# The deepest nesting of a group that a span reader matches with one
# regex call; it scans a deeper one paren by paren.
_GROUP_DEPTH = 16


def _group_pattern(depth: int) -> str:
    """A regex for a parenthesised group nested at most ``depth`` deep.

    Its repeats are possessive, so a failed match, such as at a deeper
    group, takes one pass.
    """
    pattern = r"\([^()]*+\)"
    for _ in range(depth - 1):
        pattern = rf"\((?:[^()]++|{pattern})*+\)"
    return pattern


_GROUP_RE = re.compile(_group_pattern(_GROUP_DEPTH))


class SpanReader:
    """Reads the formula spans of many plain-text lines, each distinct subterm text once.

    Beside the node table of ``parse_span``, shared by every line, it keeps
    a span table: the exact text of each span read so far, with its node
    and a bound on the recursion depth ``parse_span`` would need for it.
    A span, with no whitespace at either end, is read by the first rule
    that applies:

    - a text already in the table is its node;
    - one pair of parentheses that encloses the whole span is stripped;
    - the first ``->`` outside parentheses splits the span: ``->`` is the
      loosest connective but ``<->``, and associates to the right;
    - anything else goes to ``parse_span``.

    Parentheses are matched only where a rule asks for the ')' of a
    '(': the one that opens a span, and each that ``->`` search jumps
    over.  The groups inside a known operand are never matched.

    A line holding ``<->``, with unbalanced parentheses or an empty span,
    or with a span that ``parse_span`` rejects, is left to ``parse_span``
    whole: ``read`` returns None.  So is a line for which ``parse_span``
    might need more frames than the recursion limit leaves, counted from
    where the reader was made, so that a known span lets no line through
    that ``parse_span`` finds nested too deeply.  Each line thus gives the
    node, or the error, that ``parse_span`` gives.
    """

    def __init__(self):
        self.memo: dict = {}
        self.spans: dict[str, tuple[Formula, int]] = {}
        # The line being read, the end of its formula, and the ')' of each
        # '(' that ``_close`` has matched so far.
        self.text, self.end, self.closing = "", 0, {}
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        self.budget = sys.getrecursionlimit() - depth - _SPARE_FRAMES

    def read(self, text: str, start: int, end: int) -> Formula | None:
        """The formula of ``text[start:end]``, or None to leave the line to ``parse_span``."""
        lstripped = text[start:end].lstrip()
        key = lstripped.rstrip()
        found = self.spans.get(key)
        if found is None and key and "<->" not in key:
            a = end - len(lstripped)
            self.text, self.end, self.closing = text, a + len(key), {}
            try:
                found = self._read(a, a + len(key), key)
            except (ParseError, RecursionError, _NotFast):
                return None
        if found is None or found[1] > self.budget:
            return None
        return found[0]

    def _read(self, a: int, b: int, key: str) -> tuple[Formula, int]:
        """The node of ``key``, which is ``self.text[a:b]``, and a bound on
        the frames ``parse_span`` would recurse through to read it.

        Stripped pairs and right operands are followed in a loop, so only
        left operands recurse.
        """
        text, spans, memo = self.text, self.spans, self.memo
        pending = []  # (key, left node or None for a stripped pair, its depth bound)
        while (found := spans.get(key)) is None:
            if text[a] == "(" and self._close(a) == b - 1:
                pending.append((key, None, 0))
                lstripped = text[a + 1 : b - 1].lstrip()
                key = lstripped.rstrip()
                a = b - 1 - len(lstripped)
                b = a + len(key)
            elif (k := self._arrow(a, b)) >= 0:
                left = text[a:k].rstrip()
                if not left:
                    raise _NotFast
                pending.append((key, *self._read(a, a + len(left), left)))
                key = text[k + 2 : b].lstrip()
                a = b - len(key)
            else:
                # A leaf: its depth bound is at most one frame per character.
                found = spans[key] = parse_span(text, a, b, 1, memo), len(key)
                break
            if not key:
                raise _NotFast
        node, depth = found
        for key, left, left_depth in reversed(pending):
            if left is None:
                depth += 1
            else:
                node = shared_node(memo, IMPLIES, left, node)
                depth = max(left_depth, depth + 1)
            spans[key] = node, depth
        return node, depth

    def _close(self, p: int) -> int:
        """The offset of the ')' that closes the '(' at ``p`` in the line's formula.

        A group nested at most ``_GROUP_DEPTH`` deep is matched by one
        regex call.  A deeper one is scanned, which matches every '(' up
        to that ')'.
        """
        closing = self.closing
        found = closing.get(p)
        if found is not None:
            return found
        if (m := _GROUP_RE.match(self.text, p, self.end)) is not None:
            found = closing[p] = m.end() - 1
            return found
        opened = []
        for m in _PAREN_RE.finditer(self.text, p, self.end):
            if m.group() == "(":
                opened.append(m.start())
            else:
                found = closing[opened.pop()] = m.start()
                if not opened:
                    return found
        raise _NotFast

    def _arrow(self, a: int, b: int) -> int:
        """The offset of the first '->' outside parentheses in ``self.text[a:b]``, or -1."""
        text = self.text
        while (k := text.find(IMPLIES, a, b)) >= 0:
            p = text.find("(", a, k)
            if p < 0:
                break
            a = self._close(p) + 1
        return k


def _const_text(c: SConstant) -> str:
    if c == SConstant(0, 0):
        return "bot"
    if c == SConstant(1, 0):
        return "top"
    if c == SConstant(1, 1):
        return "half"
    return str(c)


def _render(f: Formula, min_level: int, memo: dict) -> str:
    """``f``'s text, in parentheses if it binds looser than ``min_level``.

    ``memo`` maps each subterm rendered so far to its bare text and level,
    so a subterm that recurs is rendered once.
    """
    found = memo.get(f)
    if found is None:
        if isinstance(f, Atom):
            found = f.name, _UNARY_LEVEL
        elif isinstance(f, Const):
            found = _const_text(f.value), _UNARY_LEVEL
        elif isinstance(f, Neg):
            found = "!" + _render(f.arg, _UNARY_LEVEL, memo), _UNARY_LEVEL
        elif isinstance(f, Sqrt):
            found = "?" + _render(f.arg, _UNARY_LEVEL, memo), _UNARY_LEVEL
        else:
            level = _LEVEL[f.op]
            if f.op == IMPLIES:
                left = _render(f.left, level + 1, memo)
                right = _render(f.right, level, memo)
            else:
                left = _render(f.left, level, memo)
                right = _render(f.right, level + 1, memo)
            found = f"{left} {f.op} {right}", level
        memo[f] = found
    text, level = found
    if level < min_level:
        return f"({text})"
    return text


def print_formula(f: Formula, memo: dict | None = None) -> str:
    """Minimal-parenthesis rendering; parse(print_formula(f)) == f.

    A caller that prints many formulas with shared subterms may pass one
    ``memo`` dict for all of them.
    """
    return _render(f, 0, {} if memo is None else memo)


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


def is_atom_name(name: str) -> bool:
    """True iff ``name`` reads back as the atom of that name."""
    try:
        return parse(name) == Atom(name)
    except ParseError:
        return False


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
    result, memo = [], {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        end = len(raw.split("#", 1)[0].rstrip())
        if end:
            result.append(parse_span(raw, 0, end, lineno, memo))
    return result
