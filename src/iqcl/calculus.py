"""Hilbert-style proof machinery: axiom recognition, checking, deduction.

The axiom base is the 23 schemata W1-W4, E1-E6, P1-P5, S1-S3, Q1-Q5,
stated by the rows of two tables: ``_PLAIN_SCHEMATA`` (implications) and
``_EQUATIONS`` (defining equations).  Pattern atoms ``a``, ``b``, ``c``
match any formula and ``r``, ``s``, ``t``, ``u`` only a constant; a row
may carry a side condition on its binding (the value of ``r op t`` in
S1-S3, the bound on ``s`` in Q5).  Equations are recognised in three
sound forms: the full equivalence, each implication direction, and
single-subterm rewrite implications along the equation (the
definitional reading; the literal reading leaves the equivalence axioms
inert under modus ponens, so none of the standard derived lemmas would
be provable).  Rewrites along equations that change the square-root
component of the value pair are refused underneath a square root.

Proof steps are justified by an axiom schema, theory membership, or
modus ponens referring to two earlier steps.  An axiom step is matched
against the schema it names and no other; a membership step that gives
an index must carry that member of the theory.  ``ProofBuilder`` carries a
small schematic lemma library (self-implication, exchange, double
negation, contraposition, residuation) from which ``deduction_transform``
assembles fully checkable proofs.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Union

from .algebra import mv_implies, mv_odot, pmv_product, s_above_q5_bound
from .semantics import (
    RelevanceOptions,
    SearchResult,
    Theory,
    certifies_no_model,
    eval_prob,
    first_hit,
    relevance_degree,
    sample_models,
)
from .syntax import (
    BINARY_OPS,
    BOT,
    IMPLIES,
    ODOT,
    TOP,
    Atom,
    Bin,
    Const,
    Formula,
    Neg,
    SpanReader,
    Sqrt,
    atoms as formula_atoms,
    parse,
    parse_span,
    print_formula,
    shared_node,
)

AXIOM_IDS = (
    "W1", "W2", "W3", "W4",
    "E1", "E2", "E3", "E4", "E5", "E6",
    "P1", "P2", "P3", "P4", "P5",
    "S1", "S2", "S3",
    "Q1", "Q2", "Q3", "Q4", "Q5",
)

_CONST_METAVARS = frozenset("rstu")
_METAVARS = frozenset("abc") | _CONST_METAVARS


def _imp(x: Formula, y: Formula) -> Formula:
    return Bin(IMPLIES, x, y)


_pattern = parse  # a schema pattern is a formula over the metavariables


def _match(pattern: Formula, f: Formula, binding: dict[str, Formula]) -> bool:
    if isinstance(pattern, Atom) and pattern.name in _METAVARS:
        if pattern.name in _CONST_METAVARS and not isinstance(f, Const):
            return False
        bound = binding.get(pattern.name)
        if bound is None:
            binding[pattern.name] = f
            return True
        return bound == f
    if type(f) is not type(pattern):
        return False
    if isinstance(pattern, Bin):
        return (
            pattern.op == f.op
            and _match(pattern.left, f.left, binding)
            and _match(pattern.right, f.right, binding)
        )
    if isinstance(pattern, (Neg, Sqrt)):
        return _match(pattern.arg, f.arg, binding)
    return pattern == f


def _value_of(fn):
    """The side condition u == fn(r, t) on the constants bound to r, t, u."""
    return lambda b: b["u"].value.value == fn(b["r"].value.value, b["t"].value.value)


# A row's side condition, when not None, must hold of the binding.
_PLAIN_SCHEMATA = (
    ("W1", _pattern("a -> (b -> a)"), None),
    ("W2", _pattern("(a -> b) -> ((b -> c) -> (a -> c))"), None),
    ("W3", _pattern("(!a -> !b) -> (b -> a)"), None),
    ("W4", _pattern("((a -> b) -> b) -> ((b -> a) -> a)"), None),
    ("P1", _pattern("(a . b) -> (b . a)"), None),
    ("P3", _pattern("(a . b) -> b"), None),
    ("Q5", _pattern("(1/4 . a) + (1/4 . ?a) -> s"), lambda b: s_above_q5_bound(b["s"].value)),
)

# Defining equations of the equivalence-shaped schemata.  ``pair_exact``
# marks equations whose two sides have identical (value, root-value)
# pairs under every model; only those may be rewritten under a square
# root.  E1/E2 each carry the dual definitional equation as well, and Q3
# has one equation per binary connective.
_EQUATIONS: list[tuple[str, Formula, Formula, bool, Callable[[dict], bool] | None]] = [
    ("E1", _pattern("a * b"), _pattern("!(!a + !b)"), True, None),
    ("E1", _pattern("a + b"), _pattern("!(!a * !b)"), True, None),
    ("E2", _pattern("a -> b"), _pattern("!(a * !b)"), True, None),
    ("E2", _pattern("a * b"), _pattern("!(a -> !b)"), True, None),
    ("E3", _pattern("!a"), _pattern("a -> bot"), False, None),
    ("E4", _pattern("a & b"), _pattern("a * (a -> b)"), True, None),
    ("E5", _pattern("a | b"), _pattern("(a -> b) -> b"), True, None),
    ("E6", _pattern("!bot"), _pattern("top"), True, None),
    ("P2", _pattern("top . a"), _pattern("a"), False, None),
    ("P4", _pattern("(a . b) . c"), _pattern("a . (b . c)"), True, None),
    ("P5", _pattern("a . (b * !c)"), _pattern("(a . b) * !(a . c)"), True, None),
    ("S1", _pattern("r * t"), _pattern("u"), True, _value_of(mv_odot)),
    ("S2", _pattern("r -> t"), _pattern("u"), True, _value_of(mv_implies)),
    ("S3", _pattern("r . t"), _pattern("u"), True, _value_of(pmv_product)),
    ("Q1", _pattern("??a"), _pattern("!a"), True, None),
    ("Q2", _pattern("?!a"), _pattern("!?a"), True, None),
    *(("Q3", _pattern(f"?(a {op} b)"), _pattern("half"), False, None) for op in BINARY_OPS),
    ("Q4", _pattern("?s"), _pattern("half"), False, None),
]

# The schemata that ``_relate`` recognises.
_RELATED = frozenset(sid for sid, *_ in _EQUATIONS)


def _relate(
    x: Formula, y: Formula, schema: str | None
) -> list[tuple[str, dict[str, Formula], bool]]:
    """Schema instances relating x to y as equation sides (either way);
    with ``schema``, only the instances of that one schema."""
    found = []
    for sid, lhs, rhs, pair_exact, condition in _EQUATIONS:
        if schema not in (None, sid):
            continue
        for s1, s2 in ((x, y), (y, x)):
            binding: dict[str, Formula] = {}
            if (
                _match(lhs, s1, binding)
                and _match(rhs, s2, binding)
                and (condition is None or condition(binding))
            ):
                found.append((sid, binding, pair_exact))
    return found


def _diff(x: Formula, y: Formula, under_sqrt: bool = False):
    """The unique differing subterm pair of x and y, or None if equal.

    Returns (sub_x, sub_y, under_sqrt) where ``under_sqrt`` notes a
    square root somewhere above the position.  When more than one child
    differs the difference is attributed to the enclosing node.
    """
    if x == y:
        return None
    if type(x) is type(y):
        if isinstance(x, (Neg, Sqrt)):
            return _diff(x.arg, y.arg, under_sqrt or isinstance(x, Sqrt))
        if isinstance(x, Bin) and x.op == y.op:
            dl = _diff(x.left, y.left, under_sqrt)
            dr = _diff(x.right, y.right, under_sqrt)
            if dl is not None and dr is not None:
                return (x, y, under_sqrt)
            return dl if dl is not None else dr
    return (x, y, under_sqrt)


def match_axiom(
    f: Formula, schema: str | None = None
) -> list[tuple[str, dict[str, Formula]]]:
    """All axiom schemata (with substitutions) of which f is an instance.

    With ``schema``, only the rows of that one schema are tried, so the
    result is the full result's entries for that schema.
    """
    matches: list[tuple[str, dict[str, Formula]]] = []

    def add(sid: str, binding: dict[str, Formula]):
        entry = (sid, binding)
        if entry not in matches:
            matches.append(entry)

    for sid, pattern, condition in _PLAIN_SCHEMATA:
        binding: dict[str, Formula] = {}
        if (
            schema in (None, sid)
            and _match(pattern, f, binding)
            and (condition is None or condition(binding))
        ):
            add(sid, binding)
    if schema is not None and schema not in _RELATED:
        return matches
    if (
        isinstance(f, Bin)
        and f.op == ODOT
        and isinstance(f.left, Bin)
        and f.left.op == IMPLIES
        and isinstance(f.right, Bin)
        and f.right.op == IMPLIES
        and f.left.left == f.right.right
        and f.left.right == f.right.left
    ):
        for sid, binding, _ in _relate(f.left.left, f.left.right, schema):
            add(sid, binding)
    if isinstance(f, Bin) and f.op == IMPLIES:
        d = _diff(f.left, f.right)
        if d is not None:
            sub_x, sub_y, under_sqrt = d
            for sid, binding, pair_exact in _relate(sub_x, sub_y, schema):
                if under_sqrt and not pair_exact:
                    continue
                add(sid, binding)
    return matches


# ---------------------------------------------------------------------------
# Proofs


@dataclass(frozen=True)
class AxiomRef:
    schema: str


@dataclass(frozen=True)
class MemberRef:
    index: int | None = None


@dataclass(frozen=True)
class MpRef:
    minor: int  # step proving phi
    major: int  # step proving phi -> conclusion


Justification = Union[AxiomRef, MemberRef, MpRef]


@dataclass(frozen=True)
class ProofStep:
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class Proof:
    steps: tuple[ProofStep, ...]

    @property
    def conclusion(self) -> Formula:
        return self.steps[-1].formula

    def __len__(self):
        return len(self.steps)


class ProofError(ValueError):
    def __init__(self, step: int | None, reason: str):
        location = f"step {step}" if step is not None else "proof"
        super().__init__(f"{location}: {reason}")
        self.step = step
        self.reason = reason


def format_justification(j: Justification) -> str:
    if isinstance(j, AxiomRef):
        return f"axiom {j.schema}"
    if isinstance(j, MemberRef):
        return "hyp" if j.index is None else f"hyp {j.index}"
    return f"mp {j.minor} {j.major}"


def format_proof(proof: Proof) -> str:
    """``proof`` in the plain form: one ``n: formula [justification]`` line a step."""
    lines, memo = [], {}  # one memo for the proof: see syntax.print_formula
    for n, step in enumerate(proof.steps, start=1):
        lines.append(
            f"{n}: {print_formula(step.formula, memo)} [{format_justification(step.justification)}]"
        )
    return "\n".join(lines) + "\n"


def format_proof_definitions(proof: Proof) -> str:
    """``proof`` in the definitions form, each distinct compound subterm written once.

    Its line is ``$k = X op Y``, ``$k = !X`` or ``$k = ?X``, whose
    operands are ``$j`` defined above, atoms or constants.  The ``$k``
    are numbered 1, 2, ... in order, each written just before the first
    step that needs it.  A step line ``n: $k [justification]`` names its
    formula, or writes an atom or a constant inline.  A formula of more
    than ``_MAX_DEFINED_NODES`` nodes, which ``parse_proof`` refuses as
    a definition, is written out in full on its step line.  So
    ``parse_proof`` reads the text back to equal steps whenever it reads
    ``format_proof``'s.
    """
    lines: list[str] = []
    # Each subterm met so far: its $k or leaf text, or None if it is too
    # large to define, and its number of nodes.
    names: dict[Formula, tuple[str | None, int]] = {}
    memo: dict = {}  # for the formulas written out: see syntax.print_formula

    def name(f: Formula) -> tuple[str | None, int]:
        found = names.get(f)
        if found is None:
            if isinstance(f, Bin):
                (left, a), (right, b) = name(f.left), name(f.right)
                body, size = left and right and f"{left} {f.op} {right}", a + b + 1
            elif isinstance(f, (Neg, Sqrt)):
                arg, size = name(f.arg)
                body, size = arg and ("!" if isinstance(f, Neg) else "?") + arg, size + 1
            else:
                found = names[f] = print_formula(f), 1
                return found
            if body is None or size > _MAX_DEFINED_NODES:
                found = names[f] = None, size
            else:
                found = names[f] = f"${next(numbers)}", size
                lines.append(f"{found[0]} = {body}")
        return found

    numbers = itertools.count(1)
    for n, step in enumerate(proof.steps, start=1):
        text = name(step.formula)[0] or print_formula(step.formula, memo)
        lines.append(f"{n}: {text} [{format_justification(step.justification)}]")
    return "\n".join(lines) + "\n"


# The head of a step line: its number, and the colon and spaces after it.
_STEP_HEAD_RE = re.compile(r"\s*([0-9]+):\s*")


def _step_fields(line: str) -> tuple[str, int, int, str] | None:
    r"""The step number, formula span and justification of a step line, or None.

    They are the groups of ``\s*([0-9]+):\s*(.*?)\s*\[([^\]]*)\]\s*$``
    on a line without ``\n``, and the formula's span is that of group 2.
    The justification ends at the line's last non-space character, a
    ``]``; it opens at the first ``[`` after the ``]`` before that, which
    ``str.rfind`` and ``str.find`` place without a trial at every character.
    """
    head = _STEP_HEAD_RE.match(line)
    if head is None:
        return None
    start = head.end()
    close = len(line.rstrip()) - 1
    if close < start or line[close] != "]":
        return None
    opening = line.find("[", max(line.rfind("]", start, close) + 1, start), close)
    if opening < 0:
        return None
    end = opening
    while end > start and line[end - 1].isspace():
        end -= 1
    return head[1], start, end, line[opening + 1 : close]


def _is_number(token: str) -> bool:
    digits = token.removeprefix("-")  # int() also takes "_", "+" and non-ASCII digits
    return digits.isascii() and digits.isdigit()


# A definition line, ``$k = X op Y``, ``$k = !X`` or ``$k = ?X``, each
# operand a ``$j``, an atom or a constant.
_OPERAND = r"(\$[0-9]+|[A-Za-z][A-Za-z0-9_]*|[0-9]+(?:/[0-9]+)?)"
_DEFINITION_RE = re.compile(
    rf"\s*\$([0-9]+)\s*=\s*(?:([!?])\s*{_OPERAND}|{_OPERAND}\s*(->|[.*+&|])\s*{_OPERAND})\s*"
)
# A step line as the writers space it, its justification one that
# ``_justification`` reads the same; any other line takes ``_step_fields``.
_FAST_STEP_RE = re.compile(
    r"([0-9]+): ([^\s\[\]](?:[^\[\]]*[^\s\[\]])?) \[(?:mp ([0-9]+) ([0-9]+)|axiom ([^\s\[\]]+)|hyp(?: ([0-9]+))?)\]"
)
_CONNECTIVES = dict(zip(BINARY_OPS, BINARY_OPS))
# The most nodes a definition may expand to: the built proofs' largest
# formula has 475, and a plain-text line of this many is about 200 KB.
# Without a bound, 64 lines of ``$k = $j -> $j`` would define 2**64 nodes,
# which a tree walk such as ``eval_prob`` could not finish.
_MAX_DEFINED_NODES = 1 << 16


def _justification(text: str, lineno: int, axioms: dict[str, AxiomRef]) -> Justification:
    """The justification written ``text``; ``axioms`` holds one AxiomRef per schema."""
    tokens = text.split()
    if not tokens:
        raise ProofError(None, f"line {lineno}: empty justification")
    tag = tokens[0]
    if tag == "axiom" and len(tokens) == 2:
        return axioms.get(tokens[1]) or axioms.setdefault(tokens[1], AxiomRef(tokens[1]))
    if tag == "hyp" and len(tokens) in (1, 2) and all(map(_is_number, tokens[1:])):
        return MemberRef(int(tokens[1]) if len(tokens) == 2 else None)
    if tag == "mp" and len(tokens) == 3 and all(map(_is_number, tokens[1:])):
        return MpRef(int(tokens[1]), int(tokens[2]))
    raise ProofError(None, f"line {lineno}: bad justification {text!r}")


def parse_proof(text: str) -> Proof:
    """The proof in ``text``: one ``n: formula [justification]`` step a line.

    ``#`` starts a comment and blank lines are ignored.  A line that
    starts with ``$`` defines a node (see ``format_proof_definitions``), and a step
    whose formula is one ``$k`` has that node; a file may mix such steps
    with plain ones.  One ``syntax.SpanReader`` reads the plain formulas of
    the file span by span, so a subterm whose text recurs is read once; a
    line it leaves goes to ``syntax.parse_span`` whole.  Either way each
    formula, its shared nodes and any ``ParseError``, with its line and
    column, are those that ``parse_span`` gives with one node table for
    the file.  Definitions build their nodes through the same table, so
    a subterm is one object however it is written.
    """
    steps: list[ProofStep] = []
    reader = SpanReader()  # one node table and one span table for the file
    memo = reader.memo
    count = 0  # of definitions read
    # Each operand read so far, "$k" or a leaf's text: its node, nesting
    # depth and number of nodes.
    operands: dict[str, tuple[Formula, int, int]] = {}
    # One AxiomRef per schema named: a 1 097-step proof holds 67 KiB less.
    axioms: dict[str, AxiomRef] = {}

    def reference(token: str, lineno: int) -> tuple[Formula, int, int]:
        """The definition that ``token``, a ``$k`` not in ``operands``, refers to."""
        k = int(token[1:])
        if not 0 < k <= count:
            raise ProofError(None, f"line {lineno}: {token} is not defined above")
        return operands[f"${k}"]  # written with leading zeros

    def operand(m: re.Match, group: int, lineno: int) -> tuple[Formula, int, int]:
        """The operand in ``group`` of ``m``, on line ``lineno``, that is not in ``operands``."""
        token = m[group]
        if token[0] == "$":
            return reference(token, lineno)
        found = operands[token] = parse_span(m.string, *m.span(group), lineno, memo), 0, 1
        return found

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        head = line.lstrip()
        if not head:
            continue
        if head[0] == "$":
            m = _DEFINITION_RE.fullmatch(line)
            if m is None:
                raise ProofError(
                    None, f"line {lineno}: not a definition $k = X op Y, !X or ?X with each"
                    f" operand a $j, an atom or a constant: {raw!r}"
                )
            k, unary, arg, left, op, right = m.groups()
            if int(k) != count + 1:
                raise ProofError(None, f"line {lineno}: ${k} defined, expected ${count + 1}")
            if unary:
                arg, depth, size = operands.get(arg) or operand(m, 3, lineno)
                node = shared_node(memo, unary, arg)
            else:
                left, depth, size = operands.get(left) or operand(m, 4, lineno)
                right, right_depth, right_size = operands.get(right) or operand(m, 6, lineno)
                node = shared_node(memo, _CONNECTIVES[op], left, right)
                depth, size = max(depth, right_depth), size + right_size
            count += 1  # only now, so that an operand cannot name the line's own $k
            if depth >= reader.budget:
                raise ProofError(None, f"line {lineno}: ${count} is nested too deeply")
            if size >= _MAX_DEFINED_NODES:
                raise ProofError(None, f"line {lineno}: ${count} has more than {_MAX_DEFINED_NODES} nodes")
            operands[f"${count}"] = node, depth + 1, size + 1
            continue
        fast = _FAST_STEP_RE.fullmatch(line)
        if fast is not None:
            number, span, minor, major, schema, member = fast.groups()
            start, end = fast.span(2)
        elif (fields := _step_fields(line)) is not None:
            number, start, end, just_text = fields
            span = line[start:end]
        else:
            raise ProofError(None, f"line {lineno}: not a proof step: {raw!r}")
        if int(number) != len(steps) + 1:
            raise ProofError(
                None, f"line {lineno}: step number {number}, expected {len(steps) + 1}"
            )
        if span[0] == "$" and span[1:].isdigit() and span.isascii():
            formula = (operands.get(span) or reference(span, lineno))[0]
        else:
            formula = reader.read(raw, start, end) or parse_span(raw, start, end, lineno, memo)
        if fast is None:
            justification = _justification(just_text, lineno, axioms)
        elif minor is not None:
            justification = MpRef(int(minor), int(major))
        elif schema is not None:
            justification = axioms.get(schema) or axioms.setdefault(schema, AxiomRef(schema))
        else:
            justification = MemberRef(member and int(member))
        steps.append(ProofStep(formula, justification))
    if not steps:
        raise ProofError(None, "empty proof")
    return Proof(tuple(steps))


def check_proof(
    theory: Theory,
    proof: Proof,
    goal: Formula | None = None,
    semantic_models: int = 0,
    seed: int = 0,
) -> None:
    """Validate every step; raises ProofError with the offending step.

    With ``semantic_models`` > 0 the checker additionally samples that
    many exact models of the theory and re-evaluates every step to 1.
    """
    for n, step in enumerate(proof.steps, start=1):
        f, j = step.formula, step.justification
        if isinstance(j, AxiomRef):
            if j.schema not in AXIOM_IDS:
                raise ProofError(n, f"unknown axiom schema {j.schema!r}")
            if not match_axiom(f, j.schema):
                raise ProofError(
                    n, f"{print_formula(f)} is not an instance of {j.schema}"
                )
        elif isinstance(j, MemberRef):
            if j.index is not None:
                i = j.index
                if not (1 <= i <= len(theory.members) and theory.members[i - 1] == f):
                    raise ProofError(n, f"{print_formula(f)} is not member {i} of the theory")
            elif f not in theory:
                raise ProofError(n, f"{print_formula(f)} is not a member of the theory")
        elif isinstance(j, MpRef):
            if not (1 <= j.minor < n and 1 <= j.major < n):
                raise ProofError(n, f"mp references ({j.minor}, {j.major}) not strictly earlier")
            major_f = proof.steps[j.major - 1].formula
            minor_f = proof.steps[j.minor - 1].formula
            if not (
                isinstance(major_f, Bin)
                and major_f.op == IMPLIES
                and major_f.left == minor_f
                and major_f.right == f
            ):
                raise ProofError(n, "mp shape mismatch")
        else:
            raise ProofError(n, f"unknown justification {j!r}")
    if goal is not None and proof.conclusion != goal:
        raise ProofError(len(proof.steps), "conclusion does not match the goal")
    if semantic_models > 0:
        extra = set()
        for step in proof.steps:
            extra |= formula_atoms(step.formula)
        models = sample_models(theory, semantic_models, seed=seed, extra_atoms=extra)
        for model in models:
            for n, step in enumerate(proof.steps, start=1):
                u, _ = eval_prob(model, step.formula)
                if u != 1:
                    raise ProofError(
                        n, f"step value {u} under a sampled model of the theory"
                    )


def formula_power(alpha: Formula, n: int) -> Formula:
    """alpha (*) ... (*) alpha, n times, left nested."""
    if n < 1:
        raise ValueError("powers start at 1")
    result = alpha
    for _ in range(n - 1):
        result = Bin(ODOT, result, alpha)
    return result


def _nested(alpha: Formula, f: Formula, n: int) -> Formula:
    for _ in range(n):
        f = _imp(alpha, f)
    return f


def _lemma(method):
    """``method`` run once per builder and distinct arguments.

    Steps are deduplicated by formula, so a repeated call would emit no
    step and return the index it returned the first time.  The builder's
    memo returns that index without building the lemma's formulas again.
    """

    @functools.wraps(method)
    def lemma(self, *args):
        key = (method, *args)
        found = self._lemmas.get(key)
        if found is None:
            found = self._lemmas[key] = method(self, *args)
        return found

    return lemma


class ProofBuilder:
    """Accumulates axiom/member/MP steps; lemma methods return the index
    (1-based) of the step proving their schematic conclusion.

    Steps are deduplicated by formula, so shared sub-derivations are
    emitted once, and a lemma called again with equal arguments returns
    its step from a memo, without building it again.  Contraction is
    unavailable in this calculus; nothing here assumes it.
    """

    def __init__(self, theory: Theory | None = None):
        self.theory = theory or Theory()
        self.steps: list[ProofStep] = []
        self._index: dict[Formula, int] = {}
        self._lemmas: dict[tuple, int] = {}  # see _lemma

    def proof(self) -> Proof:
        return Proof(tuple(self.steps))

    def formula_at(self, i: int) -> Formula:
        return self.steps[i - 1].formula

    def _add(self, formula: Formula, justification: Justification) -> int:
        existing = self._index.get(formula)
        if existing is not None:
            return existing
        self.steps.append(ProofStep(formula, justification))
        self._index[formula] = len(self.steps)
        return len(self.steps)

    def axiom(self, formula: Formula, schema: str) -> int:
        return self._add(formula, AxiomRef(schema))

    def restate_last(self, index: int) -> int:
        """Repeat an earlier step so its formula becomes the conclusion.

        Deduplication can leave the goal step in the middle of the
        sequence; a proof may restate a formula, so the duplicate simply
        reuses the original justification (its references stay earlier).
        The formula's step is then the new one, so the lemma memo, which
        may hold the old one, is cleared.
        """
        step = self.steps[index - 1]
        if self.steps[-1].formula == step.formula:
            return len(self.steps)
        self.steps.append(step)
        self._index[step.formula] = len(self.steps)
        self._lemmas.clear()
        return len(self.steps)

    def member(self, formula: Formula) -> int:
        if formula not in self.theory:
            raise ValueError(f"{print_formula(formula)} is not in the theory")
        return self._add(formula, MemberRef())

    def mp(self, minor: int, major: int) -> int:
        major_f = self.formula_at(major)
        if not (isinstance(major_f, Bin) and major_f.op == IMPLIES):
            raise ValueError("major premise is not an implication")
        if major_f.left != self.formula_at(minor):
            raise ValueError("minor premise does not match the major antecedent")
        return self._add(major_f.right, MpRef(minor, major))

    # -- axiom instance shorthands ------------------------------------

    @_lemma
    def w1(self, a: Formula, b: Formula) -> int:
        return self.axiom(_imp(a, _imp(b, a)), "W1")

    @_lemma
    def w2(self, a: Formula, b: Formula, c: Formula) -> int:
        return self.axiom(
            _imp(_imp(a, b), _imp(_imp(b, c), _imp(a, c))), "W2"
        )

    @_lemma
    def w3(self, a: Formula, b: Formula) -> int:
        return self.axiom(_imp(_imp(Neg(a), Neg(b)), _imp(b, a)), "W3")

    @_lemma
    def w4(self, a: Formula, b: Formula) -> int:
        return self.axiom(
            _imp(_imp(_imp(a, b), b), _imp(_imp(b, a), a)), "W4"
        )

    # -- pure implication fragment ------------------------------------

    def compose(self, i_ab: int, i_bc: int) -> int:
        """From A->B and B->C conclude A->C (one W2 instance, two MPs)."""
        f_ab, f_bc = self.formula_at(i_ab), self.formula_at(i_bc)
        a, b = f_ab.left, f_ab.right
        c = f_bc.right
        step = self.mp(i_ab, self.w2(a, b, c))
        return self.mp(i_bc, step)

    @_lemma
    def identity(self, a: Formula) -> int:
        """Self-implication A->A."""
        theta = _imp(a, _imp(a, a))
        s1 = self.w1(a, a)  # theta
        s2 = self.w1(theta, _imp(a, theta))
        s3 = self.w2(theta, _imp(_imp(a, theta), theta), _imp(_imp(theta, a), a))
        s4 = self.mp(s2, s3)
        s5 = self.w4(a, theta)
        s6 = self.mp(s5, s4)  # theta -> ((theta->A)->A)
        s7 = self.mp(s1, s6)  # (theta->A)->A
        s8 = self.w1(a, theta)
        s9 = self.w2(a, _imp(theta, a), a)
        s10 = self.mp(s8, s9)
        return self.mp(s7, s10)

    @_lemma
    def assertion(self, b: Formula, c: Formula) -> int:
        """B -> ((B->C)->C)."""
        s1 = self.w1(b, _imp(c, b))
        s2 = self.w2(b, _imp(_imp(c, b), b), _imp(_imp(b, c), c))
        s3 = self.mp(s1, s2)
        s4 = self.w4(c, b)  # ((c->b)->b) -> ((b->c)->c)
        return self.mp(s4, s3)

    @_lemma
    def exchange_thm(self, a: Formula, b: Formula, c: Formula) -> int:
        """(A->(B->C)) -> (B->(A->C))."""
        t_a = self.w2(a, _imp(b, c), c)
        t_b = self.assertion(b, c)
        t_c = self.w2(b, _imp(_imp(b, c), c), _imp(a, c))
        t_d = self.mp(t_b, t_c)
        return self.compose(t_a, t_d)

    def exchange(self, i: int) -> int:
        f = self.formula_at(i)
        a, inner = f.left, f.right
        return self.mp(i, self.exchange_thm(a, inner.left, inner.right))

    @_lemma
    def prefix_thm(self, a: Formula, b: Formula, c: Formula) -> int:
        """(B->C) -> ((A->B)->(A->C))."""
        return self.exchange(self.w2(a, b, c))

    # -- negation and constants ---------------------------------------

    @_lemma
    def not_bot(self) -> int:
        """!bot, from bot -> bot by E3."""
        return self.mp(self.identity(BOT), self.axiom(_imp(_imp(BOT, BOT), Neg(BOT)), "E3"))

    @_lemma
    def bot_elim(self, a: Formula) -> int:
        """bot -> A."""
        s = self.mp(self.not_bot(), self.w1(Neg(BOT), Neg(a)))  # !a -> !bot
        return self.mp(s, self.w3(a, BOT))

    def top_intro(self) -> int:
        return self.mp(self.not_bot(), self.axiom(_imp(Neg(BOT), TOP), "E6"))

    @_lemma
    def dne_elim(self, a: Formula) -> int:
        """!!A -> A, through the ->bot unfolding of negation."""
        s_a = self.axiom(_imp(Neg(Neg(a)), _imp(Neg(a), BOT)), "E3")
        s_b = self.axiom(_imp(_imp(a, BOT), Neg(a)), "E3")
        s_b2 = self.w2(_imp(a, BOT), Neg(a), BOT)
        s_b3 = self.mp(s_b, s_b2)  # (!a->bot) -> ((a->bot)->bot)
        c = self.compose(s_a, s_b3)
        d = self.w4(a, BOT)
        e = self.compose(c, d)  # !!a -> ((bot->a)->a)
        g = self.exchange(e)
        return self.mp(self.bot_elim(a), g)

    @_lemma
    def dne_intro(self, a: Formula) -> int:
        """A -> !!A."""
        d = self.dne_elim(Neg(a))
        return self.mp(d, self.w3(Neg(Neg(a)), a))

    @_lemma
    def contrap_thm(self, x: Formula, y: Formula) -> int:
        """(X->Y) -> (!Y->!X)."""
        s1 = self.w2(Neg(Neg(x)), x, y)
        s2 = self.mp(self.dne_elim(x), s1)  # (x->y)->(!!x->y)
        s3 = self.prefix_thm(Neg(Neg(x)), y, Neg(Neg(y)))
        s4 = self.mp(self.dne_intro(y), s3)
        s5 = self.compose(s2, s4)  # (x->y)->(!!x->!!y)
        s6 = self.w3(Neg(x), Neg(y))
        return self.compose(s5, s6)

    @_lemma
    def contra_b(self, x: Formula, y: Formula) -> int:
        """(X->!Y) -> (Y->!X)."""
        c1 = self.contrap_thm(x, Neg(y))
        c2 = self.w2(y, Neg(Neg(y)), Neg(x))
        c3 = self.mp(self.dne_intro(y), c2)
        return self.compose(c1, c3)

    # -- residuation ----------------------------------------------------

    def rr1(self, a: Formula, b: Formula, c: Formula) -> int:
        """(A->(B->C)) -> (!(A->!B)->C), the unfolded residuation law."""
        t1 = self.exchange_thm(a, b, c)
        p1 = self.contrap_thm(a, c)
        t2 = self.mp(p1, self.prefix_thm(b, _imp(a, c), _imp(Neg(c), Neg(a))))
        t12 = self.compose(t1, t2)
        t3 = self.exchange_thm(b, Neg(c), Neg(a))
        t123 = self.compose(t12, t3)
        cb = self.contra_b(b, a)
        t4 = self.mp(cb, self.prefix_thm(Neg(c), _imp(b, Neg(a)), _imp(a, Neg(b))))
        t1234 = self.compose(t123, t4)
        t5 = self.contrap_thm(Neg(c), _imp(a, Neg(b)))
        t12345 = self.compose(t1234, t5)
        t6 = self.mp(
            self.dne_elim(c), self.prefix_thm(Neg(_imp(a, Neg(b))), Neg(Neg(c)), c)
        )
        return self.compose(t12345, t6)

    def rr2(self, a: Formula, b: Formula, c: Formula) -> int:
        """(!(A->!B)->C) -> (A->(B->C)), converse of rr1."""
        unfolded = Neg(_imp(a, Neg(b)))
        t1 = self.contrap_thm(unfolded, c)
        t2 = self.mp(
            self.dne_elim(_imp(a, Neg(b))),
            self.prefix_thm(Neg(c), Neg(Neg(_imp(a, Neg(b)))), _imp(a, Neg(b))),
        )
        t12 = self.compose(t1, t2)  # (unfolded->C) -> (!C->(A->!B))
        t3 = self.exchange_thm(Neg(c), a, Neg(b))
        t123 = self.compose(t12, t3)
        t4 = self.mp(
            self.w3(c, b), self.prefix_thm(a, _imp(Neg(c), Neg(b)), _imp(b, c))
        )
        return self.compose(t123, t4)

    def mul_intro(self, a: Formula, b: Formula) -> int:
        """(A*B) -> !(A->!B), the definitional bridge out of the product."""
        return self.axiom(_imp(Bin(ODOT, a, b), Neg(_imp(a, Neg(b)))), "E2")

    def mul_elim(self, a: Formula, b: Formula) -> int:
        """!(A->!B) -> (A*B), the definitional bridge into the product."""
        return self.axiom(_imp(Neg(_imp(a, Neg(b))), Bin(ODOT, a, b)), "E2")

    def l5(self, a: Formula, b: Formula, c: Formula) -> int:
        """(A->(B->C)) -> ((A*B)->C)."""
        r = self.rr1(a, b, c)
        conj = Bin(ODOT, a, b)
        bridge = self.mul_intro(a, b)
        br2 = self.mp(bridge, self.w2(conj, Neg(_imp(a, Neg(b))), c))
        return self.compose(r, br2)

    def l6(self, a: Formula, b: Formula, c: Formula) -> int:
        """((A*B)->C) -> (A->(B->C))."""
        conj = Bin(ODOT, a, b)
        unfolded = Neg(_imp(a, Neg(b)))
        pre = self.mp(self.mul_elim(a, b), self.w2(unfolded, conj, c))
        return self.compose(pre, self.rr2(a, b, c))

    def l2(self, a: Formula, b: Formula) -> int:
        """(A*B) -> A, the left projection."""
        # ex contradictione !A -> (A -> !B), contraposed and unfolded
        ecq = self.compose(self.w1(Neg(a), Neg(Neg(b))), self.w3(Neg(b), a))
        lifted = self.mp(ecq, self.contrap_thm(Neg(a), _imp(a, Neg(b))))
        cleaned = self.compose(lifted, self.dne_elim(a))
        return self.compose(self.mul_intro(a, b), cleaned)

    def l3(self, a: Formula, b: Formula) -> int:
        """(A*B) -> (B*A); alias for the commutation lemma."""
        return self.mul_comm(a, b)

    def pair_intro(self, a: Formula, b: Formula) -> int:
        """A -> (B -> (A*B)) (the standard pairing lemma)."""
        return self.mp(self.mul_elim(a, b), self.rr2(a, b, Bin(ODOT, a, b)))

    def mul_comm(self, a: Formula, b: Formula) -> int:
        """(A*B) -> (B*A)."""
        cb = self.contra_b(b, a)  # (B->!A) -> (A->!B)
        cc = self.mp(cb, self.contrap_thm(_imp(b, Neg(a)), _imp(a, Neg(b))))
        left = self.compose(self.mul_intro(a, b), cc)  # (A*B) -> !(B->!A)
        return self.compose(left, self.mul_elim(b, a))

    def mul_mono(self, a: Formula, b: Formula, c: Formula) -> int:
        """(A->B) -> ((A*C)->(B*C)), monotonicity in the left factor."""
        w2i = self.w2(a, b, Neg(c))  # (A->B)->((B->!C)->(A->!C))
        flip = self.contrap_thm(_imp(b, Neg(c)), _imp(a, Neg(c)))
        mm = self.compose(w2i, flip)  # (A->B)->(!(A->!C)->!(B->!C))
        pre = self.mp(
            self.mul_intro(a, c),
            self.w2(Bin(ODOT, a, c), Neg(_imp(a, Neg(c))), Neg(_imp(b, Neg(c)))),
        )
        post = self.mp(
            self.mul_elim(b, c),
            self.prefix_thm(Bin(ODOT, a, c), Neg(_imp(b, Neg(c))), Bin(ODOT, b, c)),
        )
        chain = self.compose(pre, post)  # (!(A->!C)->!(B->!C)) -> ((A*C)->(B*C))
        return self.compose(mm, chain)

    # -- nested-implication plumbing for the deduction theorem ----------

    def pull_out(self, alpha: Formula, b: int, phi: Formula, psi: Formula) -> int:
        """N_b(phi->psi) -> (phi->N_b(psi)) for b >= 1."""
        if b == 1:
            return self.exchange_thm(alpha, phi, psi)
        inner = self.pull_out(alpha, b - 1, phi, psi)
        pf = self.prefix_thm(
            alpha,
            _nested(alpha, _imp(phi, psi), b - 1),
            _imp(phi, _nested(alpha, psi, b - 1)),
        )
        step = self.mp(inner, pf)
        ex = self.exchange_thm(alpha, phi, _nested(alpha, psi, b - 1))
        return self.compose(step, ex)

    def distribute(self, alpha: Formula, a: int, phi: Formula, psi: Formula) -> int:
        """(phi->psi) -> (N_a(phi)->N_a(psi)) for a >= 0."""
        if a == 0:
            return self.identity(_imp(phi, psi))
        inner = self.distribute(alpha, a - 1, phi, psi)
        pf = self.prefix_thm(
            alpha, _nested(alpha, phi, a - 1), _nested(alpha, psi, a - 1)
        )
        return self.compose(inner, pf)


def self_implication_proof(alpha: Formula) -> Proof:
    builder = ProofBuilder()
    builder.identity(alpha)
    return builder.proof()


def deduction_transform(
    theory: Theory, alpha: Formula, proof: Proof
) -> tuple[int, Proof]:
    """Turn a proof of beta from T + {alpha} into a proof of alpha^n -> beta from T.

    Hypothesis-free subderivations keep plain T-proofs (their count is 0);
    each hypothesis use contributes one nesting, combined at modus ponens
    steps through the exchange/prefix machinery, and the nested result is
    folded into a product power by residuation instances at the end.
    """
    combined = Theory(tuple(theory.members) + (alpha,))
    check_proof(combined, proof)
    beta = proof.conclusion

    builder = ProofBuilder(theory)
    results: list[tuple[int, int]] = []  # (n, index of N_n(step formula))
    for step in proof.steps:
        f, j = step.formula, step.justification
        if isinstance(j, AxiomRef):
            results.append((0, builder.axiom(f, j.schema)))
        elif isinstance(j, MemberRef):
            if f in theory:
                results.append((0, builder.member(f)))
            else:  # the hypothesis alpha
                results.append((1, builder.identity(alpha)))
        else:
            a, i_phi = results[j.minor - 1]
            b, i_imp = results[j.major - 1]
            phi = proof.steps[j.minor - 1].formula
            psi = f
            if a == 0 and b == 0:
                results.append((0, builder.mp(i_phi, i_imp)))
                continue
            if b > 0:
                po = builder.pull_out(alpha, b, phi, psi)
                x1 = builder.mp(i_imp, po)  # phi -> N_b(psi)
            else:
                x1 = i_imp
            if a == 0:
                results.append((b, builder.mp(i_phi, x1)))
                continue
            d = builder.distribute(alpha, a, phi, _nested(alpha, psi, b))
            x2 = builder.mp(x1, d)
            results.append((a + b, builder.mp(i_phi, x2)))

    n, idx = results[-1]
    if n == 0:
        idx = builder.mp(idx, builder.w1(beta, alpha))
        n = 1
    cur = idx
    for k in range(2, n + 1):
        l5i = builder.l5(formula_power(alpha, k - 1), alpha, _nested(alpha, beta, n - k))
        cur = builder.mp(cur, l5i)
    builder.restate_last(cur)

    out = builder.proof()
    goal = _imp(formula_power(alpha, n), beta)
    check_proof(theory, out, goal)
    return n, out


# ---------------------------------------------------------------------------
# Consistency, proof degree, compactness


def consistency_probe(theory: Theory, budget: int = 100_000) -> SearchResult:
    """The ``first_hit`` exact model of the theory, with no objective:
    ``model-found`` certifies consistency.  Without one, ``inconsistent``
    when ``certifies_no_model`` proves that the theory has no model at all,
    at the pool's evaluation count; else ``no-model-at-budget``, which is
    inconclusive."""
    result = first_hit(None, theory.members, budget, "model-found", "no-model-at-budget")
    if result.witness is None and certifies_no_model(theory.members):
        return replace(result, status="inconsistent")
    return result


@dataclass
class ProofDegreeReport:
    lower_bound: Fraction
    certified: list[tuple[Fraction, Proof]]
    numeric: SearchResult
    defects: list[str]


def proof_degree(
    theory: Theory,
    alpha: Formula,
    certificates: list[Proof] = (),
    options: RelevanceOptions | None = None,
) -> ProofDegreeReport:
    """Certified lower bounds on the proof degree plus the relevance
    value, equal to it by the completeness identity.

    Each certificate must prove r -> alpha from the theory for a dyadic
    constant r; every checked r is a true lower bound (and licenses all
    smaller constants).  The relevance value is alpha's exact value at a
    model, an upper bound, so a certificate above it flags a defect.
    """
    certified: list[tuple[Fraction, Proof]] = []
    for cert in certificates:
        check_proof(theory, cert)
        conclusion = cert.conclusion
        if not (
            isinstance(conclusion, Bin)
            and conclusion.op == IMPLIES
            and isinstance(conclusion.left, Const)
            and conclusion.right == alpha
        ):
            raise ProofError(
                len(cert.steps),
                "certificate conclusion is not of the form constant -> goal",
            )
        certified.append((conclusion.left.value.value, cert))
    numeric = relevance_degree(theory, alpha, options)
    lower = max((r for r, _ in certified), default=Fraction(0))
    defects = [f"certificate bound {r} exceeds relevance value {numeric.value}"
               for r, _ in certified if r > numeric.value]
    return ProofDegreeReport(lower, certified, numeric, defects)


def finite_support(theory: Theory, proof: Proof) -> Theory:
    """The members of the theory actually used by the proof; the proof
    re-checks against exactly this finite subtheory."""
    check_proof(theory, proof)
    used = {step.formula for step in proof.steps if isinstance(step.justification, MemberRef)}
    return Theory(m for m in theory.members if m in used)
