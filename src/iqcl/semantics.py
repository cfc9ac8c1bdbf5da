"""Reduced-model semantics: exact evaluation, tautology and model search, relevance.

A reduced model assigns each atom a pair (u, w) of rationals — the
probability value of the atom and of its square root — subject to the
disk constraint (1-2u)^2 + (1-2w)^2 <= 1 (the Bloch ball with r1 = 0).
Evaluation of a formula produces the pair (value of f, value of sqrt f)
by structural recursion and is exact whenever the model is rational.

Tautology search, model sampling and the consistency probe are one
exact search over a pool of rational disk points per atom: a candidate
is a model of a theory when every member is exactly 1, and a
counterexample when the objective is below 1.  Candidates that agree on
every coordinate the formulas read get the same verdict, so one sweep of
the product screens each distinct tuple of those coordinates, a class
tuple, once, save those that arc consistency over the two-atom members
rules out; the budget caps the class tuples decided.  Every answer is
read off the passing class tuples, without listing their candidates.

The relevance degree of a theory T over a formula f is the infimum of
f's value over models giving every member of T value 1.  The search
reports the least value it finds at an exact model, taken first from the
pool search's least objective over its class tuples.  Interval
contraction on the formula trees (HC4, with bisection) then tries to
prove that no model lies below that value, or that there is no model at
all; a status comes from such a proof or from the budget, never from a
float.  Without a pool model the search ends there.  A pool model proved
least is the infimum; otherwise the end point of a float multi-start
coordinate descent, snapped to exact disk points, may improve its value.
The same contraction lets the consistency probe certify a theory
inconsistent.
Every search reports one ``SearchResult``: an exact witness or none, the
objective's value there, a status and an evaluation count.

Both searches evaluate through functions generated per call from one
template table of the connectives, and compiled once per distinct
source: in exact integers over a common
denominator for the pool search; in floats for the descent, computing
the constraint residual and f's value together, bit-identical to the
pair recursion in floats.  In floats the seed screen and each line
search run every evaluation, with the budget and the records of the
best point; the descent and its choice of starts stay in Python.
``eval_prob`` is the exact reference and ``eval_bloch`` the oracle.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import random
import types
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .algebra import (
    HALF,
    ONE,
    ZERO,
    fraction,
    mv_implies,
    mv_join,
    mv_meet,
    mv_odot,
    mv_oplus,
    pmv_product,
)
from .qmix import DiagonalQmix, Qmix, gate_not, gate_sqrt_not, iand
from .qmix import luk_oplus as q_luk_oplus
from .qmix import prob as q_prob
from .qmix import q_implies, q_join, q_meet, q_odot
from .syntax import (
    IMPLIES,
    JOIN,
    MEET,
    ODOT,
    OPLUS,
    PRODUCT,
    Atom,
    Bin,
    Const,
    Formula,
    Neg,
    Sqrt,
    atoms as formula_atoms,
    is_atom_name,
    parse_theory_text,
)

DISK_TOL = Fraction(1, 10**9)

_PAIR_OPS = {
    OPLUS: mv_oplus,
    ODOT: mv_odot,
    IMPLIES: mv_implies,
    PRODUCT: pmv_product,
    MEET: mv_meet,
    JOIN: mv_join,
}

_GATE_OPS = {
    OPLUS: q_luk_oplus,
    ODOT: q_odot,
    IMPLIES: q_implies,
    PRODUCT: iand,
    MEET: q_meet,
    JOIN: q_join,
}


class UnassignedAtomError(KeyError):
    pass


def _in_disk(u: Fraction, w: Fraction, tol: Fraction = DISK_TOL) -> bool:
    return (1 - 2 * u) ** 2 + (1 - 2 * w) ** 2 <= 1 + tol


def _six_digits(q: Fraction) -> str:
    """``q`` to 6 significant digits, as ``Decimal(q.numerator) / q.denominator``
    formats it, forming only that quotient's 28 digits (rounded half even;
    an exact one loses trailing zeros down to exponent 0), so in time
    linear in the length of q's exact fraction."""
    n, d = abs(q.numerator), q.denominator
    # 10**e <= n / d < 10**(e + 1).  As 2**(b - 1) <= n / d < 2**(b + 1) for the
    # difference b of the bit lengths, the estimate is e or one below it.
    e = math.floor((n.bit_length() - d.bit_length() - 1) * math.log10(2))
    num, den = (n * 10 ** (27 - e), d) if e <= 27 else (n, d * 10 ** (e - 27))
    if num >= den * 10**28:
        e, den = e + 1, den * 10
    digits, rest = divmod(num, den)
    if 2 * rest > den or 2 * rest == den and digits % 2:
        digits += 1  # a carry to 10**28 formats as the 28 digits 10**27 would
    exponent = e - 27
    while not rest and exponent < 0 and not digits % 10:
        digits, exponent = digits // 10, exponent + 1
    return f"{Decimal(f'{-digits if q < 0 else digits}e{exponent}'):.6g}"


def _checked_pair(name: str, u, w) -> tuple[Fraction, Fraction]:
    """Atom ``name``'s pair as fractions; ``ValueError`` off the unit square
    or the disk.  The message shows a coordinate exactly while its
    numerator and denominator fit in 64 bits, else to 6 significant digits:
    an exact fraction can run to any length, and ``str`` fails past 4300 digits."""
    u, w = Fraction(u), Fraction(w)
    if not (0 <= u <= 1 and 0 <= w <= 1):
        fault = "outside the unit square"
    elif not _in_disk(u, w):
        fault = "violates the disk constraint"
    else:
        return u, w
    shown = (str(c) if max(abs(c.numerator), c.denominator) < 2**64 else _six_digits(c) for c in (u, w))
    raise ValueError(f"atom {name}: pair ({', '.join(shown)}) {fault}")


@dataclass(frozen=True)
class ReducedModel:
    """Map atom -> (u, w); u = value of the atom, w = value of its root."""

    assignment: dict[str, tuple[Fraction, Fraction]]

    def __post_init__(self):
        checked = {name: _checked_pair(name, u, w) for name, (u, w) in self.assignment.items()}
        object.__setattr__(self, "assignment", checked)

    def pair(self, name: str) -> tuple[Fraction, Fraction]:
        try:
            return self.assignment[name]
        except KeyError:
            raise UnassignedAtomError(name) from None

    def atoms(self) -> set[str]:
        return set(self.assignment)


def reduce_model(bloch_assignment: dict[str, Qmix]) -> ReducedModel:
    """Drop r1, keep the probability pair ((1-r3)/2, (1-r2)/2) per atom."""
    pairs = {}
    for name, rho in bloch_assignment.items():
        if isinstance(rho, DiagonalQmix):
            rho = rho.bloch
        pairs[name] = (Fraction((1.0 - rho.r3) / 2.0), Fraction((1.0 - rho.r2) / 2.0))
    return ReducedModel(pairs)


def eval_prob(model: ReducedModel, f: Formula) -> tuple[Fraction, Fraction]:
    """The pair (value of f, value of sqrt f), by exact recursion."""
    if isinstance(f, Atom):
        return model.pair(f.name)
    if isinstance(f, Const):
        return (f.value.value, Fraction(1, 2))
    if isinstance(f, Neg):
        u, w = eval_prob(model, f.arg)
        return (1 - u, 1 - w)
    if isinstance(f, Sqrt):
        u, w = eval_prob(model, f.arg)
        return (w, 1 - u)
    u1, _ = eval_prob(model, f.left)
    u2, _ = eval_prob(model, f.right)
    return (_PAIR_OPS[f.op](u1, u2), Fraction(1, 2))


def eval_bloch(assignment: dict[str, Qmix], f: Formula) -> float:
    """Fold the gate semantics over the formula and read the probability.

    Independent route used to cross-check the pair recursion: each atom
    is a Bloch-ball state and every connective acts through ``qmix``.
    """

    def fold(g: Formula) -> Qmix:
        if isinstance(g, Atom):
            try:
                return assignment[g.name]
            except KeyError:
                raise UnassignedAtomError(g.name) from None
        if isinstance(g, Const):
            return DiagonalQmix(float(g.value.value))
        if isinstance(g, Neg):
            return gate_not(fold(g.arg))
        if isinstance(g, Sqrt):
            return gate_sqrt_not(fold(g.arg))
        return _GATE_OPS[g.op](fold(g.left), fold(g.right))

    return q_prob(fold(f))


@dataclass(frozen=True)
class Theory:
    """A finite ordered set of formulas; structural duplicates removed."""

    members: tuple[Formula, ...]

    def __init__(self, members=()):
        object.__setattr__(self, "members", tuple(dict.fromkeys(members)))

    @classmethod
    def from_text(cls, text: str) -> "Theory":
        return cls(parse_theory_text(text))

    def atoms(self) -> set[str]:
        result: set[str] = set()
        for m in self.members:
            result |= formula_atoms(m)
        return result

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, f: Formula) -> bool:
        return f in self.members


def is_model_of(model: ReducedModel, theory: Theory, tol: Fraction = Fraction(0)) -> bool:
    """True iff every member evaluates to at least 1 - tol (exactly 1 when tol=0)."""
    threshold = 1 - Fraction(tol)
    return all(eval_prob(model, beta)[0] >= threshold for beta in theory)


# ---------------------------------------------------------------------------
# Generated evaluators


# Each connective over operands a and b into temporary t, as the generated
# functions write it; {one} and {zero} are the literals of 1 and 0 at the
# operands' scale.  min(1, s) is "s if s < one else one", max(a, b) is
# "b if b > a else a", the operand the builtins return.
_TEMPLATES = {
    OPLUS: "{t} = {a} + {b}; {t} = {t} if {t} < {one} else {one}",
    ODOT: "{t} = {a} + {b} - {one}; {t} = {t} if {t} > {zero} else {zero}",
    IMPLIES: "{t} = {one} - {a} + {b}; {t} = {t} if {t} < {one} else {one}",
    PRODUCT: "{t} = {a} * {b}",
    MEET: "{t} = {b} if {b} < {a} else {a}",
    JOIN: "{t} = {b} if {b} > {a} else {a}",
}


# The relevance search's two inner loops, written around the float body of
# _evaluator_source: one line search of coordinate ci, and the seed
# screen.  Each evaluation of the point x runs _POINT: it returns None for
# a spent budget ``left``, then keeps the least objective among points of
# residual at most _STRICT_RESIDUAL with a list copy of the point, (sobj, sx).
# {at2} and {at3} are evaluations at that depth.
_POINT = """\
if used == left: return used, None, (sobj, sx)
used += 1
{coords}= x
{body}
if r <= {strict!r} and (sx is None or o < sobj): sobj, sx = o, list(x)"""

# A line search scores the point x[ci] = v lexicographically.  In phase A
# the centring tie-break moves toward 1/2 where the residual is flat, so
# the disk leaves the partner coordinate full room; in phase B a point
# above the guard residual loses to every point within it.
_SCORE = """\
if phase_a: s0, s1, s2 = r, o, abs(v - 0.5)
elif r <= guard: s0, s1, s2 = 0.0, o, abs(v - 0.5)
else: s0, s1, s2 = 1.0, r, 0.0"""

# The line search runs in stages: the first point, the clamped x[ci]; each
# round, nine evenly spaced points of [lo, hi] and best_v rounded to 1/64,
# then [lo, hi] narrowed to best_v +- step; the last point, best_v again,
# whose (r, o) it returns.  A point replaces best_v only when it scores less.
_LINE_SEARCH = """\
def line_search(x, ci, lo, hi, phase_a, guard, left, tol, records):
    sobj, sx = records
    used = stage = 0
    width = hi - lo
    candidates = [min(max(x[ci], lo), hi)]
    while True:
        for v in candidates:
            {at3}
            if used == 1 or s0 < b0 or s0 == b0 and (s1 < b1 or s1 == b1 and s2 < b2):
                b0, b1, b2, best_v = s0, s1, s2, v
        if stage == 2:
            return used, (r, o), (sobj, sx)
        if stage == 1:
            lo = max(lo, best_v - step)
            hi = min(hi, best_v + step)
            width = hi - lo
        if width > tol / 4.0:
            stage, step = 1, width / 8.0
            candidates = [lo + k * step for k in range(9)]
            candidates.append(min(max(round(best_v * 64.0) / 64.0, lo), hi))
        else:
            stage, candidates = 2, [best_v]
"""

_SCREEN = """\
def screen(seeds, scored, left, records):
    sobj, sx = records
    used = 0
    for x in seeds:
        {at2}
        scored.append((r, o, used - 1))
    return used, (r, o), (sobj, sx)
"""


def _at(lines, depth: int) -> str:
    """Statements joined for a template slot ``depth`` levels deep."""
    return ("\n" + "    " * depth).join(lines)


def _evaluator_source(
    objective: Formula | None, members, pos: dict[str, int], den: int | None = None, least: bool = False
) -> tuple[str, tuple[int, ...]]:
    """The source of the functions ``_evaluators`` compiles, and the
    coordinates that the formulas read, in order.

    Atom k sits at ``pos[name] = 2k``; its u and w are the coordinates
    ``x{2k}`` and ``x{2k + 1}``.  Only the component each node needs is
    computed: the root of a negation is the negated root, the value of a
    square root is its argument's root, and a binary node's root is 1/2.
    The source holds coordinates, temporaries, number literals and the
    fixed templates above, never text from a formula.

    Without ``den``: floats, in a body that leaves the residual in ``r``
    and the objective's value in ``o``.  The residual is max(0.0, 1.0 -
    value of each member), folded in member order; the value of a missing
    objective is None.  The body does the float operations of the pair
    recursion in the same order, so its results are bit-identical to it.
    It is written into two functions over flat float vectors:

    - ``line_search(x, ci, lo, hi, phase_a, guard, left, tol, records)``
      narrows coordinate ci within [lo, hi], leaving the best point in
      ``x[ci]``;
    - ``screen(seeds, scored, left, records)`` appends (r, o, index)
      to ``scored`` for each seed in order.

    Both evaluate at most ``left`` points, keep the records ``(sobj, sx)``
    of ``_POINT``, and return (evaluations, last, records): ``last``
    is the (r, o) of the last point evaluated, which for ``line_search`` is
    the final x, or None once ``left`` is spent.

    With ``den``: exact integers.  A value is ``num / den**e``, with e
    tracked here per node: ``.`` adds exponents, and the other
    connectives first bring both operands to the larger one.  Atom-free
    subterms are folded here to one literal at their exponent.
    ``evaluate(m, pool, picks)`` screens m candidates, candidate i
    putting atom k at pool index ``picks[k][i]``, whose u and w
    numerators over den are ``pool[0]`` and ``pool[1]`` at that index.
    It is a generator of the indices i at which every member, in order,
    is exactly 1 and the objective, if any, is below 1.  With ``least``
    it yields, of those i, each whose objective is below every one before
    it, so the last one yielded is the first of least objective.
    """
    lines: list[str] = ["r = 0.0"] if den is None else []
    reads: set[int] = set()

    def literal(value, e: int = 1) -> str:
        return repr(float(value)) if den is None else str(int(value * den**e))

    def operand(a, e: int) -> str:
        # In integer mode an atom-free operand is its exact value until written.
        return literal(a, e) if isinstance(a, Fraction) else a

    def assign(template: str, **operands) -> str:
        t = f"t{len(lines)}"
        lines.append(template.format(t=t, **operands))
        return t

    def emit(g: Formula, root: bool) -> tuple[str | Fraction, int]:
        """Emit the statements for g's value (or root value); return its operand and exponent."""
        if isinstance(g, Atom):
            reads.add(pos[g.name] + root)
            return f"x{pos[g.name] + root}", 1
        if isinstance(g, Const) or (root and isinstance(g, Bin)):
            value = Fraction(1, 2) if root else g.value.value
            return (literal(value) if den is None else value), 1
        if isinstance(g, Sqrt) and not root:
            return emit(g.arg, True)
        if isinstance(g, (Neg, Sqrt)):
            a, e = emit(g.arg, root and isinstance(g, Neg))
            if isinstance(a, Fraction):
                return 1 - a, e
            return assign("{t} = {one} - {a}", one=literal(1, e), a=a), e
        (a, ea), (b, eb) = emit(g.left, False), emit(g.right, False)
        e = ea + eb if g.op == PRODUCT else max(ea, eb)
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return _PAIR_OPS[g.op](a, b), e
        if den is not None and g.op != PRODUCT:
            if isinstance(a, str) and ea < e:
                a = assign("{t} = {a} * {scale}", a=a, scale=den ** (e - ea))
            if isinstance(b, str) and eb < e:
                b = assign("{t} = {a} * {scale}", a=b, scale=den ** (e - eb))
            ea = eb = e
        return assign(
            _TEMPLATES[g.op], a=operand(a, ea), b=operand(b, eb), one=literal(1, e), zero=literal(0, e)
        ), e

    for beta in members:
        value, e = emit(beta, False)
        if den is None:
            lines.append(f"d = 1.0 - {value}; r = d if d > r else r")
        else:
            lines.append(f"if {operand(value, e)} != {den**e}: continue")
    value, e = ("None", 0) if objective is None else emit(objective, False)
    read = tuple(sorted(reads))
    if den is None:
        lines.append(f"o = {value}")
        coords = "".join(f"x{i}, " for i in range(2 * len(pos)))
        point = _POINT.format(coords=coords, body="\n".join(lines), strict=_STRICT_RESIDUAL).split("\n")
        scored = ["x[ci] = v", *point, *_SCORE.split("\n")]
        return _LINE_SEARCH.format(at3=_at(scored, 3)) + _SCREEN.format(at2=_at(point, 2)), read
    if objective is None:
        lines.append("yield i")
    elif least:
        lines.append(f"if {operand(value, e)} < least: least = {operand(value, e)}; yield i")
    else:
        lines.append(f"if {operand(value, e)} < {den**e}: yield i")
    start = f"    least = {den**e + 1}\n" if least else ""
    coords = "".join(f" x{c}," for c in read)
    columns = "".join(f", map(pool[{c % 2}].__getitem__, picks[{c // 2}])" for c in read)
    body = "".join(f"        {line}\n" for line in lines)
    return f"def evaluate(m, pool, picks):\n{start}    for i,{coords} in zip(range(m){columns}):\n{body}", read


def _evaluators(
    objective: Formula | None, members, pos: dict[str, int], den: int | None = None, least: bool = False
) -> types.SimpleNamespace:
    """The functions generated for one search; see ``_evaluator_source``.

    In floats (no ``den``) for the relevance search: ``line_search``
    and ``screen``.  In exact integers over ``den`` for
    the pool search: ``evaluate``.  ``reads`` holds the coordinates they
    read, in order.
    """
    return _compile(*_evaluator_source(objective, members, pos, den, least))


def _compile(source: str, reads: tuple[int, ...]) -> types.SimpleNamespace:
    """The functions that ``source`` defines, and ``reads``, in a new namespace.

    A search's source depends only on its formulas' shapes, so searches
    repeat sources: each source is compiled once, and its functions kept
    in an LRU memo of ``_COMPILED`` sources.  The functions keep no state
    between calls, so searches can share them; the namespace is each
    call's own, so that a caller may replace a function in it (as the tests
    do, to count the class tuples screened) without touching another search."""
    return types.SimpleNamespace(**_functions(source), reads=reads)


# The most sources whose compiled functions are kept; one benchmark cycle
# of relevance or tautology queries compiles fewer than 30.
_COMPILED = 128


@functools.lru_cache(maxsize=_COMPILED)
def _functions(source: str) -> dict:
    """The functions that ``source`` defines, by name; see ``_compile``."""
    namespace: dict = {}
    exec(source, namespace)
    del namespace["__builtins__"]
    return namespace


# ---------------------------------------------------------------------------
# Exact pool search: tautology, models


def _picks(h: int, firsts, strides) -> list[int]:
    """The first point of each atom's class in class tuple h."""
    return [ps[h // stride % len(ps)] for ps, stride in zip(firsts, strides)]


@dataclass(frozen=True)
class SearchResult:
    """What a search reports.  ``witness`` is an exact model, or None, and
    ``value`` is the objective's exact value at it: 1 with no witness or no
    objective.  ``status`` is the search's verdict, one of

    - ``counterexample`` or ``tautology-no-counterexample`` for
      ``check_tautology`` and ``consequence``;
    - ``model-found``, ``inconsistent`` (certified by interval
      contraction) or ``no-model-at-budget`` for
      ``calculus.consistency_probe``;
    - ``feasible``, ``infeasible`` (certified by interval contraction) or
      ``tolerance-limited`` for ``relevance_degree``.

    ``evaluations`` counts, for ``first_hit``, the candidates in sweep order
    up to its hit, else those of the class tuples decided; for
    ``relevance_degree``, at most its budget, the class tuples decided
    (screened, or ruled out by arc consistency), float points and snaps tried.
    The boxes of ``certifies_no_model`` are not evaluations."""

    value: Fraction
    status: str
    witness: ReducedModel | None
    evaluations: int


@functools.cache
def _rational_disk_pool() -> tuple[tuple[Fraction, Fraction], ...]:
    specials = [
        (Fraction(1), Fraction(1, 2)),
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(0)),
        (Fraction(1, 2), Fraction(1)),
    ]
    step = Fraction(1, 8)
    grid = [
        (i * step, j * step)
        for i in range(9)
        for j in range(9)
        if _in_disk(i * step, j * step, Fraction(0))
    ]
    # Rational points on the boundary circle via the tangent half-angle map.
    boundary = []
    for t in (Fraction(0), 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2),
              3, -3, Fraction(1, 3), Fraction(-1, 3), 4, -4):
        u, w = _circle_point(Fraction(t))
        boundary += [(u, w), (w, u)]
    return tuple(dict.fromkeys(specials + grid + boundary))


def _circle_point(t: Fraction) -> tuple[Fraction, Fraction]:
    """The disk point with (1 - 2u, 1 - 2w) = (cos θ, sin θ) at t = tan(θ/2)."""
    c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    return (1 - c) / 2, (1 - s) / 2


@functools.cache
def _fixed_numerators() -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The fixed 61 points over their common denominator: (denominator, u numerators, w numerators)."""
    pool = _rational_disk_pool()
    den = math.lcm(*(c.denominator for point in pool for c in point))
    return den, tuple(int(u * den) for u, _ in pool), tuple(int(w * den) for _, w in pool)


def _pool_with(constants: frozenset[Fraction]) -> tuple[tuple, int, tuple[int, ...], tuple[int, ...]]:
    """The pool for the members' constants c, with its common denominator
    and its u and w numerators over it: the fixed 61 points, then the disk
    points with coordinates among c, 1 - c and 1/2, found in integers."""
    pool, (den, pool_u, pool_w) = _rational_disk_pool(), _fixed_numerators()
    if constants:
        lift = math.lcm(den, *(c.denominator for c in constants)) // den
        den *= lift
        pool_u, pool_w = tuple(x * lift for x in pool_u), tuple(x * lift for x in pool_w)
        # den is even, as the fixed pool holds 1/2.
        nums = {c.numerator * (den // c.denominator) for c in constants}
        coords = sorted({x for n in nums for x in (n, den - n, den // 2)})
        fixed = set(zip(pool_u, pool_w))
        points = [(u, w) for u in coords for w in coords
                  if (den - 2 * u) ** 2 + (den - 2 * w) ** 2 <= den * den and (u, w) not in fixed]
        pool += tuple((Fraction(u, den), Fraction(w, den)) for u, w in points)
        pool_u += tuple(u for u, _ in points)
        pool_w += tuple(w for _, w in points)
    return pool, den, pool_u, pool_w


def _constants(f: Formula) -> set[Fraction]:
    if isinstance(f, Const):
        return {f.value.value}
    if isinstance(f, Atom):
        return set()
    if isinstance(f, (Neg, Sqrt)):
        return _constants(f.arg)
    return _constants(f.left) | _constants(f.right)


class PoolSearch:
    """Exact search for candidate models of ``members`` at which the
    objective, if any, is below 1 (``first``, ``model_classes``) or least
    (``least``).

    A candidate gives each atom of the formulas, in sorted order, a point
    of a pool of exact rational disk points: the fixed 61 of
    ``_rational_disk_pool``, then, for the members' constants c, the disk
    points with coordinates among c, 1 - c and 1/2.  The sweep runs over
    the product of the atoms' points, first atom varying fastest, each atom
    narrowed to where its single-atom members are 1 when there are two or
    more.  A candidate passes exactly when its class tuple does: its
    atoms' classes of points that agree on every coordinate the screen
    reads, numbered by first occurrence.  Class tuples are screened by one
    function generated per run, in exact integers over a common
    denominator of the pool and the constants.  With three or more atoms,
    the class tuples that arc consistency rules out are decided without
    being screened (``_arc_consistent``); every count is that of the class
    tuples decided, as if each were screened.
    """

    def __init__(self, objective: Formula | None, members=()):
        self.objective, self.members = objective, tuple(members)
        formulas = (*self.members, *(() if objective is None else (objective,)))
        self.names = sorted(set().union(*map(formula_atoms, formulas)))
        self.pool, pool_den, pool_u, pool_w = _pool_with(frozenset().union(*map(_constants, self.members)))
        self.den = math.lcm(pool_den, *(c.denominator for f in formulas for c in _constants(f)))
        lift = self.den // pool_den
        # Indexed by ``root``: u numerators, then w numerators, over den.
        self.lifted = (tuple(x * lift for x in pool_u), tuple(x * lift for x in pool_w))

    def first(self, budget: int) -> tuple[int, dict[str, tuple[Fraction, Fraction]] | None]:
        """The first passing candidate in sweep order among those of the
        first ``budget`` (at least 1) class tuples, as (its index + 1, its
        pairs); else (the count of those candidates, None).  It is the first
        point of each class of the first passing tuple: each earlier
        candidate's tuple comes before that one, because a lower class first
        occurs earlier, and so failed the screen or arc consistency."""
        passing, b, allowed, classes, firsts, strides, _ = self._class_tuples(budget, least=False)
        h = next(passing, None)
        if h is None:
            return _candidates_below(b, classes, strides), None
        picks = _picks(h, firsts, strides)
        scales = [math.prod(map(len, allowed[:k])) for k in range(len(allowed))]
        return 1 + sum(points.index(j) * scale for points, j, scale in zip(allowed, picks, scales)), self.pairs(picks)

    def least(self, budget: int) -> tuple[int, dict[str, tuple[Fraction, Fraction]] | None]:
        """The class tuples decided, the first ``budget`` (at least 1), and
        the pairs of the first model among them of least objective (perhaps
        1), or None.  Only the tuples that arc consistency keeps are screened."""
        passing, b, _, _, firsts, strides, _ = self._class_tuples(budget, least=True)
        h = None
        for h in passing:
            pass
        return b, None if h is None else self.pairs(_picks(h, firsts, strides))

    def model_classes(self, budget: int) -> list[list[list[int]]]:
        """Each passing class tuple among the first ``budget`` (at least 1),
        in order, as each atom's points in its class: the tuple's
        candidates, all of them passing, are the product of those points."""
        passing, _, allowed, classes, firsts, strides, _ = self._class_tuples(budget, least=False)
        groups = [{} for _ in allowed]  # each class's points, under its first point
        for group, points, cs, ps in zip(groups, allowed, classes, firsts):
            for j, c in zip(points, cs):
                group.setdefault(ps[c], []).append(j)
        return [list(map(dict.__getitem__, groups, _picks(h, firsts, strides))) for h in passing]

    def _class_tuples(self, budget: int, least: bool):
        """The indices of the passing class tuples among the first ``budget`` (at least
        1), yielded as the screen runs (``_screen_kept``), and the count b of those
        decided; each atom's points, narrowed to where its single-atom members are 1
        when there are two or more atoms; each point's class, each class's first point,
        the strides, and the tuple count m."""
        if budget < 1:
            raise ValueError(f"budget must be at least 1, got {budget}")
        size, n = len(self.pool), len(self.names)
        allowed = [range(size)] * n
        for k, name in enumerate(self.names if n > 1 else ()):
            own = [beta for beta in self.members if formula_atoms(beta) == {name}]
            if own:
                narrow = _evaluators(None, own, {name: 0}, self.den).evaluate
                allowed[k] = tuple(narrow(size, self.lifted, [range(size)]))
        pos = {name: 2 * k for k, name in enumerate(self.names)}
        screen = _evaluators(self.objective, self.members, pos, self.den, least)
        # Atoms that keep the whole pool and read the same components share one grouping.
        domains = [(points, tuple(c % 2 for c in screen.reads if c // 2 == k)) for k, points in enumerate(allowed)]
        grouped = {domain: _classes(domain[0], [self.lifted[c] for c in domain[1]]) for domain in set(domains)}
        classes = [grouped[domain][0] for domain in domains]
        firsts = [grouped[domain][1] for domain in domains]
        counts = [len(points) for points in firsts]
        m = math.prod(counts)
        # Class tuple h puts atom k in class (h // stride_k) % count_k, as
        # the sweep puts it at a point; the screen sees each class's first point.
        strides = [math.prod(counts[:k]) for k in range(len(counts))]
        # With two atoms the arcs would decide the product the screen does.
        kept = self._arc_consistent(firsts) if n > 2 and m else [range(count) for count in counts]
        b = min(budget, m)
        return _screen_kept(screen, self.lifted, firsts, strides, kept, b), b, allowed, classes, firsts, strides, m

    def _arc_consistent(self, firsts) -> list[list[int]]:
        """Each atom's classes, in order, that arc consistency over the
        members reading exactly two atoms keeps (AC-3; Mackworth,
        "Consistency in networks of relations", 1977): a class stays while
        each such member of its atom is 1 at it and at some kept class of
        the other atom.  A class agrees on every coordinate the screen
        reads, so a member is decided once per pair of classes, at their
        first points, by a generated function (``_compile``).  No class
        tuple holding a dropped class passes the screen; an empty domain
        means the pool holds no model."""
        arcs = []
        for beta in self.members:
            pair = sorted(formula_atoms(beta))
            if len(pair) == 2:
                a, b = map(self.names.index, pair)
                arc = _compile(*_evaluator_source(None, [beta], {pair[0]: 0, pair[1]: 2}, self.den))
                ca, cb = len(firsts[a]), len(firsts[b])
                columns = [_Column(firsts[a], 1, cb), _Column(firsts[b], ca, 1)]
                arcs.append((a, b, [(i % ca, i // ca) for i in arc.evaluate(ca * cb, self.lifted, columns)]))
        domains = [set(range(len(points))) for points in firsts]
        while True:
            sizes = list(map(len, domains))
            for a, b, supported in arcs:
                live = [(x, y) for x, y in supported if x in domains[a] and y in domains[b]]
                domains[a], domains[b] = {x for x, _ in live}, {y for _, y in live}
            if list(map(len, domains)) == sizes:
                return [sorted(domain) for domain in domains]

    def pairs(self, picks) -> dict[str, tuple[Fraction, Fraction]]:
        """Each atom's disk point at a candidate's picks."""
        return {name: self.pool[j] for name, j in zip(self.names, picks)}


class _Column:
    """An atom's pool indices over the class tuples: each of ``points``
    ``stride`` times in turn, the whole ``cycles`` times.  Each iteration
    starts afresh, as the screen reads a column once per coordinate."""

    def __init__(self, points, stride: int, cycles: int):
        self.points, self.stride, self.cycles = points, stride, cycles

    def __iter__(self):
        points = itertools.chain.from_iterable(itertools.repeat(self.points, self.cycles))
        if self.stride == 1:
            return points
        return itertools.chain.from_iterable(map(itertools.repeat, points, itertools.repeat(self.stride)))


def _screen_kept(screen, lifted, firsts, strides, kept, b: int):
    """Run the generated screen on the class tuples of ``kept``, each atom's
    kept classes, whose index in the whole product (``strides``) is below
    b, and yield that index of each passing one, in order.  The kept tuples
    below b come first in their own product, so they are counted from b's
    digits."""
    counts = list(map(len, kept))
    m = math.prod(counts)
    if not m:
        return iter(())
    inner = [math.prod(counts[:k]) for k in range(len(counts))]
    columns = [_Column([ps[c] for c in cs], s, m // (s * len(cs))) for ps, cs, s in zip(firsts, kept, inner)]
    whole = math.prod(map(len, firsts))
    if m == whole:
        return screen.evaluate(b, lifted, columns)
    passing = screen.evaluate(_candidates_below(b, kept, strides), lifted, columns)
    return (sum(cs[h // s % len(cs)] * stride for cs, s, stride in zip(kept, inner, strides)) for h in passing)


def _classes(points, columns):
    """Each point's class of equal values in ``columns``, the classes
    numbered in order of first occurrence, and each class's first point."""
    keys = list(zip(*(map(column.__getitem__, points) for column in columns))) or [()] * len(points)
    number = dict(zip(dict.fromkeys(keys), itertools.count()))
    first = dict(zip(reversed(keys), reversed(points)))  # the last write is the first point
    return list(map(number.__getitem__, keys)), list(map(first.__getitem__, number))


def _candidates_below(b: int, classes, strides) -> int:
    """The candidates whose class tuple is below b, for b at most the
    product of the class counts: a sum over b's mixed-radix digits, from
    the slowest atom.  With each atom's kept classes for its points'
    classes, the kept class tuples below b.  Once b is 0 the digits left
    are 0, and no class lies below 0, so an empty product counts 0.  With
    no atoms there is no digit, and b, 0 or 1, counts their one candidate."""
    count, above = 0, 1
    for k in reversed(range(len(classes))):
        if not b:
            break
        d, b = divmod(b, strides[k])
        count += above * sum(c < d for c in classes[k]) * math.prod(map(len, classes[:k]))
        above *= classes[k].count(d)
    return count + above * b


def first_hit(objective: Formula | None, members, budget: int, found: str, missed: str) -> SearchResult:
    """``PoolSearch(objective, members).first(budget)`` as a result: its
    hit with status ``found``, else no witness and status ``missed``.  A hit
    is exact; a miss is only as strong as the budget."""
    evaluations, pairs = PoolSearch(objective, members).first(budget)
    if pairs is None:
        return SearchResult(Fraction(1), missed, None, evaluations)
    witness = ReducedModel(pairs)
    value = Fraction(1) if objective is None else eval_prob(witness, objective)[0]
    return SearchResult(value, found, witness, evaluations)


def check_tautology(f: Formula, budget: int = 100_000) -> SearchResult:
    """Search the per-atom disk for a model giving f a value below 1: the
    ``first_hit`` of a ``PoolSearch`` with no members, whose pool is the
    fixed 61 points."""
    return first_hit(f, (), budget, "counterexample", "tautology-no-counterexample")


def consequence(alpha: Formula, beta: Formula, budget: int = 100_000) -> SearchResult:
    """Semantic consequence check: alpha entails beta iff alpha -> beta is
    a tautology, searched as ``check_tautology`` does within ``budget``."""
    return check_tautology(Bin(IMPLIES, alpha, beta), budget=budget)


# ---------------------------------------------------------------------------
# Relevance degree


@dataclass
class RelevanceOptions:
    grid: Fraction = Fraction(1, 32)
    tol: float = 1e-6
    budget: int = 100_000

    def validate(self) -> None:
        """Raise ``ValueError`` unless budget >= 1, 2**-52 <= grid <= 1 (a
        finer grid's points are not distinct floats) and tol is finite and positive.
        A rejected grid is shown to 6 significant digits, as its exact
        fraction can run to any length."""
        if self.budget < 1:
            raise ValueError(f"budget must be at least 1, got {self.budget}")
        if not Fraction(1, 2**52) <= self.grid <= 1:
            raise ValueError(f"grid must be in [2**-52, 1], got {_six_digits(self.grid)}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")


# Only a point of residual at most this is snapped to exact models.
_STRICT_RESIDUAL = 1e-13


@functools.lru_cache(maxsize=4)
def _float_pool(grid: Fraction, size: int | None = None) -> tuple[tuple[float, float], ...]:
    """The distinct seed points, or the first ``size`` of them: five fixed
    points, the grid of pitch ``grid`` in the disk row by row, reading
    only each row's disk interval, then 64 boundary points."""

    def points():
        yield from ((1.0, 0.5), (0.0, 0.5), (0.5, 0.5), (0.5, 0.0), (0.5, 1.0))
        steps = max(2, round(1 / float(grid)))
        g = 1.0 / steps
        for i in range(steps + 1):
            u = i * g
            # The interval of w that the test below admits, a point wider each way.
            half = math.sqrt(1.0 + 1e-12 - (1 - 2 * u) ** 2) / 2.0
            first, last = math.floor((0.5 - half) / g) - 1, math.ceil((0.5 + half) / g) + 1
            for j in range(max(0, first), min(steps, last) + 1):
                w = j * g
                if (1 - 2 * u) ** 2 + (1 - 2 * w) ** 2 <= 1.0 + 1e-12:
                    yield u, w
        for k in range(64):
            theta = 2.0 * math.pi * k / 64.0
            yield (1.0 - math.cos(theta)) / 2.0, (1.0 - math.sin(theta)) / 2.0

    pool: dict = {}
    for point in points():
        pool[point] = None
        if len(pool) == size:
            break
    return tuple(pool)


def _disk_interval(partner: float) -> tuple[float, float]:
    c = math.sqrt(max(0.0, 1.0 - (1.0 - 2.0 * partner) ** 2))
    return ((1.0 - c) / 2.0, (1.0 + c) / 2.0)


def _descent(alpha: Formula, members, names, opts: RelevanceOptions, budget: int):
    """The float search within ``budget`` evaluations, in the functions
    ``_evaluators`` generates, run only to improve on a pool model that
    the contraction did not prove least: seeds from a per-atom grid (pitch
    ``opts.grid``) and boundary samples, with two or more atoms also 128
    drawn from them by ``random.Random(0)``, then coordinate descent from
    the best, first of the residual 1 - min over members, then of alpha
    without leaving it.  A coordinate no formula reads is set to 1/2, in
    every disk interval, without evaluation.

    A line search is a pure function of ``(*x, ci, phase_a, guard)``, and a
    repeat offers the records only points they have already seen, so each
    line search that finished within the budget is run once per call: a
    repeat takes its final ``x[ci]`` and (r, o) from a memo and counts no
    evaluations.  Starts merge into the same trajectories, so repeats are
    common.  Returns (evaluations, whether the budget ran out, the point of
    least objective among those of residual at most ``_STRICT_RESIDUAL``,
    as a list, or None)."""
    pos = {name: 2 * k for k, name in enumerate(names)}
    search, tol = _evaluators(alpha, members, pos), opts.tol
    evals, records, memo = 0, (None, None), {}

    def sweep(x: list[float], phase_a: bool, guard: float, last: tuple[float, float]):
        # A line search per coordinate read, within the disk its partner allows, from
        # x at (r, o) ``last``; (r, o) at the final x, or None once the budget is spent.
        nonlocal evals, records
        for ci in range(len(x)):
            if ci not in search.reads:
                x[ci] = 0.5
                continue
            key = (*x, ci, phase_a, guard)
            if (hit := memo.get(key)) is not None:
                x[ci], last = hit
                continue
            lo, hi = _disk_interval(x[ci ^ 1])
            used, last, records = search.line_search(x, ci, lo, hi, phase_a, guard, budget - evals, tol, records)
            evals += used
            if last is None:
                return None
            memo[key] = x[ci], last
        return last

    def descend(x: list[float], r: float, o: float) -> bool:
        # From x, whose (r, o) the screen measured; False once the budget is spent.
        # Phase A: drive the constraint residual to (float) zero.
        for _ in range(12):
            if r <= 1e-15:
                break
            if (last := sweep(x, True, 0.0, (r, o))) is None:
                return False
            before, (r, o) = r, last
            if before - r <= 1e-16:
                break
        guard = max(_STRICT_RESIDUAL, r)
        if guard >= tol:
            return True
        # Phase B: improve the objective without leaving feasibility.
        for _ in range(12):
            if (last := sweep(x, False, guard, (r, o))) is None:
                return False
            before, (r, o) = o, last
            if before - o <= tol / 10.0:
                break
        return True

    # A pool of budget + 1 points outlasts the budget, and so would any random seeds.
    pool = _float_pool(opts.grid, budget + 1)
    seeds = [point * len(names) for point in pool]
    if len(names) > 1 and len(pool) <= budget:
        rng = random.Random(0)
        seeds += [[c for _ in names for c in pool[rng.randrange(len(pool))]] for _ in range(128)]

    scored: list[tuple[float, float, int]] = []
    evals, last, records = search.screen(seeds, scored, budget, records)
    exhausted = last is None
    if not exhausted:
        by_residual = heapq.nsmallest(12, scored)
        by_objective = heapq.nsmallest(12, ((obj, residual, idx) for residual, obj, idx in scored if residual <= 0.5))
        starts = dict.fromkeys(idx for *_, idx in by_residual + by_objective)
        # all() stops at the first descent that spends the budget.
        exhausted = not all(descend(list(seeds[idx]), *scored[idx][:2]) for idx in starts)
    return evals, exhausted, records[1]


def _convergents(x: float, count: int, within: float = 1e-12) -> list[Fraction]:
    """The first ``count`` continued-fraction convergents of x within
    ``within`` of it; the last convergent is x itself."""
    n, d = x.as_integer_ratio()
    h0, h1, k0, k1 = 0, 1, 1, 0
    near: list[Fraction] = []
    while d and len(near) < count:
        a, (n, d) = n // d, (d, n % d)
        h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
        if abs(h1 / k1 - x) <= within:
            near.append(Fraction(h1, k1))
    return near


def _snaps(u: float, w: float, tol: float) -> list[tuple[Fraction, Fraction]]:
    """Exact disk points near (u, w): its coordinates' first convergents
    within 1e-12; within 1e-9 of the circle, unless that point lies on it,
    the circle points at tan(θ/2)'s first two; and, as the descent stops
    within ``tol`` of an optimum, its coordinates' first convergents within
    ``tol``, such as 1/3 for a u of 0.3333333364."""
    cu, cw = _convergents(u, 1)[0], _convergents(w, 1)[0]
    points = [(cu, cw)]
    r3, r2 = 1.0 - 2.0 * u, 1.0 - 2.0 * w
    if abs(math.hypot(r3, r2) - 1.0) <= 1e-9 and (1 - 2 * cu) ** 2 + (1 - 2 * cw) ** 2 != 1:
        points += map(_circle_point, _convergents(math.tan(math.atan2(r2, r3) / 2.0), 2))
    points.append((_convergents(u, 1, tol)[0], _convergents(w, 1, tol)[0]))
    return [point for point in dict.fromkeys(points) if _in_disk(*point, Fraction(0))]


# ---------------------------------------------------------------------------
# Interval contraction

# The most boxes that one contraction search narrows before it gives up.
_BOXES = 16


class _Empty(Exception):
    """A contraction emptied an interval: no point of the box meets its targets."""


def _short(q: Fraction, rounding) -> Fraction:
    """q rounded by ``math.floor`` or ``math.ceil`` to a multiple of 2**-64."""
    return Fraction(rounding(q * 2**64), 2**64)


def _reads(g: Formula, k: int = 0) -> set[tuple[str, int]]:
    """The coordinates (atom, 0 for u or 2 for w) that g's value (k = 0) or root (k = 2) reads."""
    if isinstance(g, Atom):
        return {(g.name, k)}
    if isinstance(g, Neg):
        return _reads(g.arg, k)
    if isinstance(g, Sqrt):
        return _reads(g.arg, 2 - k)
    if isinstance(g, Bin) and k == 0:
        return _reads(g.left) | _reads(g.right)
    return set()


def _image(g: Formula, box, memo: dict) -> list:
    """g's interval pair [value lo, value hi, root lo, root hi] over the box
    (atom -> the same list for its u and w), forward from the leaves; each
    subterm's pair is kept in ``memo``, an atom's being its box list."""
    iv = memo.get(g)
    if iv is None:
        if isinstance(g, Atom):
            iv = box[g.name]
        elif isinstance(g, Const):
            iv = [g.value.value, g.value.value, HALF, HALF]
        elif isinstance(g, Neg):
            a = _image(g.arg, box, memo)
            iv = [ONE - a[1], ONE - a[0], ONE - a[3], ONE - a[2]]
        elif isinstance(g, Sqrt):
            a = _image(g.arg, box, memo)
            iv = [a[2], a[3], ONE - a[1], ONE - a[0]]
        else:
            x, y, op = _image(g.left, box, memo), _image(g.right, box, memo), _PAIR_OPS[g.op]
            # Every connective rises in each operand but the left of ->, which falls.
            low, high = (x[1], x[0]) if g.op == IMPLIES else (x[0], x[1])
            iv = [op(low, y[0]), op(high, y[1]), HALF, HALF]
        memo[g] = iv
    return iv


def _operands(op: str, zl, zh, xl, xh, yl, yh):
    """The operand intervals of ``x op y`` narrowed to where its value can lie in [zl, zh]."""
    if op == OPLUS:  # z = min(1, x + y)
        xl, yl = max(xl, zl - yh), max(yl, zl - xh)
        if zh < 1:
            xh, yh = min(xh, zh - yl), min(yh, zh - xl)
    elif op == ODOT:  # z = max(0, x + y - 1)
        xh, yh = min(xh, zh + 1 - yl), min(yh, zh + 1 - xl)
        if zl > 0:
            xl, yl = max(xl, zl + 1 - yh), max(yl, zl + 1 - xh)
    elif op == IMPLIES:  # z = min(1, 1 - x + y)
        xh, yl = min(xh, ONE - zl + yh), max(yl, zl - 1 + xl)
        if zh < 1:
            xl, yh = max(xl, ONE - zh + yl), min(yh, zh - 1 + xh)
    elif op == PRODUCT:  # z = x y, both operands in [0, 1]
        if zl:  # each operand is at least zl over the other's upper end
            if not (xh and yh):
                return 1, 0, 1, 0
            xl, yl = max(xl, zl / yh), max(yl, zl / xh)
        if yl:
            xh = min(xh, zh / yl)
        if xl:
            yh = min(yh, zh / xl)
    elif op == MEET:  # z = min(x, y)
        xl, yl = max(xl, zl), max(yl, zl)
        if yl > zh:
            xh = min(xh, zh)
        if xl > zh:
            yh = min(yh, zh)
    else:  # z = max(x, y)
        xh, yh = min(xh, zh), min(yh, zh)
        if yh < zl:
            xl = max(xl, zl)
        if xh < zl:
            yl = max(yl, zl)
    return xl, xh, yl, yh


def _revise(g: Formula, memo: dict, k: int, lo, hi) -> bool:
    """Narrow g's value (k = 0) or root (k = 2) interval in ``memo`` to
    [lo, hi], then its operands', down to the atoms' boxes (HC4-revise).
    True when an atom's box narrowed; raises ``_Empty`` when an interval
    empties.  An atom's box keeps short fractions: an end that moves past
    a 64-bit denominator is rounded outward by ``_short``."""
    iv = memo[g]
    atom = isinstance(g, Atom)
    if lo <= iv[k]:
        lo = iv[k]
    elif atom and lo.denominator > 2**64:
        lo = max(iv[k], _short(lo, math.floor))
    if hi >= iv[k + 1]:
        hi = iv[k + 1]
    elif atom and hi.denominator > 2**64:
        hi = min(iv[k + 1], _short(hi, math.ceil))
    # max and min return the box's own end on a tie, so an end moved iff it is new.
    if lo is iv[k] and hi is iv[k + 1]:
        return False
    if lo > hi:
        raise _Empty
    iv[k], iv[k + 1] = lo, hi
    if atom:
        return True
    if isinstance(g, Neg):
        return _revise(g.arg, memo, k, ONE - hi, ONE - lo)
    if isinstance(g, Sqrt):
        return _revise(g.arg, memo, 2, lo, hi) if k == 0 else _revise(g.arg, memo, 0, ONE - hi, ONE - lo)
    if isinstance(g, Bin) and k == 0:
        x, y = memo[g.left], memo[g.right]
        xl, xh, yl, yh = _operands(g.op, lo, hi, x[0], x[1], y[0], y[1])
        return _revise(g.left, memo, 0, xl, xh) | _revise(g.right, memo, 0, yl, yh)
    return False


def _disk(iv: list) -> bool:
    """Narrow an atom's box [u lo, u hi, w lo, w hi] to the disk: |1 - 2u|
    is at most the root of 1 - m**2, rounded up to a multiple of 2**-64,
    m being the least |1 - 2w| over w's interval, and likewise w by u.
    True when an end moved; raises ``_Empty`` when the box empties.

    Where the partner's interval holds 1/2, m is 0 and nothing narrows.
    Else, with a/b its end nearest 1/2, 1 - m**2 = 4a(b - a)/b**2, and the
    rounded root r/2**64 gives the ends 1/2 -+ r/2**65.  All of it is
    integer arithmetic on numerators and denominators, and a ``Fraction``
    is built only for an end that moves."""
    moved = False
    for k in (0, 2):
        low, high = iv[2 - k], iv[3 - k]
        if 2 * high.numerator < high.denominator:
            a, b = high.numerator, high.denominator
        elif 2 * low.numerator > low.denominator:
            a, b = low.numerator, low.denominator
        else:
            continue
        n = -((-4 * a * (b - a) << 128) // (b * b))  # (1 - m**2) * 4**64, rounded up
        r = math.isqrt(n)
        r += r * r < n
        lo, hi = iv[k], iv[k + 1]
        up = lo.numerator << 65 < (2**64 - r) * lo.denominator
        down = hi.numerator << 65 > (2**64 + r) * hi.denominator
        if up:
            iv[k] = Fraction(2**64 - r, 2**65)
        if down:
            iv[k + 1] = Fraction(2**64 + r, 2**65)
        if (up or down) and iv[k] > iv[k + 1]:
            raise _Empty
        moved = moved or up or down
    return moved


def _contract(box, targets) -> bool:
    """Narrow the box to each target formula's interval, and to the disk,
    over up to 8 passes or until a pass narrows no box; False when it
    empties.  ``_revise`` and ``_disk`` report each box they narrow, as a
    narrowed end only ever moves inward."""
    try:
        for _ in range(8):
            moved = False
            for g, lo, hi in targets:
                memo: dict = {}
                _image(g, box, memo)
                moved |= _revise(g, memo, 0, lo, hi)
            for iv in box.values():
                moved |= _disk(iv)
            if not moved:
                return True
    except _Empty:
        return False
    return True


def certifies_no_model(members, objective: Formula | None = None, below: Fraction | None = None) -> bool:
    """True when interval contraction proves that no model of ``members``
    gives ``objective`` a value below ``below``; with ``below`` None, that
    the members have no model at all.  False proves nothing.

    Each atom gets a box, an interval for u and one for w, narrowed by
    ``_contract``: forward interval evaluation, backward from each member's
    target 1 (and the objective's [0, below]), HC4-style (Benhamou et al.,
    "Revising hull and box consistency", ICLP 1999), and by the disk with
    its square root rounded outward.  A box that empties, or whose objective
    interval starts at ``below`` or above, is dropped; the rest are bisected
    at their widest coordinate, the least objective bound first (Moore,
    *Interval Analysis*, 1966).  True when every box is dropped among the
    first ``_BOXES`` narrowed.

    Each bisection narrows two boxes, so with b boxes narrowed and h left
    to bisect, the budget cannot drop them all once b + 2h > ``_BOXES``:
    the search stops there, False, as it would after spending the budget."""
    targets = [(beta, ONE, ONE) for beta in members]
    if below is not None:
        targets.append((objective, ZERO, below))
    formulas = [g for g, _, _ in targets]
    boxes, order = 0, itertools.count()
    heap: list = []

    def narrow(box) -> None:
        nonlocal boxes
        boxes += 1
        if _contract(box, targets):
            low = 0 if below is None else _image(objective, box, {})[0]
            if below is None or low < below:
                heapq.heappush(heap, (low, next(order), box))

    narrow({name: [ZERO, ONE] * 2 for name in set().union(*map(formula_atoms, formulas))})
    reads = sorted(set().union(*map(_reads, formulas))) if heap else ()
    while heap and boxes + 2 * len(heap) <= _BOXES:
        box = heapq.heappop(heap)[2]
        width, name, k = max(((box[name][k + 1] - box[name][k], name, k) for name, k in reads), default=(0, "", 0))
        if not width:
            return False
        middle = (box[name][k] + box[name][k + 1]) / 2
        for end in (k + 1, k):
            half = {atom: list(iv) for atom, iv in box.items()}
            half[name][end] = middle
            narrow(half)
    return not heap


def relevance_degree(
    theory: Theory, alpha: Formula, options: RelevanceOptions | None = None
) -> SearchResult:
    """The least value of alpha at the exact models of the theory found within
    ``options.budget`` evaluations, the pool's on ties, and a status that a
    certificate or the budget decides.

    ``PoolSearch(alpha, theory.members).least`` runs first, one evaluation
    per class tuple decided, and ``certifies_no_model`` then tries to prove
    its answer, whatever part of the budget the pool spent.  With no pool
    model the value is 1, without a witness, at the pool's count: status
    ``infeasible`` when the contraction proves there is no model, else
    ``tolerance-limited``.  A pool model proved least is the infimum, status
    ``feasible`` at the pool's count.  Otherwise ``_descent`` looks for a
    lower exact value on the budget left: its strict point gives each atom
    the exact disk points of ``_snaps``, each tuple of their product tried
    with ``is_model_of`` at tolerance 0 as one evaluation.  The status is
    then ``feasible``, or ``tolerance-limited`` when the budget ran out.
    Raises ``ValueError`` for options that ``validate`` rejects."""
    opts = options or RelevanceOptions()
    opts.validate()
    search = PoolSearch(alpha, theory.members)
    evals, pairs = search.least(opts.budget)
    if pairs is None:
        status = "infeasible" if certifies_no_model(theory.members) else "tolerance-limited"
        return SearchResult(Fraction(1), status, None, evals)
    found = [ReducedModel(pairs)]
    if certifies_no_model(theory.members, alpha, value := eval_prob(found[0], alpha)[0]):
        return SearchResult(value, "feasible", found[0], evals)
    # Atom-free formulas are always certified, so the descent has an atom to move.
    used, exhausted, strict_x = _descent(alpha, theory.members, search.names, opts, opts.budget - evals)
    evals += used
    snapped = () if strict_x is None else itertools.product(
        *(_snaps(u, w, opts.tol) for u, w in zip(strict_x[::2], strict_x[1::2])))
    for points in snapped:
        if exhausted := evals == opts.budget:
            break
        evals += 1
        model = ReducedModel(dict(zip(search.names, points)))
        if is_model_of(model, theory):
            found.append(model)
    value, witness = min(((eval_prob(model, alpha)[0], model) for model in found), key=lambda vm: vm[0])
    return SearchResult(value, "tolerance-limited" if exhausted else "feasible", witness, evals)


# ---------------------------------------------------------------------------
# Model sampling and file formats


def random_rational_model(
    names, rng: random.Random, denominator: int = 64
) -> ReducedModel:
    """A uniform-ish exact rational model: each atom gets a disk point."""
    pairs = {}
    for name in names:
        while True:
            u = Fraction(rng.randint(0, denominator), denominator)
            w = Fraction(rng.randint(0, denominator), denominator)
            if _in_disk(u, w, Fraction(0)):
                pairs[name] = (u, w)
                break
    return ReducedModel(pairs)


def sample_models(theory: Theory, count: int, seed: int = 0, extra_atoms=()) -> list[ReducedModel]:
    """``count`` exact models of the theory, seeded draws with repeats,
    uniform over the models a ``PoolSearch`` finds in its first size**3
    class tuples, size being the theory's pool.  That covers the whole
    product of up to three atoms, and of more when their class tuples fit.
    A draw picks a passing class tuple with weight its candidate count,
    then a point of each of its classes.  Atoms of ``extra_atoms`` outside
    the theory get seeded fixed-pool points.  Raises ``RuntimeError`` if the
    search finds no model, also for an atom-free theory with a member below 1.
    """
    search = PoolSearch(None, theory.members)
    found = search.model_classes(len(search.pool) ** 3)
    if not found:
        raise RuntimeError("the pool search found no exact model of the theory")
    weights = [math.prod(map(len, groups)) for groups in found]
    pool = _rational_disk_pool()
    free = sorted(set(extra_atoms) - theory.atoms())
    rng = random.Random(seed)
    models = []
    for groups in rng.choices(found, weights, k=count):
        pairs = search.pairs(map(rng.choice, groups))
        pairs.update((name, rng.choice(pool)) for name in free)
        models.append(ReducedModel(pairs))
    return models


def parse_model_text(text: str) -> ReducedModel:
    """Model file: lines ``atom u w`` with fractions or decimals, each
    atom once.  A malformed line, or a pair outside the unit square or
    the disk, is a ``ValueError`` naming the line."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"model line {lineno}: expected 'atom u w'")
        name, u_text, w_text = parts
        if not is_atom_name(name):
            raise ValueError(f"model line {lineno}: {name!r} is not an atom name")
        if name in pairs:
            raise ValueError(f"model line {lineno}: atom {name} is assigned twice")
        try:
            pairs[name] = _checked_pair(name, fraction(u_text), fraction(w_text))
        except ValueError as exc:
            raise ValueError(f"model line {lineno}: {exc}") from None
    return ReducedModel(pairs)


def format_model(model: ReducedModel) -> str:
    lines = []
    for name in sorted(model.assignment):
        u, w = model.assignment[name]
        lines.append(f"{name} {u} {w}")
    return "\n".join(lines) + ("\n" if lines else "")
