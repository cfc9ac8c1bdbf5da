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
tuple, once; the budget caps the class tuples screened.

The relevance degree of a theory T over a formula f is the infimum of
f's value over models giving every member of T value 1.  It is computed
by multi-start penalised local search: seeds from a per-atom grid plus
disk-boundary samples, refinement by coordinate descent, feasibility
kept honest by only reporting values measured at points whose constraint
residual is essentially zero.

Both searches evaluate through functions generated per call from one
template table of the connectives: in floats for the relevance search,
computing the constraint residual and f's value together, bit-identical
to the pair recursion in floats; in exact integers over a common
denominator for the pool search.  In floats the seed screen and each
line search of the descent, with the evaluation budget and the records
of the best points, run inside the generated functions; the descent and
its choice of starts stay in Python.  ``eval_prob`` is the exact
reference and ``eval_bloch`` the oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import types
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
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


def _checked_pair(name: str, u, w) -> tuple[Fraction, Fraction]:
    """Atom ``name``'s pair as fractions; ``ValueError`` off the unit square or the disk."""
    u, w = Fraction(u), Fraction(w)
    if not (0 <= u <= 1 and 0 <= w <= 1):
        raise ValueError(f"atom {name}: pair ({u}, {w}) outside the unit square")
    if not _in_disk(u, w):
        raise ValueError(f"atom {name}: pair ({u}, {w}) violates the disk constraint")
    return u, w


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
# screen.  Each evaluation of the point x runs _POINT: it stops when the
# budget ``left`` is spent, then keeps the least objective among points of
# residual at most _STRICT_RESIDUAL, (sobj, sx), and the least (residual,
# objective) among points of residual below tol, (lres, lobj, lx), each
# with a copy of x.  {at2} and {at3} are evaluations at that depth.
_POINT = """\
if used == left: return used, True, (sobj, sx, lres, lobj, lx)
used += 1
{coords}= x
{body}
if r <= {strict!r} and (sx is None or o < sobj): sobj, sx = o, x.copy()
if r < tol and (lx is None or r < lres or r == lres and o < lobj): lres, lobj, lx = r, o, x.copy()"""

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
# then [lo, hi] narrowed to best_v +- step; the last point, best_v again.
# A point replaces best_v only when its score is strictly less.
_LINE_SEARCH = """\
def line_search(x, ci, lo, hi, phase_a, guard, left, tol, records):
    sobj, sx, lres, lobj, lx = records
    used = stage = 0
    width = hi - lo
    candidates = [min(max(x[ci], lo), hi)]
    while True:
        for v in candidates:
            {at3}
            if used == 1 or s0 < b0 or s0 == b0 and (s1 < b1 or s1 == b1 and s2 < b2):
                b0, b1, b2, best_v = s0, s1, s2, v
        if stage == 2:
            return used, False, (sobj, sx, lres, lobj, lx)
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
def screen(seeds, scored, left, tol, records):
    sobj, sx, lres, lobj, lx = records
    used = 0
    for x in seeds:
        {at2}
        scored.append((r, o, used - 1))
    return used, False, (sobj, sx, lres, lobj, lx)
"""


def _at(lines, depth: int) -> str:
    """Statements joined for a template slot ``depth`` levels deep."""
    return ("\n" + "    " * depth).join(lines)


def _evaluator_source(
    objective: Formula | None, members, pos: dict[str, int], den: int | None = None
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
    It is written into three functions:

    - ``evaluate(x)`` over a flat float vector returns (r, o);
    - ``line_search(x, ci, lo, hi, phase_a, guard, left, tol, records)``
      narrows coordinate ci within [lo, hi], leaving the best point in
      ``x[ci]``;
    - ``screen(seeds, scored, left, tol, records)`` appends (r, o, index)
      to ``scored`` for each seed in order.

    Both of the last two evaluate at most ``left`` points, keep the
    records ``(sobj, sx, lres, lobj, lx)`` of ``_POINT``, and return
    (evaluations, budget exhausted, records).

    With ``den``: exact integers.  A value is ``num / den**e``, with e
    tracked here per node: ``.`` adds exponents, and the other
    connectives first bring both operands to the larger one.  Atom-free
    subterms are folded here to one literal at their exponent.
    ``evaluate(m, pool, picks)`` screens m candidates, candidate i
    putting atom k at pool index ``picks[k][i]``, whose u and w
    numerators over den are ``pool[0]`` and ``pool[1]`` at that index.
    It is a generator of the indices i at which every member, in order,
    is exactly 1 and the objective, if any, is below 1.
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
        evaluate = f"def evaluate(x):\n    {_at([f'{coords}= x', *lines, 'return r, o'], 1)}\n"
        return "".join((
            evaluate,
            _LINE_SEARCH.format(at3=_at(scored, 3)),
            _SCREEN.format(at2=_at(point, 2)),
        )), read
    if objective is not None:
        lines.append(f"if {operand(value, e)} < {den**e}: yield i")
    else:
        lines.append("yield i")
    coords = "".join(f" x{c}," for c in read)
    columns = "".join(f", map(pool[{c % 2}].__getitem__, picks[{c // 2}])" for c in read)
    body = "".join(f"        {line}\n" for line in lines)
    return f"def evaluate(m, pool, picks):\n    for i,{coords} in zip(range(m){columns}):\n{body}", read


def _evaluators(
    objective: Formula | None, members, pos: dict[str, int], den: int | None = None
) -> types.SimpleNamespace:
    """The functions generated for one search; see ``_evaluator_source``.

    In floats (no ``den``) for the relevance search: ``evaluate``,
    ``line_search`` and ``screen``.  In exact integers over ``den`` for
    the pool search behind tautology and model search: ``evaluate``.
    ``reads`` holds the coordinates they read, in order.
    """
    source, reads = _evaluator_source(objective, members, pos, den)
    namespace: dict = {}
    exec(source, namespace)
    del namespace["__builtins__"]
    return types.SimpleNamespace(**namespace, reads=reads)


# ---------------------------------------------------------------------------
# Exact pool search: tautology, models


@dataclass(frozen=True)
class TautologyReport:
    counterexample: ReducedModel | None
    evaluations: int

    @property
    def is_tautology(self) -> bool:
        return self.counterexample is None

    @property
    def verdict(self) -> str:
        if self.counterexample is None:
            return "tautology-no-counterexample"
        return "counterexample"


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
        t = Fraction(t)
        c = (1 - t * t) / (1 + t * t)
        s = 2 * t / (1 + t * t)
        for r3, r2 in ((c, s), (s, c)):
            boundary.append(((1 - r3) / 2, (1 - r2) / 2))
    return tuple(dict.fromkeys(specials + grid + boundary))


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
    objective, if any, is below 1.

    A candidate gives each atom of the formulas, in sorted order, a point
    of a pool of exact rational disk points: the fixed 61 of
    ``_rational_disk_pool``, then, for the members' constants c, the disk
    points with coordinates among c, 1 - c and 1/2.  Candidates are
    screened by one function generated per run, in exact integers over a
    common denominator of the pool and the constants.
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

    def hits(self, budget: int):
        """Yield ``(i, picks)``, picks holding each atom's pool index, for
        each passing candidate i whose class tuple is among the first
        ``budget`` (at least 1) that the sweep screens.

        With two or more atoms, each is first narrowed to the points where
        its single-atom members are exactly 1.  The product of the narrowed
        points is swept in order, first atom varying fastest (see
        ``_sweep``).  ``screened`` counts the candidates whose class tuple
        was screened: the whole product when the budget covers its tuples.
        """
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
        screen = _evaluators(self.objective, self.members, pos, self.den)
        self.screened = 0
        self.screened = yield from self._sweep(screen, allowed, budget)

    def _sweep(self, screen, allowed, budget: int):
        """Yield the hits of the product of ``allowed`` in sweep order
        among the candidates of its first ``budget`` class tuples, and
        return the number of those candidates.

        The screen's verdict on a candidate depends only on the coordinates
        it reads (``screen.reads``).  So each atom's points fall into
        classes of equal read coordinates, numbered in order of first
        occurrence, and the screen runs once per tuple of classes, in the
        sweep's order.  The walk extends candidates atom by atom, from the
        last (slowest) to the first, keeping a point only if its class,
        with the classes already chosen, begins a passing tuple.

        No candidate before the first one of the first passing tuple
        passes: each earlier candidate's tuple comes before it, because a
        lower class first occurs earlier.  So the walk yields that first
        hit before the remaining tuples are screened; the rest of the walk
        then sees them all.
        """
        # Atoms that keep the whole pool and read the same components share one grouping.
        domains = [(points, tuple(c % 2 for c in screen.reads if c // 2 == k)) for k, points in enumerate(allowed)]
        grouped = {domain: _classes(domain[0], [self.lifted[c] for c in domain[1]]) for domain in set(domains)}
        classes = [grouped[domain][0] for domain in domains]
        firsts = [grouped[domain][1] for domain in domains]
        counts = [len(points) for points in firsts]
        m = math.prod(counts)
        if not m:
            return 0
        # Class tuple h puts atom k in class (h // stride_k) % count_k, as
        # the sweep puts it at a point; the screen sees each class's first point.
        strides = [math.prod(counts[:k]) for k in range(len(counts))]
        columns = [_Column(points, stride, m // (stride * len(points))) for points, stride in zip(firsts, strides)]
        b = min(budget, m)
        passing = screen.evaluate(b, self.lifted, columns)
        screened = math.prod(map(len, allowed)) if b == m else _candidates_below(b, classes, strides)
        h = next(passing, None)
        if h is None:
            return screened
        # live[k]: the class offsets over atoms k, k + 1, ... of the passing tuples screened so far.
        live = [{h - h % stride} for stride in strides]
        walk = iter([(0, 0, ())])
        for k in reversed(range(len(allowed))):
            walk = _extend(walk, allowed[k], classes[k], math.prod(map(len, allowed[:k])), strides[k], live[k])
        i, _, picks = next(walk)
        yield i, picks
        for h in passing:
            for offsets, stride in zip(live, strides):
                offsets.add(h - h % stride)
        for i, _, picks in walk:
            yield i, picks
        return screened

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


def _classes(points, columns):
    """Each point's class of equal values in ``columns``, the classes
    numbered in order of first occurrence, and each class's first point."""
    keys = list(zip(*(map(column.__getitem__, points) for column in columns))) or [()] * len(points)
    number = dict(zip(dict.fromkeys(keys), itertools.count()))
    first = dict(zip(reversed(keys), reversed(points)))  # the last write is the first point
    return list(map(number.__getitem__, keys)), list(map(first.__getitem__, number))


def _candidates_below(b: int, classes, strides) -> int:
    """The candidates whose class tuple is below b, for b below the
    product of the class counts: a sum over b's mixed-radix digits, from
    the slowest atom."""
    count, above = 0, 1
    for k in reversed(range(len(classes))):
        d, b = divmod(b, strides[k])
        count += above * sum(c < d for c in classes[k]) * math.prod(map(len, classes[:k]))
        above *= classes[k].count(d)
    return count


def _extend(walk, points, classes, stride, class_stride, live):
    """The candidates of ``walk``, each ``(i, class offset, picks)`` over
    the atoms after this one, extended by each of this atom's points in
    order whose class offset is in ``live``."""
    offsets = [c * class_stride for c in classes]
    for i, offset, picks in walk:
        for j, point, dc in zip(range(i, i + len(points) * stride, stride), points, offsets):
            if offset + dc in live:
                yield j, offset + dc, (point, *picks)


def check_tautology(f: Formula, budget: int = 100_000) -> TautologyReport:
    """Search the per-atom disk for a model giving f a value below 1.

    The candidates are those of a ``PoolSearch`` with no members, so
    the pool is the fixed 61 points; ``budget`` (at least 1) caps the
    class tuples screened.  ``evaluations`` counts the candidates decided:
    up to the first counterexample in sweep order, else those of the
    screened class tuples.  A counterexample is exact; a
    no-counterexample verdict is only as strong as the budget.
    """
    search = PoolSearch(f)
    for i, picks in search.hits(budget):
        return TautologyReport(ReducedModel(search.pairs(picks)), i + 1)
    return TautologyReport(None, search.screened)


def consequence(alpha: Formula, beta: Formula, budget: int = 100_000) -> TautologyReport:
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
    seed: int = 0

    def validate(self) -> None:
        """Raise ``ValueError`` unless budget >= 1, 0 < grid <= 1 and tol is finite and positive."""
        if self.budget < 1:
            raise ValueError(f"budget must be at least 1, got {self.budget}")
        if not 0 < self.grid <= 1:
            raise ValueError(f"grid must be in (0, 1], got {self.grid}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")


@dataclass
class RelevanceResult:
    value: Fraction | float
    status: str  # "feasible" | "infeasible" | "tolerance-limited"
    witness: ReducedModel | None
    evaluations: int


class _BudgetExhausted(Exception):
    pass


# Residual below this is treated as exact feasibility; values are only
# reported from such points, limiting constraint-slack undershoot to
# sqrt(1e-13) ~ 3e-7 even where the disk couples the coordinates.
_STRICT_RESIDUAL = 1e-13


@functools.lru_cache(maxsize=4)
def _float_pool(grid: Fraction) -> tuple[tuple[float, float], ...]:
    pool = [(1.0, 0.5), (0.0, 0.5), (0.5, 0.5), (0.5, 0.0), (0.5, 1.0)]
    steps = max(2, round(1 / float(grid)))
    g = 1.0 / steps
    for i in range(steps + 1):
        for j in range(steps + 1):
            u, w = i * g, j * g
            if (1 - 2 * u) ** 2 + (1 - 2 * w) ** 2 <= 1.0 + 1e-12:
                pool.append((u, w))
    for k in range(64):
        theta = 2.0 * math.pi * k / 64.0
        pool.append(((1.0 - math.cos(theta)) / 2.0, (1.0 - math.sin(theta)) / 2.0))
    return tuple(dict.fromkeys(pool))


def _disk_interval(partner: float) -> tuple[float, float]:
    rad_sq = 1.0 - (1.0 - 2.0 * partner) ** 2
    c = math.sqrt(max(0.0, rad_sq))
    return ((1.0 - c) / 2.0, (1.0 + c) / 2.0)


def relevance_degree(
    theory: Theory, alpha: Formula, options: RelevanceOptions | None = None
) -> RelevanceResult:
    """Minimise the value of alpha over models of the theory.

    Seeds from a per-atom grid (pitch ``options.grid``) plus boundary
    samples, coordinate-descent refinement to ``options.tol``, penalty on
    the constraint residual 1 - min over members.  Infeasibility (no seed
    reaches residual below tol) reports the ``infeasible`` status and the
    exact value 1; an exhausted budget reports ``tolerance-limited`` with
    the best bound found.  The seed screen, each line search of the
    descent and every evaluation run in the functions ``_evaluators``
    generates for this call; the descent and the choice of its starts are
    here.  Raises ``ValueError`` for options that ``validate`` rejects.
    """
    opts = options or RelevanceOptions()
    opts.validate()
    names = sorted(formula_atoms(alpha) | theory.atoms())

    if not names:
        empty = ReducedModel({})
        feasible = all(eval_prob(empty, beta)[0] == 1 for beta in theory)
        if feasible:
            return RelevanceResult(eval_prob(empty, alpha)[0], "feasible", empty, len(theory) + 1)
        return RelevanceResult(Fraction(1), "infeasible", None, len(theory) + 1)

    pos = {name: 2 * k for k, name in enumerate(names)}
    search = _evaluators(alpha, theory.members, pos)
    evaluate = search.evaluate
    budget, tol = opts.budget, opts.tol
    # The best strictly feasible (objective, point) and the best loosely
    # feasible (residual, objective, point), as the generated loops keep them.
    records = (None, None, None, None, None)

    def sweep(x: list[float], phase_a: bool, guard: float):
        # One line search per coordinate, within the disk its partner allows.
        nonlocal evals, records
        for ci in range(len(x)):
            lo, hi = _disk_interval(x[ci ^ 1])
            used, exhausted, records = search.line_search(x, ci, lo, hi, phase_a, guard, budget - evals, tol, records)
            evals += used
            if exhausted:
                raise _BudgetExhausted

    def descend(x: list[float]):
        # Phase A: drive the constraint residual to (float) zero.
        for _ in range(12):
            before = evaluate(x)[0]
            if before <= 1e-15:
                break
            sweep(x, True, 0.0)
            if before - evaluate(x)[0] <= 1e-16:
                break
        guard = max(_STRICT_RESIDUAL, evaluate(x)[0])
        if guard >= tol:
            return
        # Phase B: improve the objective without leaving feasibility.
        for _ in range(12):
            before = evaluate(x)[1]
            sweep(x, False, guard)
            if before - evaluate(x)[1] <= tol / 10.0:
                break

    pool = _float_pool(opts.grid)
    seeds = [list(point) * len(names) for point in pool]
    if len(names) > 1:
        rng = random.Random(opts.seed)
        for _ in range(128):
            seed_x: list[float] = []
            for _ in names:
                seed_x.extend(pool[rng.randrange(len(pool))])
            seeds.append(seed_x)

    scored: list[tuple[float, float, int]] = []
    evals, exhausted, records = search.screen(seeds, scored, budget, tol, records)
    if not exhausted:
        by_residual = sorted(scored)[:12]
        by_objective = sorted(
            ((obj, residual, idx) for residual, obj, idx in scored if residual <= 0.5)
        )[:12]
        start_ids: list[int] = []
        for _, _, idx in by_residual:
            if idx not in start_ids:
                start_ids.append(idx)
        for _, _, idx in by_objective:
            if idx not in start_ids:
                start_ids.append(idx)
        try:
            for idx in start_ids:
                descend(list(seeds[idx]))
        except _BudgetExhausted:
            exhausted = True

    def to_model(x: list[float]) -> ReducedModel:
        return ReducedModel(
            {name: (Fraction(x[pos[name]]), Fraction(x[pos[name] + 1])) for name in names}
        )

    strict_obj, strict_x, _, loose_obj, loose_x = records
    status = "tolerance-limited" if exhausted else "feasible"
    if strict_x is not None:
        return RelevanceResult(strict_obj, status, to_model(strict_x), evals)
    if loose_x is not None:
        return RelevanceResult(loose_obj, status, to_model(loose_x), evals)
    if exhausted:
        return RelevanceResult(Fraction(1), "tolerance-limited", None, evals)
    return RelevanceResult(Fraction(1), "infeasible", None, evals)


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
    """``count`` exact models of the theory: seeded choices, with repeats,
    among the first size**3 models a ``PoolSearch`` finds in its first
    size**3 class tuples, size being the theory's pool.  That sweeps the
    whole product of up to three atoms, and of more when their class
    tuples fit.  Atoms of ``extra_atoms`` outside the theory get seeded
    fixed-pool points.  Raises ``RuntimeError`` if the search finds no
    model, also for an atom-free theory with a member below 1.
    """
    search = PoolSearch(None, theory.members)
    limit = len(search.pool) ** 3
    found = [picks for _, picks in itertools.islice(search.hits(limit), limit)]
    if not found:
        raise RuntimeError("the pool search found no exact model of the theory")
    pool = _rational_disk_pool()
    free = sorted(set(extra_atoms) - theory.atoms())
    rng = random.Random(seed)
    models = []
    for _ in range(count):
        pairs = search.pairs(rng.choice(found))
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
