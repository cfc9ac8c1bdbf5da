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
read off the passing class tuples, without listing their candidates.  The
screen is a function generated per call from the connectives' templates,
in exact integers over a common denominator, compiled once per source.

The relevance degree of a theory T over a formula f is the infimum of
f's value over models giving every member of T value 1.  The search
starts from the pool search's least objective at an exact model.
Interval contraction on the formula trees (HC4, with bisection) tries to
prove that no model lies below a value, or that there is no model; then
it bisects the value: at a midpoint t, either every box empties, and t
is a certified lower end, or exact points of the boxes left may hold a
model below t, the new value.  A status comes from a proof or from the
budget, never from a float.  The same contraction lets the consistency
probe certify a theory inconsistent.  Every search reports one
``SearchResult``: an exact witness or none, the objective's value there,
a status and an evaluation count.  ``eval_prob`` is the exact reference
and ``eval_bloch`` the oracle.
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
    complexity,
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


def _evaluator_source(
    objective: Formula | None, members, pos: dict[str, int], den: int, least: bool = False
) -> tuple[str, tuple[int, ...]]:
    """The source of the function ``_evaluators`` compiles, and the
    coordinates that the formulas read, in order.

    Atom k sits at ``pos[name] = 2k``; its u and w are the coordinates
    ``x{2k}`` and ``x{2k + 1}``.  Only the component each node needs is
    computed: the root of a negation is the negated root, the value of a
    square root is its argument's root, and a binary node's root is 1/2.
    The source holds coordinates, temporaries, integer literals and the
    fixed templates above, never text from a formula.  A value is
    ``num / den**e``, with e tracked here per node: ``.`` adds exponents,
    and the other connectives first bring both operands to the larger
    one.  Atom-free subterms are folded to one literal at their exponent.
    ``evaluate(m, pool, picks)`` screens m candidates, candidate i
    putting atom k at pool index ``picks[k][i]``, whose u and w
    numerators over den are ``pool[0]`` and ``pool[1]`` at that index.
    It is a generator of the indices i at which every member, in order,
    is exactly 1 and the objective, if any, is below 1.  With ``least``
    it yields, of those i, each whose objective is below every one before
    it, so the last one yielded is the first of least objective.
    """
    lines: list[str] = []
    reads: set[int] = set()

    def operand(a, e: int) -> str:
        # An atom-free operand is its exact value until written.
        return str(int(a * den**e)) if isinstance(a, Fraction) else a

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
            return (Fraction(1, 2) if root else g.value.value), 1
        if isinstance(g, Sqrt) and not root:
            return emit(g.arg, True)
        if isinstance(g, (Neg, Sqrt)):
            a, e = emit(g.arg, root and isinstance(g, Neg))
            if isinstance(a, Fraction):
                return 1 - a, e
            return assign("{t} = {one} - {a}", one=den**e, a=a), e
        (a, ea), (b, eb) = emit(g.left, False), emit(g.right, False)
        e = ea + eb if g.op == PRODUCT else max(ea, eb)
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return _PAIR_OPS[g.op](a, b), e
        if g.op != PRODUCT:
            if isinstance(a, str) and ea < e:
                a = assign("{t} = {a} * {scale}", a=a, scale=den ** (e - ea))
            if isinstance(b, str) and eb < e:
                b = assign("{t} = {a} * {scale}", a=b, scale=den ** (e - eb))
            ea = eb = e
        return assign(
            _TEMPLATES[g.op], a=operand(a, ea), b=operand(b, eb), one=den**e, zero=0
        ), e

    for beta in members:
        value, e = emit(beta, False)
        lines.append(f"if {operand(value, e)} != {den**e}: continue")
    value, e = ("None", 0) if objective is None else emit(objective, False)
    read = tuple(sorted(reads))
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
    objective: Formula | None, members, pos: dict[str, int], den: int, least: bool = False
) -> types.SimpleNamespace:
    """``_evaluator_source``'s ``evaluate``, and in ``reads`` the coordinates it reads."""
    return _compile(*_evaluator_source(objective, members, pos, den, least))


def _compile(source: str, reads: tuple[int, ...]) -> types.SimpleNamespace:
    """The functions that ``source`` defines, and ``reads``, in a new namespace.

    A search's source depends only on its formulas' shapes, so each source
    is compiled once, its functions kept in an LRU memo of ``_COMPILED``
    sources and shared; the namespace is each call's own, so that a caller
    may replace a function in it (as the tests do) without touching another."""
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
    (screened, or ruled out by arc consistency), then the value bisection's
    boxes and candidate tuples, but not the boxes of its first contraction
    or of ``certifies_no_model``."""

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
# Interval contraction and the relevance degree

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


def _open_boxes(members, objective: Formula | None = None, below: Fraction | None = None, limit: int = _BOXES):
    """The boxes that hold every model of ``members`` with ``objective``
    below ``below`` (every model, with ``below`` None), as a heap of (the
    objective's lower bound over the box, a tie-break, the box), and the
    count narrowed.  ``_contract`` narrows a box to the members at 1, the
    objective in [0, below] and the disk (HC4; Benhamou et al., ICLP 1999).
    A box emptied or bounded below by ``below`` is dropped; the rest are
    bisected at their widest coordinate, least bound first (Moore, 1966),
    while b boxes narrowed and h open leave b + 2h <= ``limit``."""
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
            low = ZERO if below is None else _image(objective, box, {})[0]
            if below is None or low < below:
                heapq.heappush(heap, (low, next(order), box))

    narrow({name: [ZERO, ONE] * 2 for name in set().union(*map(formula_atoms, formulas))})
    reads = sorted(set().union(*map(_reads, formulas))) if heap else ()
    while heap and boxes + 2 * len(heap) <= limit:
        box = heap[0][2]
        width, name, k = max(((box[name][k + 1] - box[name][k], name, k) for name, k in reads), default=(0, "", 0))
        if not width:
            break
        heapq.heappop(heap)
        middle = (box[name][k] + box[name][k + 1]) / 2
        for end in (k + 1, k):
            half = {atom: list(iv) for atom, iv in box.items()}
            half[name][end] = middle
            narrow(half)
    return heap, boxes


def certifies_no_model(members, objective: Formula | None = None, below: Fraction | None = None) -> bool:
    """True when ``_open_boxes`` leaves no box: no model of ``members`` gives ``objective`` a
    value below ``below`` (with ``below`` None, there is no model).  False proves nothing."""
    return not _open_boxes(members, objective, below)[0]


@dataclass
class RelevanceOptions:
    tol: float = 1e-6
    budget: int = 100_000

    def validate(self) -> None:
        """Raise ``ValueError`` unless budget >= 1 and tol is finite and positive."""
        if self.budget < 1:
            raise ValueError(f"budget must be at least 1, got {self.budget}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")


# The most candidate tuples that one step of the value bisection tries, and the
# most boxes that it narrows in all times the formulas' connectives, two at least.
_CANDIDATES, _WORK = 128, 96


def _simplest(lo: Fraction, hi: Fraction) -> Fraction:
    """The fraction of least denominator in [lo, hi], 0 <= lo <= hi (the Stern-Brocot tree)."""
    whole = math.floor(lo)
    if whole == lo or whole < math.floor(hi):
        return Fraction(whole + (whole != lo))
    return whole + 1 / _simplest(1 / (hi - whole), 1 / (lo - whole))


def _edge(c: Fraction, upper: bool) -> Fraction:
    """c's partner on the disk's edge, above or below 1/2, its root rounded
    down to a multiple of 2**-64, so that the pair lies exactly in the disk."""
    r = math.isqrt((4 * c.numerator * (c.denominator - c.numerator) << 128) // c.denominator**2)  # root * 2**64
    return Fraction(2**64 + r if upper else 2**64 - r, 2**65)


def _points(iv: list, reads: set[int]) -> list[tuple[Fraction, Fraction]]:
    """An atom's candidate disk points in its box, for the components
    ``reads`` (0 for u, 2 for w) that a formula reads, the others at 1/2:
    each read one's simplest fraction, ends and midpoint, or its quarter
    points with both read.  Then they are the simplest fractions' point if
    in the disk, and each value with its disk-edge partners on the sides of
    1/2 that the other interval reaches."""
    parts = 2 * len(reads)
    values = [list(dict.fromkeys((_simplest(iv[k], iv[k + 1]), iv[k], iv[k + 1],
                                  *(iv[k] + (iv[k + 1] - iv[k]) * j / parts for j in range(1, parts)))))
              if k in reads else [HALF] for k in (0, 2)]
    if len(reads) < 2:
        return [(u, w) for u in values[0] for w in values[1]]
    points = [(values[0][0], values[1][0])] if _in_disk(values[0][0], values[1][0], ZERO) else []
    for k, coords in ((0, values[0]), (2, values[1])):
        for upper in [side for side, reached in ((False, iv[2 - k] < HALF), (True, iv[3 - k] > HALF)) if reached]:
            points += [(c, _edge(c, upper)) if k == 0 else (_edge(c, upper), c) for c in coords]
    return list(dict.fromkeys(points))


def _levels(formulas, names) -> list[list[Formula]]:
    """For each k, the largest subterms of ``formulas`` that points for
    atoms 0 to k of ``names`` decide and for atoms 0 to k - 1 do not."""
    levels: list[dict] = [{} for _ in names]
    stack = [(g, len(names)) for g in formulas]
    while stack:
        g, above = stack.pop()
        k = max(map(names.index, formula_atoms(g)), default=0)
        if k < above:
            levels[k][g] = None
        children = (g.arg,) if isinstance(g, (Neg, Sqrt)) else (g.left, g.right) if isinstance(g, Bin) else ()
        stack += [(child, k) for child in children]
    return [list(level) for level in levels]


def _below(members, objective: Formula, heap, below: Fraction, cap: int):
    """The least value below ``below`` of the objective at a candidate model
    in the open boxes of ``heap`` (least bound first, while that is below
    it), with the model's pairs, or None; and the tuples tried, at most
    ``cap``.  A box's tuples, the product of its atoms' ``_points`` cut by
    dropping the last point of the longest list, go atom by atom, fewest
    points first: the subterms atoms 0 to k decide (``_levels``) are
    evaluated once, members among them must be 1, and the objective's
    interval over the other atoms' points must start below the least value
    found.  A tuple ruled out counts as tried."""
    reads = set().union(*map(_reads, (objective, *members)))
    best, tried, checked = None, 0, set(members)

    def descend(k: int, memo: dict) -> None:
        nonlocal best, below
        hull = point[names[k]]
        for u, w in lists[k]:
            point[names[k]] = [u, u, w, w]
            known = dict(memo)
            for g in levels[k]:
                _image(g, point, known)
            if not all(known[beta][0] == 1 for beta in levels[k] if beta in checked):
                continue
            if k + 1 < len(names):
                if _image(objective, point, dict(known))[0] < below:
                    descend(k + 1, known)
            elif known[objective][0] < below:
                below = known[objective][0]
                best = below, {name: (iv[0], iv[2]) for name, iv in point.items()}
        point[names[k]] = hull

    for low, _, box in sorted(heap, key=lambda entry: entry[:2]):
        if low >= below:
            break
        points = {name: _points(iv, {k for atom, k in reads if atom == name}) for name, iv in sorted(box.items())}
        names = sorted(points, key=lambda name: len(points[name]))
        lists = [points[name] for name in names]
        while math.prod(map(len, lists)) > cap - tried:
            longest = max(lists, key=len)
            if len(longest) == 1:
                return best, tried
            longest.pop()
        tried += math.prod(map(len, lists))
        levels = _levels((*members, objective), names)
        point = {name: [min(u for u, _ in ps), max(u for u, _ in ps), min(w for _, w in ps), max(w for _, w in ps)]
                 for name, ps in points.items()}
        descend(0, {})
    return best, tried


def _bracket(members, objective: Formula, witness: ReducedModel, opts: RelevanceOptions, evaluations: int):
    """Bisect the least value of ``objective`` over the models of
    ``members`` from a model ``witness``, on the budget left after
    ``evaluations``; return (a certified lower end, the least value found,
    its model, the evaluations in all).  The lower end starts at the
    least bound of ``_open_boxes`` below the value.  Each step contracts at
    the midpoint t of the value and a floor, at first the lower end: if
    every box empties, t is the lower end and the floor; else the lower end
    rises to the least open bound, the least candidate (``_below``) becomes
    the value, and t an uncertified floor unless the value is below t; it
    stops within ``opts.tol``, without one, or out of boxes (``_WORK``) or budget."""
    value = eval_prob(witness, objective)[0]
    heap, _ = _open_boxes(members, objective, value)
    lower = floor = heap[0][0] if heap else value
    boxes_left = _WORK // max(2, sum(map(complexity, (objective, *members))))
    while value - floor > opts.tol and evaluations < opts.budget and boxes_left:
        t = (floor + value) / 2
        heap, boxes = _open_boxes(members, objective, t, min(_BOXES, boxes_left, opts.budget - evaluations))
        evaluations, boxes_left = evaluations + boxes, boxes_left - boxes
        if not heap:
            lower = floor = t
            continue
        lower, floor = max(lower, heap[0][0]), max(floor, heap[0][0])
        found, tried = _below(members, objective, heap, value, min(_CANDIDATES, opts.budget - evaluations))
        evaluations += tried
        if found is None:
            break
        floor = t if found[0] >= t else floor
        value, witness = found[0], ReducedModel(found[1])
    return lower, value, witness, evaluations


def relevance_degree(
    theory: Theory, alpha: Formula, options: RelevanceOptions | None = None
) -> SearchResult:
    """The least value of alpha at the exact models of the theory found within ``options.budget``
    evaluations: ``PoolSearch.least``'s, then ``_bracket``'s.  With no pool model it is 1,
    ``infeasible`` when ``certifies_no_model`` proves there is none, else ``tolerance-limited``;
    with one, ``feasible``, or ``tolerance-limited`` when the budget ran out before the bracket
    was within tol.  Raises ``ValueError`` for options that ``validate`` rejects."""
    opts = options or RelevanceOptions()
    opts.validate()
    evals, pairs = PoolSearch(alpha, theory.members).least(opts.budget)
    if pairs is None:
        status = "infeasible" if certifies_no_model(theory.members) else "tolerance-limited"
        return SearchResult(Fraction(1), status, None, evals)
    lower, value, witness, evals = _bracket(theory.members, alpha, ReducedModel(pairs), opts, evals)
    status = "tolerance-limited" if evals == opts.budget and value - lower > opts.tol else "feasible"
    return SearchResult(value, status, witness, evals)


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
