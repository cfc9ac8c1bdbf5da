"""Reduced-model semantics: exact evaluation, tautology and model search, relevance.

A reduced model assigns each atom a pair (u, w) of rationals — the
probability value of the atom and of its square root — subject to the
disk constraint (1-2u)^2 + (1-2w)^2 <= 1 (the Bloch ball with r1 = 0).
Evaluation of a formula produces the pair (value of f, value of sqrt f)
by structural recursion and is exact whenever the model is rational.

Tautology search, model sampling and the consistency probe are one
exact search over a pool of rational disk points per atom: a candidate
is a model of a theory when every member is exactly 1, and a
counterexample when the objective is below 1.

The relevance degree of a theory T over a formula f is the infimum of
f's value over models giving every member of T value 1.  It is computed
by multi-start penalised local search: seeds from a per-atom grid plus
disk-boundary samples, refinement by coordinate descent, feasibility
kept honest by only reporting values measured at points whose constraint
residual is essentially zero.

Both searches evaluate through one function generated per call from one
template table of the connectives: in floats for the relevance search,
computing the constraint residual and f's value together, bit-identical
to the pair recursion in floats; in exact integers over a common
denominator for the pool search.  ``eval_prob`` is the exact reference
and ``eval_bloch`` the oracle.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
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


@dataclass(frozen=True)
class ReducedModel:
    """Map atom -> (u, w); u = value of the atom, w = value of its root."""

    assignment: dict[str, tuple[Fraction, Fraction]]

    def __post_init__(self):
        checked = {}
        for name, (u, w) in self.assignment.items():
            u, w = Fraction(u), Fraction(w)
            if not (0 <= u <= 1 and 0 <= w <= 1):
                raise ValueError(f"atom {name}: pair ({u}, {w}) outside the unit square")
            if not _in_disk(u, w):
                raise ValueError(f"atom {name}: pair ({u}, {w}) violates the disk constraint")
            checked[name] = (u, w)
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
    objective: Formula | None, members, pos: dict[str, int], den: int | None = None
) -> str:
    """The source of the function ``_float_evaluator`` compiles.

    Atom k sits at ``pos[name] = 2k``; its u and w are the coordinates
    ``x{2k}`` and ``x{2k + 1}``.  Only the component each node needs is
    computed: the root of a negation is the negated root, the value of a
    square root is its argument's root, and a binary node's root is 1/2.
    The source holds coordinates, temporaries, number literals and the
    fixed templates above, never text from a formula.

    Without ``den``: ``evaluate(x)`` over a flat float vector returns
    (residual, value of objective).  The residual is max(0.0, 1.0 - value
    of each member), folded in member order; the value of a missing
    objective is None.  It does the float operations of the pair
    recursion in the same order, so its results are bit-identical to it.

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
    lines: list[str] = []
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

    residual = "0.0"
    for beta in members:
        value, e = emit(beta, False)
        if den is None:
            lines.append(f"d = 1.0 - {value}; r = d if d > {residual} else {residual}")
            residual = "r"
        else:
            lines.append(f"if {operand(value, e)} != {den**e}: continue")
    value, e = ("None", 0) if objective is None else emit(objective, False)
    if den is None:
        coords = "".join(f"x{i}, " for i in range(2 * len(pos)))
        body = "".join(f"    {line}\n" for line in lines)
        return f"def evaluate(x):\n    {coords}= x\n{body}    return {residual}, {value}\n"
    if objective is not None:
        lines.append(f"if {operand(value, e)} < {den**e}: yield i")
    else:
        lines.append("yield i")
    coords = "".join(f" x{c}," for c in sorted(reads))
    columns = "".join(f", map(pool[{c % 2}].__getitem__, picks[{c // 2}])" for c in sorted(reads))
    body = "".join(f"        {line}\n" for line in lines)
    return f"def evaluate(m, pool, picks):\n    for i,{coords} in zip(range(m){columns}):\n{body}"


def _float_evaluator(
    objective: Formula | None, members, pos: dict[str, int], den: int | None = None
):
    """The one generated evaluator behind the searches; see ``_evaluator_source``.

    In floats (no ``den``) for the relevance search, in exact integers
    over ``den`` for the pool search behind tautology and model search.
    """
    namespace: dict = {}
    exec(_evaluator_source(objective, members, pos, den), namespace)
    return namespace["evaluate"]


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


def _numerators(pool) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """A pool over its common denominator: (denominator, u numerators, w numerators)."""
    den = math.lcm(*(c.denominator for point in pool for c in point))
    return den, tuple(int(u * den) for u, _ in pool), tuple(int(w * den) for _, w in pool)


@functools.cache
def _pool_numerators() -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    return _numerators(_rational_disk_pool())


# Candidates screened per batch: the first batch is one pool sweep, so an
# early hit costs little; later batches grow to _CHUNK.
_CHUNK = 4096


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
    screened in batches by one function generated per run, in exact
    integers over a common denominator of the pool and the constants.
    """

    def __init__(self, objective: Formula | None, members=()):
        self.objective, self.members = objective, tuple(members)
        formulas = (*self.members, *(() if objective is None else (objective,)))
        self.names = sorted(set().union(*map(formula_atoms, formulas)))
        self.pool = _rational_disk_pool()
        pool_den, pool_u, pool_w = _pool_numerators()
        coords = sorted({x for c in set().union(*map(_constants, self.members)) for x in (c, 1 - c, Fraction(1, 2))})
        if coords:
            points = [(u, w) for u in coords for w in coords if _in_disk(u, w, Fraction(0))]
            self.pool = tuple(dict.fromkeys(self.pool + tuple(points)))
            pool_den, pool_u, pool_w = _numerators(self.pool)
        self.den = math.lcm(pool_den, *(c.denominator for f in formulas for c in _constants(f)))
        lift = self.den // pool_den
        # Indexed by ``root``: u numerators, then w numerators, over den.
        self.lifted = (tuple(x * lift for x in pool_u), tuple(x * lift for x in pool_w))

    def hits(self, budget: int, seed: int = 0):
        """Yield ``(i, picks)``, picks holding each atom's pool index, for
        each passing candidate i among the first ``budget`` (at least 1).

        With two or more atoms, each is first narrowed to the points where
        its single-atom members are exactly 1.  A product of at most
        ``budget`` points, or of one atom, is swept in order, first atom
        varying fastest; a larger one is searched by the diagonal (every
        atom at its j-th point), then seeded random combinations.
        ``screened`` counts the candidates of the batches run in full.
        """
        if budget < 1:
            raise ValueError(f"budget must be at least 1, got {budget}")
        size, n = len(self.pool), len(self.names)
        allowed = [range(size)] * n
        for k, name in enumerate(self.names if n > 1 else ()):
            own = [beta for beta in self.members if formula_atoms(beta) == {name}]
            if own:
                narrow = _float_evaluator(None, own, {name: 0}, self.den)
                allowed[k] = tuple(narrow(size, self.lifted, [range(size)]))
        sizes = [len(points) for points in allowed]
        exhaustive = n <= 1 or math.prod(sizes) <= budget
        total = min(budget, math.prod(sizes))
        strides = [math.prod(sizes[:k]) for k in range(n)]
        rng = random.Random(seed)
        pos = {name: 2 * k for k, name in enumerate(self.names)}
        screen = _float_evaluator(self.objective, self.members, pos, self.den)

        self.screened = 0
        start, batch = 0, size
        while start < total:
            stop = min(total, start + batch)
            if exhaustive:
                # Candidate i puts atom k at its point (i // stride_k) % size_k.
                indices = [[(i // stride) % s for i in range(start, stop)] for stride, s in zip(strides, sizes)]
            else:
                # The diagonal first, then one draw per atom per candidate.
                head = list(range(start, min(stop, *sizes)))
                draws = [rng.randrange(s) for _ in range(stop - start - len(head)) for s in sizes]
                indices = [head + draws[k::n] for k in range(n)]
            if sizes != [size] * n:
                indices = [[points[j] for j in column] for points, column in zip(allowed, indices)]
            for hit in screen(stop - start, self.lifted, indices):
                yield start + hit, tuple([column[hit] for column in indices])
            start, batch = stop, min(_CHUNK, 8 * batch)
            self.screened = start

    def pairs(self, picks) -> dict[str, tuple[Fraction, Fraction]]:
        """Each atom's disk point at a candidate's picks."""
        return {name: self.pool[j] for name, j in zip(self.names, picks)}


def check_tautology(f: Formula, budget: int = 100_000, seed: int = 0) -> TautologyReport:
    """Search the per-atom disk for a model giving f a value below 1.

    The candidates are those of a ``PoolSearch`` with no members, so
    the pool is the fixed 61 points; ``budget`` (at least 1) caps the
    candidates screened.  Only the first failing candidate becomes a
    ``ReducedModel``.  A returned counterexample is exact; a
    no-counterexample verdict is only as strong as the budget.
    """
    search = PoolSearch(f)
    for i, picks in search.hits(budget, seed):
        return TautologyReport(ReducedModel(search.pairs(picks)), i + 1)
    return TautologyReport(None, search.screened)


def consequence(alpha: Formula, beta: Formula, budget: int = 100_000, seed: int = 0) -> TautologyReport:
    """Semantic consequence check: alpha entails beta iff alpha -> beta is a tautology."""
    return check_tautology(Bin(IMPLIES, alpha, beta), budget=budget, seed=seed)


# ---------------------------------------------------------------------------
# Relevance degree


@dataclass
class RelevanceOptions:
    grid: Fraction = Fraction(1, 32)
    tol: float = 1e-6
    budget: int = 100_000
    seed: int = 0


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
    the best bound found.  Every point is evaluated by one function that
    ``_float_evaluator`` generates for this call.
    """
    opts = options or RelevanceOptions()
    names = sorted(formula_atoms(alpha) | theory.atoms())

    if not names:
        empty = ReducedModel({})
        feasible = all(eval_prob(empty, beta)[0] == 1 for beta in theory)
        if feasible:
            return RelevanceResult(eval_prob(empty, alpha)[0], "feasible", empty, len(theory) + 1)
        return RelevanceResult(Fraction(1), "infeasible", None, len(theory) + 1)

    pos = {name: 2 * k for k, name in enumerate(names)}
    values = _float_evaluator(alpha, theory.members, pos)
    budget, tol = opts.budget, opts.tol

    evals = 0
    best_strict = None  # (objective, x)
    best_loose = None  # (residual, objective, x), least by (residual, objective)

    def evaluate(x: list[float]) -> tuple[float, float]:
        nonlocal evals, best_strict, best_loose
        if evals >= budget:
            raise _BudgetExhausted
        evals += 1
        residual, obj = values(x)
        if residual <= _STRICT_RESIDUAL and (best_strict is None or obj < best_strict[0]):
            best_strict = (obj, list(x))
        if residual < tol and (
            best_loose is None
            or residual < best_loose[0]
            or (residual == best_loose[0] and obj < best_loose[1])
        ):
            best_loose = (residual, obj, list(x))
        return residual, obj

    def line_search(x: list[float], ci: int, phase_a: bool, guard: float):
        partner = x[ci + 1] if ci % 2 == 0 else x[ci - 1]
        lo, hi = _disk_interval(partner)
        width = hi - lo

        def score(v: float):
            x[ci] = v
            residual, obj = evaluate(x)
            if phase_a:
                # Centring tie-break: where the residual is flat, move
                # toward 1/2 so the disk leaves the partner full room.
                return (residual, obj, abs(v - 0.5))
            if residual <= guard:
                return (0.0, obj, abs(v - 0.5))
            return (1.0, residual, 0.0)

        best_v = min(max(x[ci], lo), hi)
        best_s = score(best_v)
        while width > opts.tol / 4.0:
            step = width / 8.0
            candidates = [lo + k * step for k in range(9)]
            candidates.append(min(max(round(best_v * 64.0) / 64.0, lo), hi))
            for v in candidates:
                s = score(v)
                if s < best_s:
                    best_s, best_v = s, v
            lo = max(lo, best_v - step)
            hi = min(hi, best_v + step)
            width = hi - lo
        x[ci] = best_v
        score(best_v)

    def residual_of(x) -> float:
        return values(x)[0]

    def descend(x: list[float]):
        # Phase A: drive the constraint residual to (float) zero.
        for _ in range(12):
            before = residual_of(x)
            if before <= 1e-15:
                break
            for ci in range(len(x)):
                line_search(x, ci, phase_a=True, guard=0.0)
            if before - residual_of(x) <= 1e-16:
                break
        guard = max(_STRICT_RESIDUAL, residual_of(x))
        if guard >= opts.tol:
            return
        # Phase B: improve the objective without leaving feasibility.
        for _ in range(12):
            before = values(x)[1]
            for ci in range(len(x)):
                line_search(x, ci, phase_a=False, guard=guard)
            if before - values(x)[1] <= opts.tol / 10.0:
                break

    pool = _float_pool(opts.grid)
    seeds: list[list[float]] = []
    for point in pool:
        seeds.append([c for _ in names for c in point])
    if len(names) > 1:
        rng = random.Random(opts.seed)
        for _ in range(128):
            seed_x: list[float] = []
            for _ in names:
                seed_x.extend(pool[rng.randrange(len(pool))])
            seeds.append(seed_x)

    exhausted = False
    try:
        scored = []
        for idx, x in enumerate(seeds):
            residual, obj = evaluate(x)
            scored.append((residual, obj, idx))
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
        for idx in start_ids:
            descend(list(seeds[idx]))
    except _BudgetExhausted:
        exhausted = True

    def to_model(x: list[float]) -> ReducedModel:
        return ReducedModel(
            {name: (Fraction(x[pos[name]]), Fraction(x[pos[name] + 1])) for name in names}
        )

    if best_strict is not None:
        obj, x = best_strict
        status = "tolerance-limited" if exhausted else "feasible"
        return RelevanceResult(obj, status, to_model(x), evals)
    if best_loose is not None:
        _, obj, x = best_loose
        status = "tolerance-limited" if exhausted else "feasible"
        return RelevanceResult(obj, status, to_model(x), evals)
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
    among the models a ``PoolSearch`` finds in its first size**3
    candidates, size being the theory's pool; that sweeps the product of
    three atoms, or of more once single-atom members narrow them.  Atoms
    of ``extra_atoms`` outside the theory get seeded fixed-pool points.
    Raises ``RuntimeError`` if the search finds no model, also for an
    atom-free theory with a member below 1.
    """
    search = PoolSearch(None, theory.members)
    found = [picks for _, picks in search.hits(len(search.pool) ** 3, seed)]
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
    """Model file: lines ``atom u w`` with fractions or decimals."""
    pairs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"model line {lineno}: expected 'atom u w'")
        name, u_text, w_text = parts
        pairs[name] = (Fraction(u_text), Fraction(w_text))
    return ReducedModel(pairs)


def format_model(model: ReducedModel) -> str:
    lines = []
    for name in sorted(model.assignment):
        u, w = model.assignment[name]
        lines.append(f"{name} {u} {w}")
    return "\n".join(lines) + ("\n" if lines else "")
