"""Shared generators and references for the test suite."""

import math
import random
from fractions import Fraction

from hypothesis import strategies as st

from iqcl import semantics
from iqcl.algebra import SConstant
from iqcl.calculus import deduction_transform
from iqcl.semantics import ReducedModel, SearchResult, eval_prob, random_rational_model
from iqcl.syntax import (
    BINARY_OPS,
    Atom,
    Bin,
    Const,
    Formula,
    Neg,
    Sqrt,
    atoms,
)

_CONST_POOL = (
    SConstant(0, 0),
    SConstant(1, 0),
    SConstant(1, 1),
    SConstant(1, 2),
    SConstant(3, 3),
    SConstant(3, 2),
    SConstant(7, 4),
)


def random_formula(
    rng: random.Random,
    atom_names=("p", "q"),
    depth: int = 4,
    allow_sqrt: bool = True,
    constants=_CONST_POOL,
) -> Formula:
    def sub() -> Formula:
        return random_formula(rng, atom_names, depth - 1, allow_sqrt, constants)

    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.75:
            return Atom(rng.choice(atom_names))
        return Const(rng.choice(constants))
    roll = rng.random()
    if roll < 0.15:
        return Neg(sub())
    if allow_sqrt and roll < 0.3:
        return Sqrt(sub())
    op = rng.choice(BINARY_OPS)
    return Bin(op, sub(), sub())


def random_model(rng: random.Random, atom_names, denominator: int = 64) -> ReducedModel:
    return random_rational_model(atom_names, rng, denominator)


def unit_fraction(rng: random.Random, max_den: int = 64) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(0, den), den)


def formulas(atom_names=("p", "q"), max_leaves: int = 24) -> st.SearchStrategy:
    """Hypothesis strategy over formula trees."""
    leaves = st.one_of(
        st.sampled_from([Atom(n) for n in atom_names]),
        st.sampled_from([Const(c) for c in _CONST_POOL]),
    )
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            inner.map(Neg),
            inner.map(Sqrt),
            st.tuples(st.sampled_from(BINARY_OPS), inner, inner).map(
                lambda t: Bin(*t)
            ),
        ),
        max_leaves=max_leaves,
    )


def node_ids(*roots) -> set[int]:
    """The ids of the distinct node objects reachable from ``roots``."""
    seen, stack = {}, list(roots)
    while stack:
        f = stack.pop()
        if id(f) in seen:
            continue
        seen[id(f)] = f
        if isinstance(f, (Neg, Sqrt)):
            stack.append(f.arg)
        elif isinstance(f, Bin):
            stack += (f.left, f.right)
    return set(seen)


def built_proofs(workloads):
    """The proofs that the benchmark builds: hypothesis used 1-4 times."""
    alpha, beta = Atom("p"), Atom("q")
    for uses in workloads.HYPOTHESIS_USES:
        theory, proof = workloads._input_proof(alpha, beta, uses)
        yield theory, deduction_transform(theory, alpha, proof)[1]


def _constants(f: Formula) -> set[Fraction]:
    if isinstance(f, Const):
        return {f.value.value}
    if isinstance(f, (Neg, Sqrt)):
        return _constants(f.arg)
    if isinstance(f, Bin):
        return _constants(f.left) | _constants(f.right)
    return set()


def reference_pool(members=()) -> list[tuple[Fraction, Fraction]]:
    """The pool search's candidate points, built by list scan in their defining order.

    The 61 fixed points, then, for the members' constants c, the disk
    points with coordinates among c, 1 - c and 1/2.
    """
    half = Fraction(1, 2)

    def add(u, w):
        if (1 - 2 * u) ** 2 + (1 - 2 * w) ** 2 <= 1 and (u, w) not in pool:
            pool.append((u, w))

    pool = [(Fraction(1), half), (Fraction(0), half), (half, half), (half, Fraction(0)), (half, Fraction(1))]
    step = Fraction(1, 8)
    for i in range(9):
        for j in range(9):
            add(i * step, j * step)
    for t in (0, 1, -1, 2, -2, half, -half, 3, -3, Fraction(1, 3), Fraction(-1, 3), 4, -4):
        c = (1 - Fraction(t) ** 2) / (1 + Fraction(t) ** 2)
        s = 2 * Fraction(t) / (1 + Fraction(t) ** 2)
        for r3, r2 in ((c, s), (s, c)):
            add((1 - r3) / 2, (1 - r2) / 2)
    coords = sorted({x for beta in members for c in _constants(beta) for x in (c, 1 - c, half)})
    for u in coords:
        for w in coords:
            add(u, w)
    return pool


def reference_reads(f, root=False) -> set[tuple[str, int]]:
    """The (atom, component) pairs that f's value, or with ``root`` its
    root value, depends on in the pair recursion: 0 for u, 1 for w."""
    if isinstance(f, Atom):
        return {(f.name, int(root))}
    if isinstance(f, Const) or (root and isinstance(f, Bin)):
        return set()
    if isinstance(f, Sqrt):
        return reference_reads(f.arg, not root)
    if isinstance(f, Neg):
        return reference_reads(f.arg, root)
    return reference_reads(f.left) | reference_reads(f.right)


def reference_hits(objective, members=(), budget=100_000):
    """The pool search candidate by candidate, decided by ``eval_prob``.

    Yields ``(i, picks)``, picks holding each atom's index into
    ``reference_pool(members)``, for every candidate i among those the
    search decides at which each member is exactly 1 and the objective,
    if any, is below 1; returns the number of candidates decided.  The
    candidates are those ``PoolSearch`` sweeps: with two or more atoms
    each is first narrowed to the points where its single-atom members
    are 1, and the product is swept with the first atom varying fastest.
    Each atom's points fall into classes of equal read components,
    numbered by first occurrence; a candidate is decided when its tuple
    of classes, as a mixed-radix number with the first atom's class as
    its lowest digit, is below ``budget``.
    """
    formulas = (*members, *(() if objective is None else (objective,)))
    names = sorted(set().union(*map(atoms, formulas)))
    pool = reference_pool(members)
    allowed = [range(len(pool))] * len(names)
    for k, name in enumerate(names if len(names) > 1 else ()):
        own = [beta for beta in members if atoms(beta) == {name}]
        allowed[k] = [j for j in range(len(pool))
                      if all(eval_prob(ReducedModel({name: pool[j]}), beta)[0] == 1 for beta in own)]
    reads = set().union(*map(reference_reads, formulas))
    classes, strides, scales = [], [], []
    for name, points in zip(names, allowed):
        keys = [tuple(pool[j][c] for c in (0, 1) if (name, c) in reads) for j in points]
        number = {key: c for c, key in enumerate(dict.fromkeys(keys))}
        strides.append(math.prod(len(set(column)) for column in classes))
        scales.append(math.prod(map(len, allowed[:len(scales)])))
        classes.append([number[key] for key in keys])

    def candidates(k, i, h, picks):
        # Atoms k, k - 1, ..., 0 still to place; a class only adds to h.
        if k < 0:
            yield i, h, picks
            return
        for j, (point, c) in enumerate(zip(allowed[k], classes[k])):
            if h + c * strides[k] < budget:
                yield from candidates(k - 1, i + j * scales[k], h + c * strides[k], (point, *picks))

    def decide(picks):
        candidate = ReducedModel({name: pool[j] for name, j in zip(names, picks)})
        return all(eval_prob(candidate, beta)[0] == 1 for beta in members) and (
            objective is None or eval_prob(candidate, objective)[0] < 1
        )

    # Candidates with the same class tuple h agree on every component the
    # pair recursion reads, so eval_prob decides each tuple once.  The
    # tuple's second candidate is decided again, so that a component read
    # but missing from reference_reads fails here.
    verdicts, rechecked = {}, set()
    count = 0
    for i, h, picks in candidates(len(names) - 1, 0, 0, ()):
        count += 1
        if h not in verdicts:
            verdicts[h] = decide(picks)
        elif h not in rechecked:
            rechecked.add(h)
            assert decide(picks) == verdicts[h], f"class tuple {h} has two verdicts"
        if verdicts[h]:
            yield i, picks
    return count


def reference_first(objective, members=(), budget=100_000):
    """The per-candidate reference of ``PoolSearch.first``: the first hit
    of ``reference_hits`` as (its index + 1, its pairs), else (every
    decided candidate counted, None)."""
    hits = reference_hits(objective, members, budget)
    try:
        i, picks = next(hits)
    except StopIteration as stop:
        return stop.value, None
    names = sorted(set().union(*map(atoms, (*members, *(() if objective is None else (objective,))))))
    pool = reference_pool(members)
    return i + 1, {name: pool[j] for name, j in zip(names, picks)}


def reference_check_tautology(f, budget=100_000) -> SearchResult:
    """The per-candidate reference of ``check_tautology``: ``reference_first``
    with no members, its hit as the counterexample."""
    evaluations, pairs = reference_first(f, (), budget)
    if pairs is None:
        return SearchResult(Fraction(1), "tautology-no-counterexample", None, evaluations)
    witness = ReducedModel(pairs)
    return SearchResult(eval_prob(witness, f)[0], "counterexample", witness, evaluations)


def counting(monkeypatch):
    """Record the class tuples each generated screen is asked to run on (its ``m``)."""
    screened = []
    evaluators = semantics._evaluators

    def counted_evaluators(*args):
        generated = evaluators(*args)
        evaluate = generated.evaluate
        generated.evaluate = lambda m, pool, picks: screened.append(m) or evaluate(m, pool, picks)
        return generated

    monkeypatch.setattr(semantics, "_evaluators", counted_evaluators)
    return screened


def reference_disk(iv: list) -> bool:
    """``semantics._disk`` in ``Fraction`` arithmetic: narrow an atom's box
    [u lo, u hi, w lo, w hi] to the disk, |1 - 2u| at most the root of 1
    less the least (1 - 2w)**2, rounded up to a multiple of 2**-64, and
    likewise w by u; False when the box empties."""
    half = Fraction(1, 2)
    for k in (0, 2):
        low, high = 1 - 2 * iv[3 - k], 1 - 2 * iv[2 - k]
        if low > 0 or high < 0:  # else the partner may be 1/2, which leaves [0, 1]
            x = 1 - min(low * low, high * high)
            n = -((-x.numerator << 128) // x.denominator)  # x * 4**64, rounded up
            r = math.isqrt(n)
            reach = Fraction(r + (r * r < n), 1 << 64) / 2
            iv[k], iv[k + 1] = max(iv[k], half - reach), min(iv[k + 1], half + reach)
            if iv[k] > iv[k + 1]:
                return False
    return True
