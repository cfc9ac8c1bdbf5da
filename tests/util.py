"""Shared generators for the test suite."""

import random
from fractions import Fraction

from hypothesis import strategies as st

from iqcl.algebra import SConstant
from iqcl.calculus import deduction_transform
from iqcl.semantics import ReducedModel, random_rational_model
from iqcl.syntax import (
    BINARY_OPS,
    Atom,
    Bin,
    Const,
    Formula,
    Neg,
    Sqrt,
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
