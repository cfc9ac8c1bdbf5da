import ast
import itertools
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from iqcl import semantics
from iqcl.algebra import SConstant
from iqcl.qmix import BlochQmix, P1
from iqcl.semantics import (
    PoolSearch,
    RelevanceOptions,
    ReducedModel,
    Theory,
    UnassignedAtomError,
    _STRICT_RESIDUAL,
    _Empty,
    _contract,
    _descent,
    _disk,
    _disk_interval,
    _evaluator_source,
    _evaluators,
    _float_pool,
    _in_disk,
    _pool_with,
    _rational_disk_pool,
    _six_digits,
    _snaps,
    certifies_no_model,
    check_tautology,
    consequence,
    eval_bloch,
    eval_prob,
    format_model,
    is_model_of,
    parse_model_text,
    random_rational_model,
    reduce_model,
    relevance_degree,
    sample_models,
)
from iqcl.syntax import (
    IMPLIES,
    JOIN,
    MEET,
    ODOT,
    OPLUS,
    PRODUCT,
    Atom,
    Bin,
    Const,
    Neg,
    Sqrt,
    atoms,
    parse,
)
from util import (
    _CONST_POOL,
    counting,
    random_formula,
    random_model,
    reference_check_tautology,
    reference_disk,
    reference_pool,
    reference_reads,
)

H = Fraction(1, 2)


def model(**pairs):
    return ReducedModel({k: (Fraction(u), Fraction(w)) for k, (u, w) in pairs.items()})


def test_disk_constraint_enforced():
    with pytest.raises(ValueError):
        model(p=(1, 1))  # (1-2u)^2 + (1-2w)^2 = 2
    with pytest.raises(ValueError):
        model(p=(Fraction(3, 2), H))
    model(p=(1, H))


def test_eval_examples():
    m = model(p=(1, H))
    assert eval_prob(m, parse("?p")) == (H, 0)
    assert eval_prob(m, parse("3/8")) == (Fraction(3, 8), H)
    m2 = model(p=(Fraction(1, 4), Fraction(5, 8)), q=(Fraction(2, 3), H))
    assert eval_prob(m2, parse("?(p + q)"))[0] == H
    assert eval_prob(m2, parse("p + q"))[0] == min(
        Fraction(1), Fraction(1, 4) + Fraction(2, 3)
    )
    assert eval_prob(m2, parse("!p")) == (Fraction(3, 4), Fraction(3, 8))


def test_sqrt_pair_recursion():
    m = model(p=(Fraction(1, 4), Fraction(5, 8)))
    u, w = eval_prob(m, parse("?p"))
    assert (u, w) == (Fraction(5, 8), Fraction(3, 4))
    # double root equals negation
    assert eval_prob(m, parse("??p")) == eval_prob(m, parse("!p"))


def test_unassigned_atom():
    with pytest.raises(UnassignedAtomError):
        eval_prob(model(p=(1, H)), parse("q"))


def test_reduce_model():
    full = {"p": BlochQmix(0.5, 0.3, 0.4)}
    reduced = reduce_model(full)
    dropped = reduce_model({"p": BlochQmix(0.0, 0.3, 0.4)})
    assert reduced == dropped
    assert reduce_model({"p": P1}).pair("p") == (1, H)
    f = parse("p + !p * ?p")
    assert eval_prob(reduced, f) == eval_prob(dropped, f)


def test_is_model_of():
    T = Theory([parse("p")])
    assert is_model_of(model(p=(1, H)), T)
    assert not is_model_of(model(p=(Fraction(9, 10), H)), T)
    assert is_model_of(model(p=(Fraction(9, 10), H)), Theory())


def test_theory_dedup_and_text():
    T = Theory([parse("p"), parse("p"), parse("q")])
    assert len(T) == 2
    assert Theory([parse("q"), parse("p"), parse("q"), parse("p")]).members == (parse("q"), parse("p"))
    T2 = Theory.from_text("p\n# c\nq\n")
    assert T2.members == T.members
    # one parse shares equal members as one object; hand-built ones are equal too
    T3 = Theory.from_text("p -> q\nq\np -> q\n(p -> q)\n")
    assert T3.members == (parse("p -> q"), parse("q"))
    assert len(Theory([parse("p . q"), Bin(".", Atom("p"), Atom("q"))])) == 1


def test_theory_membership_repr_and_equality_go_by_the_members():
    T = Theory.from_text("p -> q\nq\n")
    assert Bin("->", Atom("p"), Atom("q")) in T and parse("q") in T
    assert parse("q -> p") not in T and parse("p") not in T
    same = Theory([Bin("->", Atom("p"), Atom("q")), parse("q"), parse("q")])
    assert T == same and hash(T) == hash(same) and T != Theory([parse("q"), parse("p -> q")])
    assert repr(T) == "Theory(members=(Bin(op='->', left=Atom(name='p'), right=Atom(name='q')), Atom(name='q')))"


def test_tautology_examples():
    assert check_tautology(parse("p -> (q -> p)")).witness is None
    report = check_tautology(parse("p"))
    assert report.witness is not None
    assert report.witness == model(p=(0, H))
    assert check_tautology(parse("p -> p + p")).witness is None


def test_rational_disk_pool_order():
    assert list(_rational_disk_pool()) == reference_pool()
    assert len(reference_pool()) == 61


# 1/2**10 forces the screen's common denominator from 680 up to 680 * 2**7.
_WIDE_CONSTANTS = _CONST_POOL + (SConstant(1, 10), SConstant(1023, 10))


def _random_taut_candidate(rng, names, depth):
    """A random formula, or one shaped to survive part or all of the sweep."""
    g = random_formula(rng, names, depth, constants=_WIDE_CONSTANTS)
    h = random_formula(rng, names, depth, constants=_WIDE_CONSTANTS)
    shape = rng.randrange(4)
    if shape == 0:
        return g
    if shape == 1:
        return Bin(IMPLIES, g, Bin(JOIN, g, h))  # a tautology: the whole budget
    if shape == 2:
        return Bin(IMPLIES, Bin(PRODUCT, g, h), g)  # a tautology
    return Bin(IMPLIES, g, h)


def _screen_values(g, pos, den, pool, picks):
    """The values the generated integer screen compares with 1, one per candidate.

    The screen yields only the candidates below 1; rewriting its final
    test into a plain yield exposes each value as (numerator, den**e).
    """
    source, count = re.subn(r"if (\w+) < (\d+): yield i\n", r"yield \1, \2\n", _evaluator_source(g, (), pos, den)[0])
    assert count == 1
    namespace = {}
    exec(source, namespace)
    return [Fraction(num, one) for num, one in namespace["evaluate"](len(picks[0]), pool, picks)]


def _lifted_pool(den):
    _, pool_den, pool_u, pool_w = _pool_with(frozenset())
    lift = den // pool_den
    return [x * lift for x in pool_u], [x * lift for x in pool_w]


def test_screen_matches_eval_prob():
    # The generated integer screen, candidate by candidate, for both components.
    rng = random.Random(212)
    pool = _rational_disk_pool()
    den = 680 * 2**7
    lifted = _lifted_pool(den)
    pos = {"p": 0, "q": 2}
    for _ in range(150):
        f = random_formula(rng, ("p", "q"), depth=5, constants=_WIDE_CONSTANTS)
        picks = [[rng.randrange(len(pool)) for _ in range(20)] for _ in pos]
        models = [ReducedModel({"p": pool[picks[0][i]], "q": pool[picks[1][i]]}) for i in range(20)]
        for g in (f, Sqrt(f)):
            exact = [eval_prob(m, g)[0] for m in models]
            assert _screen_values(g, pos, den, lifted, picks) == exact
            below = [i for i, v in enumerate(exact) if v < 1]
            assert list(_evaluators(g, (), pos, den).evaluate(20, lifted, picks)) == below


def test_screen_with_members_matches_is_model_of():
    # Member mode over a full sweep of the two-atom pool product: an index
    # is yielded exactly when every member is exactly 1 (and the objective,
    # if any, is below 1) by eval_prob.
    rng = random.Random(215)
    pool = _rational_disk_pool()
    den = 680 * 2**7
    lifted = _lifted_pool(den)
    pos = {"p": 0, "q": 2}
    picks = [[i % len(pool) for i in range(len(pool) ** 2)], [i // len(pool) for i in range(len(pool) ** 2)]]
    models = [ReducedModel({"p": pool[i], "q": pool[j]}) for i, j in zip(*picks)]
    yielded = 0
    for _ in range(12):

        def formula():
            return random_formula(rng, ("p", "q"), depth=rng.randint(0, 3), constants=_WIDE_CONSTANTS)

        members = [rng.choice((formula(), Bin(IMPLIES, formula(), formula()), Bin(OPLUS, formula(), formula())))
                   for _ in range(rng.randint(1, 3))]
        objective = rng.choice((None, formula()))
        theory = Theory(members)
        expected = [
            i for i, m in enumerate(models)
            if is_model_of(m, theory) and (objective is None or eval_prob(m, objective)[0] < 1)
        ]
        screen = _evaluators(objective, theory.members, pos, den).evaluate
        assert list(screen(len(models), lifted, picks)) == expected, (objective, members)
        yielded += len(expected)
    assert 0 < yielded < 12 * len(models)


def test_integer_mode_folds_constants():
    # Atom-free subterms become one literal at their exponent, never a
    # product of two literals computed again at every candidate.
    rng = random.Random(216)
    pos = {"p": 0, "q": 2}
    for _ in range(200):
        objective = random_formula(rng, ("p", "q"), depth=5, constants=_WIDE_CONSTANTS)
        members = [random_formula(rng, ("p", "q"), depth=4, constants=_WIDE_CONSTANTS) for _ in range(rng.randint(0, 2))]
        source, _ = _evaluator_source(rng.choice((None, objective)), members, pos, 680 * 2**7)
        assert not re.search(r"= \d+ \* \d+", source), source
    assert "173400" in _evaluator_source(parse("(p . ?q -> 3/8) | !?p"), (), pos, 680)[0]  # 3/8 at exponent 2: 255 * 680


def test_tautology_matches_reference_on_random_formulas():
    rng = random.Random(210)
    for _ in range(30):
        f = _random_taut_candidate(rng, ("p", "q"), depth=3)
        budget = rng.choice((200, 2000, 5000))
        assert check_tautology(f, budget) == reference_check_tautology(f, budget), f


def test_tautology_matches_reference_beyond_64_bits():
    # Nested products add exponents: value = num / den**e with den**e
    # far past 2**63, where a fixed-width screen would wrap.
    rng = random.Random(211)
    for _ in range(4):
        deep = random_formula(rng, ("p", "q"), depth=2, constants=_WIDE_CONSTANTS)
        for _ in range(6):
            deep = Bin(PRODUCT, random_formula(rng, ("p", "q"), depth=2, constants=_WIDE_CONSTANTS), deep)
        source, _ = _evaluator_source(deep, (), {"p": 0, "q": 2}, 680 * 2**7)
        one = int(re.search(r" < (\d+): yield i\n", source).group(1))  # den**e
        assert one > 2**63
        factor = deep.left
        for f in (Bin(IMPLIES, deep, factor), Bin(IMPLIES, factor, deep), Bin(OPLUS, deep, Neg(deep))):
            assert check_tautology(f, 300) == reference_check_tautology(f, 300), f
    # One full exhaustive sweep of big numerators.
    f = Bin(IMPLIES, deep, factor)
    assert check_tautology(f, 3721) == reference_check_tautology(f, 3721)


@pytest.mark.parametrize("budget", [1, 60, 3720, 3721, 3722])
def test_tautology_matches_reference_around_exhaustive_threshold(budget):
    # 61**2 = 3721: at or above it two atoms sweep the whole product, as
    # it bounds their class tuples; below it a sweep may stop at the budget.
    formulas = [parse("p -> (q -> p)"), parse("p | q | ?p"), parse("(p -> q) -> (p . q)"),
                parse("!?p + ?q + 1/2")]
    for f in formulas:
        assert check_tautology(f, budget) == reference_check_tautology(f, budget), f


@pytest.mark.parametrize("budget", [1, 2, 17, 60])
def test_tautology_one_atom_budget_below_pool(budget, monkeypatch):
    screened = counting(monkeypatch)
    for f in (parse("p + !p"), parse("p | !p"), parse("?p | !?p | 3/4"), parse("3/8")):
        report = check_tautology(f, budget)
        assert report == reference_check_tautology(f, budget)
        assert screened.pop() <= budget  # class tuples the screen may run on


def test_tautology_counterexample_deep_in_the_sweep():
    # Fails exactly where r is strictly inside (0, 1); p and q cannot help.
    f = parse("(r | !r) | (p & !p) | (q & !q)")
    pool = _rational_disk_pool()
    first_r = next(k for k, (u, _) in enumerate(pool) if 0 < u < 1)
    # Candidate i sets atom k (p, q, r in order) to pool index (i // 61**k) % 61.
    expected = first_r * len(pool) ** 2 + 1
    report = check_tautology(f, budget=len(pool) ** 3)
    assert report.evaluations == expected
    assert report.witness == ReducedModel({"p": pool[0], "q": pool[0], "r": pool[first_r]})
    assert report == reference_check_tautology(f, budget=len(pool) ** 3)


@pytest.mark.parametrize("budget", [0, -3])
def test_tautology_rejects_budget_below_one(budget):
    with pytest.raises(ValueError):
        check_tautology(parse("p -> q"), budget)


def test_constants_are_model_independent():
    for m in (model(), model(p=(1, H)), model(p=(Fraction(1, 3), H))):
        assert eval_prob(m, parse("3/8"))[0] == Fraction(3, 8)


def test_eval_exact_with_awkward_denominators():
    m = model(p=(Fraction(1, 3), H))
    assert eval_prob(m, parse("p . p . p"))[0] == Fraction(1, 27)
    assert eval_prob(m, parse("p + p + p"))[0] == 1


def test_tautology_two_atoms_counterexample_exact():
    report = check_tautology(parse("p -> q"))
    assert report.witness is not None
    m = report.witness
    u_p = eval_prob(m, parse("p"))[0]
    u_q = eval_prob(m, parse("q"))[0]
    assert u_p > u_q


def test_consequence_examples():
    assert consequence(parse("p"), parse("p + q")).witness is None
    assert consequence(parse("p * q"), parse("p")).witness is None
    report = consequence(parse("p"), parse("p . p"))
    assert report.witness is not None
    u = eval_prob(report.witness, parse("p"))[0]
    assert 0 < u < 1


def test_pair_agreement_with_physical_circuit():
    # a third evaluation route: atoms as 2x2 density matrices, unaries by
    # matrix conjugation, products through the Toffoli circuit plus the
    # partial trace, everything else rebuilt from Born probabilities
    import numpy as np

    from iqcl import nqubit_sim
    from iqcl.algebra import mv_implies, mv_join, mv_meet, mv_oplus
    from iqcl.syntax import Atom, Bin, Const, Neg, Sqrt

    ops = {
        "+": lambda a, b: float(min(1.0, a + b)),
        "*": lambda a, b: float(max(0.0, a + b - 1.0)),
        "->": lambda a, b: float(min(1.0, 1.0 - a + b)),
        "&": min,
        "|": max,
    }

    def eval_matrix(mats, f):
        if isinstance(f, Atom):
            return mats[f.name]
        if isinstance(f, Const):
            return nqubit_sim.diagonal_density(float(f.value.value))
        if isinstance(f, Neg):
            gate = nqubit_sim.not_j(1, 1)
            return gate @ eval_matrix(mats, f.arg) @ gate.conj().T
        if isinstance(f, Sqrt):
            gate = nqubit_sim.sqrt_not_j(1, 1)
            return gate @ eval_matrix(mats, f.arg) @ gate.conj().T
        left = eval_matrix(mats, f.left)
        right = eval_matrix(mats, f.right)
        if f.op == ".":
            return nqubit_sim.partial_trace(nqubit_sim.and_gate(left, right), 1)
        value = ops[f.op](nqubit_sim.prob_n(left), nqubit_sim.prob_n(right))
        return nqubit_sim.diagonal_density(value)

    rng = random.Random(203)
    for _ in range(60):
        f = random_formula(rng, ("p", "q"), depth=4)
        m = random_model(rng, ("p", "q"), denominator=32)
        mats = {
            name: nqubit_sim.bloch_embed(
                BlochQmix(0.0, float(1 - 2 * w), float(1 - 2 * u))
            )
            for name, (u, w) in m.assignment.items()
        }
        physical = nqubit_sim.prob_n(eval_matrix(mats, f))
        exact = float(eval_prob(m, f)[0])
        assert abs(physical - exact) < 1e-10


def test_pair_bloch_agreement():
    rng = random.Random(200)
    for _ in range(200):
        f = random_formula(rng, ("p", "q"), depth=4)
        m = random_model(rng, ("p", "q"))
        bloch = {
            name: BlochQmix(0.0, float(1 - 2 * w), float(1 - 2 * u))
            for name, (u, w) in m.assignment.items()
        }
        exact = float(eval_prob(m, f)[0])
        folded = eval_bloch(bloch, f)
        assert abs(exact - folded) < 1e-12


def test_relevance_examples():
    r = relevance_degree(Theory([parse("p")]), parse("?p"))
    assert r.status == "feasible"
    assert abs(float(r.value) - 0.5) < 1e-6
    assert r.witness is not None
    u, _ = eval_prob(r.witness, parse("p"))
    assert u >= Fraction(999999, 1000000)

    r2 = relevance_degree(Theory([parse("3/4 -> p")]), parse("p"))
    assert abs(float(r2.value) - 0.75) < 1e-3

    r3 = relevance_degree(Theory(), parse("p + !p"))
    assert abs(float(r3.value) - 1.0) < 1e-9


def test_relevance_infeasible():
    r = relevance_degree(Theory([parse("p"), parse("!p")]), parse("q"))
    assert r.status == "infeasible"
    assert r.value == 1


def test_relevance_atom_free():
    r = relevance_degree(Theory([parse("top")]), parse("3/8"))
    assert r.status == "feasible"
    assert r.value == Fraction(3, 8)
    r2 = relevance_degree(Theory([parse("3/8")]), parse("p"))
    assert r2.status == "infeasible"
    assert r2.value == 1


def test_relevance_budget_limited():
    # The budget stops the pool search at 40 of its 61 class tuples, after
    # its model p = (1, 1/2); the contraction proves that model least.
    opts = RelevanceOptions(budget=40)
    r = relevance_degree(Theory([parse("p")]), parse("?p"), opts)
    assert (r.value, r.status, r.evaluations) == (Fraction(1, 2), "feasible", 40)
    r = relevance_degree(Theory([parse("half -> p . q")]), parse("p"), RelevanceOptions(budget=30))
    assert (r.value, r.status, r.evaluations) == (Fraction(1, 2), "feasible", 30)
    # A certificate needs no pool search to its end: the contraction empties
    # {p . q, !(p . q)} after one class tuple.
    r = relevance_degree(Theory([parse("p . q"), parse("!(p . q)")]), parse("q"), RelevanceOptions(budget=1))
    assert (r.value, r.status, r.witness, r.evaluations) == (1, "infeasible", None, 1)


def test_relevance_monotone_in_theory():
    base = Theory([parse("1/4 -> p")])
    larger = Theory([parse("1/4 -> p"), parse("3/4 -> p")])
    r1 = relevance_degree(base, parse("p"))
    r2 = relevance_degree(larger, parse("p"))
    assert float(r1.value) <= float(r2.value) + 1e-6


def _disk_grid(steps):
    points = []
    for i in range(steps + 1):
        for j in range(steps + 1):
            u, w = Fraction(i, steps), Fraction(j, steps)
            if (1 - 2 * u) ** 2 + (1 - 2 * w) ** 2 <= 1:
                points.append((u, w))
    return points


def test_relevance_empty_theory_matches_grid_oracle_one_atom():
    rng = random.Random(201)
    steps = 64
    points = _disk_grid(steps)
    for _ in range(6):
        f = random_formula(rng, ("p",), depth=3)
        grid_best = min(eval_prob(ReducedModel({"p": pt}), f)[0] for pt in points)
        r = relevance_degree(Theory(), f)
        assert float(r.value) <= float(grid_best) + 1e-9
        assert float(r.value) >= float(grid_best) - 2 / steps


def test_relevance_empty_theory_matches_grid_oracle_two_atoms():
    rng = random.Random(202)
    steps = 12
    points = _disk_grid(steps)
    for _ in range(4):
        f = random_formula(rng, ("p", "q"), depth=3)
        grid_best = min(
            eval_prob(ReducedModel({"p": pu, "q": qu}), f)[0]
            for pu in points
            for qu in points
        )
        r = relevance_degree(Theory(), f)
        assert float(r.value) <= float(grid_best) + 1e-9
        assert float(r.value) >= float(grid_best) - 2 * 2 / steps


def _compile(f, pos):
    """Closure computing the (u, w) pair of f over a flat float vector."""
    if isinstance(f, Atom):
        i = pos[f.name]
        return lambda x: (x[i], x[i + 1])
    if isinstance(f, Const):
        v = float(f.value.value)
        return lambda x: (v, 0.5)
    if isinstance(f, Neg):
        sub = _compile(f.arg, pos)

        def neg(x):
            u, w = sub(x)
            return (1.0 - u, 1.0 - w)

        return neg
    if isinstance(f, Sqrt):
        sub = _compile(f.arg, pos)

        def root(x):
            u, w = sub(x)
            return (w, 1.0 - u)

        return root
    left = _compile(f.left, pos)
    right = _compile(f.right, pos)
    op = f.op
    if op == OPLUS:
        return lambda x: (min(1.0, left(x)[0] + right(x)[0]), 0.5)
    if op == ODOT:
        return lambda x: (max(0.0, left(x)[0] + right(x)[0] - 1.0), 0.5)
    if op == IMPLIES:
        return lambda x: (min(1.0, 1.0 - left(x)[0] + right(x)[0]), 0.5)
    if op == PRODUCT:
        return lambda x: (left(x)[0] * right(x)[0], 0.5)
    if op == MEET:
        return lambda x: (min(left(x)[0], right(x)[0]), 0.5)
    return lambda x: (max(left(x)[0], right(x)[0]), 0.5)


def reference_float_evaluator(objective, members, pos):
    """The closure evaluation that _evaluators generates code for, as ``evaluate(x) -> (residual, objective)``."""
    objective_fn = None if objective is None else _compile(objective, pos)
    constraint_fns = [_compile(beta, pos) for beta in members]

    def evaluate(x):
        residual = 0.0
        for fn in constraint_fns:
            residual = max(residual, 1.0 - fn(x)[0])
        return residual, None if objective_fn is None else objective_fn(x)[0]

    return evaluate


def _hex(value):
    return None if value is None else float.hex(value)


def test_float_evaluator_bit_identical_to_closures():
    rng = random.Random(213)
    # Signed zeros and the tie points of min and max, alone and mixed in.
    special = (0.0, -0.0, 0.5, 1.0)
    for _ in range(400):
        names = ("p", "q", "r")[: rng.randint(1, 3)]
        pos = {name: 2 * k for k, name in enumerate(names)}

        def formula():
            return random_formula(rng, names, depth=rng.randint(0, 5), constants=_WIDE_CONSTANTS)

        objective = rng.choice((None, formula()))
        members = [formula() for _ in range(rng.randint(0, 3))]
        screen = _evaluators(objective, members, pos).screen
        reference = reference_float_evaluator(objective, members, pos)
        for _ in range(20):
            x = []
            for _ in names:
                u = rng.random()
                c = (1.0 - (1.0 - 2.0 * u) ** 2) ** 0.5
                x += [u, (1.0 - c) / 2.0 + c * rng.random()]
            x = [rng.choice(special) if rng.random() < 0.3 else c for c in x]
            scored = []
            screen([x], scored, 1, (None, None))
            assert list(map(_hex, scored[0][:2])) == list(map(_hex, reference(x))), (objective, members, x)


def test_float_evaluators_are_the_line_search_and_the_screen():
    generated = _evaluators(parse("?q + r"), [parse("3/4 -> p"), parse("p -> q")], {"p": 0, "q": 2, "r": 4})
    assert sorted(vars(generated)) == ["line_search", "reads", "screen"]


def test_generated_source_holds_no_formula_text():
    # Atom names that are Python names must not reach the source that is
    # exec'd: only the three fixed functions, coordinates, temporaries,
    # fixed locals and builtins, the list method append, and
    # number literals (None for a missing objective, True and False for
    # the budget flag).
    functions = {"evaluate", "line_search", "screen"}
    fixed = {
        "x", "d", "r", "o", "i", "m", "pool", "picks", "zip", "range", "map",
        "ci", "lo", "hi", "phase_a", "guard", "left", "tol", "records", "seeds", "scored",
        "used", "stage", "width", "step", "candidates", "k", "v", "best_v",
        "sobj", "sx", "s0", "s1", "s2", "b0", "b1", "b2",
        "min", "max", "abs", "round", "list",
    }
    rng = random.Random(214)
    names = ("exec", "open", "os")
    pos = {name: 2 * k for k, name in enumerate(names)}
    for _ in range(100):
        objective = random_formula(rng, names, depth=5, constants=_WIDE_CONSTANTS)
        members = [random_formula(rng, names, depth=4) for _ in range(rng.randint(0, 3))]
        for source, _ in (_evaluator_source(rng.choice((None, objective)), members, pos),
                          _evaluator_source(rng.choice((None, objective)), members, pos, 680 * 2**7)):
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.FunctionDef):
                    assert node.name in functions, source
                elif isinstance(node, ast.arg):
                    assert node.arg in fixed, (node.arg, source)
                elif isinstance(node, ast.Name):
                    assert re.fullmatch(r"[xt]\d+", node.id) or node.id in fixed, (node.id, source)
                elif isinstance(node, ast.Constant):
                    assert node.value is None or type(node.value) in (bool, int, float), (node.value, source)
                elif isinstance(node, ast.Attribute):
                    assert node.attr in ("__getitem__", "append"), source


class _BudgetExhausted(Exception):
    pass


def reference_descent(theory, alpha, names, opts, budget, memo=True):
    """The float search of ``_descent`` as Python closures over
    ``reference_float_evaluator``, returning what it returns.

    One Python call per evaluation, per score and per line search, as the
    search was written before its loops moved into the generated
    functions; ``_descent`` must agree with it in every bit.  With
    ``memo``, a line search that finished before, from the same x, at the
    same coordinate, phase and guard, sets x[ci] to its final value
    without evaluating; without it, every line search runs.
    """
    pos = {name: 2 * k for k, name in enumerate(names)}
    values = reference_float_evaluator(alpha, theory.members, pos)
    reads = {pos[name] + c for f in (alpha, *theory) for name, c in reference_reads(f)}

    evals = 0
    best_strict = None  # (objective, x)
    finished = {}  # (*x, ci, phase_a, guard) -> the line search's final x[ci]

    def evaluate(x):
        nonlocal evals, best_strict
        if evals >= budget:
            raise _BudgetExhausted
        evals += 1
        residual, obj = values(x)
        if residual <= _STRICT_RESIDUAL and (best_strict is None or obj < best_strict[0]):
            best_strict = (obj, list(x))
        return residual, obj

    def line_search(x, ci, phase_a, guard):
        if ci not in reads:
            x[ci] = 0.5  # every point of the line has x's value, and 1/2 gives the partner full room
            return
        key = (*x, ci, phase_a, guard)
        if memo and key in finished:
            x[ci] = finished[key]
            return
        partner = x[ci + 1] if ci % 2 == 0 else x[ci - 1]
        lo, hi = _disk_interval(partner)
        width = hi - lo

        def score(v):
            x[ci] = v
            residual, obj = evaluate(x)
            if phase_a:
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
        finished[key] = best_v

    def residual_of(x):
        return values(x)[0]

    def descend(x):
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
        for _ in range(12):
            before = values(x)[1]
            for ci in range(len(x)):
                line_search(x, ci, phase_a=False, guard=guard)
            if before - values(x)[1] <= opts.tol / 10.0:
                break

    pool = _float_pool(opts.grid)
    seeds = []
    for point in pool:
        seeds.append([c for _ in names for c in point])
    if len(names) > 1:
        rng = random.Random(0)
        for _ in range(128):
            seed_x = []
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
        start_ids = []
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
    return evals, exhausted, None if best_strict is None else best_strict[1]


def _assert_matches_reference(theory, alpha, options):
    """``relevance_degree``'s answer, after checking that it is exact and
    that its descent, on the budget the pool screen leaves, agrees in
    every bit with ``reference_descent``.  At the default budget, the
    reference without its memo of line searches must finish too, at the
    same strict point, with no fewer evaluations."""
    result = relevance_degree(theory, alpha, options)
    assert type(result.value) is Fraction and result.evaluations <= options.budget
    if result.witness is not None:
        assert is_model_of(result.witness, theory, Fraction(0))
        assert all(_in_disk(u, w, Fraction(0)) for u, w in result.witness.assignment.values())
        assert eval_prob(result.witness, alpha)[0] == result.value
    names = sorted(atoms(alpha) | theory.atoms())
    if names:
        left = options.budget - PoolSearch(alpha, theory.members).least(options.budget)[0]
        descent = _descent(alpha, theory.members, names, options, left)
        assert repr(descent) == repr(reference_descent(theory, alpha, names, options, left)), (theory, alpha, options)
        if options.budget == RelevanceOptions().budget:
            evals, exhausted, strict_x = reference_descent(theory, alpha, names, options, left, memo=False)
            assert (exhausted, repr(strict_x)) == (False, repr(descent[2])) and descent[1] is False, (theory, alpha)
            assert descent[0] <= evals, (theory, alpha, options)
    return result


@pytest.mark.parametrize("grid", [Fraction(1, 32), Fraction(1, 64)])
def test_relevance_matches_closure_reference(workloads, grid):
    rows = workloads.relevance_rows(random.Random(5))
    assert len(rows) == 14
    for theory, formula, _ in rows:
        _assert_matches_reference(Theory([parse(line) for line in theory]), parse(formula), RelevanceOptions(grid=grid))


def test_relevance_random_theories_match_closure_reference():
    # A coarse tol stops the descent at a residual above _STRICT_RESIDUAL,
    # so phase B starts at its guard and only loose records are kept.
    rng = random.Random(217)
    statuses = set()
    for _ in range(40):
        names = ("p", "q", "r")[: rng.randint(1, 3)]
        members = [random_formula(rng, names, depth=rng.randint(0, 3)) for _ in range(rng.randint(0, 3))]
        alpha = random_formula(rng, names, depth=rng.randint(1, 4))
        options = RelevanceOptions(grid=Fraction(1, 16), tol=rng.choice((1e-6, 1e-2, 1e-1)))
        statuses.add(_assert_matches_reference(Theory(members), alpha, options).status)
    assert statuses == {"feasible", "infeasible"}


def test_relevance_loose_records_match_closure_reference():
    # With p . q pinned to 1/2 the descent reaches no point of residual
    # _STRICT_RESIDUAL, so it keeps only its least residual; the pool's
    # model p = 1/2, q = 1 gives the exact value.
    theory = Theory([parse("p . q -> 1/2"), parse("1/2 -> p . q")])
    for grid in (Fraction(1, 8), Fraction(1, 32)):
        result = _assert_matches_reference(theory, parse("p"), RelevanceOptions(grid=grid))
        assert (result.value, result.status) == (Fraction(1, 2), "feasible")


def test_relevance_guards_that_differ_by_start_match_closure_reference():
    # At tol 1e-2 phase A stops above _STRICT_RESIDUAL from some starts, so
    # phase B runs under three guards, and line searches from the same point
    # under different guards are different searches.
    options = RelevanceOptions(grid=Fraction(1, 16), tol=1e-2)
    result = _assert_matches_reference(Theory([parse("q")]), parse("q -> r"), options)
    assert (result.value, result.status) == (Fraction(0), "feasible")


def test_relevance_budget_limited_matches_closure_reference():
    # Budgets that run out in the pool screen and at its end; then, on the
    # budget the screen leaves, at the first seed, at the last seed, one
    # past the seeds, at each point of the first line search and into its
    # second round, and deep in the descent; and one short of the whole search.
    # The contraction certifies the pool's answer on the last two rows at
    # any budget, so no descent runs: they are feasible at the pool's count
    # once the pool has met a model (at budget 1 for {p}, not for
    # half -> p . q), and tolerance-limited, without a model, before.
    grid = Fraction(1, 32)
    rows = [
        (Theory([parse("3/4 -> p"), parse("p -> q"), parse("q . r -> p")]), parse("?q + r"), False, "tolerance-limited"),
        (Theory([parse("half -> p . q")]), parse("p"), True, "tolerance-limited"),
        (Theory([parse("p")]), parse("?p"), True, "feasible"),
    ]
    for theory, alpha, certified, at_one in rows:
        full = relevance_degree(theory, alpha, RelevanceOptions(grid=grid)).evaluations
        screened = PoolSearch(alpha, theory.members).least(full)[0]
        assert (full == screened) == certified
        seeds = len(_float_pool(grid)) + (128 if len(atoms(alpha) | theory.atoms()) > 1 else 0)
        descent = (1, seeds, *range(seeds + 1, seeds + 14), 3000)
        for budget in (1, screened, *(screened + b for b in descent), full - 1, full):
            result = _assert_matches_reference(theory, alpha, RelevanceOptions(grid=grid, budget=budget))
            if budget == 1:
                assert (result.status, result.evaluations) == (at_one, 1)
            elif certified:
                assert (result.value, result.status, result.evaluations) == (Fraction(1, 2), "feasible", min(budget, screened))
            else:
                assert result.evaluations == budget
                assert result.status == ("tolerance-limited" if budget < full else "feasible")


@pytest.mark.parametrize(
    "options",
    [
        RelevanceOptions(budget=0),
        RelevanceOptions(budget=-3),
        RelevanceOptions(grid=Fraction(0)),
        RelevanceOptions(grid=Fraction(-1, 2)),
        RelevanceOptions(grid=Fraction(3)),
        RelevanceOptions(tol=0.0),
        RelevanceOptions(tol=-1.0),
        RelevanceOptions(tol=math.inf),
        RelevanceOptions(tol=math.nan),
        RelevanceOptions(grid=Fraction(1, 2**53)),
    ],
)
def test_relevance_rejects_options_that_cannot_work(options):
    for theory, alpha in ((Theory([parse("p")]), parse("?p")), (Theory([parse("top")]), parse("3/8"))):
        with pytest.raises(ValueError):
            relevance_degree(theory, alpha, options)


def test_relevance_accepts_grid_one():
    assert relevance_degree(Theory([parse("p")]), parse("?p"), RelevanceOptions(grid=Fraction(1))).status == "feasible"


def test_a_descent_runs_each_line_search_once(monkeypatch, workloads):
    # A line search is a pure function of (*x, ci, phase_a, guard), so within
    # one _descent call no two line searches share that input: a repeat is
    # taken from the memo of those that finished.
    searches = []
    evaluators = semantics._evaluators

    def spied(objective, members, pos, den=None, least=False):
        generated = evaluators(objective, members, pos, den, least)
        if den is None:
            keys, line_search = [], generated.line_search
            searches.append(keys)

            def recorded(x, ci, lo, hi, phase_a, guard, *rest):
                keys.append((*x, ci, phase_a, guard))
                return line_search(x, ci, lo, hi, phase_a, guard, *rest)

            generated.line_search = recorded
        return generated

    monkeypatch.setattr(semantics, "_evaluators", spied)
    rows = [
        (Theory([parse(line) for line in theory]), parse(formula), grid)
        for seed in range(1, 11)
        for theory, formula, _ in workloads.relevance_rows(random.Random(seed))
        for grid in (Fraction(1, 32), Fraction(1, 64))
    ]
    rng = random.Random(218)
    theories = []
    for _ in range(600):
        names = ("p", "q", "r")[: rng.randint(1, 3)]
        members = [random_formula(rng, names, depth=rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
        theories.append((Theory(members), random_formula(rng, names, depth=rng.randint(1, 4)), Fraction(1, 16)))
    descents = []
    for cases in (rows, theories):
        descents.append(0)
        for theory, alpha, grid in cases:
            searches.clear()
            relevance_degree(theory, alpha, RelevanceOptions(grid=grid))
            for keys in searches:
                assert len(set(keys)) == len(keys), (theory, alpha, grid)
                descents[-1] += bool(keys)
    # ?q + r descends at every seed and grid, ?p under h -> p at most.
    assert descents[0] >= 34 and descents[1] >= 10, descents


def test_relevance_builds_at_most_budget_plus_one_seed_points(monkeypatch):
    # A pool of budget + 1 points, for the budget that the pool screen
    # leaves, is the whole pool's prefix, so the answer is unchanged.
    # At grid 2**-52 a row holds some 4.5e9 disk
    # points, and the whole grid 2**104: only a scan that stops at the
    # budget and reads only each row's disk interval answers.  The
    # contraction certifies both rows from the pool alone, so it is switched
    # off here, as it fails to certify where the descent runs.
    monkeypatch.setattr(semantics, "certifies_no_model", lambda *args: False)
    built = []

    def recorded(grid, size=None):
        pool = _float_pool(grid, size)
        built.append(len(pool))
        return pool

    monkeypatch.setattr(semantics, "_float_pool", recorded)
    theory, whole = Theory([parse("p")]), len(_float_pool(Fraction(1, 32)))
    for left, alpha, size in ((40, "?p", 41), (whole, "?p + q", whole), (100_000, "?p + q", whole)):
        budget = PoolSearch(parse(alpha), theory.members).least(10**9)[0] + left
        _assert_matches_reference(theory, parse(alpha), RelevanceOptions(grid=Fraction(1, 32), budget=budget))
        assert built.pop() == size
    for grid, alpha in ((Fraction(1, 4096), "?p"), (Fraction(1, 2**52), "?p + q")):
        left = 1000 - PoolSearch(parse(alpha), theory.members).least(1000)[0]
        result = relevance_degree(theory, parse(alpha), RelevanceOptions(grid=grid, budget=1000))
        assert (result.status, result.evaluations, built.pop()) == ("tolerance-limited", 1000, left + 1)
    assert len(set(_float_pool(Fraction(1, 2**52), 1001))) == 1001


@pytest.mark.parametrize("grid", [Fraction(1, 32), Fraction(1, 64)])
@pytest.mark.parametrize(
    "lines, formula, value",
    [
        (["half -> p . q"], "p", Fraction(1, 2)),
        (["3/4 -> p . q"], "p", Fraction(3, 4)),
        (["1/4 -> p * q"], "p", Fraction(1, 4)),
        (["p + q", "!p + q"], "q", Fraction(1, 2)),
        (["p"], "?p", Fraction(1, 2)),
    ],
)
def test_relevance_is_exact_where_the_float_search_was_not(lines, formula, value, grid):
    # The float search alone reported these as feasible at 0.511 or 0.593,
    # 0.762 or 0.765, 0.3125, 0.4999999999999999 (with a witness that is no
    # model) and 0.49999999999999994 (with a witness off the disk).
    theory = Theory([parse(line) for line in lines])
    result = relevance_degree(theory, parse(formula), RelevanceOptions(grid=grid))
    assert (type(result.value), result.value, result.status) == (Fraction, value, "feasible")
    assert is_model_of(result.witness, theory, Fraction(0))
    assert all(_in_disk(u, w, Fraction(0)) for u, w in result.witness.assignment.values())


@pytest.mark.parametrize("grid", [Fraction(1, 32), Fraction(1, 64)])
def test_relevance_snaps_irrational_optima_to_exact_models(grid):
    # The pool misses these optima by up to 0.084.  An exact model's value
    # is an upper bound on the infimum, checked exactly here:
    # v >= (2 - sqrt 3)/4 iff (2 - 4v)**2 <= 3, and
    # v >= (1 - 2 sqrt(h(1 - h)))/2 iff (1 - 2v)**2 <= 4h(1 - h), for 2 - 4v, 1 - 2v >= 0.
    h = Fraction(15, 16)
    rows = [
        (["3/4 -> p", "p -> q", "q . r -> p"], "?q + r", (2 - math.sqrt(3)) / 4, lambda v: (2 - 4 * v) ** 2 <= 3),
        ([f"{h} -> p"], "?p", (1 - 2 * math.sqrt(h * (1 - h))) / 2, lambda v: (1 - 2 * v) ** 2 <= 4 * h * (1 - h)),
    ]
    for lines, formula, closed_form, above in rows:
        theory = Theory([parse(line) for line in lines])
        result = relevance_degree(theory, parse(formula), RelevanceOptions(grid=grid))
        assert (type(result.value), result.status) == (Fraction, "feasible")
        assert abs(result.value - closed_form) <= 1e-9 and above(result.value), (lines, result.value)
        assert is_model_of(result.witness, theory, Fraction(0))
        assert all(_in_disk(u, w, Fraction(0)) for u, w in result.witness.assignment.values())
        assert eval_prob(result.witness, parse(formula))[0] == result.value


@pytest.mark.parametrize("grid", [Fraction(1, 32), Fraction(1, 64)])
def test_relevance_snaps_to_a_convergent_within_the_descent_tolerance(grid):
    # 3p >= 1 puts the infimum at p = 1/3, off the pool, whose least value
    # is 3/8.  The descent stops at about u = 0.3333333364, within its tol
    # of 1/3 but not within 1e-12, where the convergent is 36090453/108271358.
    result = relevance_degree(Theory([parse("p + p + p")]), parse("p"), RelevanceOptions(grid=grid))
    assert (result.value, result.status) == (Fraction(1, 3), "feasible")
    assert result.witness.pair("p")[0] == Fraction(1, 3)


def test_a_snapped_point_on_the_circle_is_its_atoms_only_candidate(monkeypatch):
    # (1, 1/2) is on the circle at θ = π, where tan(θ/2) is about 1.6e16;
    # the circle point there has u just below 1, so it is no model of p.
    assert semantics._snaps(1.0, 0.5, 1e-6) == [(Fraction(1), Fraction(1, 2))]
    assert semantics._snaps(0.1, 0.2, 1e-6) == [(Fraction(1, 10), Fraction(1, 5))]
    # Off the circle, within 1e-9 of it, the circle points are tried too.
    near = semantics._snaps((1 - math.cos(1.0)) / 2, (1 - math.sin(1.0)) / 2, 1e-6)
    assert len(near) > 1 and all(_in_disk(u, w, Fraction(0)) for u, w in near)
    # So the product of trials for four atoms at (1, 1/2) is one candidate.
    # The contraction certifies the pool's value 1 at once, so it is
    # switched off here, as it fails to certify where the descent runs.
    monkeypatch.setattr(semantics, "certifies_no_model", lambda *args: False)
    tried = []
    check = semantics.is_model_of
    monkeypatch.setattr(semantics, "is_model_of", lambda model, theory: tried.append(model) or check(model, theory))
    result = relevance_degree(Theory.from_text("p\nq\nr\ns"), parse("?p + ?q + ?r + ?s"))
    assert (result.value, result.status, result.evaluations) == (1, "feasible", 17412)
    assert len(tried) == 1 and tried[0] == result.witness


def test_relevance_without_a_rational_model_reports_no_value(monkeypatch):
    # p . p = 1/2 holds only at the irrational u = 1/sqrt 2, and 3p >= 1 with
    # 2p <= 1 - p only at p = 1/3, off the pool: neither has a pool model,
    # and the contraction empties neither.  So there is no exact model to
    # report, nothing certifies that none exists, and the descent, which
    # only improves on a pool model, does not run.
    calls = []
    monkeypatch.setattr(semantics, "_descent", lambda *args: calls.append(args))
    for lines in (["p . p -> 1/2", "1/2 -> p . p"], ["p + p + p", "p + p -> !p"]):
        theory = Theory([parse(line) for line in lines])
        pool = PoolSearch(parse("p"), theory.members).least(100_000)
        assert pool[1] is None and not certifies_no_model(theory.members), lines
        for grid in (Fraction(1, 32), Fraction(1, 64)):
            result = relevance_degree(theory, parse("p"), RelevanceOptions(grid=grid))
            assert (result.value, result.status, result.witness, result.evaluations) == (1, "tolerance-limited", None, pool[0])
    assert calls == []


def test_relevance_value_is_an_exact_fraction_on_every_path(monkeypatch):
    # Random theories, at budgets that run out in the pool screen, in the
    # descent and not at all, and atom-free ones: the value is a Fraction,
    # the value at its witness, an exact model; without one it is 1.
    # infeasible is always a certificate, and the descent runs only from a
    # pool model.
    calls = []
    descent = semantics._descent
    monkeypatch.setattr(semantics, "_descent", lambda *args: calls.append(args) or descent(*args))
    rng = random.Random(223)
    cases = [(Theory([parse("top")]), parse("3/8"), 100), (Theory([parse("3/8")]), parse("1/4"), 100)]
    for _ in range(60):
        names = ("p", "q", "r")[: rng.randint(1, 3)]
        members = [random_formula(rng, names, depth=rng.randint(0, 3)) for _ in range(rng.randint(0, 3))]
        cases.append((Theory(members), random_formula(rng, names, depth=rng.randint(1, 4)), rng.choice((1, 60, 3000, 100_000))))
    statuses, descended = set(), 0
    for theory, alpha, budget in cases:
        result = relevance_degree(theory, alpha, RelevanceOptions(grid=Fraction(1, 16), budget=budget))
        assert type(result.value) is Fraction and result.evaluations <= budget, (theory, alpha, budget)
        assert result.status != "infeasible" or certifies_no_model(theory.members), (theory, alpha, budget)
        if calls:
            assert PoolSearch(alpha, theory.members).least(budget)[1] is not None, (theory, alpha, budget)
            descended += 1
            calls.clear()
        if result.witness is None:
            assert result.value == 1
        else:
            assert is_model_of(result.witness, theory, Fraction(0))
            assert all(_in_disk(u, w, Fraction(0)) for u, w in result.witness.assignment.values())
            assert eval_prob(result.witness, alpha)[0] == result.value
        statuses.add(result.status)
    assert statuses == {"feasible", "infeasible", "tolerance-limited"}
    assert descended == 2  # the rows the contraction leaves open


def _random_row(rng):
    """Atom names, members and a formula: 1-3 atoms, 0-3 members."""
    names = ("p", "q", "r")[: rng.randint(1, 3)]
    members = [random_formula(rng, names, depth=rng.randint(0, 3)) for _ in range(rng.randint(0, 3))]
    return names, members, random_formula(rng, names, depth=rng.randint(1, 4))


def test_contraction_keeps_every_point_that_meets_its_targets():
    # HC4's soundness point by point: a box of pool coordinates around a
    # point of pool disk points, narrowed to intervals that hold formulas'
    # values there, still holds the point.  The pool's circle points with
    # coordinates such as 1/5 and 1/10 test the disk's rounded root.
    # First a product met after !q has pinned q to 0 in the same pass: its
    # rule may neither divide by q's upper end nor empty the box.
    box = {name: [Fraction(0), Fraction(1)] * 2 for name in "pq"}
    assert _contract(box, [(parse("!q & !(p . q)"), Fraction(1), Fraction(1))]) and box["q"][:2] == [0, 0]
    rng = random.Random(251)
    pool = _rational_disk_pool()
    coords = sorted({c for point in pool for c in point})
    for _ in range(600):
        names, _, _ = _random_row(rng)
        point = {name: rng.choice(pool) for name in names}
        box = {
            name: [end for c in pair
                   for end in (rng.choice([x for x in coords if x <= c]), rng.choice([x for x in coords if x >= c]))]
            for name, pair in point.items()
        }
        targets = []
        for _ in range(rng.randint(1, 3)):
            g = random_formula(rng, names, depth=rng.randint(1, 4))
            v = eval_prob(ReducedModel(point), g)[0]
            targets.append((g, *rng.choice(((v, v), (Fraction(0), v), (v, Fraction(1))))))
        assert _contract(box, targets), (point, targets)
        for name, (u, w) in point.items():
            ul, uh, wl, wh = box[name]
            assert ul <= u <= uh and wl <= w <= wh, (point, targets, box)


def _random_end(rng):
    """A box end in [0, 1]: over 2**64 or 2**65 (the ends that ``_short`` and
    ``_disk`` make, some next to 1/2), over a pool denominator, or 1/2."""
    roll = rng.random()
    if roll < 0.1:
        return H
    if roll < 0.4:
        den = rng.choice((2**64, 2**65))
        if rng.random() < 0.5:
            return Fraction(den // 2 + rng.randint(-(2**62), 2**62), den)
        return Fraction(rng.randint(0, den), den)
    den = rng.choice((2, 4, 5, 8, 10, 13, 16, 25, 26, 50, 64, 65))
    return Fraction(rng.randint(0, den), den)


def _random_interval(rng):
    """A point, an interval that holds 1/2, or one between two random ends."""
    roll = rng.random()
    if roll < 0.15:
        return [_random_end(rng)] * 2
    if roll < 0.35:
        return [min(_random_end(rng), H), max(_random_end(rng), H)]
    return sorted((_random_end(rng), _random_end(rng)))


def test_disk_matches_the_fraction_reference():
    # The integer _disk against util.reference_disk, the same narrowing in
    # Fractions: the same ends, the same emptied boxes, and a report of
    # movement exactly when an end moved.
    rng = random.Random(281)
    moved = emptied = 0
    for _ in range(20_000):
        box = _random_interval(rng) + _random_interval(rng)
        expected, got = list(box), list(box)
        kept = reference_disk(expected)
        try:
            report = _disk(got)
        except _Empty:
            report = None
        assert (report is not None, got) == (kept, expected), box
        if report is not None:
            assert report == (got != box), box
        moved += bool(report)
        emptied += report is None
    assert (moved, emptied) == (3258, 427)


def test_contraction_stops_once_its_box_budget_cannot_empty_the_search(workloads, monkeypatch):
    # A bisection narrows two boxes, so with b boxes narrowed and h left to
    # bisect, the search can empty only while b + 2h <= _BOXES; past that it
    # stops, and proves nothing.  The corpus rows whose optimum is
    # irrational narrow 9 boxes, not the 15 of a full budget; the rest are
    # certified in 1.
    narrowed = []
    contract = semantics._contract
    monkeypatch.setattr(semantics, "_contract", lambda box, targets: narrowed.append(box) or contract(box, targets))
    counts = {}
    for seed in (1, 2, 3):
        for lines, formula, expected in workloads.relevance_rows(random.Random(seed)):
            members, alpha = [parse(line) for line in lines], parse(formula)
            pairs = PoolSearch(alpha, members).least(100_000)[1]
            narrowed.clear()
            if pairs is None:
                certified = certifies_no_model(members)
            else:
                certified = certifies_no_model(members, alpha, eval_prob(ReducedModel(pairs), alpha)[0])
            rational = expected is None or Fraction(expected) == Fraction(expected).limit_denominator(1024)
            assert certified == rational, (lines, formula)
            counts[len(narrowed)] = counts.get(len(narrowed), 0) + 1
    assert counts == {1: 36, 9: 6}
    # !(!p . p) is 1 at every point, but its interval is [0, 1] until p is
    # bisected: below 12287/16384 it is certified by the seventh
    # bisection, the last that the budget allows, in 15 boxes.
    narrowed.clear()
    assert certifies_no_model([], parse("!(!p . p)"), Fraction(12287, 16384)) and len(narrowed) == 15


def test_a_certificate_never_meets_a_model_below_it():
    # Random theories of 1-3 atoms.  Certified at the value of alpha at a
    # pool model, or at 1, no pool model lies below it, so no certificate
    # holds above the pool's least value; where one holds at that value,
    # the descent's snapped models are never below it and relevance_degree
    # returns it.  A certified empty theory has no pool model, nor a snapped
    # model, nor a model on the grids of pitch 1/m: m <= 16 for one atom,
    # m <= 4 for two.
    rng = random.Random(257)
    grids = {n: sorted({point for m in range(1, top + 1) for point in _disk_grid(m)}) for n, top in ((1, 16), (2, 4))}
    options = RelevanceOptions(grid=Fraction(1, 16), budget=1500)
    certified = emptied = 0
    for _ in range(150):
        names, members, alpha = _random_row(rng)
        theory = Theory(members)
        _, _, strict_x = reference_descent(theory, alpha, names, options, options.budget)
        snapped = [] if strict_x is None else [
            ReducedModel(dict(zip(names, points))) for points in itertools.product(*map(_snaps, strict_x[::2], strict_x[1::2], itertools.repeat(options.tol)))
        ]
        snapped = [model for model in snapped if is_model_of(model, theory)]
        if certifies_no_model(members):
            emptied += 1
            assert PoolSearch(None, members).model_classes(10**6) == [] and snapped == [], (members, alpha)
            for points in itertools.product(*[grids.get(len(names), ())] * len(names)):
                assert not is_model_of(ReducedModel(dict(zip(names, points))), theory), (members, points)
            continue
        search = PoolSearch(alpha, members)
        values = sorted({eval_prob(ReducedModel(search.pairs([g[0] for g in groups])), alpha)[0]
                         for groups in search.model_classes(10**6)})
        least = (values or [Fraction(1)])[0]
        for bound in dict.fromkeys((*values, Fraction(1))):
            assert not certifies_no_model(members, alpha, bound) or bound <= least, (members, alpha, bound, least)
        if PoolSearch(None, members).model_classes(10**6) and certifies_no_model(members, alpha, least):
            certified += 1
            assert all(eval_prob(model, alpha)[0] >= least for model in snapped), (members, alpha, least)
            result = relevance_degree(theory, alpha, RelevanceOptions(grid=Fraction(1, 16)))
            assert (result.value, result.status) == (least, "feasible"), (members, alpha, result)
    assert (certified, emptied) == (82, 63)


def test_rational_benchmark_rows_are_certified_without_the_descent(workloads, monkeypatch):
    # relevance_rows at seeds 1-10, grids 1/32 and 1/64: each row with a
    # rational closed form returns it exactly, at the pool's count, and no
    # descent runs.  The rows of KNOWN_WRONG_RELEVANCE are among them: the
    # benchmark forgives a failure there, so they are pinned here.  Each
    # irrational row answers as it does with the contraction switched off.
    calls = []
    descent = semantics._descent
    monkeypatch.setattr(semantics, "_descent", lambda *args: calls.append(args) or descent(*args))
    rows = {}
    for seed in range(1, 11):
        rows.update(((tuple(theory), formula), expected) for theory, formula, expected in workloads.relevance_rows(random.Random(seed)))
    certified, irrational = set(), 0
    for (lines, formula), expected in rows.items():
        theory, alpha = Theory([parse(line) for line in lines]), parse(formula)
        rational = expected is None or Fraction(expected) == Fraction(expected).limit_denominator(1024)
        for grid in (Fraction(1, 32), Fraction(1, 64)):
            options = RelevanceOptions(grid=grid)
            result = relevance_degree(theory, alpha, options)
            if rational:
                pool = PoolSearch(alpha, theory.members).least(options.budget)[0]
                closed = (Fraction(1), "infeasible") if expected is None else (Fraction(expected), "feasible")
                assert (type(result.value), result.value, result.status, result.evaluations, calls) == (Fraction, *closed, pool, []), (lines, formula, grid)
                certified.add((lines[0] if lines else "", formula))
                continue
            irrational += 1
            assert len(calls) == 1, (lines, formula, grid)
            with monkeypatch.context() as off:
                off.setattr(semantics, "certifies_no_model", lambda *args: False)
                assert relevance_degree(theory, alpha, options) == result
            calls.clear()
    assert set(workloads.KNOWN_WRONG_RELEVANCE) <= certified
    assert (len(certified), irrational) == (71, 16)


def test_six_digits_matches_the_decimal_quotient():
    # _six_digits forms only 28 digits of the quotient that the Decimal
    # route divides out in full; the text must be the same at rounding
    # carries (9999995 * 10**k is 1.00000e(k + 7)), at ties to even,
    # at exact quotients that keep or lose trailing zeros, and at 28-digit
    # ties, where rounding twice differs from rounding once.
    tie = Fraction(12345650000000000000000000005, 10**28)  # 29 digits: 1.23456 after two roundings, not 1.23457
    cases = [Fraction(0), Fraction(1, 2), Fraction(-3, 7), Fraction(10**30, 10**29), tie, -tie]
    for k in range(-40, 41):
        for m in (9999995, 9999994, 99999950, 1234565, 1234575, 10**28 - 1, 10**29 - 5, 2**100):
            cases += [m * Fraction(10) ** k, -m * Fraction(10) ** k]
    rng = random.Random(224)
    cases += [Fraction(rng.randrange(1, 10 ** rng.randint(1, 80)), rng.randrange(1, 10 ** rng.randint(1, 80))) for _ in range(2000)]
    for q in cases:
        assert _six_digits(q) == f"{Decimal(q.numerator) / q.denominator:.6g}", q
    # The Decimal route takes seconds on these; the digits formed here do not.
    assert _six_digits(Fraction(10**400000)) == "1.00000e+400000"
    assert _six_digits(Fraction(-9999995 * 10**100000)) == "-1.00000e+100007"
    assert _six_digits(Fraction(1, 10**200000)) == "1e-200000"


def test_sample_models_exact():
    T = Theory([parse("p"), parse("p -> q")])
    models = sample_models(T, 10, seed=3, extra_atoms={"r"})
    assert len(models) == 10
    for m in models:
        assert is_model_of(m, T)
        assert "r" in m.assignment


@pytest.mark.parametrize(
    "text",
    [
        "p -> 3/16\n3/16 -> p",
        "!p -> 3/16\n3/16 -> !p",
        "p -> 5/1024\n5/1024 -> p",
        "p + q + r\n!p\n!q",
        "p -> 3/16\n3/16 -> p\nq\nr",
        "p -> 3/16\n3/16 -> p\nq\nr\ns",
        "p + q + r + s\n!p\n!q\n!r",
    ],
)
def test_sample_models_pinned_and_sparse_theories(text):
    # A member pinning an atom (or its negation) to a constant needs the
    # constant's points in the pool; p = q = 0, r = 1 is one point of a
    # 61**3 product.  With three or four atoms, the single-atom members
    # narrow the product to a few candidates, swept in full.
    T = Theory.from_text(text)
    models = sample_models(T, 20, seed=5, extra_atoms={"s"})
    assert len(models) == 20
    for m in models:
        assert is_model_of(m, T, Fraction(0))
        assert all(_in_disk(u, w, Fraction(0)) for u, w in m.assignment.values())
        assert m.atoms() == T.atoms() | {"s"}


def test_pool_search_narrowing_keeps_every_model():
    # Narrowing q by its single-atom members must neither lose nor add a
    # model: the models are exactly those in the theory's pool product.
    T = Theory.from_text("q -> 3/16\n3/16 -> q\np -> q")
    search = PoolSearch(None, T.members)
    pool = search.pool
    classes = search.model_classes(len(pool) ** 2)
    # Sweep order: p varies fastest, and the narrowed points keep the pool's order.
    found = [search.pairs(picks) for picks in sorted(
        (picks for groups in classes for picks in itertools.product(*groups)), key=lambda picks: picks[::-1])]
    assert math.prod(map(len, search._class_tuples(1, least=False)[2])) < len(pool) ** 2
    expected = [
        {"p": a, "q": b}
        for b in pool for a in pool
        if is_model_of(ReducedModel({"p": a, "q": b}), T, Fraction(0))
    ]
    assert len(expected) > 1
    assert found == expected


def test_sample_models_raises_without_a_model():
    with pytest.raises(RuntimeError):
        sample_models(Theory([parse("p"), parse("!p")]), 3)


def test_model_file_round_trip():
    m = parse_model_text("p 1 1/2\nq 0.25 0.625\n")
    assert m.pair("p") == (1, H)
    assert m.pair("q") == (Fraction(1, 4), Fraction(5, 8))
    again = parse_model_text(format_model(m))
    assert again == m
    with pytest.raises(ValueError):
        parse_model_text("p 1 1")  # disk violation
    with pytest.raises(ValueError):
        parse_model_text("p 1")


def test_random_rational_model_in_disk():
    rng = random.Random(202)
    for _ in range(50):
        m = random_rational_model(("p", "q"), rng)
        for u, w in m.assignment.values():
            assert (1 - 2 * u) ** 2 + (1 - 2 * w) ** 2 <= 1
