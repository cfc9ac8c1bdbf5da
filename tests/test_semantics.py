import ast
import math
import random
import re
from fractions import Fraction

import pytest

from iqcl.algebra import SConstant
from iqcl.qmix import BlochQmix, P1
from iqcl.semantics import (
    PoolSearch,
    RelevanceOptions,
    RelevanceResult,
    ReducedModel,
    Theory,
    UnassignedAtomError,
    _STRICT_RESIDUAL,
    _disk_interval,
    _evaluator_source,
    _evaluators,
    _float_pool,
    _in_disk,
    _pool_with,
    _rational_disk_pool,
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
from util import _CONST_POOL, counting, random_formula, random_model, reference_check_tautology, reference_pool

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


def test_tautology_examples():
    assert check_tautology(parse("p -> (q -> p)")).is_tautology
    report = check_tautology(parse("p"))
    assert not report.is_tautology
    assert report.counterexample == model(p=(0, H))
    assert check_tautology(parse("p -> p + p")).is_tautology


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
    screened, _ = counting(monkeypatch)
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
    assert report.counterexample == ReducedModel({"p": pool[0], "q": pool[0], "r": pool[first_r]})
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
    assert not report.is_tautology
    m = report.counterexample
    u_p = eval_prob(m, parse("p"))[0]
    u_q = eval_prob(m, parse("q"))[0]
    assert u_p > u_q


def test_consequence_examples():
    assert consequence(parse("p"), parse("p + q")).is_tautology
    assert consequence(parse("p * q"), parse("p")).is_tautology
    report = consequence(parse("p"), parse("p . p"))
    assert not report.is_tautology
    u = eval_prob(report.counterexample, parse("p"))[0]
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
    opts = RelevanceOptions(budget=40)
    r = relevance_degree(Theory([parse("p")]), parse("?p"), opts)
    assert r.status == "tolerance-limited"
    assert r.evaluations <= 40


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
        generated = _evaluators(objective, members, pos).evaluate
        reference = reference_float_evaluator(objective, members, pos)
        for _ in range(20):
            x = []
            for _ in names:
                u = rng.random()
                c = (1.0 - (1.0 - 2.0 * u) ** 2) ** 0.5
                x += [u, (1.0 - c) / 2.0 + c * rng.random()]
            x = [rng.choice(special) if rng.random() < 0.3 else c for c in x]
            assert list(map(_hex, generated(x))) == list(map(_hex, reference(x))), (objective, members, x)


def test_generated_source_holds_no_formula_text():
    # Atom names that are Python names must not reach the source that is
    # exec'd: only the three fixed functions, coordinates, temporaries,
    # fixed locals and builtins, the list methods copy and append, and
    # number literals (None for a missing objective, True and False for
    # the budget flag).
    functions = {"evaluate", "line_search", "screen"}
    fixed = {
        "x", "d", "r", "o", "i", "m", "pool", "picks", "zip", "range", "map",
        "ci", "lo", "hi", "phase_a", "guard", "left", "tol", "records", "seeds", "scored",
        "used", "stage", "width", "step", "candidates", "k", "v", "best_v",
        "sobj", "sx", "lres", "lobj", "lx", "s0", "s1", "s2", "b0", "b1", "b2",
        "min", "max", "abs", "round",
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
                    assert node.attr in ("__getitem__", "copy", "append"), source


class _BudgetExhausted(Exception):
    pass


def reference_relevance_degree(theory, alpha, options=None) -> RelevanceResult:
    """The relevance search as Python closures over ``reference_float_evaluator``.

    One Python call per evaluation, per score and per line search, as the
    search was written before its loops moved into the generated
    functions; ``relevance_degree`` must agree with it in every bit.
    """
    opts = options or RelevanceOptions()
    names = sorted(atoms(alpha) | theory.atoms())

    if not names:
        empty = ReducedModel({})
        feasible = all(eval_prob(empty, beta)[0] == 1 for beta in theory)
        if feasible:
            return RelevanceResult(eval_prob(empty, alpha)[0], "feasible", empty, len(theory) + 1)
        return RelevanceResult(Fraction(1), "infeasible", None, len(theory) + 1)

    pos = {name: 2 * k for k, name in enumerate(names)}
    values = reference_float_evaluator(alpha, theory.members, pos)
    budget, tol = opts.budget, opts.tol

    evals = 0
    best_strict = None  # (objective, x)
    best_loose = None  # (residual, objective, x), least by (residual, objective)

    def evaluate(x):
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

    def line_search(x, ci, phase_a, guard):
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
        rng = random.Random(opts.seed)
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

    def to_model(x):
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


def _assert_matches_reference(theory, alpha, options):
    result = relevance_degree(theory, alpha, options)
    expected = reference_relevance_degree(theory, alpha, options)
    assert result == expected, (theory, alpha, options)
    assert repr(result.value) == repr(expected.value)
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
        options = RelevanceOptions(grid=Fraction(1, 16), tol=rng.choice((1e-6, 1e-2, 1e-1)), seed=rng.randrange(4))
        statuses.add(_assert_matches_reference(Theory(members), alpha, options).status)
    assert statuses == {"feasible", "infeasible"}


def test_relevance_loose_records_match_closure_reference():
    # With p . q pinned to 1/2 no point reaches a residual of
    # _STRICT_RESIDUAL, so the answer is the loose record, and at grid
    # 1/8 points tie on its (residual, objective).
    theory = Theory([parse("p . q -> 1/2"), parse("1/2 -> p . q")])
    for grid in (Fraction(1, 8), Fraction(1, 32)):
        _assert_matches_reference(theory, parse("p"), RelevanceOptions(grid=grid))


def test_relevance_budget_limited_matches_closure_reference():
    # Budgets that run out at the first seed, at the last seed, one past
    # the seeds, at each point of the first line search and into its
    # second round, and deep in the descent.
    grid = Fraction(1, 32)
    rows = [
        (Theory([parse("3/4 -> p"), parse("p -> q"), parse("q . r -> p")]), parse("?q + r")),
        (Theory([parse("half -> p . q")]), parse("p")),
        (Theory([parse("p")]), parse("?p")),
    ]
    for theory, alpha in rows:
        full = relevance_degree(theory, alpha, RelevanceOptions(grid=grid)).evaluations
        seeds = len(_float_pool(grid)) + (128 if len(atoms(alpha) | theory.atoms()) > 1 else 0)
        for budget in (1, seeds, *range(seeds + 1, seeds + 14), 3000, full - 1, full):
            result = _assert_matches_reference(theory, alpha, RelevanceOptions(grid=grid, budget=budget))
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
    ],
)
def test_relevance_rejects_options_that_cannot_work(options):
    for theory, alpha in ((Theory([parse("p")]), parse("?p")), (Theory([parse("top")]), parse("3/8"))):
        with pytest.raises(ValueError):
            relevance_degree(theory, alpha, options)


def test_relevance_accepts_grid_one():
    assert relevance_degree(Theory([parse("p")]), parse("?p"), RelevanceOptions(grid=Fraction(1))).status == "feasible"


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
    # model: the hits are exactly the models in the theory's pool product.
    T = Theory.from_text("q -> 3/16\n3/16 -> q\np -> q")
    search = PoolSearch(None, T.members)
    pool = search.pool
    found = [search.pairs(picks) for _, picks in search.hits(len(pool) ** 2)]
    assert search.screened < len(pool) ** 2
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
