"""The exact pool search behind ``taut``, ``sample_models`` and ``consistency_probe``.

``tests/fixtures/pool_search.txt`` records the answers of the three: the
verdict, evaluation count and counterexample of ``check_tautology`` on
every ``taut`` formula of the benchmark's ``taut-session`` at seeds 1-3
and on formulas chosen around the search's edges (budgets below and
above the two-atom products, full three-atom sweeps, formulas reading
one or both components of an atom or none, atom names that are also
names in the generated code), and the models that ``sample_models`` and
``consistency_probe`` return for a few theories.  Regenerate it, on
purpose only, with

    PYTHONPATH=src python3 tests/test_pool_search.py

which first checks every tautology answer and every theory's first
model and models against the reference ``util.reference_hits``.
"""

import ast
import collections
import functools
import itertools
import math
import random
import re
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from iqcl import semantics
from iqcl.calculus import consistency_probe
from iqcl.semantics import (
    PoolSearch,
    ReducedModel,
    Theory,
    check_tautology,
    eval_prob,
    format_model,
    is_model_of,
    sample_models,
)
from iqcl.syntax import BINARY_OPS, IMPLIES, JOIN, ODOT, PRODUCT, Atom, Bin, Const, Sqrt, atoms, parse, print_formula

from util import (
    _CONST_POOL,
    counting,
    random_formula,
    reference_check_tautology,
    reference_first,
    reference_hits,
    reference_pool,
)

ROOT = Path(__file__).resolve().parents[1]
POOL_FIXTURE = ROOT / "tests" / "fixtures" / "pool_search.txt"

TAUT_SESSION_SEEDS = (1, 2, 3)
DEFAULT_BUDGET = 100_000
THRESHOLD_BUDGETS = (1, 60, 3720, 3721, 3722)
TWO_ATOM = ("p -> (q -> p)", "p | q | ?p", "(p -> q) -> (p . q)", "!?p + ?q + 1/2", "q -> (!x -> q)")
FULL_SWEEP = 61**3
THREE_ATOM = ("(p -> q) -> ((q -> r) -> (p -> r))", "(r | !r) | (p & !p) | (q & !q)")
COMPONENTS = (
    "?p -> (?q -> ?p)",  # only w
    "p -> p + q",  # only u
    "p . ?p -> q",  # both components of p
    "?p | ?q | p",
    "?(p . q) + ?(p . q)",  # no component at all: a binary node's root is 1/2
    "?(p . q) -> q",
    "3/8",
    "1/2 -> 1/2",
    "p | !p",
)
CODE_NAMES = ("x0 -> (t1 -> x0)", "i . picks -> picks", "?x0 + t1 -> i", "picks -> i . t1", "x0 . ?i -> ?picks")
THEORIES = (
    ("q -> (p -> q)", "r -> r"),
    ("3/4 -> p", "p -> q", "q . r -> p"),
    ("13/16 -> u", "u -> x"),
    ("p", "!p"),
    ("3/8",),
)
SAMPLE_SEEDS = (0, 1, 2)
SAMPLE_COUNT = 12


def taut_session_formulas(workloads) -> list[tuple[str, int]]:
    """Each ``taut`` operation of ``taut-session`` at seeds 1-3: (formula, budget), in order."""
    cases = []
    with tempfile.TemporaryDirectory() as workdir:
        for seed in TAUT_SESSION_SEEDS:
            for op in workloads.build("taut-session", seed, Path(workdir)).ops:
                if op.argv[0] == "taut":
                    argv = op.argv
                    budget = int(argv[argv.index("--budget") + 1]) if "--budget" in argv else DEFAULT_BUDGET
                    cases.append((argv[1], budget))
    return cases


def tautology_cases(workloads) -> list[tuple[str, int]]:
    """(formula, budget) for every ``check_tautology`` line of the fixture."""
    cases = taut_session_formulas(workloads)
    cases += [(f, budget) for f in TWO_ATOM for budget in THRESHOLD_BUDGETS]
    cases += [(f, FULL_SWEEP) for f in THREE_ATOM]
    cases += [(f, budget) for f in COMPONENTS + CODE_NAMES for budget in (1, 17, DEFAULT_BUDGET)]
    return cases


def _model_text(model) -> str:
    return " ".join(format_model(model).splitlines())


def pool_search_text(workloads) -> str:
    lines = []
    for f, budget in tautology_cases(workloads):
        report = check_tautology(parse(f), budget)
        line = f"taut {f} budget={budget}: {report.status} evaluations={report.evaluations}"
        if report.witness is not None:
            line += f" at {_model_text(report.witness)}"
        lines.append(line)
    for members in THEORIES:
        theory = Theory(map(parse, members))
        name = "{" + ", ".join(map(print_formula, theory.members)) + "}"
        search = PoolSearch(None, theory.members)
        budget = len(search.pool) ** 3
        hits = sum(math.prod(map(len, groups)) for groups in search.model_classes(budget))
        evaluations, pairs = search.first(budget)
        first = f" screened={evaluations}" if pairs is None else f" first={evaluations - 1}"
        lines.append(f"hits {name}: pool={len(search.pool)} hits={hits}{first}")
        for seed in SAMPLE_SEEDS:
            try:
                models = sample_models(theory, SAMPLE_COUNT, seed)
            except RuntimeError as exc:
                lines.append(f"sample_models {name} seed={seed}: RuntimeError {exc}")
                continue
            lines.append(f"sample_models {name} seed={seed}: {' | '.join(map(_model_text, models))}")
        probe = consistency_probe(theory)
        found = "" if probe.witness is None else f" at {_model_text(probe.witness)}"
        lines.append(f"consistency_probe {name}: {probe.status}{found}")
    return "".join(f"{line}\n" for line in lines)


def check_against_reference(workloads) -> None:
    """Every tautology answer, and every theory's first model and models,
    equal the reference."""
    for f, budget in tautology_cases(workloads):
        assert check_tautology(parse(f), budget) == reference_check_tautology(parse(f), budget), f
    for members in THEORIES:
        theory = Theory(map(parse, members))
        search = PoolSearch(None, theory.members)
        for budget in (len(search.pool) ** 3, DEFAULT_BUDGET):
            assert search.first(budget) == reference_first(None, theory.members, budget), members
            models = (picks for groups in search.model_classes(budget) for picks in itertools.product(*groups))
            # In sweep order, first atom varying fastest.
            expected = [picks for _, picks in reference_hits(None, theory.members, budget)]
            assert sorted(models, key=lambda picks: picks[::-1]) == expected, members


def test_pool_search_matches_fixture(workloads):
    assert pool_search_text(workloads).encode() == POOL_FIXTURE.read_bytes()


def _formula(rng, names, depth):
    if names:
        return random_formula(rng, names, depth)
    return Bin(rng.choice(BINARY_OPS), Const(rng.choice(_CONST_POOL)), Sqrt(Const(rng.choice(_CONST_POOL))))


def _search_case(rng):
    """A random objective (or none) and theory over 0-3 atoms, shaped so
    that some candidates pass and single-atom members narrow the pool."""
    names = rng.sample(("p", "q", "x0", "picks"), rng.randint(0, 3))

    def formula():
        return _formula(rng, names, rng.randint(0, 3))

    def member():
        roll = rng.randrange(4)
        if roll == 0 and names:  # pins an atom between constants: narrows it
            atom, c = Atom(rng.choice(names)), Const(rng.choice(_CONST_POOL))
            return rng.choice((Bin(IMPLIES, atom, c), Bin(IMPLIES, c, atom)))
        if roll == 1:
            g = formula()
            return Bin(IMPLIES, g, Bin(JOIN, g, formula()))  # exactly 1 everywhere
        return Bin(IMPLIES, formula(), formula()) if roll == 2 else formula()

    g = formula()
    objective = rng.choice((None, g, Bin(IMPLIES, Bin(PRODUCT, g, formula()), g), Bin(IMPLIES, g, formula())))
    return objective, [member() for _ in range(rng.randint(0, 3))]


def test_first_matches_the_reference_on_random_searches():
    # The first hit's index + 1 and pairs, or on a miss the count of
    # candidates decided, whether the budget stops the sweep short of the
    # class tuples' product or covers it.
    rng = random.Random(1401)
    capped = capped_misses = full = large = 0
    for _ in range(200):
        objective, members = _search_case(rng)
        search = PoolSearch(objective, members)
        budget = rng.choice((1, 7, 61, 300, 3721, 4000))
        first = search.first(budget)
        assert list(search.pool) == reference_pool(members)
        assert first == reference_first(objective, members, budget), (objective, members, budget)
        m = search._class_tuples(1, least=False)[-1]
        capped += budget < m
        capped_misses += budget < m and first[1] is None
        full += len(search.names) > 1 and budget >= m
        large += len(search.names) > 2 and budget > 300
    assert capped >= 20 and capped_misses >= 10 and full >= 20 and large >= 10


@pytest.mark.parametrize(
    "objective, members, count",
    [
        ("top", [], 1),  # no atoms: one class tuple, of one candidate
        (None, ["p", "!p", "q"], 0),  # p, the fastest atom, keeps no point
        (None, ["p", "q", "!q", "r"], 0),  # q, in the middle
        (None, ["p", "q", "r", "!r"], 0),  # r, the slowest
    ],
)
def test_a_miss_over_the_whole_product_counts_each_candidate(objective, members, count):
    # One count rule for a miss at every budget: an empty product and the
    # product of no atoms are its edges.
    objective, members = None if objective is None else parse(objective), [parse(m) for m in members]
    for budget in (1, 10, 10**6):
        assert PoolSearch(objective, members).first(budget) == (count, None) == reference_first(objective, members, budget)


def test_least_matches_the_reference_on_random_searches():
    # The least objective over the models among the candidates of the first
    # ``budget`` class tuples.  The reference decides the same candidates
    # for the objective * 0, which reads what the objective reads and is
    # below 1 everywhere, so it yields every model among them.
    rng = random.Random(1402)
    found = 0
    for _ in range(100):
        objective, members = _search_case(rng)
        objective = objective or _formula(rng, sorted(set().union(*map(atoms, members))), 2)
        budget = rng.choice((1, 7, 61, 300))
        screened, pairs = PoolSearch(objective, members).least(budget)
        names = sorted(set().union(atoms(objective), *map(atoms, members)))
        pool = reference_pool(members)
        models = [ReducedModel({name: pool[j] for name, j in zip(names, picks)})
                  for _, picks in reference_hits(Bin(ODOT, objective, Const(_CONST_POOL[0])), members, budget)]
        assert 1 <= screened <= budget or not screened and not models
        if not models:
            assert pairs is None, (objective, members, budget)
            continue
        found += 1
        model = ReducedModel(pairs)
        assert is_model_of(model, Theory(members))
        assert eval_prob(model, objective)[0] == min(eval_prob(m, objective)[0] for m in models), (objective, members)
    assert found >= 30


def _arc_case(rng):
    """A random objective and theory over 3-4 atoms, with members over one
    atom (pins between constants), two (implications, and random pairs
    that may read only one of them) and three; and a share of the class
    tuples at which to cut the budget below their count.  Each atom of
    four is pinned to a quarter of the disk, which keeps its hits few
    enough to list."""
    names = rng.sample(("p", "q", "x0", "picks"), rng.randint(3, 4))
    if len(names) == 4:
        members = [parse(rng.choice((f"3/4 -> {name}", f"{name} -> 1/4"))) for name in names]
    else:
        pins = ("{c} -> {a}", "{a} -> {c}")
        members = [parse(rng.choice(pins).format(a=name, c=rng.choice(("1/2", "1/4", "3/8", "3/4", "7/16"))))
                   for name in names if rng.random() < 0.5]
    for _ in range(rng.randint(1, 4)):
        over = rng.sample(names, rng.choice((2, 2, 2, 3)))
        if len(over) == 2 and rng.random() < 0.5:
            members.append(Bin(IMPLIES, Atom(over[0]), Atom(over[1])))
        else:
            members.append(Bin(IMPLIES, random_formula(rng, over, 2), random_formula(rng, over, 2)))
    rng.shuffle(members)
    return random_formula(rng, names, 2), members, rng.random()


def _pool_answers(objective, members, cut):
    """``least``, ``first`` and ``model_classes`` of the search for the
    objective, at budgets of 1, below the class tuples' count and above it;
    then ``sample_models`` and ``consistency_probe`` of the theory."""
    search = PoolSearch(objective, members)
    m = search._class_tuples(1, least=False)[-1]
    answers = []
    for budget in (1, 1 + int(cut * (m - 1)), m + 1):
        answers += [search.least(budget), search.first(budget), search.model_classes(budget)]
    theory = Theory(members)
    try:
        answers.append(sample_models(theory, 5, seed=3))
    except RuntimeError as exc:
        answers.append(str(exc))
    return answers + [consistency_probe(theory)]


def _unnarrowed(monkeypatch):
    monkeypatch.setattr(PoolSearch, "_arc_consistent", lambda self, firsts: [range(len(ps)) for ps in firsts])


def test_arc_consistency_changes_no_answer(monkeypatch):
    # Against the same search screening every class tuple.
    rng = random.Random(1403)
    cases = [_arc_case(rng) for _ in range(40)]
    narrowed = 0
    consistent = PoolSearch._arc_consistent

    def counted(self, firsts):
        nonlocal narrowed
        kept = consistent(self, firsts)
        narrowed += math.prod(map(len, kept)) < math.prod(map(len, firsts))
        return kept

    monkeypatch.setattr(PoolSearch, "_arc_consistent", counted)
    answers, cases_narrowed = [], 0
    for case in cases:
        before = narrowed
        answers.append(_pool_answers(*case))
        cases_narrowed += narrowed > before
    _unnarrowed(monkeypatch)
    for case, answer in zip(cases, answers):
        assert answer == _pool_answers(*case), case
    assert cases_narrowed >= 20


def _screen_sizes(monkeypatch) -> list[int]:
    """The class tuples each generated screen of ``PoolSearch.least`` is asked to run on (its ``m``)."""
    sizes = []
    evaluators = semantics._evaluators

    def spied(objective, members, pos, den=None, least=False):
        generated = evaluators(objective, members, pos, den, least)
        if least:
            evaluate = generated.evaluate
            generated.evaluate = lambda m, pool, picks: sizes.append(m) or evaluate(m, pool, picks)
        return generated

    monkeypatch.setattr(semantics, "_evaluators", spied)
    return sizes


CHAIN = ("13/16 -> t", "t -> w", "w -> x", "x -> y")


@pytest.mark.parametrize(
    "members, objective, kept, whole",
    [
        (CHAIN, "y", 5**4, 29160),
        (CHAIN[::-1], "y", 5**4, 29160),
        (("3/4 -> p", "p -> q", "q . r -> p"), "?q + r", 1824, 5856),
    ],
)
def test_relevance_screens_only_the_arc_consistent_class_tuples(monkeypatch, members, objective, kept, whole):
    # The chain keeps 5 classes of each atom's value, those from 13/16 up;
    # without the arcs its screen would run on 5 * 18**3 class tuples.
    # Reversed, each pass over its arcs carries the bound one link on.
    sizes = _screen_sizes(monkeypatch)
    theory = Theory(map(parse, members))
    result = semantics.relevance_degree(theory, parse(objective))
    assert sizes == [kept]
    _unnarrowed(monkeypatch)
    assert semantics.relevance_degree(theory, parse(objective)) == result
    assert sizes == [kept, whole]


def test_the_arcs_of_one_source_are_compiled_once(monkeypatch):
    # The chain's three arcs read the values of two atoms in one way: one
    # source, besides the single-atom narrowing of t and the screen.  The
    # compilations are counted in a fresh memo, which other tests' searches
    # have not filled.
    sources = []
    functions = semantics._functions.__wrapped__
    memo = functools.lru_cache(maxsize=semantics._COMPILED)(lambda source: sources.append(source) or functions(source))
    monkeypatch.setattr(semantics, "_functions", memo)
    PoolSearch(parse("y"), map(parse, CHAIN)).least(DEFAULT_BUDGET)
    assert len(sources) == len(set(sources)) == 3
    assert memo.cache_info().hits == 2  # the second and third arcs


def test_searches_share_compiled_functions_but_not_namespaces(monkeypatch):
    # One source gives two searches the same functions in two namespaces:
    # a function replaced in one, as util.counting does, stays out of the other.
    first, second = (semantics._evaluators(parse("p -> q"), (), {"p": 0, "q": 2}, 8) for _ in range(2))
    assert first is not second and first.evaluate is second.evaluate
    first.evaluate = None
    assert callable(second.evaluate)
    with monkeypatch.context() as spied:
        screened = counting(spied)
        check_tautology(parse("p -> q"))
    check_tautology(parse("p -> q"))
    assert len(screened) == 1


def test_the_compiled_functions_of_at_most_128_sources_are_kept():
    # The least recently used source is dropped; a dropped one compiles again.
    assert semantics._functions.cache_info().maxsize == semantics._COMPILED == 128
    for k in range(semantics._COMPILED + 8):
        semantics._compile(f"def f():\n    return {k}\n", ())
    info = semantics._functions.cache_info()
    assert info.currsize == semantics._COMPILED
    assert semantics._compile("def f():\n    return 7\n", ()).f() == 7
    assert semantics._functions.cache_info().misses == info.misses + 1


def test_an_empty_domain_means_no_model_in_the_pool(monkeypatch):
    # q is at least p, which is at least 3/4, yet q . q -> !p needs q at most 1/2.
    sizes = _screen_sizes(monkeypatch)
    theory = Theory(map(parse, ("3/4 -> p", "p -> q", "q . q -> !p")))
    with_r = Theory((*theory.members, parse("q -> r")))
    result = semantics.relevance_degree(theory, parse("r"))
    answers = _pool_answers(parse("?r"), with_r.members, 0.5)
    assert sizes == []
    assert result.witness is None and result.value == 1
    assert consistency_probe(with_r).status == "inconsistent"
    _unnarrowed(monkeypatch)
    assert semantics.relevance_degree(theory, parse("r")) == result
    assert _pool_answers(parse("?r"), with_r.members, 0.5) == answers
    assert sizes != []


def test_the_pool_has_16_values_of_each_component():
    pool = semantics._rational_disk_pool()
    assert len(pool) == 61
    assert len({u for u, _ in pool}) == len({w for _, w in pool}) == 16


def test_a_tautology_screens_each_class_tuple_and_expands_nothing(monkeypatch):
    # q -> (!x -> q) reads u of both atoms: 16 * 16 class tuples, not 61 * 61 candidates.
    screened = counting(monkeypatch)
    assert check_tautology(parse("q -> (!x -> q)")) == semantics.SearchResult(1, "tautology-no-counterexample", None, 3721)
    assert screened == [256]
    chain = parse("(p -> q) -> ((q -> r) -> (p -> r))")
    assert check_tautology(chain, 61**3) == semantics.SearchResult(1, "tautology-no-counterexample", None, 61**3)
    assert screened == [256, 16**3]


def test_a_counterexample_is_read_off_its_class_tuple(monkeypatch):
    # The screen stops at the first passing class tuple; the counterexample
    # is the first point of each of its classes, and its index is counted
    # from those points' places in the sweep.
    screened = counting(monkeypatch)
    for f in (parse("q -> (!x . q)"), parse("(r | !r) | (p & !p) | (q & !q)")):
        budget = 61 ** len(semantics.formula_atoms(f))
        report = check_tautology(f, budget)
        assert report == reference_check_tautology(f, budget)
        assert report.witness is not None
    assert screened == [256, 16**3]


@pytest.mark.parametrize("budget", [1, 2, 17, 255, 256, 257, DEFAULT_BUDGET])
def test_a_capped_sweep_screens_the_first_budget_class_tuples(monkeypatch, budget):
    # Tautologies, so the screen runs to its end.  q -> (!x -> q) reads u
    # of both atoms, 16 * 16 class tuples; the chain reads u of three, 16**3.
    screened = counting(monkeypatch)
    f = parse("q -> (!x -> q)")
    report = check_tautology(f, budget)
    assert report == reference_check_tautology(f, budget)
    chain = parse("(p -> q) -> ((q -> r) -> (p -> r))")
    assert check_tautology(chain, budget).witness is None
    assert screened == [min(budget, 16**2), min(budget, 16**3)]


def test_sample_models_screens_its_class_tuples_once(monkeypatch):
    # The chain's 16**4 class tuples fit under 61**3, and its models among
    # the 61**4 candidates are more than 61**3: one screen runs on the
    # class tuples, and each model is drawn from a passing one.
    screened = counting(monkeypatch)
    theory = Theory.from_text("p -> q\nq -> r\nr -> s")
    models = sample_models(theory, 50, seed=4)
    assert screened == [16**4]
    assert len(models) == 50
    assert all(is_model_of(model, theory) for model in models)


def test_sample_models_draws_each_model_uniformly():
    # The theory has 106 models in its pool product.  Over 20 000 draws
    # each is drawn about 189 times, within 5 standard deviations.
    theory = Theory.from_text("13/16 -> u\nu -> x")
    pool = reference_pool(theory.members)
    expected = {tuple(pool[j] for j in picks) for _, picks in reference_hits(None, theory.members, len(pool) ** 3)}
    draws = collections.Counter(
        (model.pair("u"), model.pair("x")) for model in sample_models(theory, 20_000, seed=11))
    assert len(expected) == 106 and set(draws) == expected
    assert all(is_model_of(ReducedModel(dict(zip("ux", pairs))), theory, Fraction(0)) for pairs in draws)
    mean = 20_000 / 106
    spread = 5 * math.sqrt(mean * (1 - 1 / 106))
    assert all(abs(n - mean) < spread for n in draws.values())


@pytest.mark.parametrize("budget", [0, -3])
def test_every_pool_search_rejects_a_budget_below_one(budget):
    # ``least`` gave (0, None) for a budget of 0 before.
    search = PoolSearch(parse("?p"), [parse("p -> q")])
    for answer in (search.first, search.least, search.model_classes):
        with pytest.raises(ValueError, match=f"budget must be at least 1, got {budget}"):
            answer(budget)


def _read_coordinates(source: str) -> list[int]:
    """The coordinates x<k> that the generated source names."""
    names = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    return sorted(int(name[1:]) for name in names if re.fullmatch(r"x\d+", name))


def test_the_search_groups_by_the_coordinates_the_source_reads(monkeypatch):
    # The screen runs once per tuple of classes of points that agree on
    # the coordinates named in its source, counted here from those names.
    screened = counting(monkeypatch)
    pool = semantics._rational_disk_pool()
    rng = random.Random(1402)
    for _ in range(60):
        names = sorted(rng.sample(("p", "q", "i", "t1"), rng.randint(1, 3)))
        objective = random_formula(rng, names, rng.randint(1, 4))
        pos = {name: 2 * k for k, name in enumerate(sorted(semantics.formula_atoms(objective)))}
        source, reads = semantics._evaluator_source(objective, (), pos, 680)
        coordinates = _read_coordinates(source)
        assert list(reads) == coordinates
        classes = [{tuple(point[c % 2] for c in coordinates if c // 2 == k) for point in pool} for k in range(len(pos))]
        PoolSearch(objective).first(61 ** len(pos))
        assert screened.pop() == math.prod(map(len, classes)), source


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    check_against_reference(workloads)
    POOL_FIXTURE.write_bytes(pool_search_text(workloads).encode())
