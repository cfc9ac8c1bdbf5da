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

which first checks every tautology answer and every theory's hits
against the reference ``util.reference_hits``.
"""

import ast
import math
import random
import re
import sys
import tempfile
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
        line = f"taut {f} budget={budget}: {report.verdict} evaluations={report.evaluations}"
        if report.counterexample is not None:
            line += f" at {_model_text(report.counterexample)}"
        lines.append(line)
    for members in THEORIES:
        theory = Theory(map(parse, members))
        name = "{" + ", ".join(map(print_formula, theory.members)) + "}"
        search = PoolSearch(None, theory.members)
        hits = [i for i, _ in search.hits(len(search.pool) ** 3)]
        first = f" first={hits[0]} last={hits[-1]}" if hits else ""
        lines.append(f"hits {name}: pool={len(search.pool)} hits={len(hits)} screened={search.screened}{first}")
        for seed in SAMPLE_SEEDS:
            try:
                models = sample_models(theory, SAMPLE_COUNT, seed)
            except RuntimeError as exc:
                lines.append(f"sample_models {name} seed={seed}: RuntimeError {exc}")
                continue
            lines.append(f"sample_models {name} seed={seed}: {' | '.join(map(_model_text, models))}")
        probe = consistency_probe(theory)
        found = "" if probe.model is None else f" at {_model_text(probe.model)}"
        lines.append(f"consistency_probe {name}: {probe.verdict}{found}")
    return "".join(f"{line}\n" for line in lines)


def check_against_reference(workloads) -> None:
    """Every tautology answer and every theory's hits equal the reference."""
    for f, budget in tautology_cases(workloads):
        assert check_tautology(parse(f), budget) == reference_check_tautology(parse(f), budget), f
    for members in THEORIES:
        theory = Theory(map(parse, members))
        search = PoolSearch(None, theory.members)
        for budget in (len(search.pool) ** 3, DEFAULT_BUDGET):
            assert list(search.hits(budget)) == list(reference_hits(None, theory.members, budget)), members


def test_pool_search_matches_fixture(workloads):
    assert pool_search_text(workloads).encode() == POOL_FIXTURE.read_bytes()


def _drain(generator):
    """The items a generator yields, and the value it returns."""
    items = []
    while True:
        try:
            items.append(next(generator))
        except StopIteration as stop:
            return items, stop.value


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


def test_hits_match_the_reference_on_random_searches(monkeypatch):
    # Same hits, same order, same count of candidates, whether the budget
    # stops the sweep short of the class tuples' product or covers it.
    capped = []
    below = semantics._candidates_below
    monkeypatch.setattr(semantics, "_candidates_below", lambda *args: capped.append(args) or below(*args))
    rng = random.Random(1401)
    full = large = 0
    for _ in range(200):
        objective, members = _search_case(rng)
        search = PoolSearch(objective, members)
        budget = rng.choice((1, 7, 61, 300, 3721, 4000))
        before = len(capped)
        hits = list(search.hits(budget))
        expected, count = _drain(reference_hits(objective, members, budget))
        assert list(search.pool) == reference_pool(members)
        assert (hits, search.screened) == (expected, count), (objective, members, budget)
        full += len(search.names) > 1 and len(capped) == before
        large += len(search.names) > 2 and budget > 300
    assert len(capped) >= 20 and full >= 20 and large >= 10


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


def test_the_pool_has_16_values_of_each_component():
    pool = semantics._rational_disk_pool()
    assert len(pool) == 61
    assert len({u for u, _ in pool}) == len({w for _, w in pool}) == 16


def test_a_tautology_screens_each_class_tuple_and_expands_nothing(monkeypatch):
    # q -> (!x -> q) reads u of both atoms: 16 * 16 class tuples, not 61 * 61 candidates.
    screened, extended = counting(monkeypatch)
    assert check_tautology(parse("q -> (!x -> q)")) == semantics.TautologyReport(None, 3721)
    assert screened == [256]
    assert extended == []
    chain = parse("(p -> q) -> ((q -> r) -> (p -> r))")
    assert check_tautology(chain, 61**3) == semantics.TautologyReport(None, 61**3)
    assert screened == [256, 16**3]
    assert extended == []


def test_a_counterexample_walks_to_the_first_hit(monkeypatch):
    screened, extended = counting(monkeypatch)
    for f in (parse("q -> (!x . q)"), parse("(r | !r) | (p & !p) | (q & !q)")):
        budget = 61 ** len(semantics.formula_atoms(f))
        report = check_tautology(f, budget)
        assert report == reference_check_tautology(f, budget)
        assert not report.is_tautology
    assert screened == [256, 16**3]
    assert len(extended) == 2 + 3  # one level per atom


@pytest.mark.parametrize("budget", [1, 2, 17, 255, 256, 257, DEFAULT_BUDGET])
def test_a_capped_sweep_screens_the_first_budget_class_tuples(monkeypatch, budget):
    # Tautologies, so the screen runs to its end.  q -> (!x -> q) reads u
    # of both atoms, 16 * 16 class tuples; the chain reads u of three, 16**3.
    screened, _ = counting(monkeypatch)
    f = parse("q -> (!x -> q)")
    report = check_tautology(f, budget)
    assert report == reference_check_tautology(f, budget)
    chain = parse("(p -> q) -> ((q -> r) -> (p -> r))")
    assert check_tautology(chain, budget).is_tautology
    assert screened == [min(budget, 16**2), min(budget, 16**3)]


def test_sample_models_keeps_at_most_size_cubed_hits(monkeypatch):
    # The chain's 16**4 class tuples fit under 61**3, but the models among
    # its 61**4 candidates are more than 61**3: only that many are drawn.
    drawn = 0
    hits = PoolSearch.hits

    def counted_hits(self, budget):
        nonlocal drawn
        for hit in hits(self, budget):
            drawn += 1
            yield hit

    monkeypatch.setattr(PoolSearch, "hits", counted_hits)
    theory = Theory.from_text("p -> q\nq -> r\nr -> s")
    models = sample_models(theory, 50, seed=4)
    assert drawn == 61**3
    assert len(models) == 50
    assert all(is_model_of(model, theory) for model in models)


def _read_coordinates(source: str) -> list[int]:
    """The coordinates x<k> that the generated source names."""
    names = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    return sorted(int(name[1:]) for name in names if re.fullmatch(r"x\d+", name))


def test_the_search_groups_by_the_coordinates_the_source_reads(monkeypatch):
    # The screen runs once per tuple of classes of points that agree on
    # the coordinates named in its source, counted here from those names.
    screened, _ = counting(monkeypatch)
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
        next(PoolSearch(objective).hits(61 ** len(pos)), None)
        assert screened.pop() == math.prod(map(len, classes)), source


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    check_against_reference(workloads)
    POOL_FIXTURE.write_bytes(pool_search_text(workloads).encode())
