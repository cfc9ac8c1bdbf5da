"""The contract the four searches share through ``SearchResult``.

``check_tautology``, ``consequence``, ``consistency_probe`` and
``relevance_degree`` each report an exact witness or none, the
objective's value at it (1 with no witness or no objective), a status
from the search's own vocabulary and an evaluation count.
"""

import random
from fractions import Fraction

from iqcl.calculus import consistency_probe
from iqcl.semantics import (
    RelevanceOptions,
    SearchResult,
    Theory,
    check_tautology,
    consequence,
    eval_prob,
    is_model_of,
    relevance_degree,
)
from iqcl.syntax import IMPLIES, Bin, parse
from util import random_formula

STATUSES = {
    "check_tautology": {"counterexample", "tautology-no-counterexample"},
    "consequence": {"counterexample", "tautology-no-counterexample"},
    "consistency_probe": {"model-found", "no-model-at-budget", "inconsistent"},
    "relevance_degree": {"feasible", "infeasible", "tolerance-limited"},
}


def _searches(theory: Theory, alpha, beta, budget: int):
    """(search, the theory its witness must satisfy, its objective or None, its result)."""
    yield "check_tautology", Theory(), alpha, check_tautology(alpha, budget)
    yield "consequence", Theory(), Bin(IMPLIES, alpha, beta), consequence(alpha, beta, budget)
    yield "consistency_probe", theory, None, consistency_probe(theory, budget)
    options = RelevanceOptions(budget=budget)
    yield "relevance_degree", theory, alpha, relevance_degree(theory, alpha, options)


def test_every_search_reports_the_value_at_its_exact_witness():
    # Random 1-3-atom formulas and theories, at budgets that run out early,
    # partway and not at all; two fixed cases reach the statuses of no hit.
    rng = random.Random(241)
    cases = [
        (Theory([parse("p"), parse("!p")]), parse("p -> (q -> p)"), parse("q"), 100_000),
        (Theory([parse("p . p -> 1/2"), parse("1/2 -> p . p")]), parse("p"), parse("p"), 100_000),
    ]
    for _ in range(150):
        names = ("p", "q", "r")[: rng.randint(1, 3)]
        members = [random_formula(rng, names, depth=rng.randint(0, 3)) for _ in range(rng.randint(0, 3))]
        alpha, beta = (random_formula(rng, names, depth=rng.randint(1, 3)) for _ in range(2))
        cases.append((Theory(members), alpha, beta, rng.choice((1, 60, 3000, 100_000))))
    seen = {name: set() for name in STATUSES}
    for theory, alpha, beta, budget in cases:
        for name, models_of, objective, result in _searches(theory, alpha, beta, budget):
            context = (name, theory, alpha, beta, budget, result)
            assert type(result) is SearchResult and type(result.value) is Fraction, context
            assert result.status in STATUSES[name], context
            if result.witness is None:
                assert result.value == 1, context
            else:
                assert is_model_of(result.witness, models_of, Fraction(0)), context
                at_witness = Fraction(1) if objective is None else eval_prob(result.witness, objective)[0]
                assert result.value == at_witness, context
            seen[name].add(result.status)
    assert seen == STATUSES


def test_consistency_probe_counts_candidates_as_check_tautology_does():
    # Up to the first model in sweep order: candidate 62 puts p and q at
    # pool point 1, (0, 1/2), the only point where both are 0.  Without a
    # model, every candidate of the one atom's 61 points.
    found = consistency_probe(Theory.from_text("p -> q\nq -> p\n!(p . q)"))
    assert (found.status, found.evaluations) == ("model-found", 63)
    clash = consistency_probe(Theory([parse("p"), parse("!p")]))
    assert (clash.status, clash.evaluations) == ("inconsistent", 61)
