"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report; every tolerance is pinned here, not configured elsewhere.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from iqcl import nqubit_sim, qmix
from iqcl.algebra import (
    mv_meet,
    mv_neg,
    mv_odot,
    mv_oplus,
    pmv_product,
    s_approximate,
)
from iqcl.calculus import (
    AxiomRef,
    AXIOM_IDS,
    MemberRef,
    MpRef,
    Proof,
    ProofBuilder,
    ProofStep,
    check_proof,
    deduction_transform,
    finite_support,
    proof_degree,
)
from iqcl.cli import main as cli_main
from iqcl.qmix import BlochQmix, DiagonalQmix, P0, P1, random_ball_point
from iqcl.semantics import (
    Theory,
    eval_bloch,
    eval_prob,
    random_rational_model,
    reduce_model,
    relevance_degree,
    sample_models,
)
from iqcl.syntax import parse, print_formula
from iqcl.translation import pmv_translate
from test_calculus import random_instance, random_small_proof
from util import random_formula


def report(number: int, description: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_01_gate_laws():
    s = nqubit_sim.sqrt_not_j(1, 1)
    matrix_ok = np.abs(s @ s - nqubit_sim.not_j(1, 1)).max() <= 1e-15
    rng = random.Random(1)
    bloch_ok = all(
        qmix.gate_sqrt_not(qmix.gate_sqrt_not(rho)) == qmix.gate_not(rho)
        for rho in (random_ball_point(rng) for _ in range(500))
    )
    report(1, "square root of negation squares to negation", matrix_ok and bloch_ok)


def test_criterion_02_born_formulas():
    rng = random.Random(2)
    worst = 0.0
    for _ in range(10_000):
        rho = random_ball_point(rng)
        mat = nqubit_sim.bloch_embed(rho)
        worst = max(worst, abs(nqubit_sim.prob_n(mat) - (1 - rho.r3) / 2))
        rotated = nqubit_sim.sqrt_not_j(1, 1) @ mat @ nqubit_sim.sqrt_not_j(1, 1).conj().T
        worst = max(worst, abs(nqubit_sim.prob_n(rotated) - (1 - rho.r2) / 2))
    report(2, f"Born rule against Bloch coordinates (worst {worst:.2e})", worst <= 1e-12)


def test_criterion_03_sqrt_not_is_fair_on_diagonals():
    worst = max(
        abs(qmix.sqrt_prob(DiagonalQmix(k / 10)) - 0.5) for k in range(11)
    )
    matrix_worst = 0.0
    for k in range(11):
        mat = nqubit_sim.diagonal_density(k / 10)
        s = nqubit_sim.sqrt_not_j(1, 1)
        matrix_worst = max(
            matrix_worst, abs(nqubit_sim.prob_n(s @ mat @ s.conj().T) - 0.5)
        )
    report(3, "rotated mixtures are fair coins", worst <= 1e-12 and matrix_worst <= 1e-12)


def test_criterion_04_reduced_and_oracle():
    rng = random.Random(4)
    deviations = []
    for _ in range(100):
        tau, nu = random_ball_point(rng), random_ball_point(rng)
        product = nqubit_sim.and_gate(
            nqubit_sim.bloch_embed(tau), nqubit_sim.bloch_embed(nu)
        )
        reduced = nqubit_sim.bloch_extract(nqubit_sim.partial_trace(product, 1))
        direct = qmix.iand(tau, nu).bloch
        deviations += (
            abs(reduced.r1 - direct.r1),
            abs(reduced.r2 - direct.r2),
            abs(reduced.r3 - direct.r3),
        )
    # Each deviation is compared on its own: a NaN fails here, where the
    # builtin max of the deviations could drop it.
    worst = max(deviations)
    report(4, f"partial trace of AND equals IAND (worst {worst:.2e})", all(d <= 1e-10 for d in deviations))


def test_criterion_05_gate_algebra_laws():
    rng = random.Random(5)
    ok = True
    for _ in range(1000):
        tau, nu = random_ball_point(rng), random_ball_point(rng)
        p, q = qmix.prob(tau), qmix.prob(nu)
        ok &= qmix.iand(tau, P0).lam == 0.0
        ok &= qmix.iand(tau, P1).lam == p
        ok &= qmix.prob(qmix.iand(tau, nu)) == p * q
        ok &= qmix.prob(qmix.luk_oplus(tau, nu)) == min(1.0, p + q)
        ok &= qmix.gate_sqrt_not(qmix.gate_not(tau)) == qmix.gate_not(
            qmix.gate_sqrt_not(tau)
        )
        ok &= qmix.gate_sqrt_not(qmix.gate_sqrt_not(tau)) == qmix.gate_not(tau)
        ok &= qmix.sqrt_prob(qmix.iand(tau, nu)) == 0.5
        ok &= qmix.sqrt_prob(qmix.luk_oplus(tau, nu)) == 0.5
        value = qmix.prob(tau) / 4 + qmix.sqrt_prob(tau) / 4
        ok &= value <= qmix.SQRT_BOUND + 1e-12
        ok &= min(1.0, qmix.prob(tau) / 4 + 0.125) <= 0.375
    peak = qmix.SQRT_BOUND_MAXIMIZER
    attained = qmix.prob(peak) / 4 + qmix.sqrt_prob(peak) / 4
    ok &= abs(attained - qmix.SQRT_BOUND) <= 1e-6
    report(5, "probability-value laws of the gate algebra", ok)


def test_criterion_06_mv_pmv_laws():
    rng = random.Random(6)
    ok = True
    for _ in range(10_000):
        den = rng.randint(1, 32)
        x, y, z = (Fraction(rng.randint(0, den), den) for _ in range(3))
        # MV1: commutative monoid with 0
        ok &= mv_oplus(x, y) == mv_oplus(y, x)
        ok &= mv_oplus(mv_oplus(x, y), z) == mv_oplus(x, mv_oplus(y, z))
        ok &= mv_oplus(x, Fraction(0)) == x
        # MV2, MV3
        ok &= mv_neg(mv_neg(x)) == x
        ok &= mv_oplus(x, Fraction(1)) == 1
        # MV4
        ok &= mv_oplus(mv_neg(mv_oplus(mv_neg(x), y)), y) == mv_oplus(
            mv_neg(mv_oplus(mv_neg(y), x)), x
        )
        # PMV distribution
        ok &= pmv_product(x, mv_odot(y, mv_neg(z))) == mv_odot(
            pmv_product(x, y), mv_neg(pmv_product(x, z))
        )
        # sandwich
        ok &= mv_odot(x, y) <= pmv_product(x, y) <= mv_meet(x, y)
    report(6, "MV and PMV laws exact on random rationals", ok)


def test_criterion_07_axiom_tautology_suite():
    rng = random.Random(7)
    ok = True
    for sid in AXIOM_IDS:
        models = [random_rational_model(("p", "q"), rng) for _ in range(200)]
        for k in range(200):
            inst = random_instance(rng, sid)
            # each instance meets several of the 200 models per schema
            for model in (models[k], models[(k + 67) % 200], models[(k + 133) % 200]):
                value = eval_prob(model, inst)[0]
                if value != 1:
                    print(f"schema {sid} violated by {print_formula(inst)}")
                    ok = False
    report(7, "all 23 axiom schemata evaluate to exactly 1", ok)


def test_criterion_08_translation_faithfulness():
    rng = random.Random(8)
    ok = True
    from iqcl.syntax import is_pmv_fragment

    for _ in range(1000):
        f = random_formula(rng, ("p", "q"), depth=5)
        m = random_rational_model(("p", "q"), rng)
        t = pmv_translate(f)
        ok &= eval_prob(m, f)[0] == eval_prob(m, t)[0]
        ok &= is_pmv_fragment(t)
    report(8, "PMV-translation preserves values exactly", ok)


def test_criterion_09_model_valuation_bijection():
    rng = random.Random(9)
    ok = True
    worst = 0.0
    for _ in range(1000):
        m = random_rational_model(("p", "q"), rng)
        # model -> pair table -> Bloch points -> model, exactly
        bloch = {
            name: BlochQmix(0.0, float(1 - 2 * w), float(1 - 2 * u))
            for name, (u, w) in m.assignment.items()
        }
        ok &= reduce_model(bloch) == m
        f = random_formula(rng, ("p", "q"), depth=4)
        worst = max(worst, abs(float(eval_prob(m, f)[0]) - eval_bloch(bloch, f)))
    report(
        9,
        f"pair semantics equals the gate fold (worst {worst:.2e})",
        ok and worst <= 1e-12,
    )


def test_criterion_10_completeness_spot_instances():
    ok = True
    r = relevance_degree(Theory([parse("p")]), parse("?p"))
    ok &= r.status == "feasible" and abs(float(r.value) - 0.5) <= 1e-6
    for s_text, s_value in (("1/4", 0.25), ("3/8", 0.375), ("7/8", 0.875)):
        theory = Theory([parse(f"{s_text} -> p")])
        result = relevance_degree(theory, parse("p"))
        ok &= abs(float(result.value) - s_value) <= 1e-3
        certificate = Proof(
            (ProofStep(parse(f"{s_text} -> p"), MemberRef()),)
        )
        degree = proof_degree(theory, parse("p"), [certificate])
        ok &= degree.lower_bound == Fraction(s_text)
        ok &= abs(float(degree.lower_bound) - float(degree.numeric.value)) <= 1e-3
        ok &= degree.defects == []
    report(10, "relevance values and matching certified bounds", ok)


def test_criterion_11_compactness_extraction():
    rng = random.Random(11)
    ok = True
    for trial in range(20):
        members = [
            random_formula(rng, ("p", "q", "r"), depth=2) for _ in range(rng.randint(3, 6))
        ]
        theory = Theory(members)
        alpha = random_formula(rng, ("p", "q"), depth=2)
        proof = random_small_proof(rng, Theory(tuple(theory.members) + (alpha,)), alpha)
        check_proof(Theory(tuple(theory.members) + (alpha,)), proof)
        big = Theory(tuple(theory.members) + (alpha,))
        support = finite_support(big, proof)
        ok &= all(m in big for m in support)
        try:
            check_proof(support, proof, proof.conclusion)
        except Exception:
            ok = False
    report(11, "finite support extraction re-checks", ok)


def _fixture_proofs():
    builder = ProofBuilder()
    builder.top_intro()
    fixtures = [(Theory(), builder.proof())]
    T = Theory([parse("p"), parse("p -> q")])
    fixtures.append(
        (
            T,
            Proof(
                (
                    ProofStep(parse("p"), MemberRef()),
                    ProofStep(parse("p -> q"), MemberRef()),
                    ProofStep(parse("q"), MpRef(1, 2)),
                    ProofStep(parse("q -> (r -> q)"), AxiomRef("W1")),
                    ProofStep(parse("r -> q"), MpRef(3, 4)),
                )
            ),
        )
    )
    T2 = Theory([parse("3/4 -> p")])
    n, transformed = deduction_transform(
        Theory(), parse("p"), Proof((ProofStep(parse("p"), MemberRef()),))
    )
    fixtures.append((T2, Proof(tuple(transformed.steps))))
    return fixtures


def test_criterion_12_soundness_of_accepted_proofs():
    ok = True
    for theory, proof in _fixture_proofs():
        check_proof(theory, proof)
        extra = set()
        for step in proof.steps:
            from iqcl.syntax import atoms

            extra |= atoms(step.formula)
        models = sample_models(theory, 100, seed=12, extra_atoms=extra)
        for model in models:
            for step in proof.steps:
                if eval_prob(model, step.formula)[0] != 1:
                    ok = False
    report(12, "every accepted proof line has value 1 in sampled models", ok)


def test_criterion_13_parser_round_trip(capsys):
    rng = random.Random(13)
    ok = True
    for _ in range(10_000):
        f = random_formula(rng, ("p", "q", "r"), depth=rng.randint(0, 12))
        if parse(print_formula(f)) != f:
            ok = False
    for bad in ("p +", "(p", "p1 $ q", "1/3", "?"):
        code = cli_main(["fmt", bad])
        err = capsys.readouterr().err
        ok &= code == 2 and "column" in err
    report(13, "parse/print identity and positioned errors", ok)


def test_criterion_14_constant_density():
    rng = random.Random(14)
    ok = True
    for _ in range(1000):
        k = rng.randint(1, 20)
        eps = Fraction(1, 2**k)
        target = Fraction(rng.randint(0, 10**6), 10**6)
        s = s_approximate(target, eps)
        ok &= abs(s.value - target) < eps
    report(14, "dyadic constants approximate every target", ok)
