import random

import pytest

from iqcl.qmix import (
    P0,
    P1,
    RHO_HALF,
    SQRT_BOUND,
    SQRT_BOUND_MAXIMIZER,
    BlochQmix,
    DiagonalQmix,
    format_qmix,
    gate_not,
    gate_sqrt_not,
    iand,
    luk_oplus,
    parse_qmix,
    prob,
    q_implies,
    q_join,
    q_meet,
    random_ball_point,
    sqrt_prob,
)


def test_ball_membership_enforced():
    with pytest.raises(ValueError):
        BlochQmix(1.0, 1.0, 0.0)
    BlochQmix(0.0, 0.0, 1.0)
    # just outside tolerance
    with pytest.raises(ValueError):
        BlochQmix(0.0, 0.0, 1.0 + 1e-6)


def test_prob_examples():
    assert prob(P0) == 0.0
    assert prob(P1) == 1.0
    assert prob(BlochQmix(0.0, 0.5, 0.0)) == 0.5


def test_sqrt_prob_examples():
    assert sqrt_prob(P1) == 0.5
    assert sqrt_prob(BlochQmix(0.0, 1.0, 0.0)) == 0.0
    assert sqrt_prob(BlochQmix(0.0, -1.0, 0.0)) == 1.0


def test_gate_not_examples():
    assert gate_not(P0) == P1
    assert gate_not(BlochQmix(0.0, 0.3, 0.4)) == BlochQmix(0.0, -0.3, -0.4)
    rng = random.Random(3)
    for _ in range(200):
        rho = random_ball_point(rng)
        assert gate_not(gate_not(rho)) == rho
        assert prob(gate_not(rho)) == 1.0 - prob(rho)


def test_gate_sqrt_not_examples():
    assert gate_sqrt_not(P1) == BlochQmix(0.0, 1.0, 0.0)
    assert gate_sqrt_not(RHO_HALF) == RHO_HALF
    rng = random.Random(4)
    for _ in range(200):
        a, b = rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)
        rho = BlochQmix(0.0, a, b)
        assert gate_sqrt_not(gate_sqrt_not(rho)) == BlochQmix(0.0, -a, -b)


def test_sqrt_not_of_diagonal_is_fair():
    for k in range(11):
        lam = k / 10.0
        assert sqrt_prob(DiagonalQmix(lam)) == 0.5
        assert prob(gate_sqrt_not(DiagonalQmix(lam))) == 0.5


def test_iand_examples():
    assert iand(RHO_HALF, RHO_HALF).lam == 0.25
    rng = random.Random(5)
    for _ in range(100):
        tau = random_ball_point(rng)
        assert iand(tau, P0).lam == 0.0
        assert iand(tau, P1).lam == prob(tau)


def test_luk_oplus_examples():
    assert luk_oplus(DiagonalQmix(0.5), DiagonalQmix(0.75)).lam == 1.0
    rng = random.Random(6)
    for _ in range(100):
        tau = random_ball_point(rng)
        assert luk_oplus(P0, tau).lam == prob(tau)
        assert luk_oplus(P1, tau).lam == 1.0


def test_derived_connectives():
    rng = random.Random(7)
    for _ in range(100):
        tau = random_ball_point(rng)
        assert q_implies(P1, tau).lam == prob(tau)
        assert q_implies(tau, tau).lam == 1.0
    assert q_meet(DiagonalQmix(0.25), DiagonalQmix(0.75)).lam == 0.25
    assert q_join(DiagonalQmix(0.25), DiagonalQmix(0.75)).lam == 0.75


def test_probability_laws():
    rng = random.Random(8)
    for _ in range(300):
        tau, nu = random_ball_point(rng), random_ball_point(rng)
        xi = random_ball_point(rng)
        assert prob(iand(tau, nu)) == prob(tau) * prob(nu)
        assert prob(iand(tau, nu)) == prob(iand(nu, tau))
        left = prob(iand(iand(tau, nu), xi))
        right = prob(iand(tau, iand(nu, xi)))
        assert abs(left - right) < 1e-15
        assert prob(iand(tau, P1)) == prob(tau)  # monoid unit
        assert prob(luk_oplus(tau, nu)) == min(1.0, prob(tau) + prob(nu))
        assert gate_sqrt_not(gate_not(tau)) == gate_not(gate_sqrt_not(tau))
        assert gate_sqrt_not(gate_sqrt_not(tau)) == gate_not(tau)
        assert sqrt_prob(iand(tau, nu)) == 0.5
        assert sqrt_prob(luk_oplus(tau, nu)) == 0.5


def test_forward_bound_and_attainment():
    rng = random.Random(9)
    for _ in range(2000):
        sigma = random_ball_point(rng)
        value = min(1.0, prob(sigma) / 4 + sqrt_prob(sigma) / 4)
        assert value <= SQRT_BOUND + 1e-12
    attained = prob(SQRT_BOUND_MAXIMIZER) / 4 + sqrt_prob(SQRT_BOUND_MAXIMIZER) / 4
    assert abs(attained - SQRT_BOUND) < 1e-6


def test_three_eighths_bound():
    rng = random.Random(10)
    for _ in range(2000):
        sigma = random_ball_point(rng)
        assert min(1.0, prob(sigma) / 4 + 1 / 8) <= 3 / 8 + 1e-12


def test_quotient_identification():
    # collapsing states by probability value is a homomorphism onto the
    # unit-interval structure: the gate operations agree with the exact
    # arithmetic on the values themselves (exactly so on dyadic mixtures,
    # whose float images add and multiply without rounding)
    from fractions import Fraction

    from iqcl.algebra import mv_neg, mv_oplus, pmv_product

    rng = random.Random(20)
    for _ in range(300):
        lam1 = Fraction(rng.randint(0, 1024), 1024)
        lam2 = Fraction(rng.randint(0, 1024), 1024)
        tau, nu = DiagonalQmix(float(lam1)), DiagonalQmix(float(lam2))
        assert Fraction(prob(iand(tau, nu))) == pmv_product(lam1, lam2)
        assert Fraction(prob(luk_oplus(tau, nu))) == mv_oplus(lam1, lam2)
        assert Fraction(prob(gate_not(tau))) == mv_neg(lam1)
    for _ in range(200):
        tau = random_ball_point(rng)
        # every state is identified with its diagonal representative
        rep = DiagonalQmix(prob(tau))
        assert prob(rep) == prob(tau)
        assert prob(gate_not(rep)) == prob(gate_not(tau))
    assert prob(P0) == 0.0 and prob(P1) == 1.0


def test_qmix_literals_round_trip():
    rho = BlochQmix(0.1, -0.25, 0.5)
    assert parse_qmix(format_qmix(rho)) == rho
    diag = DiagonalQmix(0.3)
    assert parse_qmix(format_qmix(diag)) == diag
    with pytest.raises(ValueError):
        parse_qmix("(1, 2)")
