import math
import random

import numpy as np
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
    random_ball_coords,
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


@pytest.mark.parametrize("coords", [(math.nan, 0.0, 0.0), (0.0, math.nan, 0.0), (0.0, 0.0, math.inf)])
def test_bloch_point_not_a_number_is_outside_the_ball(coords):
    with pytest.raises(ValueError, match="outside the Bloch ball"):
        BlochQmix(*coords)


def test_rho_literal_must_have_a_bloch_point():
    # DiagonalQmix keeps its tolerance, so gate results just below 0 stay
    # valid; a literal's weight must also give a point of the ball.
    assert DiagonalQmix(-5e-13).lam == -5e-13
    assert parse_qmix("rho(1.0000000000001)") == DiagonalQmix(1.0000000000001)
    for text in ("rho(1.000000000001)", "rho(-3e-13)", "rho(nan)"):
        with pytest.raises(ValueError, match=r"^mixing weight out of range: "):
            parse_qmix(text)


def uniform_ball_coords(rng):
    """The draw as it was written before ``random_ball_coords``."""
    while True:
        r1, r2, r3 = (rng.uniform(-1, 1) for _ in range(3))
        if r1 * r1 + r2 * r2 + r3 * r3 <= 1.0:
            return r1, r2, r3


@pytest.mark.parametrize("seed", [0, 1, 903, 2**40 + 7])
def test_random_ball_coords_is_the_uniform_draw(seed):
    # sim prop34's output rests on the same points in the same order.
    ours, reference = random.Random(seed), random.Random(seed)
    for _ in range(5000):
        assert random_ball_coords(ours) == uniform_ball_coords(reference)
    assert ours.getstate() == reference.getstate()
    assert random_ball_point(ours) == BlochQmix(*uniform_ball_coords(reference))


def test_stacked_states_match_the_scalar_algebra():
    rng = random.Random(11)
    taus, nus = ([random_ball_coords(rng) for _ in range(50)] for _ in range(2))
    stacked = iand(BlochQmix(*np.array(taus).T), BlochQmix(*np.array(nus).T))
    assert stacked.lam.tolist() == [iand(BlochQmix(*t), BlochQmix(*n)).lam for t, n in zip(taus, nus)]
    assert stacked.bloch.r3.tolist() == [iand(BlochQmix(*t), BlochQmix(*n)).bloch.r3 for t, n in zip(taus, nus)]


@pytest.mark.parametrize("bad", [(0.9, 0.9, 0.0), (math.nan, 0.0, 0.0), (0.0, 0.0, math.inf)])
def test_stacked_bloch_points_are_validated(bad):
    # One bad point fails the stack, with this module's message.
    r1, r2, r3 = np.array([(0.0, 0.0, 1.0), bad, (0.5, 0.5, 0.5)]).T
    with pytest.raises(ValueError, match="outside the Bloch ball"):
        BlochQmix(r1, r2, r3)
    BlochQmix(r1[::2], r2[::2], r3[::2])


@pytest.mark.parametrize("bad", [-1e-6, 1.0 + 1e-6, math.nan])
def test_stacked_mixing_weights_are_validated(bad):
    lam = np.array([0.0, 0.25, bad, 1.0])
    with pytest.raises(ValueError, match="^mixing weight out of range: "):
        DiagonalQmix(lam)
    DiagonalQmix(np.delete(lam, 2))
