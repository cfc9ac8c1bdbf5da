import itertools
import random

import numpy as np
import pytest

from iqcl.nqubit_sim import (
    and_gate,
    bloch_embed,
    bloch_extract,
    diagonal_density,
    is_density,
    is_unitary,
    meas_distribution,
    not_j,
    partial_trace,
    prob_n,
    projector_p1,
    sample_measurements,
    sqrt_not_j,
    toffoli,
)
from iqcl.qmix import BlochQmix, iand, random_ball_point


def basis_state(bits):
    n = len(bits)
    index = int("".join(map(str, bits)), 2)
    vec = np.zeros(1 << n, dtype=complex)
    vec[index] = 1.0
    return np.outer(vec, vec.conj())


def test_projector_and_prob():
    assert prob_n(basis_state([1, 1])) == 1.0
    assert prob_n(basis_state([1, 0])) == 0.0
    for lam in (0.0, 0.3, 1.0):
        assert abs(prob_n(diagonal_density(lam)) - lam) < 1e-15


def test_not_gate_on_basis():
    gate = not_j(1, 1)
    assert np.allclose(gate @ basis_state([0]) @ gate.conj().T, basis_state([1]))
    two = not_j(2, 1)
    assert np.allclose(two @ basis_state([0, 1]) @ two.conj().T, basis_state([1, 1]))


def test_sqrt_not_squares_to_not():
    s = sqrt_not_j(1, 1)
    assert np.abs(s @ s - not_j(1, 1)).max() <= 1e-15
    s3 = sqrt_not_j(3, 2)
    assert np.abs(s3 @ s3 - not_j(3, 2)).max() <= 1e-14


def test_gate_index_validation():
    with pytest.raises(ValueError):
        not_j(2, 3)
    with pytest.raises(ValueError):
        toffoli(4, 3)


def test_toffoli_permutation():
    t = toffoli(1, 1)
    for x, y, z in itertools.product((0, 1), repeat=3):
        state = basis_state([x, y, z])
        out = t @ state @ t.conj().T
        expected = basis_state([x, y, (x & y) ^ z])
        assert np.allclose(out, expected)


def test_toffoli_general_registers():
    t = toffoli(2, 1)
    state = basis_state([0, 1, 1, 0])
    out = t @ state @ t.conj().T
    assert np.allclose(out, basis_state([0, 1, 1, 1]))


def test_gates_are_unitary():
    for gate in (not_j(2, 1), sqrt_not_j(2, 2), toffoli(1, 1), toffoli(2, 1)):
        assert is_unitary(gate)


def test_and_gate_probabilities():
    p1 = basis_state([1])
    p0 = basis_state([0])
    assert abs(prob_n(and_gate(p1, p1)) - 1.0) < 1e-12
    assert abs(prob_n(and_gate(p0, diagonal_density(0.7)))) < 1e-12
    half = diagonal_density(0.5)
    assert abs(prob_n(and_gate(half, half)) - 0.25) < 1e-12


def test_partial_trace():
    sigma = diagonal_density(0.3)
    tau = bloch_embed(BlochQmix(0.2, 0.1, -0.4))
    product = np.kron(sigma, tau)
    assert np.allclose(partial_trace(product, 1), tau, atol=1e-12)
    # Bell state reduces to the maximally mixed state
    vec = np.zeros(4, dtype=complex)
    vec[0] = vec[3] = 1 / np.sqrt(2)
    bell = np.outer(vec, vec.conj())
    reduced = partial_trace(bell, 1)
    assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)
    assert abs(np.trace(partial_trace(bell, 1)) - 1.0) < 1e-12


def test_meas_distribution():
    assert meas_distribution(diagonal_density(0.3)) == (0.7, 0.3)
    assert meas_distribution(basis_state([0])) == (1.0, 0.0)
    assert meas_distribution(np.eye(2, dtype=complex) / 2) == (0.5, 0.5)


def test_sampling_deterministic():
    rho = diagonal_density(0.5)
    a = sample_measurements(rho, 20, seed=42)
    b = sample_measurements(rho, 20, seed=42)
    assert a == b


def test_bloch_round_trip():
    assert np.allclose(bloch_embed(BlochQmix(0, 0, 1)), basis_state([0]))
    assert np.allclose(bloch_embed(BlochQmix(0, 0, 0)), np.eye(2) / 2)
    rng = random.Random(11)
    for _ in range(200):
        b = random_ball_point(rng)
        back = bloch_extract(bloch_embed(b))
        assert abs(back.r1 - b.r1) < 1e-12
        assert abs(back.r2 - b.r2) < 1e-12
        assert abs(back.r3 - b.r3) < 1e-12
    with pytest.raises(ValueError):
        bloch_extract(np.eye(4, dtype=complex) / 4)


def test_embedded_points_are_densities():
    rng = random.Random(12)
    for _ in range(50):
        assert is_density(bloch_embed(random_ball_point(rng)))


def test_normalised_projectors_have_trace_one():
    for n in range(1, 5):
        k_n = 1.0 / 2 ** (n - 1)
        assert abs(np.trace(k_n * projector_p1(n)) - 1.0) < 1e-12


def test_last_register_negation_flips_probability():
    rng = random.Random(13)
    for n in (1, 2, 3):
        gate = not_j(n, n)
        for _ in range(20):
            lam = rng.random()
            rho = diagonal_density(lam)
            for _ in range(n - 1):
                rho = np.kron(diagonal_density(rng.random()), rho)
            flipped = gate @ rho @ gate.conj().T
            assert abs(prob_n(flipped) - (1.0 - prob_n(rho))) < 1e-12


def test_iand_equals_reduced_and():
    rng = random.Random(14)
    for _ in range(50):
        tau, nu = random_ball_point(rng), random_ball_point(rng)
        product = and_gate(bloch_embed(tau), bloch_embed(nu))
        reduced = bloch_extract(partial_trace(product, 1))
        direct = iand(tau, nu).bloch
        for got, want in zip(
            (reduced.r1, reduced.r2, reduced.r3), (direct.r1, direct.r2, direct.r3)
        ):
            assert abs(got - want) < 1e-10
