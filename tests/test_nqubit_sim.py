import contextlib
import io
import itertools
import random

import numpy as np
import pytest

from iqcl.cli import PROP34_BATCH, main
from iqcl.nqubit_sim import (
    MAX_QBITS,
    _check_cap,
    _kron,
    and_gate,
    bloch_embed,
    bloch_extract,
    bloch_vectors,
    diagonal_density,
    is_density,
    is_unitary,
    meas_distribution,
    not_j,
    num_qbits,
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


def reference_deviations(trials, seed):
    """The prop34 check one trial at a time, with no stack axis."""
    rng = random.Random(seed)
    for _ in range(trials):
        tau, nu = random_ball_point(rng), random_ball_point(rng)
        product = and_gate(bloch_embed(tau), bloch_embed(nu))
        reduced = bloch_extract(partial_trace(product, 1))
        direct = iand(tau, nu).bloch
        yield from (
            abs(reduced.r1 - direct.r1),
            abs(reduced.r2 - direct.r2),
            abs(reduced.r3 - direct.r3),
        )


def test_iand_equals_reduced_and():
    assert all(d < 1e-10 for d in reference_deviations(50, 14))


@pytest.mark.parametrize("trials", [PROP34_BATCH - 1, PROP34_BATCH, PROP34_BATCH + 1])
@pytest.mark.parametrize("seed", [0, 14])
def test_prop34_batches_match_the_per_trial_reference(trials, seed):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["sim", "prop34", "--trials", str(trials), "--seed", str(seed), "--format", "machine"])
    worst = max(reference_deviations(trials, seed))
    assert (code, out.getvalue()) == (0, f"trials={trials}\nmax_deviation={worst!r}\n")


def random_stack(rng, shape, n):
    """Random complex matrices, not densities: the layer functions must not care."""
    real, imag = (rng.standard_normal((*shape, 1 << n, 1 << n)) for _ in range(2))
    return real + 1j * imag


def per_matrix(fn, *stacks):
    """``fn`` applied to each matrix of the stacks in turn, stacked again."""
    lead = stacks[0].shape[:-2]
    results = [fn(*(s[i] for s in stacks)) for i in np.ndindex(lead)]
    return np.array(results).reshape(*lead, *results[0].shape)


def test_and_gate_on_a_stack_equals_each_matrix():
    rng = np.random.default_rng(21)
    for shape, (n, m) in (((5,), (1, 1)), ((2, 3), (1, 1)), ((4,), (2, 1)), ((1,), (1, 2))):
        tau, nu = random_stack(rng, shape, n), random_stack(rng, shape, m)
        got = and_gate(tau, nu)
        assert got.shape == (*shape, 1 << (n + m + 1), 1 << (n + m + 1))
        assert np.array_equal(got, per_matrix(and_gate, tau, nu))
    # One operand may be a single matrix: it broadcasts against the stack.
    tau, nu = random_stack(rng, (3,), 1), random_stack(rng, (), 1)
    assert np.array_equal(and_gate(tau, nu), np.array([and_gate(t, nu) for t in tau]))


def test_kron_on_a_stack_equals_np_kron():
    rng = np.random.default_rng(22)
    a, b = random_stack(rng, (3,), 1), random_stack(rng, (3,), 2)
    assert np.array_equal(_kron(a, b), np.array([np.kron(x, y) for x, y in zip(a, b)]))


def test_partial_trace_on_a_stack_equals_each_matrix():
    rng = np.random.default_rng(23)
    for shape, n in (((6,), 3), ((2, 2), 2), ((3,), 1)):
        rho = random_stack(rng, shape, n)
        for keep in range(n + 1):
            got = partial_trace(rho, keep)
            assert got.shape == (*shape, 1 << keep, 1 << keep)
            assert np.array_equal(got, per_matrix(lambda r: partial_trace(r, keep), rho))


def test_bloch_embed_and_vectors_on_a_stack_equal_each_point():
    rng = random.Random(24)
    points = [[random_ball_point(rng) for _ in range(4)] for _ in range(3)]
    coords = [[(b.r1, b.r2, b.r3) for b in row] for row in points]
    stack = bloch_embed(coords)
    assert stack.shape == (3, 4, 2, 2)
    assert np.array_equal(stack, np.array([[bloch_embed(b) for b in row] for row in points]))
    vectors = bloch_vectors(stack)
    assert vectors.shape == (3, 4, 3)
    for row, got_row in zip(stack, vectors):
        for rho, got in zip(row, got_row):
            b = bloch_extract(rho)
            assert got.tolist() == [b.r1, b.r2, b.r3]
    assert bloch_vectors(np.eye(2, dtype=complex) / 2).shape == (3,)
    with pytest.raises(ValueError):
        bloch_embed(np.zeros((4, 2)))


@pytest.mark.parametrize(
    "shape",
    [(), (2,), (2, 3), (3, 2), (3, 4, 2), (5, 3, 3), (0, 0), (4, 0, 0), (2, 6, 6)],
)
def test_num_qbits_rejects_bad_shapes(shape):
    with pytest.raises(ValueError):
        num_qbits(np.zeros(shape, dtype=complex))


def test_num_qbits_reads_the_trailing_axes():
    assert num_qbits(np.zeros((1, 1))) == 0
    assert num_qbits(np.zeros((8, 8))) == 3
    assert num_qbits(np.zeros((5, 2, 8, 8))) == 3


def test_the_cap_holds_for_stacks():
    with pytest.raises(ValueError, match="exceed the configured cap"):
        _check_cap(MAX_QBITS + 1)
    big = np.zeros((2, 1 << 3, 1 << 3), dtype=complex)
    with pytest.raises(ValueError, match="exceed the configured cap"):
        and_gate(big, big)  # 3 + 3 + 1 registers
    with pytest.raises(ValueError):
        and_gate(np.zeros((2, 2, 3)), np.zeros((2, 2, 2)))


def test_bloch_extract_rejects_stacks_and_wider_matrices():
    with pytest.raises(ValueError):
        bloch_extract(np.eye(4, dtype=complex) / 4)
    with pytest.raises(ValueError):
        bloch_extract(np.stack([np.eye(2, dtype=complex) / 2] * 2))
    with pytest.raises(ValueError):
        bloch_vectors(np.zeros((3, 4, 4), dtype=complex))


def test_cached_toffoli_is_read_only():
    t = toffoli(1, 1)
    assert t is toffoli(1, 1)
    with pytest.raises(ValueError):
        t[0, 0] = 5.0
    with pytest.raises(ValueError):
        t[:] *= 2
    with pytest.raises(ValueError):
        toffoli(-1, 2)
