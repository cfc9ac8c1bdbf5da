"""Small dense-matrix simulator for the n-qbit gates.

This is a desk-scale oracle for the algebraic layer: density matrices are
materialised as full 2^n x 2^n complex arrays and the register count is
capped (default 6).  ``num_qbits``, ``and_gate`` and ``partial_trace`` also
take a stack of matrices of shape (..., 2^n, 2^n), ``bloch_embed`` a stack
of Bloch vectors of shape (..., 3) and ``bloch_vectors`` a stack of
one-register matrices; each matrix of a stack gets exactly the arithmetic
it would get on its own, so a caller can run many trials in one call.

Ordering convention: the leftmost tensor factor is register 1, so basis
index i carries x1 as its most significant bit and xn as its least
significant bit.
"""

from __future__ import annotations

import functools

import numpy as np

from .qmix import BlochQmix

MAX_QBITS = 6

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10
UNITARY_TOL = 1e-12

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SQRT_NOT = np.array(
    [[(1 + 1j) / 2, (1 - 1j) / 2], [(1 - 1j) / 2, (1 + 1j) / 2]], dtype=complex
)
_PAULIS = np.stack([_SIGMA_X, _SIGMA_Y, _SIGMA_Z])


def num_qbits(matrix: np.ndarray) -> int:
    """Register count of a 2^n x 2^n matrix, or of each matrix of a stack."""
    shape = matrix.shape
    n = shape[-1].bit_length() - 1 if shape else -1
    if len(shape) < 2 or shape[-2] != shape[-1] or n < 0 or 1 << n != shape[-1]:
        raise ValueError(f"not a square power-of-two matrix: shape {shape}")
    return n


def _check_cap(n: int):
    if n > MAX_QBITS:
        raise ValueError(f"{n} registers exceed the configured cap of {MAX_QBITS}")


def is_density(rho: np.ndarray) -> bool:
    if not np.allclose(rho, rho.conj().T, atol=HERMITIAN_TOL):
        return False
    if abs(np.trace(rho) - 1.0) > TRACE_TOL * 10:
        return False
    eigvals = np.linalg.eigvalsh(rho)
    return bool(eigvals.min() >= PSD_TOL)


def is_unitary(u: np.ndarray) -> bool:
    return bool(np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=UNITARY_TOL * 100))


def projector_p1(n: int) -> np.ndarray:
    """Projector onto basis states whose last bit x_n is 1."""
    _check_cap(n)
    diag = np.array([(i & 1) for i in range(1 << n)], dtype=complex)
    return np.diag(diag)


def projector_p0(n: int) -> np.ndarray:
    _check_cap(n)
    diag = np.array([1 - (i & 1) for i in range(1 << n)], dtype=complex)
    return np.diag(diag)


def prob_n(rho: np.ndarray) -> float:
    """Born probability Tr(P1 rho), clamped to [0, 1]."""
    n = num_qbits(rho)
    p = float(np.real(np.trace(projector_p1(n) @ rho)))
    if p < -1e-10 or p > 1.0 + 1e-10:
        raise ValueError(f"probability {p} outside [0, 1] beyond tolerance")
    return min(1.0, max(0.0, p))


def _one_qbit_gate(n: int, j: int, gate: np.ndarray) -> np.ndarray:
    _check_cap(n)
    if not 1 <= j <= n:
        raise ValueError(f"register index {j} out of range 1..{n}")
    result = np.eye(1, dtype=complex)
    for slot in range(1, n + 1):
        factor = gate if slot == j else np.eye(2, dtype=complex)
        result = np.kron(result, factor)
    return result


def not_j(n: int, j: int) -> np.ndarray:
    """Negation of register j: sigma_x on factor j, identity elsewhere."""
    return _one_qbit_gate(n, j, _SIGMA_X)


def sqrt_not_j(n: int, j: int) -> np.ndarray:
    """Square root of the negation on register j."""
    return _one_qbit_gate(n, j, _SQRT_NOT)


@functools.cache
def toffoli(n: int, m: int) -> np.ndarray:
    """Permutation matrix on n+m+1 registers sending the target bit z
    to min(x_n, y_m) xor z.

    Cached, so it is read-only: at most 21 pairs (n, m) fit under the cap.
    """
    if n < 0 or m < 0:
        raise ValueError(f"register counts must not be negative: {n}, {m}")
    total = n + m + 1
    _check_cap(total)
    dim = 1 << total
    mat = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        xn = (i >> (m + 1)) & 1
        ym = (i >> 1) & 1
        j = i ^ (xn & ym)
        mat[j, i] = 1.0
    mat.flags.writeable = False
    return mat


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of the last two axes, broadcast over the leading ones."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])


def and_gate(tau: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Reversible conjunction: T (tau x nu x P0) T with T the Toffoli gate."""
    n = num_qbits(tau)
    m = num_qbits(nu)
    _check_cap(n + m + 1)
    t = toffoli(n, m)
    state = _kron(_kron(tau, nu), projector_p0(1))
    return t @ state @ t.conj().T


def partial_trace(rho: np.ndarray, keep_last: int) -> np.ndarray:
    """Trace out the leading registers, keeping the last ``keep_last``."""
    n = num_qbits(rho)
    if not 0 <= keep_last <= n:
        raise ValueError(f"cannot keep {keep_last} of {n} registers")
    d_out = 1 << (n - keep_last)
    d_keep = 1 << keep_last
    reshaped = rho.reshape(*rho.shape[:-2], d_out, d_keep, d_out, d_keep)
    return np.einsum("...ijik->...jk", reshaped)


def meas_distribution(rho: np.ndarray) -> tuple[float, float]:
    """Outcome distribution of the measurement device: (p(0), p(1))."""
    p1 = prob_n(rho)
    return (1.0 - p1, p1)


def sample_measurements(rho: np.ndarray, count: int, seed: int = 0) -> list[int]:
    """Deterministic seeded sampling of measurement outcomes."""
    _, p1 = meas_distribution(rho)
    rng = np.random.default_rng(seed)
    return [int(u < p1) for u in rng.random(count)]


def bloch_embed(b: BlochQmix | np.typing.ArrayLike) -> np.ndarray:
    """The 2x2 matrix (I + r1 sx + r2 sy + r3 sz)/2 of a ``BlochQmix``, or
    the stack of them for Bloch vectors of shape (..., 3)."""
    r = np.asarray((b.r1, b.r2, b.r3) if isinstance(b, BlochQmix) else b, dtype=float)
    if r.shape[-1:] != (3,):
        raise ValueError(f"Bloch vectors need a last axis of 3: shape {r.shape}")
    r1, r2, r3 = (r[..., k, None, None] for k in range(3))
    return (np.eye(2, dtype=complex) + r1 * _SIGMA_X + r2 * _SIGMA_Y + r3 * _SIGMA_Z) / 2.0


def bloch_vectors(rho: np.ndarray) -> np.ndarray:
    """Bloch coordinates Tr(rho s) for s = sx, sy, sz of one-register
    matrices of shape (..., 2, 2), as an array of shape (..., 3)."""
    if num_qbits(rho) != 1:
        raise ValueError("Bloch extraction requires a single register")
    return np.real(np.trace(rho[..., None, :, :] @ _PAULIS, axis1=-2, axis2=-1))


def bloch_extract(rho: np.ndarray) -> BlochQmix:
    """Bloch coordinates of a one-register density matrix."""
    if rho.ndim != 2:
        raise ValueError(f"Bloch extraction takes one matrix, not a stack: shape {rho.shape}")
    return BlochQmix(*bloch_vectors(rho).tolist())


def diagonal_density(lam: float) -> np.ndarray:
    """(1 - lam) P0 + lam P1 as a matrix."""
    return np.diag(np.array([1.0 - lam, lam], dtype=complex))
