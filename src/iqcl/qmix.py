"""Single-qbit density operators in Bloch coordinates and their gate algebra.

A state is a point (r1, r2, r3) of the closed unit ball; the probability
of reading "true" depends on r3 alone, the probability after a square-root
negation on r2 alone.  The closed-form Bloch actions of the two unitary
gates were derived once by conjugating the 2x2 matrices and are frozen
here; ``nqubit_sim`` provides the matrix-level cross-check.

Probability values in this module are floats (Bloch coordinates are in
general irrational); exact arithmetic lives in ``algebra``/``semantics``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

BALL_TOL = 1e-12


@dataclass(frozen=True)
class BlochQmix:
    """A density operator on the 2-dim space, as a point of the unit ball."""

    r1: float
    r2: float
    r3: float

    def __post_init__(self):
        norm_sq = self.r1 * self.r1 + self.r2 * self.r2 + self.r3 * self.r3
        if norm_sq > 1.0 + BALL_TOL:
            raise ValueError(
                f"point ({self.r1}, {self.r2}, {self.r3}) outside the Bloch ball"
            )


@dataclass(frozen=True)
class DiagonalQmix:
    """The mixture (1 - lam) P0 + lam P1; Bloch point (0, 0, 1 - 2 lam)."""

    lam: float

    def __post_init__(self):
        if not -BALL_TOL <= self.lam <= 1.0 + BALL_TOL:
            raise ValueError(f"mixing weight out of range: {self.lam}")

    @property
    def bloch(self) -> BlochQmix:
        return BlochQmix(0.0, 0.0, 1.0 - 2.0 * self.lam)


Qmix = BlochQmix | DiagonalQmix

P0 = BlochQmix(0.0, 0.0, 1.0)
P1 = BlochQmix(0.0, 0.0, -1.0)
RHO_HALF = BlochQmix(0.0, 0.0, 0.0)


def random_ball_point(rng: random.Random) -> BlochQmix:
    """A uniform point of the ball: three ``rng.uniform(-1, 1)`` draws per try, kept inside."""
    while True:
        r1, r2, r3 = (rng.uniform(-1, 1) for _ in range(3))
        if r1 * r1 + r2 * r2 + r3 * r3 <= 1.0:
            return BlochQmix(r1, r2, r3)


def _coords(rho: Qmix) -> tuple[float, float, float]:
    if isinstance(rho, DiagonalQmix):
        return (0.0, 0.0, 1.0 - 2.0 * rho.lam)
    return (rho.r1, rho.r2, rho.r3)


def prob(rho: Qmix) -> float:
    """Born-rule probability of truth: (1 - r3)/2."""
    if isinstance(rho, DiagonalQmix):
        return rho.lam
    return (1.0 - rho.r3) / 2.0


def sqrt_prob(rho: Qmix) -> float:
    """Probability of truth after the square-root negation: (1 - r2)/2."""
    _, r2, _ = _coords(rho)
    return (1.0 - r2) / 2.0


def gate_not(rho: Qmix) -> Qmix:
    """Conjugation by sigma_x: (r1, r2, r3) -> (r1, -r2, -r3)."""
    if isinstance(rho, DiagonalQmix):
        return DiagonalQmix(1.0 - rho.lam)
    return BlochQmix(rho.r1, -rho.r2, -rho.r3)


def gate_sqrt_not(rho: Qmix) -> BlochQmix:
    """Quarter turn of the ball about the x-axis: (r1, r2, r3) -> (r1, -r3, r2)."""
    r1, r2, r3 = _coords(rho)
    return BlochQmix(r1, -r3, r2)


def iand(tau: Qmix, nu: Qmix) -> DiagonalQmix:
    """Irreversible conjunction: the diagonal state with lam = p(tau) p(nu)."""
    return DiagonalQmix(prob(tau) * prob(nu))


def luk_oplus(tau: Qmix, nu: Qmix) -> DiagonalQmix:
    """Lukasiewicz disjunction: lam = min(1, p(tau) + p(nu))."""
    return DiagonalQmix(min(1.0, prob(tau) + prob(nu)))


def q_odot(tau: Qmix, nu: Qmix) -> DiagonalQmix:
    return gate_not(luk_oplus(gate_not(tau), gate_not(nu)))


def q_implies(tau: Qmix, nu: Qmix) -> DiagonalQmix:
    return luk_oplus(gate_not(tau), nu)


def q_meet(tau: Qmix, nu: Qmix) -> DiagonalQmix:
    return q_odot(tau, q_implies(tau, nu))


def q_join(tau: Qmix, nu: Qmix) -> DiagonalQmix:
    return q_implies(q_implies(tau, nu), nu)


SQRT_BOUND = (2.0 + math.sqrt(2.0)) / 8.0
SQRT_BOUND_MAXIMIZER = BlochQmix(0.0, -1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0))


def parse_qmix(text: str) -> Qmix:
    """Read a state literal: ``(r1, r2, r3)`` decimals or ``rho(lam)``."""
    t = text.strip()
    if t.startswith("rho(") and t.endswith(")"):
        return DiagonalQmix(float(t[4:-1]))
    if t.startswith("(") and t.endswith(")"):
        parts = t[1:-1].split(",")
        if len(parts) != 3:
            raise ValueError(f"expected three coordinates: {text!r}")
        r1, r2, r3 = (float(p) for p in parts)
        return BlochQmix(r1, r2, r3)
    raise ValueError(f"not a qmix literal: {text!r}")


def format_qmix(rho: Qmix) -> str:
    if isinstance(rho, DiagonalQmix):
        return f"rho({rho.lam!r})"
    return f"({rho.r1!r}, {rho.r2!r}, {rho.r3!r})"
