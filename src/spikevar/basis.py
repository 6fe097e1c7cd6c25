"""The exactly solvable radial model V(r) = B r^2 + A / r^2 in N dimensions.

Its bound states have energies 2*beta*(2n + gamma_N) and eigenfunctions
proportional to r^(gamma_N - 1/2) exp(-beta r^2 / 2) 1F1(-n; gamma_N; beta r^2),
with beta = sqrt(B) and gamma_N = 1 + sqrt(A + (Lambda + 1/2)^2).  Dimension N
and angular momentum l enter only through Lambda = (N + 2l - 3)/2, so two
configurations with the same N + 2l share a spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ModelParams", "gk_energy", "gk_wavefunction", "hyp1f1_terminating"]


@dataclass(frozen=True)
class ModelParams:
    """Basis configuration: strengths (A, B) plus the (N, l) channel.

    A >= 0 scales the inverse-square model term, B > 0 the quadratic one.
    A = 0 is allowed (degenerates to the pure oscillator); whether the
    resulting gamma_N supports a given singular operator is enforced by the
    matrix-element routines, not here.
    """

    A: float
    B: float
    N: int = 3
    l: int = 0

    def __post_init__(self):
        if not self.A >= 0.0:
            raise ValueError(f"A must be >= 0, got {self.A}")
        if not self.B > 0.0:
            raise ValueError(f"B must be > 0, got {self.B}")
        if self.N < 1:
            raise ValueError(f"dimension N must be >= 1, got {self.N}")
        if self.l < 0:
            raise ValueError(f"angular momentum l must be >= 0, got {self.l}")

    @property
    def beta(self) -> float:
        return math.sqrt(self.B)

    @property
    def Lambda(self) -> float:
        """Effective angular quantum number (N + 2l - 3)/2."""
        return 0.5 * (self.N + 2 * self.l - 3)

    @property
    def gamma_N(self) -> float:
        return 1.0 + math.sqrt(self.A + (self.Lambda + 0.5) ** 2)


def _neumaier_step(s: float, comp: float, term: float) -> tuple[float, float]:
    """One compensated-summation update; returns the new (sum, compensation)."""
    t = s + term
    if abs(s) >= abs(term):
        comp += (s - t) + term
    else:
        comp += (term - t) + s
    return t, comp


def hyp1f1_terminating(n: int, gamma: float, z: float) -> float:
    """Terminating confluent series 1F1(-n; gamma; z).

    Sum_{k=0}^{n} (-n)_k z^k / ((gamma)_k k!), an n-degree polynomial in z.
    Terms are generated by the ratio recurrence
    t_{k+1} = t_k (k - n) z / ((gamma + k)(k + 1)) and accumulated with
    compensation, which keeps the alternating sums accurate for large n.
    """
    if n < 0:
        raise ValueError("polynomial degree n must be >= 0")
    if not gamma > 0.0:
        raise ValueError(f"lower parameter must be > 0, got {gamma}")
    s, comp = 1.0, 0.0
    term = 1.0
    for k in range(n):
        term *= (k - n) * z / ((gamma + k) * (k + 1))
        if term == 0.0:
            break
        s, comp = _neumaier_step(s, comp, term)
    return s + comp


def gk_energy(p: ModelParams, n: int) -> float:
    """Exact level n of the solvable model: 2*beta*(2n + gamma_N)."""
    if n < 0:
        raise ValueError("level index n must be >= 0")
    return 2.0 * p.beta * (2 * n + p.gamma_N)


def gk_wavefunction(p: ModelParams, n: int, r: float) -> float:
    """Normalized radial eigenfunction psi_n evaluated at r > 0.

    Includes the (-1)^n phase convention and the normalization radical
    sqrt(2 beta^g (g)_n / (n! Gamma(g))), assembled in the log domain so
    large n and steep g stay finite.  Diagnostic-grade scalar evaluation;
    the variational machinery never calls this in hot paths.
    """
    if n < 0:
        raise ValueError("level index n must be >= 0")
    if not r > 0.0:
        raise ValueError(f"r must be > 0, got {r}")
    g = p.gamma_N
    beta = p.beta
    ln_norm = 0.5 * (
        math.log(2.0)
        + g * math.log(beta)
        + math.lgamma(g + n)
        - math.lgamma(g)
        - math.lgamma(n + 1.0)
        - math.lgamma(g)
    )
    ln_radial = (g - 0.5) * math.log(r) - 0.5 * beta * r * r
    sign = -1.0 if n % 2 else 1.0
    return sign * math.exp(ln_norm + ln_radial) * hyp1f1_terminating(n, g, beta * r * r)
