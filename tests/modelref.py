"""Exact bound states of the solvable model B r^2 + A / r^2, the reference
the bounds and the oracle are checked against.

Energies 2*beta*(2n + gamma_N), and eigenfunctions from the terminating
confluent series 1F1(-n; gamma_N; beta r^2) summed exactly.
Nothing in the package calls these: the bound search assembles its
matrices from the Laguerre connection formula in `spikevar.matelem`.
"""

import math
from fractions import Fraction

from spikevar.basis import ModelParams


def hyp1f1_terminating(n: int, gamma: float, z: float) -> float:
    """Terminating confluent series 1F1(-n; gamma; z).

    Sum_{k=0}^{n} (-n)_k z^k / ((gamma)_k k!), an n-degree polynomial in z.
    Terms are generated by the ratio recurrence
    t_{k+1} = t_k (k - n) z / ((gamma + k)(k + 1)) exactly, as Fractions of
    the float inputs, and the sum is rounded once: the alternating terms can
    exceed the result more than 1e5-fold, so rounded terms would carry that
    factor times their own error into the sum.
    """
    if n < 0:
        raise ValueError("polynomial degree n must be >= 0")
    if not gamma > 0.0:
        raise ValueError(f"lower parameter must be > 0, got {gamma}")
    g, x = Fraction(gamma), Fraction(z)
    total = term = Fraction(1)
    for k in range(n):
        term *= (k - n) * x / ((g + k) * (k + 1))
        total += term
    return float(total)


def gk_energy(p: ModelParams, n: int) -> float:
    """Exact level n of the solvable model: 2*beta*(2n + gamma_N)."""
    if n < 0:
        raise ValueError("level index n must be >= 0")
    return 2.0 * p.beta * (2 * n + p.gamma_N)


def gk_wavefunction(p: ModelParams, n: int, r: float) -> float:
    """Normalized radial eigenfunction psi_n evaluated at r > 0.

    Includes the (-1)^n phase convention and the normalization radical
    sqrt(2 beta^g (g)_n / (n! Gamma(g))), assembled in the log domain so
    large n and steep g stay finite.
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
