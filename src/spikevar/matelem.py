"""Matrix elements of r^s in the solvable basis, from one connection formula.

The basis functions are orthonormal Laguerre functions of x = beta r^2 with
parameter a = gamma_N - 1.  Expanding L_n^(a) in L_j^(b), b = a + s/2
(DLMF 18.18.18), turns every element into

    <psi_m| r^s |psi_n> = beta^(-s/2) (C C^T)_mn,
    C_nj = binom(s/2, n - j) sqrt(h_j^(b) / h_n^(a))    (j <= n, else 0),
    h_k^(c) = Gamma(k + c + 1) / k!,

valid for any real s with b > -1.  The (-1)^(m+n) phase of the basis is
folded into binom(s/2, k) = (-1)^k (-s/2)_k / k!, so every term of an entry
has the same sign and nothing cancels at any D.  For even q = s > 0 the
binomials vanish exactly past k = q/2, which makes r^q exactly banded.

ln h_k is accumulated as a sum of log1p(c/i) rather than a log-gamma
difference, whose rounding grows with the argument; only the constant
Gamma(b + 1)/Gamma(a + 1) goes through a gamma-function ratio.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import poch

from .basis import ModelParams

__all__ = [
    "inv_power_element",
    "power_element",
    "inv_power_matrix",
    "power_matrix",
]


def _check_dim(D: int) -> None:
    if D < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {D}")


def _check_indices(m: int, n: int) -> None:
    if m < 0 or n < 0:
        raise ValueError("basis indices must be >= 0")


@functools.lru_cache(maxsize=8)
def _lower(D: int) -> np.ndarray:
    """Mask of the j <= n triangle."""
    mask = np.tri(D, dtype=bool)
    mask.setflags(write=False)
    return mask


@functools.lru_cache(maxsize=32)
def _binomial_toeplitz(half: float, D: int) -> np.ndarray:
    """Read-only view T[n, j] = binom(half, n - j), zero for j > n."""
    i = np.arange(1.0, D)
    binom = np.cumprod(np.concatenate(([1.0], (half + 1.0 - i) / i)))
    return sliding_window_view(np.concatenate((binom[::-1], np.zeros(D - 1))), D)[::-1]


def _half_ln_h(c: float, D: int) -> np.ndarray:
    """0.5 ln(h_k^(c) / Gamma(c + 1)) for k < D."""
    return 0.5 * np.concatenate(([0.0], np.cumsum(np.log1p(c / np.arange(1.0, D)))))


def _moment_matrix(p: ModelParams, D: int, s: float) -> np.ndarray:
    """Dense D x D matrix of <psi_m| r^s |psi_n>; requires gamma_N + s/2 > 0."""
    a = p.gamma_N - 1.0
    half = 0.5 * s
    ln_ratio = _half_ln_h(a + half, D)[None, :] - _half_ln_h(a, D)[:, None]
    C = np.exp(ln_ratio, where=_lower(D), out=np.zeros((D, D)))
    C *= _binomial_toeplitz(half, D)
    # a product with its own transpose comes out exactly symmetric: numpy
    # evaluates it as a symmetric rank-k update and mirrors one triangle
    M = C @ C.T
    M *= poch(a + 1.0, half) * p.beta ** (-half)
    return M


def inv_power_matrix(p: ModelParams, D: int, alpha: float) -> np.ndarray:
    """Dense D x D matrix of r^(-alpha) elements, exactly symmetric."""
    _check_dim(D)
    if not alpha > 0.0:
        raise ValueError(f"singular exponent alpha must be > 0, got {alpha}")
    if not 2.0 * p.gamma_N > alpha:
        raise ValueError(
            f"r^(-{alpha}) element diverges: need 2*gamma_N > alpha, "
            f"have gamma_N = {p.gamma_N:.6g}"
        )
    return _moment_matrix(p, D, -alpha)


def power_matrix(p: ModelParams, D: int, q: int) -> np.ndarray:
    """Dense D x D matrix of r^q elements, exactly zero outside |m-n| <= q/2."""
    _check_dim(D)
    if q <= 0 or q % 2:
        raise ValueError(f"power exponent q must be an even positive integer, got {q}")
    return _moment_matrix(p, D, q)


def inv_power_element(p: ModelParams, m: int, n: int, alpha: float) -> float:
    """Element <psi_m| r^(-alpha) |psi_n>, any real 0 < alpha < 2*gamma_N."""
    _check_indices(m, n)
    return float(inv_power_matrix(p, max(m, n) + 1, alpha)[m, n])


def power_element(p: ModelParams, m: int, n: int, q: int) -> float:
    """Element <psi_m| r^q |psi_n> for even positive q; 0 for |m-n| > q/2."""
    _check_indices(m, n)
    return float(power_matrix(p, max(m, n) + 1, q)[m, n])
