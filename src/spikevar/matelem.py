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
difference, whose rounding grows with the argument, and is memoized: the
moment matrices of one variational matrix share the vector ln h^(a).
The constant Gamma(b + 1)/Gamma(a + 1) is `_gamma_ratio`: a short product
when s/2 is an integer (every even power), else an upward shift plus
Stirling's series.

B enters only through the scalar beta^(-s/2): C C^T depends on gamma_N, s
and D alone.  The unscaled products of the latest (gamma_N, D) are cached,
one per exponent s, so an assembly at the A of the previous one (a bound
search moving B alone) scales them instead of building them again.  A new
(gamma_N, D) evicts every entry, so the cache holds at most the terms of
one assembly, D x D floats each.  Every call returns a fresh scaled copy,
made by the same single scalar multiply as an uncached build, so the
elements carry the same bits either way.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
def _lower_ones(D: int) -> np.ndarray:
    """Read-only 1.0 on the j <= n triangle and 0.0 above it."""
    mask = np.tri(D)
    mask.setflags(write=False)
    return mask


@functools.lru_cache(maxsize=8)
def _counts(D: int) -> np.ndarray:
    """Read-only 1.0, 2.0, ..., D - 1."""
    i = np.arange(1.0, D)
    i.setflags(write=False)
    return i


@functools.lru_cache(maxsize=32)
def _binomial_toeplitz(half: float, D: int) -> np.ndarray:
    """Read-only view T[n, j] = binom(half, n - j), zero for j > n."""
    i = _counts(D)
    binom = np.cumprod(np.concatenate(([1.0], (half + 1.0 - i) / i)))
    return sliding_window_view(np.concatenate((binom[::-1], np.zeros(D - 1))), D)[::-1]


@functools.lru_cache(maxsize=8)
def _half_ln_h(c: float, D: int) -> np.ndarray:
    """Read-only 0.5 ln(h_k^(c) / Gamma(c + 1)) for k < D."""
    out = np.zeros(D)
    np.add.accumulate(np.log1p(c / _counts(D)), out=out[1:])
    out *= 0.5
    out.setflags(write=False)
    return out


# B_2k / (2k (2k - 1)), k = 1..7: Stirling's series for ln Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)


def _stirling_tail(z: float) -> float:
    """ln Gamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2, for z >= 10."""
    w = 1.0 / (z * z)
    acc = 0.0
    for c in reversed(_STIRLING):
        acc = acc * w + c
    return acc / z


def _gamma_ratio(x: float, h: float) -> float:
    """Gamma(x + h) / Gamma(x) for x > 0 and x + h > 0.

    For integer h, the product x (x + 1)...(x + h - 1), or for h < 0 the
    quotient 1 / ((x + h)...(x - 1)), taken in the order of the cephes `poch`
    recurrence, so it matches scipy.special.poch bit for bit.  Otherwise both arguments are shifted
    up to at least 10 and the log-ratio is summed from Stirling's series,
    which keeps ~2e-15 relative accuracy up to x = 1e10, where a log-gamma
    difference loses digits to the size of ln Gamma.
    """
    r = 1.0
    if float(h).is_integer():
        m = h
        while m >= 1.0:
            m -= 1.0
            r *= x + m
        while m <= -1.0:
            r /= x + m
            m += 1.0
        return r
    y = x
    while min(y, y + h) < 10.0:
        r *= y / (y + h)
        y += 1.0
    # (y + h)^h by pow, so that exp sees only the small rest: an exponent of
    # size |h ln y| would carry its own rounding, ~|h ln y| ulps, into the result
    rest = (y - 0.5) * math.log1p(h / y) - h + _stirling_tail(y + h) - _stirling_tail(y)
    return r * (y + h) ** h * math.exp(rest)


def _connection_product(a: float, s: float, D: int) -> np.ndarray:
    """C C^T of the connection matrix for a = gamma_N - 1: the moment matrix
    of r^s without its scalar factor Gamma-ratio * beta^(-s/2)."""
    half = 0.5 * s
    ln_ratio = _half_ln_h(a + half, D)[None, :] - _half_ln_h(a, D)[:, None]
    # exp(0) = 1 above the diagonal, where the binomial factor is exactly 0;
    # the exponents there would overflow, and exp(-inf) is numpy's slow path
    ln_ratio *= _lower_ones(D)
    C = np.exp(ln_ratio, out=ln_ratio)
    C *= _binomial_toeplitz(half, D)
    # a product with its own transpose comes out exactly symmetric: numpy
    # evaluates it as a symmetric rank-k update and mirrors one triangle
    return C @ C.T


# (a, s, D) -> read-only C C^T, all for the one (a, D) in _products_aD: the
# terms of the latest assembly, which the next one reuses when only B moved
_products: dict[tuple[float, float, int], np.ndarray] = {}
_products_aD: tuple[float, int] | None = None


def _product(a: float, s: float, D: int) -> np.ndarray:
    """Cached `_connection_product`; a new (a, D) evicts every entry."""
    global _products_aD
    M = _products.get((a, s, D))
    if M is None:
        if _products_aD != (a, D):
            _products.clear()
            _products_aD = (a, D)
        M = _connection_product(a, s, D)
        M.setflags(write=False)
        _products[a, s, D] = M
    return M


def _moment_matrix(p: ModelParams, D: int, s: float) -> np.ndarray:
    """Fresh dense D x D matrix of <psi_m| r^s |psi_n>; requires
    gamma_N + s/2 > 0."""
    a = p.gamma_N - 1.0
    half = 0.5 * s
    return _product(a, s, D) * (_gamma_ratio(a + 1.0, half) * p.beta ** (-half))


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
