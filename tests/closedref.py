"""Reference routes for the singular elements, independent of the package.

The explicit radicals for alpha = 2, 4, 6 and the terminating-3F2 scalar
route for any alpha, as the package evaluated them before it moved to the
Laguerre connection formula.  Neither shares code or identities with
`spikevar.matelem`, so agreement with them is a two-route check.
"""

import math

from spikevar.basis import ModelParams


def _neumaier_step(s: float, comp: float, term: float) -> tuple[float, float]:
    """One compensated-summation update; returns the new (sum, compensation)."""
    t = s + term
    if abs(s) >= abs(term):
        comp += (s - t) + term
    else:
        comp += (term - t) + s
    return t, comp


def hyp3f2_terminating(m: int, a: float, b: float, c: float, d: float) -> float:
    """Terminating 3F2(-m, a, b; c, d; 1).

    Sum_{k=0}^{m} (-m)_k (a)_k (b)_k / ((c)_k (d)_k k!).  If a or b is a
    negative integer -t with t < m the series truncates there exactly, which
    is how the even-power singular elements reduce to short sums.  A
    denominator Pochhammer vanishing before the numerator terminates is a
    domain error.
    """
    if m < 0:
        raise ValueError("polynomial degree m must be >= 0")
    s, comp = 1.0, 0.0
    term = 1.0
    for k in range(m):
        num = (k - m) * (a + k) * (b + k)
        if num == 0.0:
            break
        den = (c + k) * (d + k) * (k + 1)
        if den == 0.0:
            raise ValueError(
                f"3F2 denominator Pochhammer vanished at k={k + 1} "
                f"(c={c}, d={d}) before the series terminated"
            )
        term *= num / den
        s, comp = _neumaier_step(s, comp, term)
    return s + comp


def _check_singular_ok(p: ModelParams, alpha: float) -> float:
    g = p.gamma_N
    if not alpha > 0.0:
        raise ValueError(f"singular exponent alpha must be > 0, got {alpha}")
    if not 2.0 * g > alpha:
        raise ValueError(
            f"r^(-{alpha}) element diverges: need 2*gamma_N > alpha, "
            f"have gamma_N = {g:.6g}"
        )
    return g


def _check_indices(m: int, n: int) -> tuple[int, int]:
    if m < 0 or n < 0:
        raise ValueError("basis indices must be >= 0")
    return (m, n) if m <= n else (n, m)


def _ln_sqrt_ratio(g: float, lo: int, hi: int) -> float:
    """ln sqrt(hi! (g)_lo / (lo! (g)_hi)) -- the off-diagonal radical."""
    return 0.5 * (
        math.lgamma(hi + 1.0)
        - math.lgamma(lo + 1.0)
        + math.lgamma(g + lo)
        - math.lgamma(g + hi)
    )


def inv_power_element(p: ModelParams, m: int, n: int, alpha: float) -> float:
    """General element <psi_m| r^(-alpha) |psi_n>, any real alpha < 2*gamma_N.

    Evaluated from the terminating-3F2 representation with the larger index
    in the non-terminating slot; the value is symmetric in (m, n).  For even
    alpha the upper parameter 1 - alpha/2 truncates the sum after alpha/2
    terms on its own; for non-even alpha the full min(m, n)-degree polynomial
    is summed (documented precision degrades past indices of a few hundred).
    """
    lo, hi = _check_indices(m, n)
    g = _check_singular_ok(p, alpha)
    half = 0.5 * alpha
    f = hyp3f2_terminating(lo, g - half, 1.0 - half, g, 1.0 - half - hi)
    if f == 0.0:
        return 0.0
    ln_pref = (
        half * math.log(p.beta)
        + math.lgamma(half + hi)
        - math.lgamma(half)
        - (math.lgamma(g + hi) - math.lgamma(g))
        + math.lgamma(g - half)
        - math.lgamma(g)
        + 0.5 * (
            math.lgamma(g + hi) - math.lgamma(g)
            + math.lgamma(g + lo) - math.lgamma(g)
            - math.lgamma(hi + 1.0)
            - math.lgamma(lo + 1.0)
        )
    )
    sign = 1.0 if (lo + hi) % 2 == 0 else -1.0
    return sign * math.copysign(1.0, f) * math.exp(ln_pref + math.log(abs(f)))


def inv_power_element_closed(p: ModelParams, m: int, n: int, alpha: int) -> float:
    """Explicit closed forms of <psi_m| r^(-alpha) |psi_n> for even alpha.

    alpha = 2, 4, 6 use the dedicated three-branch radicals; larger even
    alpha falls through to the general single-sum route, which terminates
    after alpha/2 terms by itself.  Requires gamma_N > alpha/2.
    """
    if alpha not in (2, 4, 6):
        if alpha >= 8 and alpha % 2 == 0:
            return inv_power_element(p, m, n, float(alpha))
        raise ValueError(f"closed forms exist for even alpha only, got {alpha}")
    lo, hi = _check_indices(m, n)
    g = _check_singular_ok(p, float(alpha))
    beta = p.beta
    sign = 1.0 if (lo + hi) % 2 == 0 else -1.0
    ratio = math.exp(_ln_sqrt_ratio(g, lo, hi)) if hi > lo else 1.0
    if alpha == 2:
        return beta / (g - 1.0) * (sign * ratio if hi > lo else 1.0)
    if alpha == 4:
        scale = beta**2 / (g * (g - 1.0) * (g - 2.0))
        if hi == lo:
            return scale * (g + 2.0 * lo)
        return scale * sign * ratio * (g * (hi - lo + 1.0) + 2.0 * lo)
    scale = beta**3 / ((g + 1.0) * g * (g - 1.0) * (g - 2.0) * (g - 3.0))
    if hi == lo:
        return scale * (g + g * g + 6.0 * g * lo + 6.0 * lo * lo)
    bracket = (
        (2.0 + hi) * (1.0 + hi) * g * (g + 1.0)
        - 2.0 * lo * (1.0 + hi) * (g - 3.0) * (g + 1.0)
        - lo * (1.0 - lo) * (g - 2.0) * (g - 3.0)
    )
    return scale * sign * ratio * bracket / 2.0
