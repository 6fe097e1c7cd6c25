"""An exactly solvable family of the paper's potentials, independent of the
package's solvers.

In N dimensions at angular momentum l, with L = l + (N - 3)/2 and mu > 0,

    -u'' + [L(L+1)/r^2 + r^2 + mu (2s - 3) r^-4 + mu^2 r^-6] u = E u,
    s = 1/2 + sqrt(1/4 + L(L+1) + 2 mu),

has the nodeless ground state u = r^s exp(-r^2/2 - mu/(2 r^2)) at
E0 = 2s + 1: (ln u)'^2 + (ln u)'' gives the potential term by term, and
s(s - 1) = L(L+1) + 2 mu cancels the r^-2 remainder.  The r^-4 coefficient
is negative where s < 3/2, so the family also holds attractive quartic
terms.  The dilation r = a1^(-1/4) x carries it to any a1: a1 r^2 +
lam4 r^-4 + lam6 r^-6 is sqrt(a1) times the a1 = 1 operator with
lam4 a1^(1/2) and lam6 a1, so lam4 = mu (2s - 3) a1^(-1/2), lam6 = mu^2 / a1
and E0 sqrt(a1).
"""

import math


def ground_state(mu: float, N: int, l: int, a1: float = 1.0):
    """((lam4, lam6), E0) of the family member (mu, N, l) at a1: the r^-4
    and r^-6 coefficients and the exact ground-state energy."""
    L = l + 0.5 * (N - 3)
    s = 0.5 + math.sqrt(0.25 + L * (L + 1.0) + 2.0 * mu)
    root = math.sqrt(a1)
    return (mu * (2.0 * s - 3.0) / root, mu * mu / a1), (2.0 * s + 1.0) * root


def draws(rng, count):
    """`count` seeded members (mu, N, l, a1): mu ~ U(0.05, 8), N 1-6, l 0-3
    and a1 = 10^U(-5, 5)."""
    return [(rng.uniform(0.05, 8.0), rng.randint(1, 6), rng.randint(0, 3),
             10.0 ** rng.uniform(-5.0, 5.0)) for _ in range(count)]
