"""Assembly of the truncated variational matrix for a target Hamiltonian.

The target operator -d^2/dr^2 + Lam(Lam+1)/r^2 + a1 r^2 + sum_k lam_k r^(-alpha_k)
is split around the solvable model with parameters (A, B): the diagonal carries
the exact model spectrum, and the residual potential contributes
(a1 - B) r^2, the singular terms, and the -A r^(-2) counter-term.  An explicit
user r^(-2) term simply adds to the counter-term coefficient.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .basis import ModelParams
from .matelem import _per_point, _points, inv_power_matrix, power_matrix

__all__ = ["PotentialSpec", "assemble"]


@dataclass(frozen=True)
class PotentialSpec:
    """Target potential: a1 r^2 plus singular power terms lam_k r^(-alpha_k).

    Split once, as the solvable model splits it: `inv_square` sums the
    r^(-2) coefficients, which join the centrifugal and counter-terms, and
    `singular` holds the other nonzero ones merged per alpha, as (lam, alpha)
    in ascending alpha.  Inputs must be finite, a1 > 0 (confining), and the
    operator bounded below near 0: a negative coefficient needs a stronger
    positive term (Table-style cases like (1, -7, 49)), and without a
    positive term at alpha > 2, Lambda(Lambda+1) + inv_square >= -1/4 (Hardy).
    """

    a1: float
    terms: tuple[tuple[float, float], ...] = field(default_factory=tuple)
    N: int = 3
    l: int = 0
    inv_square: float = field(init=False, repr=False, compare=False)
    singular: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        terms = tuple((float(lam), float(alpha)) for lam, alpha in self.terms)
        object.__setattr__(self, "terms", terms)
        if not (self.a1 > 0.0 and math.isfinite(self.a1)):
            raise ValueError(f"a1 must be finite and > 0 (confining), got {self.a1}")
        if self.N < 1:
            raise ValueError(f"dimension N must be >= 1, got {self.N}")
        if self.l < 0:
            raise ValueError(f"angular momentum l must be >= 0, got {self.l}")
        merged: dict[float, float] = {}
        for lam, alpha in terms:
            if not (alpha > 0.0 and math.isfinite(alpha) and math.isfinite(lam)):
                raise ValueError(f"term {lam} r^(-{alpha}): need a finite "
                                 "coefficient and a finite exponent > 0")
            merged[alpha] = merged.get(alpha, 0.0) + lam
        inv_square = merged.pop(2.0, 0.0)
        singular = tuple((lam, a) for a, lam in sorted(merged.items()) if lam != 0.0)
        object.__setattr__(self, "inv_square", inv_square)
        object.__setattr__(self, "singular", singular)
        positive = [a for lam, a in singular + ((inv_square, 2.0),) if lam > 0.0]
        for lam, alpha in singular:
            if lam < 0.0 and not any(a > alpha for a in positive):
                raise ValueError(
                    f"term {lam} r^(-{alpha}) makes the potential unbounded below "
                    "near 0: no stronger positive singular term present" if alpha > 2.0
                    else f"term {lam} r^(-{alpha}) is not supported: no stronger "
                    "positive term dominates it")
        c2 = self.Lambda * (self.Lambda + 1.0) + inv_square
        if c2 < -0.25 and not any(a > 2.0 for a in positive):
            raise ValueError(f"inverse-square coefficient {c2:.6g} < -1/4 makes the "
                             "operator unbounded below near the origin")

    @property
    def Lambda(self) -> float:
        return 0.5 * (self.N + 2 * self.l - 3)

    def max_alpha(self) -> float:
        """Largest exponent in `singular` (0.0 if none)."""
        return self.singular[-1][1] if self.singular else 0.0


def assemble(p: ModelParams | Sequence[ModelParams], v: PotentialSpec,
             D: int) -> np.ndarray:
    """Variational matrix H_mn of the target Hamiltonian in the (A, B) basis.

    H_mn = 2*beta*(2n + gamma_N) delta_mn + (a1 - B) r^2_mn
           + sum_k lam_k r^(-alpha_k)_mn - A r^(-2)_mn,

    with the terms as `PotentialSpec` splits them: `inv_square` and the
    counter-term combine into one (inv_square - A) coefficient.  p is one
    ModelParams, which gives a D x D matrix, or a sequence of K, which gives
    a (K, D, D) stack; every point must share (N, l) with v.  Every power
    present needs 2*gamma_N > alpha, which `inv_power_matrix` checks.  A
    term whose coefficient is zero at every point is left out, as r^2's
    a1 - B is when B is pinned to a1; one that is zero at some points only
    is built for the whole stack and adds +-0 there, which moves no bit.  H
    is exactly symmetric.  An entry that overflows raises OverflowError, as
    beta^(alpha/2) does at a steep term and a large B: such a point bounds
    nothing.
    """
    ps, single = _points(p)
    if D < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {D}")
    for q in ps:
        if (q.N, q.l) != (v.N, v.l):
            raise ValueError(
                f"basis channel (N={q.N}, l={q.l}) differs from potential "
                f"channel (N={v.N}, l={v.l})"
            )
    K = len(ps)
    terms = [([v.a1 - q.B for q in ps], power_matrix, 2)]
    terms += [([lam] * K, inv_power_matrix, alpha) for lam, alpha in v.singular]
    terms.append(([v.inv_square - q.A for q in ps], inv_power_matrix, 2.0))
    H = np.zeros((K, D, D))
    diag = np.add.outer([q.gamma_N for q in ps], 2.0 * np.arange(D))
    diag *= np.array([2.0 * q.beta for q in ps])[:, None]
    H.reshape(K, D * D)[:, :: D + 1] = diag
    # each fresh term matrix is scaled and added in place; every term is
    # exactly symmetric, so the sum needs no mirroring.  M stays referenced
    # until the next term is built: freed first, it leaves two free D x D
    # blocks on top of the heap for glibc to return to the OS, and assembly
    # at D = 350 then page-faults two to three times as often
    try:
        with np.errstate(over="raise"):
            for coef, build, s in terms:
                if any(coef):
                    M = build(ps, D, s)
                    M *= _per_point(coef)
                    H += M
    except FloatingPointError as exc:
        raise OverflowError(f"matrix entries overflow ({exc})") from None
    return H[0] if single else H
