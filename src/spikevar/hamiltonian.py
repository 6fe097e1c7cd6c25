"""Assembly of the truncated variational matrix for a target Hamiltonian.

The target operator -d^2/dr^2 + Lam(Lam+1)/r^2 + a1 r^2 + sum_k lam_k r^(-alpha_k)
is split around the solvable model with parameters (A, B): the diagonal carries
the exact model spectrum, and the residual potential contributes
(a1 - B) r^2, the singular terms, and the -A r^(-2) counter-term.  An explicit
user r^(-2) term simply adds to the counter-term coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import ModelParams
from .matelem import inv_power_matrix, power_matrix

__all__ = ["PotentialSpec", "SymMatrix", "assemble"]


@dataclass(frozen=True)
class PotentialSpec:
    """Target potential: a1 r^2 plus singular power terms lam_k r^(-alpha_k).

    The quadratic coefficient must confine (a1 > 0).  A negative singular
    coefficient is allowed only when a stronger singularity with positive
    coefficient dominates it near the origin, so the potential stays bounded
    below (Table-style cases like (1, -7, 49)).
    """

    a1: float
    terms: tuple[tuple[float, float], ...] = field(default_factory=tuple)
    N: int = 3
    l: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple((float(lam), float(alpha)) for lam, alpha in self.terms)
        )
        if not self.a1 > 0.0:
            raise ValueError(f"a1 must be > 0 (confining), got {self.a1}")
        if self.N < 1:
            raise ValueError(f"dimension N must be >= 1, got {self.N}")
        if self.l < 0:
            raise ValueError(f"angular momentum l must be >= 0, got {self.l}")
        for lam, alpha in self.terms:
            if not alpha > 0.0:
                raise ValueError(f"singular exponent must be > 0, got {alpha}")
            if not math.isfinite(lam):
                raise ValueError(f"non-finite coefficient {lam}")
        for lam, alpha in self.terms:
            if lam < 0.0 and not any(
                a2 > alpha and l2 > 0.0 for l2, a2 in self.terms
            ):
                raise ValueError(
                    f"term {lam} r^(-{alpha}) makes the potential unbounded below "
                    "near 0: no stronger positive singular term present"
                )

    @property
    def Lambda(self) -> float:
        return 0.5 * (self.N + 2 * self.l - 3)

    def max_alpha(self) -> float:
        """Largest singular exponent with a nonzero coefficient (0.0 if none)."""
        return max((a for lam, a in self.terms if lam != 0.0), default=0.0)


@dataclass(frozen=True)
class SymMatrix:
    """Dense real symmetric matrix; entries validated finite on construction."""

    dim: int
    data: np.ndarray

    def __post_init__(self):
        if self.data.shape != (self.dim, self.dim):
            raise ValueError(f"shape {self.data.shape} does not match dim {self.dim}")
        if not (self.data == self.data.T).all():
            raise ValueError("matrix is not exactly symmetric")
        if not np.isfinite(self.data).all():
            raise ValueError("matrix has non-finite entries")
        self.data.setflags(write=False)


def assemble(p: ModelParams, v: PotentialSpec, D: int) -> SymMatrix:
    """Variational matrix H_mn of the target Hamiltonian in the (A, B) basis.

    H_mn = 2*beta*(2n + gamma_N) delta_mn + (a1 - B) r^2_mn
           + sum_k lam_k r^(-alpha_k)_mn - A r^(-2)_mn,

    where an explicit user r^(-2) term and the counter-term combine into a
    single (a2 - A) coefficient.  Preconditions: p and v share (N, l), and
    every singular power actually present satisfies 2*gamma_N > alpha.
    """
    if D < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {D}")
    if (p.N, p.l) != (v.N, v.l):
        raise ValueError(
            f"basis channel (N={p.N}, l={p.l}) differs from potential "
            f"channel (N={v.N}, l={v.l})"
        )
    g = p.gamma_N
    lam2 = -p.A
    singular: dict[float, float] = {}
    for lam, alpha in v.terms:
        if alpha == 2.0:
            lam2 += lam
        elif lam != 0.0:
            singular[alpha] = singular.get(alpha, 0.0) + lam
    for alpha, lam in singular.items():
        if not 2.0 * g > alpha:
            raise ValueError(
                f"term {lam} r^(-{alpha}): need 2*gamma_N > {alpha}, "
                f"have gamma_N = {g:.6g}"
            )
    if lam2 != 0.0 and not g > 1.0:
        raise ValueError(
            f"net r^(-2) coefficient {lam2:.6g} requires gamma_N > 1, "
            f"have gamma_N = {g:.6g}"
        )
    terms = [(v.a1 - p.B, power_matrix, 2)] if v.a1 != p.B else []
    terms += [(lam, inv_power_matrix, alpha) for alpha, lam in sorted(singular.items())]
    if lam2 != 0.0:
        terms.append((lam2, inv_power_matrix, 2.0))
    H = np.zeros((D, D))
    H.flat[:: D + 1] = 2.0 * p.beta * (2.0 * np.arange(D) + g)
    # each fresh term matrix is scaled and added in place; every term is
    # exactly symmetric, so the sum needs no mirroring.  M stays referenced
    # until the next term is built: freed first, it leaves two free D x D
    # blocks on top of the heap for glibc to return to the OS, and assembly
    # at D = 350 then page-faults two to three times as often
    for lam, build, s in terms:
        M = build(p, D, s)
        M *= lam
        H += M
    return SymMatrix(D, H)
