"""The exactly solvable radial model V(r) = B r^2 + A / r^2 in N dimensions.

Its bound states have energies 2*beta*(2n + gamma_N) and eigenfunctions
proportional to r^(gamma_N - 1/2) exp(-beta r^2 / 2) 1F1(-n; gamma_N; beta r^2),
with beta = sqrt(B) and gamma_N = 1 + sqrt(A + (Lambda + 1/2)^2).  Dimension N
and angular momentum l enter only through Lambda = (N + 2l - 3)/2, so two
configurations with the same N + 2l share a spectrum.  The tests keep these
energies and eigenfunctions as a reference (`tests/modelref.py`); the
package needs only the parameters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

__all__ = ["ModelParams"]


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

    @functools.cached_property
    def gamma_N(self) -> float:
        # read by every moment matrix of an assembly: computed once
        return 1.0 + math.sqrt(self.A + (self.Lambda + 0.5) ** 2)
