"""Lowest eigenvalues of dense real symmetric matrices.

Thin contract layer over LAPACK's symmetric solver (Householder
tridiagonalization plus divide-and-conquer, via numpy.linalg.eigh): ascending
eigenvalues, optional orthonormal eigenvectors, deterministic for fixed input.
The test suite checks it against an independent Sturm-sequence bisection
oracle built on leading-principal-minor sign counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Spectrum", "eigen_symmetric"]


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues and, when requested, unit-norm eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray | None = None


def eigen_symmetric(H, k: int | None = None, want_vectors: bool = False) -> Spectrum:
    """The k algebraically smallest eigenvalues of a symmetric matrix, or of
    each matrix of a (K, D, D) stack.

    The matrices must be exactly symmetric and finite; one check of each
    covers the whole stack.  A stack gives (K, k) values and (K, D, k)
    vectors, each matrix solved by its own LAPACK call, so its values carry
    the bits of a solve on its own.  Degenerate eigenvalues come out in
    ascending order with a stable vector set.  LAPACK convergence failures
    surface as numpy.linalg.LinAlgError rather than a silently truncated
    spectrum.
    """
    A = np.asarray(H, dtype=float)
    if A.ndim not in (2, 3) or A.shape[-2] != A.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    if not (A == A.swapaxes(-1, -2)).all():
        raise ValueError("matrix is not exactly symmetric")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    D = A.shape[-1]
    if k is None:
        k = D
    if not 1 <= k <= D:
        raise ValueError(f"need 1 <= k <= {D}, got k={k}")
    if want_vectors:
        vals, vecs = np.linalg.eigh(A)
        return Spectrum(vals[..., :k].copy(), vecs[..., :k].copy())
    vals = np.linalg.eigvalsh(A)
    return Spectrum(vals[..., :k].copy())
