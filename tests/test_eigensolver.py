"""Symmetric eigensolver against a Sturm-sequence bisection oracle."""

import numpy as np
import pytest

from spikevar.eigensolver import eigen_symmetric


def _count_below(A, x):
    """Eigenvalues of A below x, by counting negative pivots of A - xI."""
    M = [[A[i][j] - (x if i == j else 0.0) for j in range(len(A))] for i in range(len(A))]
    n = len(M)
    count = 0
    for k in range(n):
        piv = M[k][k]
        if piv == 0.0:
            piv = 1e-300
        if piv < 0.0:
            count += 1
        for i in range(k + 1, n):
            f = M[i][k] / piv
            for j in range(k, n):
                M[i][j] -= f * M[k][j]
    return count


def sturm_eigenvalues(A, tol=1e-12):
    """All eigenvalues by bisection on the negative-pivot count."""
    A = [list(map(float, row)) for row in np.asarray(A)]
    n = len(A)
    bound = max(sum(abs(v) for v in row) for row in A) + 1.0
    out = []
    for idx in range(n):
        lo, hi = -bound, bound
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if _count_below(A, mid) <= idx:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return np.array(out)


class TestExamples:
    def test_diagonal(self):
        s = eigen_symmetric(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(s.values, [1.0, 2.0, 3.0], atol=0)

    def test_two_by_two_analytic(self):
        s = eigen_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert s.values[0] == pytest.approx(1.0, abs=1e-14)
        assert s.values[1] == pytest.approx(3.0, abs=1e-14)

    def test_random_8x8_vs_sturm(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((8, 8))
        A = (M + M.T) / 2.0
        got = eigen_symmetric(A).values
        ref = sturm_eigenvalues(A)
        assert np.max(np.abs(got - ref)) < 1e-10


class TestContract:
    def test_k_selects_smallest(self):
        A = np.diag([5.0, -1.0, 3.0, 0.0])
        s = eigen_symmetric(A, k=2)
        assert np.allclose(s.values, [-1.0, 0.0], atol=0)

    def test_vectors_orthonormal_and_residual(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((12, 12))
        A = (M + M.T) / 2.0
        s = eigen_symmetric(A, k=12, want_vectors=True)
        gram = s.vectors.T @ s.vectors
        assert np.max(np.abs(gram - np.eye(12))) < 1e-10
        hmax = np.max(np.abs(A))
        for i in range(12):
            res = np.linalg.norm(A @ s.vectors[:, i] - s.values[i] * s.vectors[:, i])
            assert res <= 1e-9 * (1.0 + abs(s.values[i])) * hmax

    def test_similarity_invariance_under_sign_flips(self):
        rng = np.random.default_rng(23)
        M = rng.standard_normal((9, 9))
        A = (M + M.T) / 2.0
        s = np.diag(rng.choice([-1.0, 1.0], size=9))
        e1 = eigen_symmetric(A).values
        e2 = eigen_symmetric(s @ A @ s).values
        assert np.max(np.abs(e1 - e2)) < 1e-11 * max(1.0, np.max(np.abs(e1)))

    def test_trace_identity(self):
        rng = np.random.default_rng(31)
        M = rng.standard_normal((15, 15))
        A = (M + M.T) / 2.0
        vals = eigen_symmetric(A, k=15).values
        assert np.sum(vals) == pytest.approx(np.trace(A), rel=1e-9)

    def test_cauchy_interlacing(self):
        rng = np.random.default_rng(47)
        M = rng.standard_normal((10, 10))
        A = (M + M.T) / 2.0
        full = eigen_symmetric(A).values
        sub = eigen_symmetric(A[:9, :9]).values
        for i in range(9):
            assert full[i] <= sub[i] + 1e-12
            assert sub[i] <= full[i + 1] + 1e-12

    def test_accepts_a_stack(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((3, 6, 6))
        stack = M + M.transpose(0, 2, 1)
        s = eigen_symmetric(stack, k=2, want_vectors=True)
        assert s.values.shape == (3, 2) and s.vectors.shape == (3, 6, 2)
        for A, vals, vecs in zip(stack, s.values, s.vectors):
            alone = eigen_symmetric(A, k=2, want_vectors=True)
            assert vals.tobytes() == alone.values.tobytes()
            assert vecs.tobytes() == alone.vectors.tobytes()

    def test_rejects_a_stack_with_one_bad_matrix(self):
        good = np.eye(2)
        for bad in (np.array([[1.0, 2.0], [3.0, 4.0]]),
                    np.array([[1.0, np.inf], [np.inf, 1.0]])):
            with pytest.raises(ValueError):
                eigen_symmetric(np.stack([good, bad, good]))

    def test_rejects_asymmetric_and_nonfinite(self):
        with pytest.raises(ValueError):
            eigen_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            eigen_symmetric(bad)

    def test_rejects_bad_k(self):
        A = np.eye(3)
        with pytest.raises(ValueError):
            eigen_symmetric(A, k=0)
        with pytest.raises(ValueError):
            eigen_symmetric(A, k=4)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((20, 20))
        A = (M + M.T) / 2.0
        v1 = eigen_symmetric(A, want_vectors=True)
        v2 = eigen_symmetric(A, want_vectors=True)
        assert np.array_equal(v1.values, v2.values)
        assert np.array_equal(v1.vectors, v2.vectors)
