"""Matrix elements from the Laguerre connection formula, checked against the
explicit radicals and the terminating-3F2 route (`closedref`), explicit r^q
forms up to D = 1000, direct quadrature (`quadref`) and exact band zeros."""

import math

import mpmath
import numpy as np
import pytest

from closedref import inv_power_element as series_element
from closedref import inv_power_element_closed
from quadref import element_quad
from spikevar.basis import ModelParams
from spikevar.matelem import _gamma_ratio, _half_ln_h, inv_power_matrix, power_matrix

P = ModelParams(A=6.0, B=1.0, N=3, l=0)  # gamma_N = 3.5


class TestInvPowerClosedForms:
    def test_alpha2_diagonal(self):
        g, b = P.gamma_N, P.beta
        M = inv_power_matrix(P, 12, 2.0)
        for n in (0, 3, 11):
            assert M[n, n] == pytest.approx(
                b / (g - 1.0), rel=1e-14
            )

    def test_alpha4_diagonal(self):
        g, b = P.gamma_N, P.beta
        M = inv_power_matrix(P, 8, 4.0)
        for n in (0, 2, 7):
            expect = b**2 * (g + 2 * n) / (g * (g - 1) * (g - 2))
            assert M[n, n] == pytest.approx(
                expect, rel=1e-13
            )

    def test_alpha6_diagonal(self):
        g, b = P.gamma_N, P.beta
        M = inv_power_matrix(P, 6, 6.0)
        for n in (0, 1, 5):
            expect = (
                b**3
                * (g + g * g + 6 * g * n + 6 * n * n)
                / ((g + 1) * g * (g - 1) * (g - 2) * (g - 3))
            )
            assert M[n, n] == pytest.approx(
                expect, rel=1e-13
            )

    def test_alpha2_off_diagonal_sign_and_value(self):
        # (m, n) = (0, 1): -(beta/(g-1)) sqrt(1/g), cross-checked vs the radical
        g, b = P.gamma_N, P.beta
        expect = -b / (g - 1.0) * math.sqrt(1.0 / g)
        got = inv_power_matrix(P, 2, 2.0)[0, 1]
        assert got == pytest.approx(expect, rel=1e-14)
        assert got == pytest.approx(inv_power_element_closed(P, 0, 1, 2), rel=1e-13)

    def test_alpha4_matches_general_on_diagonal_gamma_like_table(self):
        # gamma from A ~ 6.076 (the large-matrix one-parameter optimum region)
        p = ModelParams(6.076, 1.0, 3, 0)
        a = inv_power_element_closed(p, 3, 3, 4)
        b = inv_power_matrix(p, 4, 4.0)[3, 3]
        assert a == pytest.approx(b, rel=1e-12)

    def test_high_even_alpha_routes_to_series(self):
        p = ModelParams(30.0, 2.0, 3, 0)  # gamma_N ~ 6.5 > 4
        a = inv_power_element_closed(p, 2, 4, 8)
        b = inv_power_matrix(p, 5, 8.0)[2, 4]
        assert a == pytest.approx(b, rel=1e-13)

    def test_odd_alpha_rejected(self):
        with pytest.raises(ValueError):
            inv_power_element_closed(P, 0, 0, 3)

    def test_precondition_violation(self):
        shallow = ModelParams(0.5, 1.0, 3, 0)  # gamma_N ~ 1.866
        with pytest.raises(ValueError):
            inv_power_element_closed(shallow, 0, 0, 4)
        with pytest.raises(ValueError):
            inv_power_matrix(shallow, 1, 4.0)


class TestClosedVsGeneralSweep:
    @pytest.mark.parametrize("alpha", [2, 4, 6])
    def test_agreement_over_indices_and_parameters(self, alpha):
        rng = np.random.default_rng(20240 + alpha)
        for _ in range(20):
            # gamma_N > alpha/2 + 0.1  <=>  A > (alpha/2 - 0.9)^2 - 1/4
            a_floor = max(0.0, (alpha / 2.0 - 0.9) ** 2 - 0.25)
            A = a_floor + 10.0 ** rng.uniform(-1, 1.6)
            B = 10.0 ** rng.uniform(-0.7, 1.5)
            p = ModelParams(A, B, 3, 0)
            assert p.gamma_N > alpha / 2 + 0.1
            M = inv_power_matrix(p, 31, float(alpha))
            for m in range(0, 31, 3):
                for n in range(m, 31, 4):
                    c = inv_power_element_closed(p, m, n, alpha)
                    gfrm = M[m, n]
                    assert c == pytest.approx(gfrm, rel=1e-11, abs=1e-280), (
                        alpha, m, n, A, B,
                    )


class TestSymmetry:
    def test_exact_symmetry_by_canonicalization(self):
        for M in (inv_power_matrix(P, 9, 3.3), inv_power_matrix(P, 9, 4.0),
                  power_matrix(P, 9, 4)):
            for m, n in [(0, 5), (3, 8), (2, 2)]:
                assert M[m, n] == M[n, m]


class TestQuadratureAgreement:
    def test_spec_case_alpha35(self):
        p = ModelParams(2.0, 1.0, 3, 0)
        got = inv_power_matrix(p, 6, 3.5)[2, 5]
        ref = element_quad(2.0, 1.0, 2, 5, -3.5)
        assert got == pytest.approx(ref, abs=1e-9)

    def test_spec_case_power6(self):
        p = ModelParams(1.0, 2.0, 3, 0)
        got = power_matrix(p, 5, 6)[4, 2]
        ref = element_quad(1.0, 2.0, 4, 2, 6.0)
        assert got == pytest.approx(ref, rel=1e-9)

    def test_random_suite(self):
        # 50 cases across singular (non-even included) and power operators
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 50:
            A = 10.0 ** rng.uniform(-0.5, 1.5)
            B = 10.0 ** rng.uniform(-0.5, 1.0)
            p = ModelParams(A, B, 3, 0)
            m = int(rng.integers(0, 9))
            n = int(rng.integers(0, 9))
            if rng.random() < 0.6:
                alpha = float(rng.uniform(0.2, 2.0 * p.gamma_N - 0.2))
                got = inv_power_matrix(p, max(m, n) + 1, alpha)[m, n]
                ref = element_quad(A, B, m, n, -alpha)
            else:
                q = int(rng.choice([2, 4, 6]))
                got = power_matrix(p, max(m, n) + 1, q)[m, n]
                ref = element_quad(A, B, m, n, float(q))
            tol = max(1e-8, 1e-8 * abs(ref))
            assert abs(got - ref) <= tol, (A, B, m, n)
            checked += 1

    def test_n_dimensional_form(self):
        # the N-dimensional lift: same formulas with the channel's gamma_N
        for N, l in [(5, 0), (2, 1), (9, 2)]:
            p = ModelParams(3.0, 2.0, N, l)
            got = inv_power_matrix(p, 4, 2.7)[1, 3]
            ref = element_quad(3.0, 2.0, 1, 3, -2.7, N=N, l=l)
            assert got == pytest.approx(ref, abs=1e-9)


class TestPowerBandedness:
    @pytest.mark.parametrize("q", [2, 4, 6])
    def test_exact_zero_outside_band(self, q):
        M = power_matrix(P, 51, q)
        for m in range(0, 51, 7):
            for n in range(0, 51, 5):
                if abs(m - n) > q // 2:
                    assert M[m, n] == 0.0

    def test_q2_explicit_forms(self):
        g, b = P.gamma_N, P.beta
        n = np.arange(1000.0)
        M = power_matrix(P, 1000, 2)
        diag = np.diag(M)
        assert np.max(np.abs(diag / ((g + 2 * n) / b) - 1.0)) <= 1e-13
        assert M[4, 4] == pytest.approx((g + 8) / b, rel=1e-13)
        assert M[4, 5] == pytest.approx(math.sqrt(5 * (g + 4)) / b, rel=1e-13)
        assert M[2, 4] == 0.0

    def test_q4_explicit_forms(self):
        g, b = P.gamma_N, P.beta
        n = np.arange(1000.0)
        M = power_matrix(P, 1000, 4)
        diag = np.diag(M)
        expect = (g * g + g + 6 * g * n + 6 * n * n) / b**2
        assert np.max(np.abs(diag / expect - 1.0)) <= 1e-13
        m = 3
        assert M[m, m] == pytest.approx(
            (g + 6 * m * m + 6 * g * m + g * g) / b**2, rel=1e-12
        )
        assert M[m, m + 1] == pytest.approx(
            2 * (g + 2 * m + 1) * math.sqrt((m + 1) * (g + m)) / b**2, rel=1e-12
        )
        assert M[m, m + 2] == pytest.approx(
            math.sqrt((m + 1) * (m + 2) * (g + m) * (g + m + 1)) / b**2, rel=1e-12
        )

    def test_odd_or_nonpositive_rejected(self):
        for q in (-2, 0, 3):
            with pytest.raises(ValueError):
                power_matrix(P, 1, q)


class TestCompletenessSumRule:
    def test_r2_squared_is_r4(self):
        # (r^2)^2 = r^4 entrywise once the band sum is complete
        D = 24
        r2 = power_matrix(P, D, 2)
        r4 = power_matrix(P, D, 4)
        prod = r2 @ r2
        inner = D - 3  # rows whose band sum is fully contained
        for m in range(inner):
            for n in range(inner):
                assert prod[m, n] == pytest.approx(
                    r4[m, n], rel=1e-10, abs=1e-12
                )


class TestMatrixBuilders:
    @pytest.mark.parametrize("alpha", [2.0, 3.3, 4.0, 6.0, 8.0])
    def test_inv_power_matrix_matches_scalar(self, alpha):
        p = ModelParams(9.0, 3.0, 3, 0) if alpha < 7 else ModelParams(30.0, 3.0, 3, 0)
        D = 12
        M = inv_power_matrix(p, D, alpha)
        assert np.array_equal(M, M.T)
        for m in range(D):
            for n in range(m, D):
                ref = series_element(p, m, n, alpha)
                assert M[m, n] == pytest.approx(ref, rel=1e-11, abs=1e-280)

    def test_power_matrix_matches_scalar(self):
        D = 14
        for q in (2, 4, 6):
            M = power_matrix(P, D, q)
            assert np.array_equal(M, M.T)
            for m in range(D):
                for n in range(m, D):
                    # the entry of the smallest matrix that holds it
                    assert M[m, n] == pytest.approx(
                        power_matrix(P, n + 1, q)[m, n], rel=1e-13, abs=0.0
                    )

    def test_large_index_normalization_stays_finite(self):
        # the log-domain ratios must survive indices near 1000; a
        # RuntimeWarning (overflow) fails the test through the pytest config
        p = ModelParams(6.076, 1.0, 3, 0)
        M = inv_power_matrix(p, 4, 4.0)
        assert np.all(np.isfinite(M))
        M = inv_power_matrix(p, 1000, 3.3)
        assert np.all(np.isfinite(M))
        assert np.array_equal(M, M.T)
        big = inv_power_matrix(p, 996, 4.0)[990, 995]
        assert math.isfinite(big)
        assert power_matrix(p, 1001, 2)[999, 1000] > 0.0


class TestGammaRatio:
    # x from 1 to 1e10, log-uniform, plus the moderate x = 1000 where
    # scipy.special.poch loses ~1e-12 to its log-gamma difference
    XS = np.concatenate((np.geomspace(1.0, 1e10, 41),
                         np.random.default_rng(11).uniform(1.0, 60.0, 60), [1000.0]))

    @pytest.mark.parametrize("h", [1, -1, 2, -2, 3, -3, -4])
    def test_integer_shift_matches_scipy_poch_bitwise(self, h):
        from scipy.special import poch

        for x in self.XS:
            if x + h > 0.0:
                assert _gamma_ratio(float(x), float(h)) == poch(x, h), x

    @pytest.mark.parametrize("h", [-1.25, -1.65, -1.9, 0.5, -0.5, 1.5, -4.9])
    def test_non_integer_shift_against_mpmath(self, h):
        # h = -alpha/2 for alpha = 2.5, 3.3, 3.8, plus shifts of either sign
        with mpmath.workdps(40):
            for x in self.XS:
                if x + h <= 0.0:
                    continue
                ref = mpmath.rf(mpmath.mpf(float(x)), h)
                rel = abs((mpmath.mpf(_gamma_ratio(float(x), h)) - ref) / ref)
                assert rel <= 2e-14, (x, float(rel))


class TestHalfLnHMemo:
    def test_memoized_arrays_are_read_only(self):
        h = _half_ln_h((2.5, 4.0), 8)
        assert _half_ln_h((2.5, 4.0), 8) is h
        assert h.shape == (2, 8)
        assert not h.flags.writeable
        with pytest.raises(ValueError):
            h[0, 1] = 0.0

    def test_interleaved_builds_match_fresh_builds(self):
        # gamma_1, gamma_2, gamma_1 through the memos, against cold builds
        p1, p2 = ModelParams(6.0, 1.3, 3, 0), ModelParams(9.5, 1.3, 3, 0)
        builds = [lambda p: power_matrix(p, 20, 2),
                  lambda p: inv_power_matrix(p, 20, 4.0),
                  lambda p: inv_power_matrix(p, 20, 3.3)]
        warm = [build(p) for p in (p1, p2, p1) for build in builds]
        cold = []
        for p in (p1, p2, p1):
            for build in builds:
                _half_ln_h.cache_clear()
                cold.append(build(p))
        for w, c in zip(warm, cold):
            assert np.array_equal(w, c)


class TestFreshMatrices:
    def test_overwriting_a_returned_matrix_leaves_the_next_build(self):
        p = ModelParams(6.0, 1.3, 3, 0)
        for build in (lambda: inv_power_matrix(p, 8, 4.0),
                      lambda: power_matrix(p, 8, 2),
                      lambda: inv_power_matrix([p, p], 8, 3.3)):
            M = build()
            first = M.copy()
            M[:] = 0.0  # the caller owns its matrix; no memo shares its memory
            assert np.array_equal(build(), first)
