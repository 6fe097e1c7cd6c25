"""Assembly of the variational matrix against analytic and quadrature routes."""


import numpy as np
import pytest

from quadref import element_quad, kinetic_quad
from spikevar import matelem
from spikevar.basis import ModelParams, gk_energy
from spikevar.eigensolver import eigen_symmetric
from spikevar.hamiltonian import PotentialSpec, assemble


class TestPotentialSpec:
    def test_rejects_nonconfining(self):
        with pytest.raises(ValueError):
            PotentialSpec(a1=0.0)
        with pytest.raises(ValueError):
            PotentialSpec(a1=-1.0)

    def test_rejects_bad_exponent(self):
        with pytest.raises(ValueError):
            PotentialSpec(a1=1.0, terms=((1.0, 0.0),))

    def test_negative_coefficient_needs_stronger_positive(self):
        # the motivating case (a, b, c) = (1, -7, 49) is legal
        PotentialSpec(a1=1.0, terms=((-7.0, 4.0), (49.0, 6.0)))
        with pytest.raises(ValueError):
            PotentialSpec(a1=1.0, terms=((-7.0, 4.0),))
        with pytest.raises(ValueError):
            PotentialSpec(a1=1.0, terms=((-7.0, 6.0), (1.0, 4.0)))

    def test_rejects_non_finite_inputs(self):
        for kw in ({"a1": np.inf}, {"a1": 1.0, "terms": ((1.0, np.inf),)},
                   {"a1": 1.0, "terms": ((np.inf, 4.0),)}):
            with pytest.raises(ValueError, match="finite"):
                PotentialSpec(**kw)

    def test_merges_terms_per_alpha(self):
        split = PotentialSpec(a1=1.0, terms=((2.0, 6.0), (1.0, 4.0), (0.5, 2.0),
                                             (2.0, 4.0), (0.25, 2.0)))
        whole = PotentialSpec(a1=1.0, terms=((3.0, 4.0), (0.75, 2.0), (2.0, 6.0)))
        assert split.singular == whole.singular == ((3.0, 4.0), (2.0, 6.0))
        assert split.inv_square == whole.inv_square == 0.75
        p = ModelParams(A=6.0, B=1.5)  # gamma_N = 3.5: r^-6 is finite
        assert np.array_equal(assemble(p, split, 12), assemble(p, whole, 12))
        # a coefficient that merges to zero is no term at all
        gone = PotentialSpec(a1=1.0, terms=((1.0, 6.0), (-1.0, 6.0), (1.0, 4.0)))
        assert gone.singular == ((1.0, 4.0),)
        assert gone.max_alpha() == 4.0

    @pytest.mark.parametrize("N, terms", [
        (5, ((-1.0, 2.0),)),                # net coefficient 2 - 1 = 1
        (3, ((-0.2, 2.0),)),                # -0.2 >= -1/4
        (2, ()),                            # Lambda(Lambda+1) = -1/4 itself
        (3, ((-1.0, 2.0), (1.0, 4.0))),     # r^-4 dominates near 0
    ])
    def test_admits_bounded_inverse_square(self, N, terms):
        PotentialSpec(a1=1.0, terms=terms, N=N)

    def test_hardy_rule(self):
        with pytest.raises(ValueError, match=r"-0\.3 < -1/4"):
            PotentialSpec(a1=1.0, terms=((-0.3, 2.0),))
        with pytest.raises(ValueError, match=r"-1\.25 < -1/4"):
            PotentialSpec(a1=1.0, terms=((-1.0, 2.0),), N=2)

    def test_negative_term_below_two_not_supported(self):
        with pytest.raises(ValueError, match="not supported"):
            PotentialSpec(a1=1.0, terms=((-1.0, 1.0),), N=5)
        PotentialSpec(a1=1.0, terms=((-1.0, 1.0), (1.0, 1.5)))

    def test_max_alpha_skips_zero_coefficients(self):
        v = PotentialSpec(a1=1.0, terms=((0.0, 6.0), (1.0, 4.0)))
        assert v.max_alpha() == 4.0


class TestAssemble:
    def test_one_by_one_matches_first_order_objective(self):
        # H_00 = g/beta + beta + lam beta^2/((g-1)(g-2)) + beta/(4(g-1))
        lam = 0.1
        v = PotentialSpec(a1=1.0, terms=((lam, 4.0),))
        p = ModelParams(A=1.92, B=1.62, N=3, l=0)
        g, b = p.gamma_N, p.beta
        expect = g / b + b + lam * b * b / ((g - 1) * (g - 2)) + b / (4 * (g - 1))
        H = assemble(p, v, 1)
        assert H[0, 0] == pytest.approx(expect, rel=1e-13)

    def test_model_exact_case_is_diagonal(self):
        # potential identical to the basis model: exact spectrum on the diagonal
        p = ModelParams(A=3.0, B=2.5, N=3, l=0)
        v = PotentialSpec(a1=2.5, terms=((3.0, 2.0),))
        H = assemble(p, v, 6)
        off = H - np.diag(np.diag(H))
        assert np.max(np.abs(off)) < 1e-12
        for n in range(6):
            assert H[n, n] == pytest.approx(gk_energy(p, n), rel=1e-13)

    def test_entries_match_quadrature(self):
        # kinetic via integration by parts + potential terms by quadrature
        A, B = 1.92, 1.62
        p = ModelParams(A, B, 3, 0)
        v = PotentialSpec(a1=1.0, terms=((0.1, 4.0),))
        H = assemble(p, v, 3)
        for m in range(3):
            for n in range(3):
                ref = (
                    kinetic_quad(A, B, m, n)
                    + element_quad(A, B, m, n, 2.0)
                    + 0.1 * element_quad(A, B, m, n, -4.0)
                )
                assert H[m, n] == pytest.approx(ref, abs=1e-8)

    def test_explicit_inverse_square_term_combines_with_counterterm(self):
        p = ModelParams(A=2.0, B=1.0, N=3, l=0)
        va = PotentialSpec(a1=1.0, terms=((3.0, 2.0),))
        H = assemble(p, va, 4)
        # net r^-2 coefficient is (3 - A) = 1; rebuild by hand
        from spikevar.matelem import inv_power_matrix, power_matrix

        n = np.arange(4)
        expect = np.diag(2 * p.beta * (2 * n + p.gamma_N))
        expect = expect + (1.0 - p.B) * power_matrix(p, 4, 2)
        expect = expect + (3.0 - 2.0) * inv_power_matrix(p, 4, 2.0)
        assert np.allclose(H, expect, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("A, B, terms, N, D", [
        (105.5, 1.92, ((1.0, 4.0), (1.0, 6.0)), 3, 10),
        (6.0, 1.0, ((-7.0, 4.0), (49.0, 6.0)), 3, 30),
        (2.0, 1.0, ((3.0, 2.0),), 3, 7),
        (4.2, 1.7, ((0.1, 3.3), (0.5, 4.0)), 4, 50),
        (30.0, 1.0, ((1000.0, 6.0),), 3, 1),
    ])
    def test_in_place_sum_is_bit_identical(self, A, B, terms, N, D):
        # the former composition: new matrices per term, then the upper
        # triangle mirrored; B = a1 drops the r^2 term in the second call
        from spikevar.matelem import inv_power_matrix, power_matrix

        p = ModelParams(A, B, N, 0)
        for a1 in (1.0, B):
            v = PotentialSpec(a1=a1, terms=terms, N=N)
            n = np.arange(D)
            H = np.diag(2.0 * p.beta * (2.0 * n + p.gamma_N))
            if a1 != B:
                H = H + (a1 - B) * power_matrix(p, D, 2)
            lam2 = -A + sum(lam for lam, alpha in terms if alpha == 2.0)
            for alpha, lam in sorted((alpha, lam) for lam, alpha in terms if alpha != 2.0):
                H = H + lam * inv_power_matrix(p, D, alpha)
            if lam2 != 0.0:
                H = H + lam2 * inv_power_matrix(p, D, 2.0)
            H = np.triu(H) + np.triu(H, 1).T
            assert np.array_equal(assemble(p, v, D), H)

    # a1 = 1: B1 then B2 covers B != a1 twice, B = a1 first and B = a1 last
    @pytest.mark.parametrize("B1, B2", [(0.6, 1.7), (1.0, 2.3), (1.7, 1.0)])
    @pytest.mark.parametrize("terms", [((1.0, 4.0), (1.0, 6.0)),
                                       ((0.1, 3.3), (0.5, 4.0), (2.0, 2.0))])
    def test_same_A_reuses_products_bit_for_bit(self, terms, B1, B2, monkeypatch):
        v = PotentialSpec(a1=1.0, terms=terms)
        A, D = 6.0, 20
        monkeypatch.setattr(matelem, "_products", {})
        monkeypatch.setattr(matelem, "_products_aD", None)
        assemble(ModelParams(A, B1), v, D)
        built = []
        real = matelem._connection_product

        def counted(*args):
            built.append(args[1])
            return real(*args)

        monkeypatch.setattr(matelem, "_connection_product", counted)
        warm = assemble(ModelParams(A, B2), v, D)
        # only the r^2 term is new, and only when B1 = a1 dropped it
        assert built == ([2] if B1 == v.a1 else [])
        monkeypatch.setattr(matelem, "_product", real)
        cold = assemble(ModelParams(A, B2), v, D)
        assert np.array_equal(warm, cold)

    # B = a1 drops the r^2 term at the first two points, A = inv_square the
    # counter-term at the first and the fourth; the second and the last
    # share gamma_N, and so one moment product per exponent
    STACK = ((5.0, 1.0), (6.3, 1.0), (7.1, 1.7), (5.0, 0.6), (6.3, 2.4))

    @pytest.mark.parametrize("alpha", [2.5, 4.0, 6.0])
    @pytest.mark.parametrize("D", [1, 10, 30])
    def test_stack_matches_each_point_bit_for_bit(self, alpha, D):
        v = PotentialSpec(a1=1.0, terms=((0.7, alpha), (5.0, 2.0)))
        ps = [ModelParams(A, B) for A, B in self.STACK]
        stack = assemble(ps, v, D)
        assert stack.shape == (len(ps), D, D)
        lows = eigen_symmetric(stack, k=1).values
        assert lows.shape == (len(ps), 1)
        for p, H, low in zip(ps, stack, lows):
            alone = assemble(p, v, D)
            assert H.tobytes() == alone.tobytes()
            assert low.tobytes() == eigen_symmetric(alone, k=1).values.tobytes()

    def test_basis_sign_invariance(self):
        # flipping the (-1)^n convention conjugates H by diag(+-1): same spectrum
        p = ModelParams(A=4.0, B=2.0, N=3, l=0)
        v = PotentialSpec(a1=1.0, terms=((0.5, 4.0), (2.0, 6.0)))
        H = assemble(p, v, 12)
        s = np.diag([(-1.0) ** k for k in range(12)])
        flipped = s @ H @ s
        e1 = eigen_symmetric(H).values
        e2 = eigen_symmetric(flipped).values
        assert np.max(np.abs(e1 - e2)) < 1e-12 * max(1.0, np.max(np.abs(e1)))

    def test_channel_mismatch_rejected(self):
        p = ModelParams(1.0, 1.0, N=4, l=0)
        v = PotentialSpec(a1=1.0, N=3, l=0)
        with pytest.raises(ValueError):
            assemble(p, v, 3)

    def test_divergent_term_reported(self):
        p = ModelParams(0.5, 1.0, 3, 0)  # gamma_N ~ 1.87: r^-4 diverges
        v = PotentialSpec(a1=1.0, terms=((1.0, 4.0),))
        with pytest.raises(ValueError, match=r"r\^\(-4"):
            assemble(p, v, 3)

    def test_bad_dimension_rejected(self):
        with pytest.raises(ValueError):
            assemble(ModelParams(1.0, 1.0), PotentialSpec(a1=1.0), 0)

    def test_oscillator_scaling_bound(self):
        # pure a1 = c^2 potential: lowest eigenvalue bounds 3c from above
        c = 1.7
        v = PotentialSpec(a1=c * c)
        for A, B in [(0.5, 1.0), (2.0, 4.0), (0.1, c * c)]:
            p = ModelParams(A, B, 3, 0)
            low = eigen_symmetric(assemble(p, v, 40), k=1).values[0]
            assert low >= 3.0 * c - 1e-9
        # and a decent basis at D=40 gets within upper-bound tolerance
        p = ModelParams(1e-8, c * c, 3, 0)
        low = eigen_symmetric(assemble(p, v, 40), k=1).values[0]
        assert low == pytest.approx(3.0 * c, abs=1e-6)

    def test_decomposition_consistency(self):
        # residual-potential form vs the compactified kinetic + full potential
        A, B = 2.4, 1.3
        p = ModelParams(A, B, 3, 0)
        v = PotentialSpec(a1=1.0, terms=((0.7, 4.0),))
        H = assemble(p, v, 3)
        for m in range(3):
            for n in range(3):
                e_split = (gk_energy(p, n) if m == n else 0.0) + (
                    (1.0 - B) * element_quad(A, B, m, n, 2.0)
                    + 0.7 * element_quad(A, B, m, n, -4.0)
                    - A * element_quad(A, B, m, n, -2.0)
                )
                assert H[m, n] == pytest.approx(e_split, abs=1e-8)
