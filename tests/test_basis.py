"""Solvable-model energies and eigenfunctions."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from modelref import gk_energy, gk_wavefunction
from spikevar.basis import ModelParams


class TestModelParams:
    def test_three_d_gamma(self):
        p = ModelParams(A=2.0, B=1.0, N=3, l=0)
        assert p.gamma_N == pytest.approx(1.0 + math.sqrt(2.25), rel=1e-15)

    def test_gamma_floor(self):
        # gamma_N = 1 exactly only at A = 0 with N + 2l = 2
        assert ModelParams(0.0, 1.0, N=2, l=0).gamma_N == 1.0
        assert ModelParams(0.0, 1.0, N=3, l=0).gamma_N > 1.0
        assert ModelParams(1e-8, 1.0, N=2, l=0).gamma_N > 1.0

    def test_m_degeneracy(self):
        # equal A, B and equal N + 2l give identical gamma_N
        a = ModelParams(3.7, 2.2, N=9, l=1)
        b = ModelParams(3.7, 2.2, N=7, l=2)
        c = ModelParams(3.7, 2.2, N=5, l=3)
        assert a.gamma_N == b.gamma_N == c.gamma_N

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(-0.1, 1.0)
        with pytest.raises(ValueError):
            ModelParams(1.0, 0.0)
        with pytest.raises(ValueError):
            ModelParams(1.0, 1.0, N=0)
        with pytest.raises(ValueError):
            ModelParams(1.0, 1.0, l=-1)


class TestEnergy:
    def test_oscillator_ground(self):
        assert gk_energy(ModelParams(0.0, 1.0), 0) == pytest.approx(3.0)

    def test_oscillator_p_state(self):
        assert gk_energy(ModelParams(0.0, 1.0, N=3, l=1), 0) == pytest.approx(5.0)

    def test_direct_substitution(self):
        # A=2, B=4: gamma_N = 2.5, E_1 = 4 (2 + 2.5)
        assert gk_energy(ModelParams(2.0, 4.0), 1) == pytest.approx(18.0)

    def test_energy_degenerate_in_channel(self):
        for n in range(4):
            e1 = gk_energy(ModelParams(1.3, 2.0, N=6, l=2), n)
            e2 = gk_energy(ModelParams(1.3, 2.0, N=4, l=3), n)
            assert e1 == pytest.approx(e2, rel=1e-15)


class TestWavefunction:
    P = ModelParams(A=2.0, B=1.5, N=3, l=0)

    def test_normalized(self):
        val, _ = quad(lambda r: gk_wavefunction(self.P, 0, r) ** 2, 0, 12,
                      epsabs=1e-12, limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal(self):
        val, _ = quad(
            lambda r: gk_wavefunction(self.P, 2, r) * gk_wavefunction(self.P, 3, r),
            0, 14, epsabs=1e-12, limit=250,
        )
        assert abs(val) < 1e-10

    def test_small_r_power_law(self):
        # psi_n / r^(gamma - 1/2) tends to the (signed) normalization constant
        g = self.P.gamma_N
        for n in (0, 1, 4):
            lim1 = gk_wavefunction(self.P, n, 1e-6) / 1e-6 ** (g - 0.5)
            lim2 = gk_wavefunction(self.P, n, 1e-7) / 1e-7 ** (g - 0.5)
            assert lim1 != 0.0
            assert lim1 == pytest.approx(lim2, rel=1e-6)

    def test_dirichlet_decay(self):
        vals = [abs(gk_wavefunction(self.P, 3, r)) for r in (1e-2, 1e-3, 1e-4)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-6

    def test_node_count(self):
        r = np.linspace(1e-3, 9.0, 6000)
        for n in range(6):
            psi = np.array([gk_wavefunction(self.P, n, x) for x in r])
            signs = np.sign(psi)
            crossings = int(np.sum(signs[:-1] * signs[1:] < 0))
            assert crossings == n

    def test_residual_of_radial_equation(self):
        # 5-point second derivative; residual is small against E_n psi_n
        p = self.P
        lam = p.Lambda
        coef = lam * (lam + 1.0) + p.A
        for n in (0, 2, 5, 10):
            e_n = gk_energy(p, n)
            h = 1e-3
            for r0 in (0.6, 1.1, 2.3):
                f = [gk_wavefunction(p, n, r0 + k * h) for k in (-2, -1, 0, 1, 2)]
                d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * h * h)
                lhs = -d2 + (p.B * r0**2 + coef / r0**2) * f[2]
                scale = max(abs(e_n * f[2]), abs(e_n) * 1e-3)
                assert abs(lhs - e_n * f[2]) < 1e-5 * scale

    def test_sign_convention(self):
        # leading small-r coefficient carries (-1)^n
        assert gk_wavefunction(self.P, 0, 1e-4) > 0
        assert gk_wavefunction(self.P, 1, 1e-4) < 0
        assert gk_wavefunction(self.P, 2, 1e-4) > 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gk_wavefunction(self.P, -1, 1.0)
        with pytest.raises(ValueError):
            gk_wavefunction(self.P, 0, 0.0)
