"""Shooting-method eigenvalues: exact cases, self-consistency, domain checks."""


import pytest

from spikevar import oracle
from spikevar.basis import ModelParams, gk_energy
from spikevar.hamiltonian import PotentialSpec
from spikevar.optimizer import minimize_bound
from spikevar.oracle import BACKEND, ShootingError, shoot_eigenvalue


class TestExactCases:
    def test_pure_oscillator_ground(self):
        res = shoot_eigenvalue(PotentialSpec(a1=1.0), 0, tol=1e-7)
        assert res.energy == pytest.approx(3.0, abs=1e-7)
        assert res.nodes == 0
        assert res.bracket_width <= 1e-7

    def test_pure_oscillator_excited(self):
        res = shoot_eigenvalue(PotentialSpec(a1=1.0), 2, tol=1e-7)
        assert res.energy == pytest.approx(11.0, abs=1e-7)
        assert res.nodes == 2

    def test_solvable_model_levels(self):
        # V = B0 r^2 + A0 r^-2 has spectrum 2 sqrt(B0) (2n + gamma_N)
        A0, B0 = 2.0, 4.0
        v = PotentialSpec(a1=B0, terms=((A0, 2.0),))
        p = ModelParams(A0, B0)
        for n in (0, 1, 3):
            res = shoot_eigenvalue(v, n, tol=1e-6)
            assert res.energy == pytest.approx(gk_energy(p, n), abs=1e-6)
            assert res.nodes == n

    def test_exact_five(self):
        v = PotentialSpec(a1=1.0, terms=((1.0, 4.0), (1.0, 6.0)))
        res = shoot_eigenvalue(v, 0, tol=1e-6)
        assert res.energy == pytest.approx(5.0, abs=1e-6)

    def test_exact_eleven(self):
        v = PotentialSpec(a1=1.0, terms=((45.0, 4.0), (225.0, 6.0)))
        res = shoot_eigenvalue(v, 0, tol=1e-6)
        assert res.energy == pytest.approx(11.0, abs=1e-6)

    def test_exact_seven_negative_quartic(self):
        v = PotentialSpec(a1=1.0, terms=((-7.0, 4.0), (49.0, 6.0)))
        res = shoot_eigenvalue(v, 0, tol=1e-6)
        assert res.energy == pytest.approx(7.0, abs=1e-6)

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    @pytest.mark.parametrize("terms,level,exact", [
        ((), 0, 3.0),
        ((), 2, 11.0),
        (((1.0, 4.0), (1.0, 6.0)), 0, 5.0),
        (((-7.0, 4.0), (49.0, 6.0)), 0, 7.0),
        (((45.0, 4.0), (225.0, 6.0)), 0, 11.0),
    ])
    def test_one_sided_within_two_tol(self, terms, level, exact, tol):
        res = shoot_eigenvalue(PotentialSpec(a1=1.0, terms=terms), level, tol=tol)
        assert exact - 2.0 * tol <= res.energy <= exact
        assert res.bracket_width <= tol

    def test_higher_dimension(self):
        # N = 7 pure oscillator: E_0 = N (gamma_N = N/2 at A = 0, l = 0)
        v = PotentialSpec(a1=1.0, N=7, l=0)
        res = shoot_eigenvalue(v, 0, tol=1e-6)
        assert res.energy == pytest.approx(7.0, abs=1e-6)


class TestSelfConsistency:
    def test_richardson_step_halving(self):
        v = PotentialSpec(a1=1.0, terms=((0.1, 4.0),))
        tol = 1e-6
        res = shoot_eigenvalue(v, 0, tol=tol)
        halved = shoot_eigenvalue(v, 0, tol=tol, grid_scale=2.0 * res.grid_scale,
                                  auto_refine=False)
        assert abs(halved.energy - res.energy) < 0.25 * tol

    def test_domain_insensitivity(self):
        # resolve the bisection well below the tol/10 threshold being checked
        v = PotentialSpec(a1=1.0, terms=((1.0, 4.0), (1.0, 6.0)))
        tol = 1e-6
        base = shoot_eigenvalue(v, 0, tol=tol / 100.0)
        wider = shoot_eigenvalue(v, 0, tol=tol / 100.0,
                                 r_max=min(2.0 * base.r_max, 20.0))
        deeper = shoot_eigenvalue(v, 0, tol=tol / 100.0, r_min=0.5 * base.r_min)
        assert abs(wider.energy - base.energy) < tol / 10.0
        assert abs(deeper.energy - base.energy) < tol / 10.0

    def test_never_exceeds_variational_bound(self):
        cases = [
            PotentialSpec(a1=1.0, terms=((0.1, 4.0),)),
            PotentialSpec(a1=1.0, terms=((1000.0, 6.0),)),
            PotentialSpec(a1=1.0, terms=((10.0, 4.0), (10.0, 6.0))),
        ]
        for v in cases:
            bound = minimize_bound(v, 25).bound
            oracle = shoot_eigenvalue(v, 0, tol=1e-7).energy
            assert oracle <= bound + 1e-9

    def test_deterministic(self):
        v = PotentialSpec(a1=1.0, terms=((3.0, 4.0),))
        r1 = shoot_eigenvalue(v, 0, tol=1e-6)
        r2 = shoot_eigenvalue(v, 0, tol=1e-6)
        assert r1.energy == r2.energy
        assert r1.steps == r2.steps


class TestSweepCount:
    def test_sweeps_per_eigenvalue(self, monkeypatch):
        # unit node bracket, then false position on the matching Wronskian
        sweep = oracle._sweep
        calls = []

        def counted(*args):
            calls.append(None)
            return sweep(*args)

        monkeypatch.setattr(oracle, "_sweep", counted)
        v = PotentialSpec(a1=1.0, terms=((1.0, 4.0), (1.0, 6.0)))
        res = shoot_eigenvalue(v, 0, tol=1e-6)
        assert res.energy == pytest.approx(5.0, abs=2e-6)
        assert len(calls) <= 60


class TestValidation:
    def test_bad_level_and_tol(self):
        v = PotentialSpec(a1=1.0)
        with pytest.raises(ValueError):
            shoot_eigenvalue(v, -1)
        with pytest.raises(ValueError):
            shoot_eigenvalue(v, 0, tol=0.0)

    def test_bad_domain(self):
        v = PotentialSpec(a1=1.0)
        with pytest.raises(ValueError):
            shoot_eigenvalue(v, 0, r_min=2.0, r_max=1.0)

    def test_refinement_cap_reported(self):
        v = PotentialSpec(a1=1.0, terms=((0.1, 4.0),))
        with pytest.raises(ShootingError):
            shoot_eigenvalue(v, 0, tol=1e-13, grid_scale=0.05, max_refine=0)


class TestBackend:
    def test_backend_reported(self):
        assert BACKEND == "pure"
