"""Shooting-method eigenvalues: exact cases, self-consistency, domain checks,
and the RK4 kernel against the stage-by-stage reference step (`rk4ref`)."""

import logging

import numpy as np
import pytest

from rk4ref import rk4_sweep
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
        assert len(calls) <= 33  # 30 measured, plus 10%
        assert res.sweeps == len(calls)

    def test_debug_record(self, caplog):
        caplog.set_level(logging.DEBUG, logger="spikevar.oracle")
        res = shoot_eigenvalue(PotentialSpec(a1=1.0, terms=((1.0, 4.0),)), 0, tol=1e-6)
        (rec,) = [r for r in caplog.records if r.name == "spikevar.oracle"]
        assert rec.levelno == logging.DEBUG
        msg = rec.getMessage()
        for field in ("r_min=", "r_max=", "grid_scale=", "bracket_width="):
            assert field in msg
        assert f"steps={res.steps} " in msg
        assert f" fallbacks={res.fallbacks} " in msg
        assert msg.endswith(f"sweeps={res.sweeps}")

    def test_energy_is_plain_float(self):
        res = shoot_eigenvalue(PotentialSpec(a1=1.0, terms=((1.0, 4.0),)), 0, tol=1e-6)
        assert type(res.energy) is float
        assert type(res.bracket_width) is float
        assert "np.float64" not in repr(res)


# the oscillator and the exact table4 cases: (terms, level, exact energy)
EXACT = [
    ((), 0, 3.0),
    ((), 1, 7.0),
    ((), 2, 11.0),
    (((1.0, 4.0), (1.0, 6.0)), 0, 5.0),
    (((9.0, 4.0), (9.0, 6.0)), 0, 7.0),
    (((-7.0, 4.0), (49.0, 6.0)), 0, 7.0),
    (((45.0, 4.0), (225.0, 6.0)), 0, 11.0),
]


class TestWarmStart:
    """A refined grid starts from a bracket around the previous grid's energy."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-7])
    @pytest.mark.parametrize("terms,level,exact", EXACT)
    def test_every_refined_grid_takes_the_warm_bracket(self, terms, level, exact, tol):
        res = shoot_eigenvalue(PotentialSpec(a1=1.0, terms=terms), level, tol=tol)
        assert res.grid_scale >= 2.0  # at least one refined grid
        assert res.fallbacks == 0
        assert exact - 2.0 * tol <= res.energy <= exact

    @staticmethod
    def _grid(v):
        """A scale-2 grid as shoot_eigenvalue builds it, with a fixed energy cap."""
        prob = oracle._RadialProblem(v)
        e_cap = 40.0
        r_min = oracle._choose_r_min(prob, e_cap)
        r_max = oracle._choose_r_max(prob, e_cap, oracle._RMAX_CAP)
        grid = oracle._Grid(prob, r_min, r_max, e_cap, 2.0, oracle._Tally())
        return prob, grid, e_cap

    @pytest.mark.parametrize("terms,level,exact,prior", [
        ((), 1, 7.0, 3.0),    # the levels next to it: the matching Wronskian
        ((), 1, 7.0, 11.0),   # changes sign there, the node count does not fit
        ((), 1, 7.0, 5.5),
        (((9.0, 4.0), (9.0, 6.0)), 0, 7.0, 5.5),
        (((9.0, 4.0), (9.0, 6.0)), 0, 7.0, 10.0),
    ])
    def test_far_prior_falls_back_to_the_full_search(self, terms, level, exact, prior):
        tol = 1e-6
        prob, grid, e_cap = self._grid(PotentialSpec(a1=1.0, terms=terms))
        cold = oracle._solve_at_density(prob, grid, level, tol, e_cap)
        far = oracle._solve_at_density(prob, grid, level, tol, e_cap, prior)
        assert cold[2] is False and far[2] is False
        assert far == cold
        assert exact - 2.0 * tol <= far[0] <= exact

    @pytest.mark.parametrize("terms,level,exact", [EXACT[1], EXACT[4]])
    def test_warm_bracket_agrees_with_the_full_search(self, terms, level, exact):
        tol = 1e-6
        prob, grid, e_cap = self._grid(PotentialSpec(a1=1.0, terms=terms))
        cold = oracle._solve_at_density(prob, grid, level, tol, e_cap)
        cold_sweeps = grid._tally.sweeps
        warm = oracle._solve_at_density(prob, grid, level, tol, e_cap, cold[0])
        assert warm[2] is True
        assert grid._tally.sweeps - cold_sweeps < cold_sweeps  # the point of the prior
        assert abs(warm[0] - cold[0]) <= 0.25 * tol
        assert exact - 2.0 * tol <= warm[0] <= exact

    def test_wide_retry_covers_a_coarse_grid_error_beyond_the_bracket(self):
        # the scale-1 grid is ~94 tol off, outside the +-16 tol bracket: the
        # +-256 tol retry holds the level, where the floor search took 99 sweeps
        res = shoot_eigenvalue(PotentialSpec(a1=1.0), 2, tol=1e-8)
        assert res.fallbacks == 0
        assert res.sweeps < 99
        assert 11.0 - 2e-8 <= res.energy <= 11.0

    def test_fallback_counted(self, monkeypatch):
        # a bracket of zero width never holds the node transition
        monkeypatch.setattr(oracle, "_WARM", 0.0)
        res = shoot_eigenvalue(PotentialSpec(a1=1.0), 0, tol=1e-6)
        assert res.fallbacks == round(np.log2(res.grid_scale)) >= 1
        assert res.energy == pytest.approx(3.0, abs=1e-6)


class TestAttractiveInverseSquare:
    """c2 = Lambda(Lambda+1) + inv_square < 0 sends W to -inf near 0: the
    energy floor is taken from W + min(-c2, 1/4) / r^2 (Hardy)."""

    # W = r^2 + (nu^2 - 1/4) / r^2 has E_n = 2 (2n + 1 + nu)
    @pytest.mark.parametrize("N, terms, exact", [
        (2, (), 2.0),
        (3, ((-0.2, 2.0),), 2.0 + 2.0 * np.sqrt(0.05)),
        (5, ((-1.0, 2.0),), 2.0 + np.sqrt(5.0)),
    ])
    def test_oracle_below_exact_and_bound_above(self, N, terms, exact):
        tol = 1e-6
        v = PotentialSpec(a1=1.0, terms=terms, N=N)
        res = shoot_eigenvalue(v, 0, tol=tol)
        assert exact - 2.0 * tol <= res.energy <= exact
        bound = minimize_bound(v, 20).bound
        assert bound >= exact
        if N == 2:
            assert bound - exact < 1e-6

    def test_two_dimensional_excited_level(self):
        res = shoot_eigenvalue(PotentialSpec(a1=1.0, N=2), 1, tol=1e-6)
        assert 6.0 - 2e-6 <= res.energy <= 6.0


class TestSteepBarrier:
    """The cutoffs sum the WKB action outward from each turning point, so a
    barrier that overflows further in leaves them where the action is
    reached."""

    @pytest.mark.parametrize("lam", [1.0, 1000.0])
    @pytest.mark.parametrize("alpha", [10.0, 20.0, 50.0, 100.0, 200.0])
    def test_small_grid_and_below_the_bound(self, alpha, lam):
        tol = 1e-6
        v = PotentialSpec(a1=1.0, terms=((lam, alpha),))
        res = shoot_eigenvalue(v, 0, tol=tol)
        assert res.steps < 20_000
        assert res.energy <= minimize_bound(v, 30).bound + 2.0 * tol


def _random_grid(seed: int, steps: int = 3000, r0: float = 0.05, r1: float = 6.0):
    """Seeded random steps on [r0, r1], W = r^2 + 2/r^2 + a random ripple
    tabulated at the step ends and midpoints."""
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.5, 1.5, steps)
    h *= (r1 - r0) / h.sum()
    r = r0 + np.concatenate([[0.0], np.cumsum(h)])
    amp, freq = rng.uniform(-2.0, 2.0), rng.uniform(1.0, 5.0)

    def w(x):
        return x * x + 2.0 / (x * x) + amp * np.sin(freq * x)

    return w(r), w(r[:-1] + 0.5 * h), h


def _inward(wn, wm, h):
    return wn[::-1].copy(), wm[::-1].copy(), -h[::-1]


def _normalized(y1, y2):
    mag = abs(y1) + abs(y2)
    return y1 / mag, y2 / mag


class TestKernel:
    """`_sweep` (tabulated transfer matrices) against the stage-by-stage
    RK4 step of `rk4ref`: the same method, so only rounding may differ."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("inward", [False, True], ids=["outward", "inward"])
    @pytest.mark.parametrize("energy", [-5.0, 30.0])
    def test_matches_stagewise_rk4(self, seed, inward, energy):
        args = _random_grid(seed)
        if inward:
            args = _inward(*args)
        got = oracle._sweep(*args, energy, 1.0, -0.5, True)
        want = rk4_sweep(*args, energy, 1.0, -0.5, True)
        assert np.allclose(_normalized(*got[:2]), _normalized(*want[:2]),
                           rtol=0.0, atol=1e-12)
        assert got[2] == want[2]

    def test_node_count_on_oscillating_solution(self):
        # E = 30 is above W on most of [0.05, 6]: y oscillates many times
        args = _random_grid(3, steps=5000)
        got = oracle._sweep(*args, 30.0, 1.0, 0.0, True)
        want = rk4_sweep(*args, 30.0, 1.0, 0.0, True)
        assert got[2] == want[2] >= 5
        assert oracle._sweep(*args, 30.0, 1.0, 0.0, False)[2] == 0

    @pytest.mark.parametrize("inward", [False, True], ids=["outward", "inward"])
    def test_rescale_guard(self, inward):
        # below W the solution grows by ~1e14; from 1e249 it crosses 1e250
        args = _random_grid(4)
        if inward:
            args = _inward(*args)
        got = oracle._sweep(*args, -10.0, 1e249, 1e249, True)
        want = rk4_sweep(*args, -10.0, 1e249, 1e249, True)
        assert abs(got[0]) + abs(got[1]) < 1e249  # renormalized on the way
        assert np.allclose(_normalized(*got[:2]), _normalized(*want[:2]),
                           rtol=0.0, atol=1e-12)
        assert got[2] == want[2]

    @pytest.mark.parametrize("steps", [1, 2, oracle._SPAN - 1, oracle._SPAN + 1,
                                       oracle._BLOCK - 1, oracle._BLOCK + 1,
                                       2 * oracle._BLOCK + 1])
    @pytest.mark.parametrize("inward", [False, True], ids=["outward", "inward"])
    def test_grid_lengths(self, steps, inward):
        # partial last block and partial last chunk
        args = _random_grid(6, steps=steps, r1=min(6.0, 0.05 + 0.003 * steps))
        if inward:
            args = _inward(*args)
        got = oracle._sweep(*args, 30.0, 1.0, -0.5, True)
        want = rk4_sweep(*args, 30.0, 1.0, -0.5, True)
        assert np.allclose(_normalized(*got[:2]), _normalized(*want[:2]),
                           rtol=0.0, atol=1e-12)
        assert got[2] == want[2]

    @pytest.mark.parametrize("at", [oracle._SPAN, oracle._SPAN + 1,
                                    oracle._BLOCK, oracle._BLOCK + 1])
    def test_sign_change_at_block_boundary(self, at):
        # start the sweep where the reference puts its first sign change of y
        # at step `at`: the last step of a block (chunk) or the first of the next
        wn, wm, h = _random_grid(3, steps=12000)
        energy = 10.0

        def nodes(k, skip=0, y=(1.0, 0.0)):
            return rk4_sweep(wn[skip:k + 1], wm[skip:k], h[skip:k], energy, *y, True)[2]

        lo, hi = at + 1, len(h)  # the first step that adds a node
        assert nodes(lo) == 0 < nodes(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if nodes(mid) > 0:
                hi = mid
            else:
                lo = mid
        skip = hi - at
        y = rk4_sweep(wn[:skip + 1], wm[:skip], h[:skip], energy, 1.0, 0.0)[:2]
        assert nodes(hi - 1, skip, y) == 0 and nodes(hi, skip, y) == 1
        args = wn[skip:], wm[skip:], h[skip:]
        got = oracle._sweep(*args, energy, *y, True)
        want = rk4_sweep(*args, energy, *y, True)
        assert np.allclose(_normalized(*got[:2]), _normalized(*want[:2]),
                           rtol=0.0, atol=1e-12)
        assert got[2] == want[2] >= 1
        # the same sweep cut off right after the sign change
        ends = wn[skip:hi + 1], wm[skip:hi], h[skip:hi]
        assert oracle._sweep(*ends, energy, *y, True)[2] == 1

    def test_several_sign_changes_per_block(self):
        # at E = 4e4 a half wavelength spans ~8 steps: y changes sign about
        # twice inside every block, which only the per-step states can see
        args = _random_grid(8, steps=3000)
        got = oracle._sweep(*args, 4e4, 1.0, 0.0, True)
        want = rk4_sweep(*args, 4e4, 1.0, 0.0, True)
        assert np.allclose(_normalized(*got[:2]), _normalized(*want[:2]),
                           rtol=0.0, atol=1e-12)
        assert got[2] == want[2] > 300

    @pytest.mark.parametrize("inward", [False, True], ids=["outward", "inward"])
    def test_start_on_a_zero(self, inward):
        # y1 = 0 has no sign: the first nonzero y sets it without a node
        args = _random_grid(7, steps=3000)
        if inward:
            args = _inward(*args)
        got = oracle._sweep(*args, 30.0, 0.0, 1.0, True)
        want = rk4_sweep(*args, 30.0, 0.0, 1.0, True)
        assert np.allclose(_normalized(*got[:2]), _normalized(*want[:2]),
                           rtol=0.0, atol=1e-12)
        assert got[2] == want[2] >= 1

    def test_node_count_independent_of_start_type(self):
        # _start_values hands over numpy scalars when r_min is one
        args = _random_grid(5, steps=5000)
        plain = oracle._sweep(*args, 30.0, 1.0, 0.5, True)
        numpy = oracle._sweep(*args, 30.0, np.float64(1.0), np.float64(0.5), True)
        assert plain[2] >= 5
        assert numpy == plain
        assert all(type(x) is float for x in numpy[:2])


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
