"""Shooting-method eigenvalues: exact cases, self-consistency, domain checks,
and the RK4 kernel against the stage-by-stage reference step (`rk4ref`)."""

import logging

import numpy as np
import pytest

from modelref import gk_energy
from rk4ref import rk4_sweep
from spikevar import oracle
from spikevar.basis import ModelParams
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
        # unit node bracket, then Brent's method on the matching Wronskian
        # one kernel call per bracket end pair and per matching evaluation
        sweep = oracle._sweep
        calls = []

        def counted(*args):
            calls.append(len(args[2]))
            return sweep(*args)

        monkeypatch.setattr(oracle, "_sweep", counted)
        v = PotentialSpec(a1=1.0, terms=((1.0, 4.0), (1.0, 6.0)))
        res = shoot_eigenvalue(v, 0, tol=1e-6)
        assert res.energy == pytest.approx(5.0, abs=2e-6)
        assert len(calls) <= 14  # 13 measured, plus 10%
        assert sum(calls) <= 1.1 * 15_283
        assert res.sweeps == len(calls)

    @pytest.mark.parametrize("tol,sweeps,steps", [
        (1e-8, 13, 23_684),
        (1e-10, 18, 49_812),
    ])
    def test_sweeps_and_steps_at_tight_tol(self, monkeypatch, tol, sweeps, steps):
        # the cutoff follows tol, and the bracket closes a step past the root
        sweep = oracle._sweep
        calls = []

        def counted(*args):
            calls.append(len(args[2]))
            return sweep(*args)

        monkeypatch.setattr(oracle, "_sweep", counted)
        v = PotentialSpec(a1=1.0, terms=((1.0, 4.0), (1.0, 6.0)))
        res = shoot_eigenvalue(v, 0, tol=tol)
        assert 5.0 - 2.0 * tol <= res.energy <= 5.0
        assert len(calls) <= 1.1 * sweeps  # measured, plus 10%
        assert sum(calls) <= 1.1 * steps
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


class TestTailCutoff:
    """The outer cutoff leaves a WKB tail action of 8 + ln(1/tol)/2."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    @pytest.mark.parametrize("terms,level,exact", EXACT)
    def test_agrees_with_a_fixed_wide_cutoff(self, terms, level, exact, tol):
        v = PotentialSpec(a1=1.0, terms=terms)
        res = shoot_eigenvalue(v, level, tol=tol)
        wide = shoot_eigenvalue(v, level, tol=tol, r_max=14.0)
        assert res.r_max < 14.0
        assert exact - 2.0 * tol <= res.energy <= exact
        assert abs(res.energy - wide.energy) <= tol / 8.0

    def test_action_follows_tol_up_to_the_cap(self):
        assert oracle._tail_action(1e-6) == pytest.approx(14.9, abs=0.01)
        assert oracle._tail_action(1e-10) > oracle._tail_action(1e-6)
        assert oracle._tail_action(1e-300) == oracle._TAIL_MAX

    def test_cap_error_names_the_tail(self):
        # levels near 30 reach past a cutoff capped at 5
        prob = oracle._RadialProblem(PotentialSpec(a1=1.0))
        with pytest.raises(ShootingError, match="WKB action 14.9"):
            oracle._choose_r_max(prob, 30.0, 5.0, 1e-6)


class TestSteppedTail:
    """Past 1.5 units of WKB action beyond the outer turning point at the
    energy cap the tail is stepped for RK4 stability alone."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    @pytest.mark.parametrize("terms,level,exact", EXACT)
    def test_moves_no_energy_against_the_well_step(self, monkeypatch, terms, level,
                                                   exact, tol):
        v = PotentialSpec(a1=1.0, terms=terms)
        res = shoot_eigenvalue(v, level, tol=tol)
        monkeypatch.setattr(oracle, "_TAIL_START", np.inf)
        flat = shoot_eigenvalue(v, level, tol=tol)
        assert res.grid_scale == flat.grid_scale and res.steps < flat.steps
        # Brent's method steps tol/32 + 2 eps E across a root it lands on,
        # so a root landed on within the mismatch's rounding noise closes
        # the bracket on either side, and the report moves by that step
        # (at tol 1e-10, 2 eps E is up to 5e-5 tol); the tail moves it by
        # no more than that
        assert abs(res.energy - flat.energy) <= tol / 32.0 + 1e-4 * tol
        assert exact - 2.0 * tol <= res.energy <= exact

    def test_grid_steps_the_tail_coarser(self):
        prob = oracle._RadialProblem(PotentialSpec(a1=1.0))
        r_max = oracle._choose_r_max(prob, 40.0, oracle._RMAX_CAP, 1e-6)
        dom = oracle._Domain(prob, oracle._RMIN_CAP, r_max, 40.0, 1e-6)
        grid = oracle._Grid(dom, 1.0, oracle._Tally())
        assert np.sqrt(40.0) < dom.r_tail < r_max
        well = grid.h[(grid.r[:-1] >= 1.0) & (grid.r[1:] <= dom.r_tail)]
        tail = grid.h[grid.r[:-1] >= dom.r_tail]
        assert np.ptp(well) < 1e-12 and np.ptp(tail) < 1e-12
        assert tail[0] > 4.0 * well[0]
        # RK4 stays stable: h kappa <= 0.5, kappa from the steepest W - floor
        kappa = np.sqrt(grid.wn[-1] - grid.w_floor)
        assert tail[0] * kappa <= 0.5


class TestLastBits:
    """The printed energy does not hang on the kernel's rounding: _SPAN
    changes the order of the block products, not the method."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    @pytest.mark.parametrize("terms,level", [
        (((1.0, 4.0),), 0),
        ((), 1),
        (((0.1, 2.5),), 2),
        (((1.3, 6.0),), 2),
    ])
    def test_energy_agrees_across_spans(self, monkeypatch, terms, level, tol):
        energies = []
        for span in (16, 64, 256):
            monkeypatch.setattr(oracle, "_SPAN", span)
            v = PotentialSpec(a1=1.0, terms=terms)
            energies.append(shoot_eigenvalue(v, level, tol=tol).energy)
        assert max(energies) - min(energies) <= 1e-3 * tol


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
        """A scale-2 grid as shoot_eigenvalue builds it at tol 1e-6, with a
        fixed energy cap."""
        prob = oracle._RadialProblem(v)
        e_cap = 40.0
        r_min = oracle._choose_r_min(prob, e_cap)
        r_max = oracle._choose_r_max(prob, e_cap, oracle._RMAX_CAP, 1e-6)
        dom = oracle._Domain(prob, r_min, r_max, e_cap, 1e-6)
        grid = oracle._Grid(dom, 2.0, oracle._Tally())
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

    @pytest.mark.parametrize("level,sweeps,fallbacks", [(0, 28, 0), (1, 33, 0), (2, 46, 1)])
    def test_third_bracket_at_tight_tol(self, level, sweeps, fallbacks):
        # the scale-1 grid is 270, 2859 and 9408 tol off at levels 0, 1 and
        # 2: the +-4096 tol bracket holds the first two levels
        exact = 3.0 + 4.0 * level
        res = shoot_eigenvalue(PotentialSpec(a1=1.0), level, tol=1e-10)
        assert res.sweeps <= 1.1 * sweeps  # measured, plus 10%
        assert res.fallbacks <= fallbacks
        assert exact - 2e-10 <= res.energy <= exact

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


class TestVanishingBarrier:
    """A strong term too weak to rise above E at r_min leaves the solution
    there close to the oscillator's: the start is Frobenius, not WKB."""

    @pytest.mark.parametrize("lam", [1e-300, 1e-100, 1e-20])
    def test_tiny_coupling_gives_the_oscillator_level(self, lam):
        # the level is 3 + (4/sqrt(pi)) sqrt(lam) + ..., within 3e-10 of 3
        tol = 1e-8
        res = shoot_eigenvalue(PotentialSpec(a1=1.0, terms=((lam, 4.0),)), 0, tol=tol)
        assert 3.0 - 2.0 * tol <= res.energy <= 3.0


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


def _one_chain(args, energy, y1, y2, count_nodes):
    """`_sweep` over (w_nodes, w_mid, h) as a one-chain list: the chain's
    (y1, y2, nodes)."""
    (end,) = oracle._sweep(*args, [(energy, y1, y2, len(args[2]))], count_nodes)
    return end


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
        got = _one_chain(args, energy, 1.0, -0.5, True)
        want = rk4_sweep(*args, energy, 1.0, -0.5, True)
        assert np.allclose(_normalized(*got[:2]), _normalized(*want[:2]),
                           rtol=0.0, atol=1e-12)
        assert got[2] == want[2]

    def test_node_count_on_oscillating_solution(self):
        # E = 30 is above W on most of [0.05, 6]: y oscillates many times
        args = _random_grid(3, steps=5000)
        got = _one_chain(args, 30.0, 1.0, 0.0, True)
        want = rk4_sweep(*args, 30.0, 1.0, 0.0, True)
        assert got[2] == want[2] >= 5
        assert _one_chain(args, 30.0, 1.0, 0.0, False)[2] == 0

    @pytest.mark.parametrize("inward", [False, True], ids=["outward", "inward"])
    def test_rescale_guard(self, inward):
        # below W the solution grows by ~1e14; from 1e249 it crosses 1e250
        args = _random_grid(4)
        if inward:
            args = _inward(*args)
        got = _one_chain(args, -10.0, 1e249, 1e249, True)
        want = rk4_sweep(*args, -10.0, 1e249, 1e249, True)
        assert abs(got[0]) + abs(got[1]) < 1e249  # renormalized on the way
        assert np.allclose(_normalized(*got[:2]), _normalized(*want[:2]),
                           rtol=0.0, atol=1e-12)
        assert got[2] == want[2]

    @pytest.mark.parametrize("count_nodes", [False, True])
    def test_steep_grid_from_states_near_the_rescale_guard(self, count_nodes):
        # W - E = (100 / h)^2 on the last 400 steps: RK4 grows by ~4e6 a
        # step there, so a block's product (~1e100) and the first half of
        # one (~1e50) overflow a state near 1e250 unless it is scaled first
        wn, wm, h = _random_grid(9, steps=1000)
        wn[-400:] = 30.0 + (100.0 / h[-1]) ** 2
        wm[-400:] = 30.0 + (100.0 / h[-400:]) ** 2
        got = _one_chain((wn, wm, h), 30.0, 1e249, 1e249, count_nodes)
        want = rk4_sweep(wn, wm, h, 30.0, 1e249, 1e249, count_nodes)
        assert np.allclose(_normalized(*got[:2]), _normalized(*want[:2]),
                           rtol=0.0, atol=1e-12)
        assert got[2] == want[2]
        if count_nodes:
            assert got[2] >= 5

    @pytest.mark.parametrize("steps", [1, 2, oracle._SPAN - 1, oracle._SPAN + 1,
                                       oracle._BLOCK - 1, oracle._BLOCK + 1,
                                       2 * oracle._BLOCK + 1])
    @pytest.mark.parametrize("inward", [False, True], ids=["outward", "inward"])
    def test_grid_lengths(self, steps, inward):
        # partial last block and partial last chunk
        args = _random_grid(6, steps=steps, r1=min(6.0, 0.05 + 0.003 * steps))
        if inward:
            args = _inward(*args)
        got = _one_chain(args, 30.0, 1.0, -0.5, True)
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
        got = _one_chain(args, energy, *y, True)
        want = rk4_sweep(*args, energy, *y, True)
        assert np.allclose(_normalized(*got[:2]), _normalized(*want[:2]),
                           rtol=0.0, atol=1e-12)
        assert got[2] == want[2] >= 1
        # the same sweep cut off right after the sign change
        ends = wn[skip:hi + 1], wm[skip:hi], h[skip:hi]
        assert _one_chain(ends, energy, *y, True)[2] == 1

    def test_several_sign_changes_per_block(self):
        # at E = 4e4 a half wavelength spans ~8 steps: y changes sign about
        # twice inside every block, which only the per-step states can see
        args = _random_grid(8, steps=3000)
        got = _one_chain(args, 4e4, 1.0, 0.0, True)
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
        got = _one_chain(args, 30.0, 0.0, 1.0, True)
        want = rk4_sweep(*args, 30.0, 0.0, 1.0, True)
        assert np.allclose(_normalized(*got[:2]), _normalized(*want[:2]),
                           rtol=0.0, atol=1e-12)
        assert got[2] == want[2] >= 1

    def test_node_count_independent_of_start_type(self):
        # start values may come as numpy scalars
        args = _random_grid(5, steps=5000)
        plain = _one_chain(args, 30.0, 1.0, 0.5, True)
        numpy = _one_chain(args, 30.0, np.float64(1.0), np.float64(0.5), True)
        assert plain[2] >= 5
        assert numpy == plain
        assert all(type(x) is float for x in numpy[:2])


class TestChains:
    """Several chains in one `_sweep` call: each gets the bits of a call of
    its own, and the third argument holds every chain's steps."""

    @pytest.mark.parametrize("count_nodes", [False, True])
    @pytest.mark.parametrize("lengths", [
        (oracle._SPAN - 1, oracle._SPAN + 1),
        (oracle._BLOCK - 1, oracle._BLOCK + 1),
        (oracle._SPAN, oracle._BLOCK - oracle._SPAN, 3, oracle._BLOCK + 5),
        (1, 2 * oracle._BLOCK + 7, 2, oracle._SPAN - 1),
    ])
    def test_each_chain_gets_the_bits_of_its_own_call(self, lengths, count_nodes):
        chains = []
        for k, steps in enumerate(lengths):
            args = _random_grid(10 + k, steps=steps, r1=min(6.0, 0.05 + 0.003 * steps))
            chains.append(_inward(*args) if k % 2 else args)
        energies = (4e4, 30.0, -5.0, 10.0)[:len(lengths)]
        y1s = (1.0, 0.0, np.float64(0.3), -2.0)[:len(lengths)]
        y2s = (-0.5, 1.0, 0.0, 1e249)[:len(lengths)]
        alone = [_one_chain(args, e, y1, y2, count_nodes)
                 for args, e, y1, y2 in zip(chains, energies, y1s, y2s)]
        joined = oracle._sweep(*(np.concatenate(x) for x in zip(*chains)),
                               list(zip(energies, y1s, y2s, lengths)), count_nodes)
        assert joined == alone
        assert all(type(y) is float for y1, y2, _ in joined for y in (y1, y2))
        if count_nodes:
            assert any(nodes for _, _, nodes in alone)

    def test_one_call_per_matching_evaluation(self, monkeypatch):
        # outward and inward halves together: all of the grid's steps at once
        prob, grid, e_cap = TestWarmStart._grid(PotentialSpec(a1=1.0))
        sweep = oracle._sweep
        calls = []

        def counted(*args):
            calls.append(len(args[2]))
            return sweep(*args)

        monkeypatch.setattr(oracle, "_sweep", counted)
        oracle._solve_at_density(prob, grid, 0, 1e-6, e_cap, prior=3.0)
        assert grid._tally.sweeps == len(calls)
        # the warm pair's node counts, then its mismatches, then Brent's
        assert calls[:2] == [2 * grid.steps, 2 * grid.steps]
        assert set(calls[2:]) == {grid.steps}


class TestValidation:
    def test_bad_level_and_tol(self):
        v = PotentialSpec(a1=1.0)
        with pytest.raises(ValueError):
            shoot_eigenvalue(v, -1)
        with pytest.raises(ValueError):
            shoot_eigenvalue(v, 0, tol=0.0)
        with pytest.raises(ValueError, match="finite"):
            shoot_eigenvalue(v, 0, tol=float("inf"))
        with pytest.raises(ValueError):
            shoot_eigenvalue(v, 0, tol=float("nan"))

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_grid_scale(self, scale):
        with pytest.raises(ValueError, match="grid_scale must be finite and > 0"):
            shoot_eigenvalue(PotentialSpec(a1=1.0), 0, grid_scale=scale)

    @pytest.mark.parametrize("scale", [1e-4, 1e-9])
    def test_grid_too_short_for_the_matching_point(self, scale):
        # 2 steps, where the matching point's clamp [3, steps - 3] is empty
        v = PotentialSpec(a1=1.0, terms=((0.1, 4.0),))
        with pytest.raises(ShootingError, match="would have 2 steps"):
            shoot_eigenvalue(v, 0, grid_scale=scale)

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
