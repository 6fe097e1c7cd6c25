"""Shooting-method eigenvalues: exact cases, self-consistency, domain checks,
and the RK4 kernel against the stage-by-stage reference step (`rk4ref`)."""

import logging
import math

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
        assert res.bracket_width <= 1e-7

    def test_pure_oscillator_excited(self):
        res = shoot_eigenvalue(PotentialSpec(a1=1.0), 2, tol=1e-7)
        assert res.energy == pytest.approx(11.0, abs=1e-7)

    def test_solvable_model_levels(self):
        # V = B0 r^2 + A0 r^-2 has spectrum 2 sqrt(B0) (2n + gamma_N)
        A0, B0 = 2.0, 4.0
        v = PotentialSpec(a1=B0, terms=((A0, 2.0),))
        p = ModelParams(A0, B0)
        for n in (0, 1, 3):
            res = shoot_eigenvalue(v, n, tol=1e-6)
            assert res.energy == pytest.approx(gk_energy(p, n), abs=1e-6)

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


def halved_grid_energy(monkeypatch, v, level, tol):
    """shoot_eigenvalue's result, and the energy that one more doubling of
    its final grid gives, searched from the floor on the call's last
    domain."""
    domains = []

    class Recorded(oracle._Domain):
        def __init__(self, *args):
            super().__init__(*args)
            domains.append(self)

    with monkeypatch.context() as m:
        m.setattr(oracle, "_Domain", Recorded)
        res = shoot_eigenvalue(v, level, tol=tol)
    dom = domains[-1]
    grid = oracle._Grid(dom, 2.0 * res.grid_scale, oracle._Tally())
    energy, _, _ = oracle._solve_at_density(dom.prob, grid, level, tol, dom.e_cap)
    return res, energy


def fixed_cutoff(monkeypatch, r_min=None, r_max=None):
    """Make shoot_eigenvalue integrate from r_min or out to r_max in place
    of its own choice."""
    if r_min is not None:
        monkeypatch.setattr(oracle, "_choose_r_min", lambda prob, e_cap: r_min)
    if r_max is not None:
        monkeypatch.setattr(oracle, "_choose_r_max", lambda prob, e_cap, tol: r_max)


class TestSelfConsistency:
    def test_richardson_step_halving(self, monkeypatch):
        v = PotentialSpec(a1=1.0, terms=((0.1, 4.0),))
        tol = 1e-6
        res, halved = halved_grid_energy(monkeypatch, v, 0, tol)
        assert abs(halved - res.energy) < 0.25 * tol

    def test_domain_insensitivity(self, monkeypatch):
        # resolve the bisection well below the tol/10 threshold being checked
        v = PotentialSpec(a1=1.0, terms=((1.0, 4.0), (1.0, 6.0)))
        tol = 1e-6
        base = shoot_eigenvalue(v, 0, tol=tol / 100.0)
        with monkeypatch.context() as m:
            fixed_cutoff(m, r_max=min(2.0 * base.r_max, 20.0))
            wider = shoot_eigenvalue(v, 0, tol=tol / 100.0)
        with monkeypatch.context() as m:
            fixed_cutoff(m, r_min=0.5 * base.r_min)
            deeper = shoot_eigenvalue(v, 0, tol=tol / 100.0)
        assert wider.r_max == min(2.0 * base.r_max, 20.0)
        assert deeper.r_min == 0.5 * base.r_min
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
        # unit node bracket, then Brent's method on the matching Wronskian:
        # one kernel call per bracket end pair and per matching evaluation,
        # whose matching pairs give the node counts too
        sweep = oracle._sweep
        calls = []

        def counted(*args):
            calls.append(len(args[2]))
            return sweep(*args)

        monkeypatch.setattr(oracle, "_sweep", counted)
        v = PotentialSpec(a1=1.0, terms=((1.0, 4.0), (1.0, 6.0)))
        res = shoot_eigenvalue(v, 0, tol=1e-6)
        assert res.energy == pytest.approx(5.0, abs=2e-6)
        assert len(calls) <= 12  # 11 measured, plus 10%
        assert sum(calls) <= 1.1 * 11_297
        assert res.sweeps == len(calls)

    @pytest.mark.parametrize("tol,sweeps,steps", [
        (1e-8, 11, 17_506),
        (1e-10, 15, 35_284),
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
    def test_agrees_with_a_fixed_wide_cutoff(self, monkeypatch, terms, level, exact,
                                             tol):
        v = PotentialSpec(a1=1.0, terms=terms)
        res = shoot_eigenvalue(v, level, tol=tol)
        fixed_cutoff(monkeypatch, r_max=14.0)
        wide = shoot_eigenvalue(v, level, tol=tol)
        assert res.r_max < wide.r_max == 14.0
        assert exact - 2.0 * tol <= res.energy <= exact
        assert abs(res.energy - wide.energy) <= tol / 8.0

    def test_action_follows_tol_up_to_the_cap(self):
        assert oracle._tail_action(1e-6) == pytest.approx(14.9, abs=0.01)
        assert oracle._tail_action(1e-10) > oracle._tail_action(1e-6)
        assert oracle._tail_action(1e-300) == oracle._TAIL_MAX


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
        r_max = oracle._choose_r_max(prob, 40.0, 1e-6)
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
        r_max = oracle._choose_r_max(prob, e_cap, 1e-6)
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


def _one_chain(args, energy, y1, y2, count_nodes, inward=False):
    """`_sweep` over the step table of (w_nodes, w_mid, h) as a one-chain
    list, outward from the first node or inward from the last: the chain's
    (y1, y2, nodes)."""
    wn, wm, h = args
    n = len(h)
    run = (energy, y1, y2, n, 0) if inward else (energy, y1, y2, 0, n)
    (end,) = oracle._sweep(oracle._step_table(h, wn, wm), [run], range(n), count_nodes)
    return end


def _reference(args, energy, y1, y2, count_nodes, inward=False):
    """`rk4ref.rk4_sweep` over the same steps as `_one_chain`."""
    return rk4_sweep(*(_inward(*args) if inward else args), energy, y1, y2, count_nodes)


class TestKernel:
    """`_sweep` (tabulated transfer matrices) against the stage-by-stage
    RK4 step of `rk4ref`: the same method, so only rounding may differ."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("inward", [False, True], ids=["outward", "inward"])
    @pytest.mark.parametrize("energy", [-5.0, 30.0])
    def test_matches_stagewise_rk4(self, seed, inward, energy):
        args = _random_grid(seed)
        got = _one_chain(args, energy, 1.0, -0.5, True, inward)
        want = _reference(args, energy, 1.0, -0.5, True, inward)
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
        got = _one_chain(args, -10.0, 1e249, 1e249, True, inward)
        want = _reference(args, -10.0, 1e249, 1e249, True, inward)
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
        got = _one_chain(args, 30.0, 1.0, -0.5, True, inward)
        want = _reference(args, 30.0, 1.0, -0.5, True, inward)
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
        got = _one_chain(args, 30.0, 0.0, 1.0, True, inward)
        want = _reference(args, 30.0, 0.0, 1.0, True, inward)
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


class TestStepTable:
    """`_step_table` holds each step's RK4 matrix as P + E (Q + E R), which
    is the stage-by-stage closed form rearranged: the two agree to rounding
    at any energy, and `_sweep` reads an inward step from the same column."""

    @staticmethod
    def _direct(h, q0, qm, q1):
        """The RK4 step matrix of the `_step_table` docstring, entries 00,
        01, 10, 11, straight from h and q = W - E."""
        return np.array([1.0 + h**2 * (q0 + 2.0 * qm) / 6.0 + h**4 * qm * q0 / 24.0,
                         h * (1.0 + h**2 * qm / 6.0),
                         h / 6.0 * (q0 + 4.0 * qm + q1 + h**2 * qm * (q0 + q1) / 2.0),
                         1.0 + h**2 * (2.0 * qm + q1) / 6.0 + h**4 * qm * q1 / 24.0])

    @pytest.fixture(scope="class")
    def grid(self):
        """A grid with a log-uniform core, a uniform well and a coarser tail;
        W at every node and midpoint, and two steps of each part."""
        prob, grid, _ = TestWarmStart._grid(PotentialSpec(a1=1.0, terms=((1.0, 4.0),
                                                                         (1.0, 6.0))))
        r = grid.r
        wm = prob.w(0.5 * (r[:-1] + r[1:]))
        log_core = np.flatnonzero(r[1:] <= 0.5)
        tail = np.flatnonzero(np.diff(grid.h) > 1e-9)[-1] + 1  # first tail step
        well = np.flatnonzero(r[:-1] > 1.0)[0]
        picks = [log_core[0], log_core[-1], well, well + 1, tail, grid.steps - 1]
        assert r[tail] > r[well] > 1.0 and grid.h[tail] > 2.0 * grid.h[well]
        return grid, wm, picks

    @pytest.mark.parametrize("energy", [-10.0, 0.0, 3.0, 30.0, 4e4])
    def test_rows_match_the_direct_formula(self, grid, energy):
        # relative to each step's largest entry: an entry near zero is a
        # cancellation in either form
        grid, wm, _ = grid
        wn, h, t = grid.wn, grid.h, grid.table
        want = self._direct(h, wn[:-1] - energy, wm - energy, wn[1:] - energy)
        got = t[0] + energy * (t[1] + energy * t[2])
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want).max(axis=0))

    @pytest.mark.parametrize("energy", [-10.0, 0.0, 3.0, 30.0, 4e4])
    def test_one_step_chains_read_the_table(self, grid, energy):
        # the columns of a step's matrix from the unit states, outward
        # exactly as tabulated, inward as the direct formula with h -> -h
        # and q0 <-> q1
        grid, wm, picks = grid
        wn, h, t = grid.wn, grid.h, grid.table
        for i in picks:
            q0, qm, q1 = wn[i] - energy, wm[i] - energy, wn[i + 1] - energy
            tabulated = t[0, :, i] + energy * (t[1, :, i] + energy * t[2, :, i])
            for (a, b), want in (((i, i + 1), tabulated),
                                 ((i + 1, i), self._direct(-h[i], q1, qm, q0))):
                ends = oracle._sweep(t, [(energy, 1.0, 0.0, a, b),
                                         (energy, 0.0, 1.0, a, b)], range(2))
                got = np.array([ends[0][0], ends[1][0], ends[0][1], ends[1][1]])
                assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want).max())
            # inward, the same column's (M11, -M01, -M10, M00), bit for bit
            assert np.array_equal(got[[3, 1, 2, 0]] * [1, -1, -1, 1], tabulated)


class TestMatchingNode:
    """`_Grid.matching_node` finds the last node with W < E by binary search
    on the least W from each node on."""

    @staticmethod
    def _scan(grid, energy):
        """The same node by a scan of every node."""
        below = grid.wn < energy
        im = len(grid.wn) - 1 - int(np.argmax(below[::-1])) if below.any() else grid.steps // 2
        return min(max(im, 3), grid.steps - 3)

    @pytest.mark.parametrize("terms", [(), ((-7.0, 4.0), (49.0, 6.0)), ((0.1, 2.5),)])
    def test_same_node_as_a_scan(self, terms):
        _, grid, _ = TestWarmStart._grid(PotentialSpec(a1=1.0, terms=terms))
        rng = np.random.default_rng(0)
        lo, hi = grid.wn.min(), grid.wn.max()
        energies = np.concatenate([rng.uniform(lo - 1.0, 60.0, 200),
                                   rng.choice(grid.wn, 50), [lo, hi, np.inf]])
        for e in energies:
            assert grid.matching_node(float(e)) == self._scan(grid, e)


def _sign_count(outward, inward):
    """The node count of a matching pair's end states (y, y', nodes) by the
    signs at the matching node: n_out + n_in, plus 1 where s_out s_in W < 0
    for the Wronskian W = y'_out y_in - y'_in y_out and s the sign of y (of
    y' where y is 0), and plus 1 where the outward y is exactly 0.  The
    states are first scaled to unit size, so that no product overflows."""
    (o1, o2, n_out), (i1, i2, n_in) = outward, inward
    o1, o2 = _normalized(o1, o2)
    i1, i2 = _normalized(i1, i2)
    s = math.copysign(1.0, o1 or o2) * math.copysign(1.0, i1 or i2)
    return n_out + n_in + (o1 == 0.0 or s * (o2 * i1 - i2 * o1) < 0.0)


class TestProbe:
    """`_Grid.probe` counts an energy's nodes from its matching pair alone,
    as n_out + n_in + [theta_out > theta_in] at the matching node: the count
    of one outward sweep over the whole grid."""

    # a1 = 1 potentials: those of EXACT, each with its levels' exact
    # energies, and spiked r^2 + lam r^-alpha at levels 0-3, whose energies
    # the oracle gives
    POTENTIALS = [(terms, tuple(e for t, _, e in EXACT if t == terms))
                  for terms in dict.fromkeys(t for t, _, _ in EXACT)]
    POTENTIALS += [(((0.1, 2.5),), None), (((4.0, 4.0),), None), (((1000.0, 6.0),), None)]

    @pytest.mark.parametrize("scale", [1.0, 2.0])
    @pytest.mark.parametrize("terms,levels", POTENTIALS)
    def test_same_count_as_a_whole_outward_sweep(self, terms, levels, scale):
        tol = 1e-6
        v = PotentialSpec(a1=1.0, terms=terms)
        if levels is None:
            levels = [shoot_eigenvalue(v, k, tol=tol).energy for k in range(4)]
        # the grid shoot_eigenvalue builds for the highest level
        prob = oracle._RadialProblem(v)
        e_cap = prob.floor(oracle._CAP_PROBE) + max(4.0 * (2 * len(levels) + 1), 20.0)
        dom = oracle._Domain(prob, oracle._choose_r_min(prob, e_cap),
                             oracle._choose_r_max(prob, e_cap, tol), e_cap, tol)
        grid = oracle._Grid(dom, scale, oracle._Tally())
        assert max(levels) < e_cap
        energies = [*np.linspace(grid.w_floor, e_cap, 200).tolist(),
                    *(e + d for e in levels for d in (-tol, tol))]
        probed = [n for _, n, _ in grid.probe(*energies)]
        whole = [n for _, _, n in grid.sweep([(e, grid.steps, False) for e in energies],
                                             count_nodes=True)]
        assert probed == whole
        assert probed[:200] == sorted(probed[:200]) and probed[199] >= len(levels)

    @pytest.mark.parametrize("count_nodes", [False, True])
    def test_mismatch_of_the_matching_pair(self, count_nodes):
        # the Wronskian of the pair over the sizes of both end states, the
        # same with or without node counting
        _, grid, _ = TestWarmStart._grid(PotentialSpec(a1=1.0, terms=((1.0, 4.0),)))
        for e in (2.0, 5.0, 9.5):
            im = grid.matching_node(e)
            (o1, o2, _), (i1, i2, _) = grid.sweep([(e, im, False), (e, im, True)])
            ((energy, _, f),) = grid.probe(e, count_nodes=count_nodes)
            assert energy == e
            assert f == (o2 * i1 - i2 * o1) / ((abs(o1) + abs(o2)) * (abs(i1) + abs(i2)))

    def test_mismatch_of_states_near_1e200(self):
        # the kernel lets states grow to 1e250 before it rescales them; the
        # mismatch scales each to unit size first, so its products of two
        # states cannot overflow to nan
        for o2, i2, sign in ((2.0, -1.0, 1.0), (-2.0, 1.0, -1.0)):
            ends = (1e200, o2 * 1e200, 0), (1e200, i2 * 1e200, 0)
            _, f = oracle._matched(*ends)
            # y'_out y_in - y'_in y_out = (o2 - i2) 1e400 over the states'
            # sizes 3e200 and 2e200
            assert f == pytest.approx(sign * 0.5, rel=1e-15)

    def test_angles_agree_with_the_signs(self):
        # states up to the kernel's 1e250, where unscaled products of two
        # states overflow to nan (and down to 1e-100), exact zeros of y',
        # and parallel states (a root of the mismatch, whose level is not
        # below the energy)
        rng = np.random.default_rng(0)
        for k in range(2000):
            sizes = 10.0 ** rng.uniform(-100, 250, 2).repeat(2)
            o1, o2, i1, i2 = (rng.normal(size=4) * sizes).tolist()  # the kernel's floats
            if k % 10 == 0:
                o2 = 0.0
            elif k % 10 == 1:
                i2 = 0.0
            elif k % 10 == 2:
                i1, i2 = math.ldexp(o1, -3 * (k % 7)), math.ldexp(o2, -3 * (k % 7))
            elif k % 10 == 3:
                i1, i2 = -8.0 * o1, -8.0 * o2
            ends = (o1, o2, int(rng.integers(4))), (i1, i2, int(rng.integers(4)))
            assert oracle._matched(*ends)[0] == _sign_count(*ends)

    @pytest.mark.parametrize("dy", [1.0, -1.0])
    @pytest.mark.parametrize("other", [(0.7, -0.2, 2), (-0.3, 1.5, 0), (2.0, 0.0, 1)])
    def test_exact_zero_at_the_matching_node(self, dy, other):
        # an exact zero of y counts as a zero just passed and as one just
        # ahead do: outward, a passed zero is counted and leaves y of the
        # sign of y'; inward, running toward r_min, it leaves the other sign
        tiny = 1e-200
        for side, passed in ((0, 1.0), (1, -1.0)):
            states = {
                "exact": (0.0, dy, 3),
                "passed": (passed * tiny * dy, dy, 4),
                "ahead": (-passed * tiny * dy, dy, 3),
            }
            counts = {}
            for name, state in states.items():
                ends = (state, other) if side == 0 else (other, state)
                counts[name] = oracle._matched(*ends)[0]
                assert counts[name] == _sign_count(*ends)
            assert counts["exact"] == counts["passed"] == counts["ahead"]

    def test_zero_on_both_sides(self):
        # y = 0 on both sides is a root of the mismatch: an eigenvalue,
        # counted as the limit from below (the zero ahead on either side)
        for dy_out, dy_in in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)):
            n, f = oracle._matched((0.0, dy_out, 2), (0.0, dy_in, 1))
            assert f == 0.0 and n == 4
            assert n == oracle._matched((-1e-200 * dy_out, dy_out, 2), (0.0, dy_in, 1))[0]
            assert n == oracle._matched((0.0, dy_out, 2), (1e-200 * dy_in, dy_in, 1))[0]


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
        grids = [_random_grid(10 + k, steps=steps, r1=min(6.0, 0.05 + 0.003 * steps))
                 for k, steps in enumerate(lengths)]
        energies = (4e4, 30.0, -5.0, 10.0)[:len(lengths)]
        y1s = (1.0, 0.0, np.float64(0.3), -2.0)[:len(lengths)]
        y2s = (-0.5, 1.0, 0.0, 1e249)[:len(lengths)]
        inward = [k % 2 == 1 for k in range(len(lengths))]
        alone = [_one_chain(*x) for x in zip(grids, energies, y1s, y2s,
                                              [count_nodes] * len(lengths), inward)]
        # the grids' step tables side by side, each chain on its own columns
        table = np.concatenate([oracle._step_table(h, wn, wm) for wn, wm, h in grids],
                               axis=-1)
        ends = np.cumsum((0,) + lengths)
        runs = [(e, y1, y2, b, a) if back else (e, y1, y2, a, b)
                for e, y1, y2, a, b, back in zip(energies, y1s, y2s, ends[:-1], ends[1:],
                                                 inward)]
        joined = oracle._sweep(table, runs, range(sum(lengths)), count_nodes)
        assert joined == alone
        assert all(type(y) is float for y1, y2, _ in joined for y in (y1, y2))
        if count_nodes:
            assert any(nodes for _, _, nodes in alone)

    def test_one_call_per_matching_evaluation(self, monkeypatch):
        # outward and inward halves together: all of the grid's steps per
        # energy at once; the warm pair's probe counts nodes, Brent's do not
        prob, grid, e_cap = TestWarmStart._grid(PotentialSpec(a1=1.0))
        sweep = oracle._sweep
        calls = []

        def counted(*args):
            calls.append((len(args[2]), args[3]))
            return sweep(*args)

        monkeypatch.setattr(oracle, "_sweep", counted)
        oracle._solve_at_density(prob, grid, 0, 1e-6, e_cap, prior=3.0)
        assert grid._tally.sweeps == len(calls)
        # the warm pair's node counts and mismatches in one call, then Brent's
        assert calls[0] == (2 * grid.steps, True)
        assert len(calls) > 1 and set(calls[1:]) == {(grid.steps, False)}


class TestRarePaths:
    """Paths that few inputs take, each ending in a value within
    [E - 2 tol, bound] or one ShootingError."""

    @staticmethod
    def _caps(monkeypatch) -> list[float]:
        """The energy caps the call sizes its domain for, in order."""
        caps = []
        choose = oracle._choose_r_max

        def spy(prob, e_cap, tol):
            caps.append(e_cap)
            return choose(prob, e_cap, tol)

        monkeypatch.setattr(oracle, "_choose_r_max", spy)
        return caps

    def test_energy_cap_expands_up_to_the_level(self, monkeypatch):
        # -10/r sinks the probed floor to ~ -1000, ~975 below the level, so
        # the cap's margin of 20 above the floor doubles six times
        v = PotentialSpec(a1=1.0, terms=((-10.0, 1.0), (1e-6, 4.0)))
        caps = self._caps(monkeypatch)
        res = shoot_eigenvalue(v, 0, tol=1e-6)
        assert len(caps) == 7 and caps == sorted(set(caps))
        fine = shoot_eigenvalue(v, 0, tol=1e-8)
        assert fine.energy - 2e-6 <= res.energy <= minimize_bound(v, 20).bound

    def test_node_search_stops_at_the_energy_cap(self, monkeypatch):
        # -100/r sinks the probed floor to ~ -2.2e4: one doubling of the
        # node search's upper end from there jumps past the cap of -1449
        # that already holds the level, so it searches up to the cap itself
        v = PotentialSpec(a1=1.0, terms=((-100.0, 1.0), (1e-6, 4.0)))
        caps = self._caps(monkeypatch)
        res = shoot_eigenvalue(v, 0, tol=1e-6)
        assert len(caps) == 11 and caps == sorted(set(caps))
        assert res.energy <= caps[-1]
        fine = shoot_eigenvalue(v, 0, tol=1e-8)
        assert fine.energy - 2e-6 <= res.energy <= minimize_bound(v, 40).bound

    def test_floor_search_stays_below_the_energy_cap(self, monkeypatch):
        # at a1 ~ 2e-4 the energy cap lies ~0.3 above the grid's floor: the
        # node search's first upper end, 4 sqrt(a1) (level + 1) above that
        # floor, stays below it, so that no probe counts the nodes of an
        # energy above W(r_max), where the cutoff rather than the potential
        # sets the count
        v = PotentialSpec(a1=0.00019416807600066747,
                          terms=((8.113979328046124e-08, 6.0),), N=5)
        caps, above = [], []
        solve, probe = oracle._solve_at_density, oracle._Grid.probe

        def solve_spy(prob, grid, level, tol, e_cap, prior=None):
            caps.append(e_cap)
            return solve(prob, grid, level, tol, e_cap, prior)

        def probe_spy(grid, *energies, count_nodes=True):
            above.extend(e for e in energies if e > caps[-1])
            return probe(grid, *energies, count_nodes=count_nodes)

        monkeypatch.setattr(oracle, "_solve_at_density", solve_spy)
        monkeypatch.setattr(oracle._Grid, "probe", probe_spy)
        shoot_eigenvalue(v, 1)
        assert caps and above == []

    def test_energy_cap_expansion_gives_up(self, monkeypatch):
        # the level sits ~5e5 above a floor of -2.6e6, past twelve doublings
        # of the cap's margin of 20
        v = PotentialSpec(a1=0.41026503895141375,
                          terms=((1.0682102871782548e-06, 4.434396315485245),
                                 (-61071.7322960802, 0.6936741410163838)), l=2)
        caps = self._caps(monkeypatch)
        with pytest.raises(ShootingError, match="energy cap expansion failed"):
            shoot_eigenvalue(v, 0)
        assert len(caps) == 12

    def test_node_count_failure_under_refinement(self):
        # a well ~2.1e6 deep, whose level `eig` bounds at -2095455.19317
        # from D = 8 on: every grid counts nodes at the potential floor
        v = PotentialSpec(a1=255473.1262248806,
                          terms=((-250475.69493172743, 6.0),
                                 (12106.104526825427, 10.907297012934574)), N=5, l=2)
        with pytest.raises(ShootingError, match="node-count monotonicity"):
            shoot_eigenvalue(v, 0)


class TestScaleIdentity:
    """r = a1^(-1/4) x maps a1 r^2 + lam r^-alpha to sqrt(a1) times
    x^2 + lam a1^((alpha - 2)/4) x^-alpha: below a1 = 1 the energy cap's
    least margin follows the energy scale sqrt(a1)."""

    @pytest.mark.parametrize("a1,lam,alpha,level", [
        (0.01, 1.0, 4.0, 0),
        (1e-4, 1.0, 6.0, 1),
        (0.2, 3.0, 2.5, 2),
        (0.05, 100.0, 6.0, 0),
        (1e-3, 1e-3, 4.0, 0),
    ])
    def test_energy_is_root_a1_times_the_unit_scale_one(self, a1, lam, alpha, level):
        tol = 1e-8
        res = shoot_eigenvalue(PotentialSpec(a1=a1, terms=((lam, alpha),)), level, tol=tol)
        unit = shoot_eigenvalue(
            PotentialSpec(a1=1.0, terms=((lam * a1 ** ((alpha - 2.0) / 4.0), alpha),)),
            level, tol=tol / np.sqrt(a1))
        assert abs(res.energy - np.sqrt(a1) * unit.energy) <= 4.0 * tol


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

    def test_bad_domain(self, monkeypatch):
        # cutoffs in the wrong order, as a narrow well one probe missed
        # could leave them
        fixed_cutoff(monkeypatch, r_min=2.0, r_max=1.0)
        with pytest.raises(ValueError, match="invalid domain"):
            shoot_eigenvalue(PotentialSpec(a1=1.0), 0)

    def test_refinement_cap_reported(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_REFINE", 0)
        v = PotentialSpec(a1=1.0, terms=((0.1, 4.0),))
        with pytest.raises(ShootingError, match="within 0 grid doublings"):
            shoot_eigenvalue(v, 0, tol=1e-13)


class TestBackend:
    def test_backend_reported(self):
        assert BACKEND == "pure"
