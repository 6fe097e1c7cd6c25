"""Bound minimization: reference values, invariants, closed forms."""

import math
import random

import numpy as np
import pytest

from modelref import gk_energy
from nmref import nelder_mead as nelder_mead_ref
from polishref import golden_polish as golden_polish_ref
from spikevar import optimizer
from spikevar.basis import ModelParams
from spikevar.eigensolver import eigen_symmetric
from spikevar.hamiltonian import PotentialSpec, assemble
from spikevar.optimizer import (
    converge_to_digits,
    feasible_A_min,
    ground_state_first_order,
    minimize_bound,
)
from spikevar.oracle import shoot_eigenvalue
from spikevar.tables import TableJob, builtin_job, run_table

SPIKE_01_4 = PotentialSpec(a1=1.0, terms=((0.1, 4.0),))


class TestFeasibility:
    def test_floor_from_strongest_singularity(self):
        v = PotentialSpec(a1=1.0, terms=((1.0, 6.0),), N=2, l=0)
        # alpha=6, Lambda+1/2 = 0: A_min = 4 (+margin)
        assert feasible_A_min(v) == pytest.approx(4.0, abs=1e-5)

    def test_floor_clamps_at_zero(self):
        assert feasible_A_min(PotentialSpec(a1=1.0)) == 0.0
        v = PotentialSpec(a1=1.0, terms=((1.0, 2.0),))
        assert feasible_A_min(v) == 0.0

    def test_floor_counts_the_counter_term(self):
        # N = 2 puts gamma_N = 1 at A = 0, where the -A r^-2 element diverges
        v = PotentialSpec(a1=1.0, N=2)
        a_min = feasible_A_min(v)
        assert 0.0 < a_min < 1e-12
        assert ModelParams(a_min, 1.0, 2, 0).gamma_N > 1.0
        assert feasible_A_min(PotentialSpec(a1=1.0, N=2, l=1)) == 0.0

    def test_probes_stay_feasible(self):
        v = PotentialSpec(a1=1.0, terms=((10.0, 6.0),))
        res = minimize_bound(v, 4)
        lam = v.Lambda
        g = 1.0 + math.sqrt(res.A_star + (lam + 0.5) ** 2)
        assert 2.0 * g > 6.0 + 1e-6


    def test_overflowing_start_names_a1(self):
        # the start B = 4 a1 overflows to inf, whose log the simplex would
        # turn into inf - inf
        v = PotentialSpec(a1=1e308, terms=((1.0, 4.0),))
        with pytest.raises(ValueError, match=r"a1 = 1e\+308 .*overflows"):
            minimize_bound(v, 10)

    @pytest.mark.parametrize("kwargs, message", [
        ({"init": (math.inf, 1.0)}, "init A must be finite"),
        ({"init": (5.0, 0.0)}, "init B must be finite and > 0"),
        ({"init": (5.0, math.nan)}, "init B must be finite and > 0"),
        ({"init": (math.nan, 1.0)}, "init A must be finite"),
        ({"init": (-math.inf, 1.0)}, "init A must be finite"),
        ({"init": (5.0, math.inf)}, "init B must be finite and > 0"),
        ({"init": (5.0, -3.0)}, "init B must be finite and > 0"),
    ])
    def test_bad_init_or_fix_B_is_named(self, kwargs, message, monkeypatch):
        # refused before any start is built or any matrix assembled
        def no_assembly(*args):
            raise AssertionError("assembled")

        monkeypatch.setattr(optimizer, "assemble", no_assembly)
        with pytest.raises(ValueError, match=message):
            minimize_bound(SPIKE_01_4, 5, **kwargs)


class TestTableValues:
    def test_one_by_one_two_parameter(self):
        res = minimize_bound(SPIKE_01_4, 1)
        assert res.bound == pytest.approx(3.664281, abs=5e-7)
        assert res.converged

    def test_one_by_one_a_only(self):
        res = minimize_bound(SPIKE_01_4, 1, fix_B=True)
        assert res.bound == pytest.approx(3.745811, abs=5e-7)
        assert res.B_star == 1.0

    def test_d10_two_parameter(self):
        res = minimize_bound(SPIKE_01_4, 10)
        assert res.bound == pytest.approx(3.582194, abs=5e-7)

    def test_bounds_sorted_and_incumbent(self):
        res = minimize_bound(SPIKE_01_4, 8)
        assert np.all(np.diff(res.bounds) >= 0)
        assert res.bounds[res.target_level] == res.bound

    def test_model_exact_basis_stops_at_exact_value(self):
        # potential == model: the bound equals the exact level at the optimum
        A0, B0 = 2.0, 3.0
        v = PotentialSpec(a1=B0, terms=((A0, 2.0),))
        exact = gk_energy(ModelParams(A0, B0), 0)
        res = minimize_bound(v, 1)
        assert res.bound <= exact + 1e-9
        assert res.bound == pytest.approx(exact, abs=1e-7)

    def test_excited_level_target(self):
        v = PotentialSpec(a1=2.0, terms=((1.5, 2.0),))
        exact = gk_energy(ModelParams(1.5, 2.0), 2)
        res = minimize_bound(v, 4, target_level=2)
        assert res.bound <= exact + 1e-9
        assert res.bound == pytest.approx(exact, abs=1e-6)


class TestFirstOrder:
    def test_a_only_value(self):
        assert ground_state_first_order(1000.0, "a") == pytest.approx(
            21.427793, abs=5e-7
        )

    def test_two_parameter_value(self):
        assert ground_state_first_order(1000.0, "ab") == pytest.approx(
            21.374087, abs=5e-7
        )

    def test_radical_matches_direct_minimization(self):
        # independent route: dense scan + golden-section polish over A
        lam = 1000.0

        def objective(g):
            return g + 1.0 + lam / ((g - 1) * (g - 2)) + 1.0 / (4.0 * (g - 1))

        gs = np.linspace(2.001, 60.0, 300000)
        k = int(np.argmin(objective(gs)))
        lo, hi = gs[k - 1], gs[k + 1]
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c_, d_ = b - phi * (b - a), a + phi * (b - a)
        for _ in range(200):
            if objective(c_) < objective(d_):
                b, d_ = d_, c_
                c_ = b - phi * (b - a)
            else:
                a, c_ = c_, d_
                d_ = a + phi * (b - a)
        assert ground_state_first_order(lam, "a") == pytest.approx(
            objective(0.5 * (a + b)), abs=1e-9
        )

    def test_ab_never_above_a(self):
        for lam in (0.5, 3.0, 100.0, 1000.0):
            assert ground_state_first_order(lam, "ab") <= ground_state_first_order(
                lam, "a"
            ) + 1e-10

    @pytest.mark.parametrize("lam", [1e-30, 1e-40, 1e-50, 1e-300])
    def test_ab_tiny_coupling_reaches_g_to_2_limit(self, lam):
        # on the way to the lam -> 0 infimum sqrt(10), g = 2 + e^u rounds to
        # 2, and below ~1e-47 so does the second start 2 + 2 lam^(1/3)
        assert ground_state_first_order(lam, "ab") == pytest.approx(
            math.sqrt(10.0), abs=1e-12
        )

    def test_large_coupling_stays_finite(self):
        assert ground_state_first_order(1e200, "a") == pytest.approx(
            8.77205321e66, rel=1e-8)

    def test_radical_as_a_product_moves_at_most_one_ulp(self):
        def former(lam):  # the radical written as sqrt(4 lam^2 - lam)
            u = 8.0 * lam - 1.0 + 4.0 * math.sqrt(4.0 * lam * lam - lam)
            cbrt = u ** (1.0 / 3.0)
            x = 0.5 * (cbrt + 1.0 / cbrt)
            g = x + 1.5
            return g + 1.0 + lam / ((g - 1.0) * (g - 2.0)) + 1.0 / (4.0 * (g - 1.0))

        assert ground_state_first_order(1000.0, "a") == former(1000.0)
        for lam in np.concatenate([0.25 + np.geomspace(1e-9, 1.0, 40),
                                   np.geomspace(1.0, 1e12, 60)]):
            lam = float(lam)
            value = ground_state_first_order(lam, "a")
            assert abs(value - former(lam)) <= math.ulp(value)

    def test_validity_range(self):
        with pytest.raises(ValueError):
            ground_state_first_order(0.25, "a")
        with pytest.raises(ValueError):
            ground_state_first_order(0.1, "a")
        with pytest.raises(ValueError):
            ground_state_first_order(-1.0, "ab")
        with pytest.raises(ValueError):
            ground_state_first_order(1.0, "weird")
        for mode in ("a", "ab"):
            with pytest.raises(ValueError, match="finite"):
                ground_state_first_order(math.inf, mode)
        # the two-parameter route has no such restriction
        assert ground_state_first_order(0.1, "ab") > 0


class TestMonotonicity:
    def test_fixed_basis_truncation_is_monotone(self):
        v = PotentialSpec(a1=1.0, terms=((5.0, 4.0),))
        p = ModelParams(6.0, 2.0, 3, 0)
        lows = [
            eigen_symmetric(assemble(p, v, D), k=1).values[0]
            for D in (2, 4, 8, 16, 32)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(lows, lows[1:]))

    def test_optimized_bounds_monotone_along_schedule(self):
        run = converge_to_digits(SPIKE_01_4, 0, 9, (2, 4, 8, 16), budget=1500)
        bounds = [r.bound for _, r in run.history]
        assert all(b <= a + 1e-12 for a, b in zip(bounds, bounds[1:]))


class TestConvergeToDigits:
    def test_stops_on_agreement(self):
        run = converge_to_digits(SPIKE_01_4, 0, 1, (1, 10, 20, 100))
        # |3.582194 - 3.576773| < 0.05: stops at D = 20
        assert run.converged
        assert run.D_used == 20
        assert len(run.history) == 3

    def test_model_exact_stops_immediately(self):
        v = PotentialSpec(a1=2.0, terms=((1.0, 2.0),))
        run = converge_to_digits(v, 0, 6, (1, 2, 4))
        assert run.converged
        assert run.D_used == 2

    def test_exhausted_schedule_reports_nonconverged(self):
        run = converge_to_digits(SPIKE_01_4, 0, 8, (1, 10))
        assert not run.converged
        assert run.D_used == 10

    def test_bad_schedule_rejected(self):
        with pytest.raises(ValueError):
            converge_to_digits(SPIKE_01_4, 0, 6, ())
        with pytest.raises(ValueError):
            converge_to_digits(SPIKE_01_4, 0, 6, (4, 4))


def _oracle_draws(seed: int, count: int):
    """(lam, alpha, N, l, level) of r^2 + lam r^-alpha, lam log-uniform on
    [0.01, 100]."""
    rng = random.Random(seed)
    return [(10.0 ** rng.uniform(-2.0, 2.0), rng.choice((2.5, 3.3, 4.0, 6.0)),
             rng.randint(2, 5), rng.randint(0, 2), rng.randint(0, 3))
            for _ in range(count)]


class TestExcitedLevelsAgainstOracle:
    """Excited levels and l > 0 channels of singular potentials: every bound
    of a short schedule sits above the shooting oracle, and falls in D."""

    TOL = 1e-8

    @pytest.mark.parametrize("lam, alpha, N, l, level", _oracle_draws(0, 10),
                             ids=lambda x: f"{x:.4g}" if isinstance(x, float) else str(x))
    def test_bounds_above_oracle_and_falling(self, lam, alpha, N, l, level):
        v = PotentialSpec(a1=1.0, terms=((lam, alpha),), N=N, l=l)
        run = converge_to_digits(v, level, 12, (10, 20))
        oracle = shoot_eigenvalue(v, level, tol=self.TOL).energy
        (D10, res10), (D20, res20) = run.history
        assert (D10, D20) == (10, 20)
        for _, res in run.history:
            assert res.bound >= oracle - 2.0 * self.TOL
        assert res20.bound <= res10.bound


class TestConvergeHistorySlow:
    @pytest.mark.slow
    def test_history_tracks_reference_column(self):
        # optimized bounds along (1, 10, 20, 100, 200) against the printed
        # two-parameter column; the D=100 cell's printed digits are truncated
        # (true figure 3.5755529), hence the one-last-digit tolerance there
        refs = {1: (3.664281, 5e-7), 10: (3.582194, 5e-7),
                20: (3.576773, 5e-7), 100: (3.575552, 1e-6),
                200: (3.575552, 5e-7)}
        run = converge_to_digits(SPIKE_01_4, 0, 6, (1, 10, 20, 100, 200),
                                 budget=6000)
        assert run.D_used == 200
        for D, res in run.history:
            ref, tol = refs[D]
            assert res.bound == pytest.approx(ref, abs=tol), D


class TestBudget:
    def test_budget_exhaustion_flagged(self):
        res = minimize_bound(SPIKE_01_4, 6, budget=12)
        assert not res.converged
        assert res.evaluations <= 12

    @pytest.mark.parametrize("budget", range(3, 61))
    def test_evaluations_never_exceed_budget(self, budget):
        # a run's share can end before an expansion, a contraction or
        # inside a shrink, not only at the top of an iteration
        assert minimize_bound(SPIKE_01_4, 6, budget=budget).evaluations <= budget

    def test_simplex_without_budget_asks_nothing(self):
        def evaluate(xs):
            pytest.fail("asked a point")

        got = optimizer._run([optimizer._nelder_mead([0.3, -0.2])], {}, evaluate, 0)
        assert got == [([0.3, -0.2], math.inf, 0, False)]

    def test_search_with_no_finite_value_returns_its_first_start(self, monkeypatch):
        monkeypatch.setattr(optimizer, "_values",
                            lambda v, D, level, points: [math.inf] * len(points))
        res = minimize_bound(SPIKE_01_4, 6, budget=200)
        first_start = (feasible_A_min(SPIKE_01_4) + 1.0, SPIKE_01_4.a1)
        assert (res.A_star, res.B_star) == pytest.approx(first_start)
        assert (res.evaluations, res.converged) == (200, False)

    def test_deterministic_given_inputs(self):
        r1 = minimize_bound(SPIKE_01_4, 6)
        r2 = minimize_bound(SPIKE_01_4, 6)
        assert r1.A_star == r2.A_star
        assert r1.B_star == r2.B_star
        assert np.array_equal(r1.bounds, r2.bounds)


class TestStuckSimplex:
    """A simplex run whose step moves no vertex stops there, where it used
    to ask for the same points until the search's budget ran out; the bound
    keeps the value it had then."""

    def test_collapsed_warm_start_stops(self):
        # the D=10 optimum's run collapses onto neighbouring floats at D=80
        row = next(r for r in builtin_job("table2").rows
                   if r.label == "lam=0.1 D=80 (A,B)")
        warm = minimize_bound(row.potential, 10, budget=800)
        res = minimize_bound(row.potential, 80, init=(warm.A_star, warm.B_star),
                             budget=3200)
        assert res.bound == pytest.approx(3.915665451360546, abs=1e-12)
        assert res.evaluations < 1000 and res.converged

    def test_start_clamped_at_A_min_stops(self):
        # init A below A_min starts at A_min + 1e-12, as `eig --init-A -100`
        res = minimize_bound(SPIKE_01_4, 5, init=(-100.0, 1.0))
        assert res.bound == pytest.approx(3.593767131701561, abs=1e-12)
        assert res.evaluations < 1000 and res.converged


def _simplex_runs(f, x0s, budget, batches=None):
    """`_run` over one simplex run per start in x0s, answering from f and
    recording the size of each batch in batches."""
    known = {}

    def evaluate(xs):
        if batches is not None:
            batches.append(len(xs))
        known.update((tuple(x), f(x)) for x in xs)

    return optimizer._run([optimizer._nelder_mead(x0) for x0 in x0s], known,
                          evaluate, budget)


def _rippled_bowl(seed: int, dim: int):
    """Seeded quadratic bowl plus a sine ripple; the ripple makes contraction
    fail now and then, so the simplex also takes its shrink branch."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-2.0, 2.0, dim).tolist()
    w = rng.uniform(0.5, 3.0, dim).tolist()
    amp, freq = rng.uniform(0.5, 2.0), rng.uniform(5.0, 20.0)

    def f(x):
        x = [float(t) for t in x]
        bowl = sum(wi * (xi - ci) ** 2 for wi, xi, ci in zip(w, x, c))
        return bowl + amp * math.sin(freq * sum(x))

    return f


class TestSimplexReference:
    """The float simplex, bounded by `_run`, repeats the numpy reference
    (tests/nmref.py) exactly."""

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("seed", range(6))
    def test_identical_at_every_budget(self, seed, dim):
        f = _rippled_bowl(seed, dim)
        x0 = np.random.default_rng(100 + seed).uniform(-3.0, 3.0, dim).tolist()
        scale = optimizer._SCALE
        full = nelder_mead_ref(f, x0, scale, 2000)
        assert full[3]
        # every budget up to the full run's count: exhaustion at each step,
        # inside the initial simplex, before an expansion or a contraction
        # and inside a shrink
        for budget in [*range(1, full[2] + 2), 2000]:
            want = nelder_mead_ref(f, x0, scale, budget)
            (got,) = _simplex_runs(f, [x0], budget)
            assert np.array(got[0]).tobytes() == want[0].tobytes(), budget
            assert got[1:] == want[1:], budget
            assert got[2] <= budget

    @pytest.mark.parametrize("lam", [0.001, 0.1, 1.0, 1000.0])
    def test_first_order_ab_unchanged(self, lam):
        # mode "ab", one reference simplex run per start
        def fn(x):
            g = 2.0 + math.exp(min(float(x[0]), 50.0))
            if g == 2.0:
                return math.inf
            b = math.exp(min(float(x[1]), 50.0))
            return g / b + b + lam * b * b / ((g - 1.0) * (g - 2.0)) + b / (
                4.0 * (g - 1.0))

        best = math.inf
        for g0, b0 in ((3.5, 1.0), (2.0 + 2.0 * lam ** (1.0 / 3.0), 1.0)):
            x = [math.log(max(g0 - 2.0, 1e-12)), math.log(b0)]
            best = min(best, nelder_mead_ref(fn, x, 0.5, 2000)[1])
        assert ground_state_first_order(lam, "ab").hex() == best.hex()


def _search_bits(res):
    return (res.A_star.hex(), res.B_star.hex(), res.bounds.tobytes(),
            res.evaluations, res.converged)


def _bits_batched_and_alone(monkeypatch, v, D, **kw):
    """The bits of one search with its points stacked as usual and with
    every point built alone, and the largest stack of the first."""
    stacks = []
    real_values = optimizer._values

    def values(v, D, level, points):
        stacks.append(len(points))
        return real_values(v, D, level, points)

    monkeypatch.setattr(optimizer, "_values", values)
    batched = minimize_bound(v, D, **kw)
    widest = max(stacks)
    monkeypatch.setattr(optimizer, "_BATCH_BYTES", 1)
    stacks.clear()
    alone = minimize_bound(v, D, **kw)
    assert max(stacks) == 1
    return batched, alone, widest


class TestEvaluationCaches:
    """Stacking a search's points into batches, the prescan's, the polish
    scans' and the simplex runs' side by side, changes no bit of it."""

    @pytest.mark.parametrize("table", ["table3", "table5"])
    def test_search_bitwise_equal_without_caches(self, table, monkeypatch):
        row = builtin_job(table).rows[0]
        batched, alone, widest = _bits_batched_and_alone(
            monkeypatch, row.potential, row.D, target_level=row.level,
            budget=max(2000, 40 * row.D))
        assert widest > 1
        assert _search_bits(batched) == _search_bits(alone)

    def test_memo_answers_repeated_points(self, monkeypatch):
        calls = []
        real = optimizer.assemble

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(optimizer, "assemble", counted)
        res = minimize_bound(SPIKE_01_4, 6)
        # every evaluation is counted, answered from the value table or not;
        # the final re-evaluation of the optimum is one assembly more
        assert len(calls) - 1 < res.evaluations


class TestLockstep:
    """Runs advanced side by side give each what it gives one after
    another, with the same bits, path and count."""

    @pytest.mark.parametrize("case", ["a_only", "warm_table4", "table2_lam10_D30"])
    def test_search_bitwise_equal_without_the_pass(self, case, monkeypatch):
        if case == "a_only":
            v, D, kw = SPIKE_01_4, 10, {"fix_B": True}
        elif case == "warm_table4":
            # a D=10 search of (1,100,100) on a budget it runs out of, on
            # which a run stops at its share
            row = next(r for r in builtin_job("table4").rows if r.label == "(1,100,100)")
            v, D, kw = row.potential, 10, {"budget": 250}
        else:
            # with an `init` start (a D=10 optimum, as `converge` passes the
            # previous step's), on a budget it runs out of, on which a run
            # stops at its share
            row = next(r for r in builtin_job("table2").rows
                       if r.label == "lam=10 D=30 (A,B)")
            warm = minimize_bound(row.potential, 10, budget=800)
            v, D, kw = row.potential, 30, {"init": (warm.A_star, warm.B_star),
                                           "budget": 350}

        on, off, widest = _bits_batched_and_alone(monkeypatch, v, D, **kw)
        assert widest > 1
        assert _search_bits(on) == _search_bits(off)
        if case != "a_only":  # a run stops at its share
            assert on.evaluations == kw["budget"] and not on.converged

    def test_overflowing_point_becomes_inf_alone(self):
        v = PotentialSpec(a1=1.0, terms=((1.0, 40.0),))  # gamma_N > 20
        points = [(400.0, 1.0), (400.0, 1e40), (450.0, 2.0)]
        with pytest.raises(OverflowError):  # beta^20 at B = 1e40
            assemble([ModelParams(A, B) for A, B in points], v, 10)
        got = optimizer._values(v, 10, 0, points)
        assert got[1] == math.inf
        assert all(math.isfinite(f) for f in got[::2])
        assert got == [optimizer._values(v, 10, 0, [p])[0] for p in points]

    def test_lockstep_answers_every_point_each_search_asks(self):
        f = _rippled_bowl(3, 2)
        x0s = ([0.3, -0.2], [1.5, 0.7])
        (first,) = _simplex_runs(f, x0s[:1], 2000)
        (second,) = _simplex_runs(f, x0s[1:], 2000)
        assert first[3] and second[3]
        # every budget up to both runs' counts: the first run cut short,
        # the second cut short or given no share at all
        for budget in range(first[2] + second[2] + 2):
            batches = []
            got = _simplex_runs(f, x0s, budget, batches)
            want = _simplex_runs(f, x0s[:1], budget)
            want += _simplex_runs(f, x0s[1:], budget - want[0][2])
            assert got == want, budget
            assert sum(run[2] for run in got) <= budget
            assert max(batches, default=0) <= 2
            if budget > first[2]:
                assert max(batches) == 2  # both runs ask side by side


class TestValueTable:
    """A search evaluates each transformed point once: every value it
    computes stays in its table, which every later request reads."""

    @pytest.mark.parametrize("case", ["table3_N2", "table2_lam10_D30", "a_only_D20"])
    def test_no_point_reaches_values_twice(self, case, monkeypatch):
        if case == "table3_N2":
            row = builtin_job("table3").rows[0]
            v, D, kw = row.potential, row.D, {}
        elif case == "table2_lam10_D30":
            row = next(r for r in builtin_job("table2").rows
                       if r.label == "lam=10 D=30 (A,B)")
            v, D, kw = row.potential, 30, {}
        else:
            v, D, kw = SPIKE_01_4, 20, {"fix_B": True}
        tables = []
        real_run = optimizer._run

        def run(searches, known, *args):
            tables.append(known)
            return real_run(searches, known, *args)

        points = []
        real_values = optimizer._values

        def values(v, D, level, batch):
            points.extend(batch)
            return real_values(v, D, level, batch)

        monkeypatch.setattr(optimizer, "_run", run)
        monkeypatch.setattr(optimizer, "_values", values)
        minimize_bound(v, D, **kw)
        (known,) = tables  # the one table of the search, filled to the end
        # each point evaluated went into the table under a key of its own
        assert len(points) == len(known)


# searches the polish finishes: table rows as `run_table` runs them (one
# search at the row's D), plus an A-only D=20 search and the `series`
# benchmark's default converge call
_POLISH_CASES = {
    "table3_N2": ("table3", "N=2"),
    "table4_111": ("table4", "(1,1,1)"),
    "table2_lam1000_D15": ("table2", "lam=1000 D=15 (A,B)"),
}
_ROW_CASES = {**_POLISH_CASES, "table2_lam10_D30": ("table2", "lam=10 D=30 (A,B)")}


def _run_case(case):
    """(bound, evaluations) of one case with the search in place now."""
    if case == "series":
        run = converge_to_digits(PotentialSpec(a1=1.0, terms=((0.1, 2.5),)),
                                 0, 6, (10, 20))
        return run.bound, sum(res.evaluations for _, res in run.history)
    if case == "a_only_D20":
        res = minimize_bound(SPIKE_01_4, 20, fix_B=True)
        return res.bound, res.evaluations
    tid, label = _ROW_CASES[case]
    row = next(r for r in builtin_job(tid).rows if r.label == label)
    (res,) = run_table(TableJob(tid, (row,))).rows
    return res.bound, res.evaluations


def _recorded_polish(monkeypatch):
    """Record (x in, x out, evaluations used) of every polish call."""
    calls = []
    polish = optimizer._golden_polish

    def recorded(fn, x, f, budget, evaluate):
        out = polish(fn, x, f, budget, evaluate)
        calls.append((x, out[0], out[2]))
        return out

    monkeypatch.setattr(optimizer, "_golden_polish", recorded)
    return calls


def _polish_lines(x):
    """Line searches of a polish that its budget does not cut short."""
    return len(optimizer._POLISH_WIDTHS) * len(x)


class TestPolish:
    """A line runs its golden section only after a scan has moved the
    incumbent; the reference (tests/polishref.py) runs it on every line."""

    @pytest.mark.parametrize("case", [*_POLISH_CASES, "a_only_D20", "series"])
    def test_no_higher_and_no_dearer_than_every_line_golden(self, case,
                                                            monkeypatch):
        bound, evaluations = _run_case(case)
        monkeypatch.setattr(optimizer, "_golden_polish", golden_polish_ref)
        ref_bound, ref_evaluations = _run_case(case)
        assert bound <= ref_bound + 1e-10
        assert evaluations <= ref_evaluations

    @pytest.mark.parametrize("case", ["table3_N2", "a_only_D20"])
    def test_confirming_scans_cost_their_points_alone(self, case, monkeypatch):
        calls = _recorded_polish(monkeypatch)
        _run_case(case)
        ((x, x_out, used),) = calls
        assert x_out == x
        assert used == optimizer._POLISH_POINTS * _polish_lines(x)

    @pytest.mark.parametrize("case", ["table4_111", "table2_lam1000_D15"])
    def test_hop_rows_still_run_golden_steps(self, case, monkeypatch):
        calls = _recorded_polish(monkeypatch)
        _run_case(case)
        ((x, x_out, used),) = calls  # the row's one search
        assert x_out != x
        assert used > optimizer._POLISH_POINTS * _polish_lines(x)


class TestStopRule:
    """The simplex stops at the diameter its value test already sets,
    sqrt(_FTOL); shrinking on to the former 1e-7 costs evaluations and
    moves no bound by more than the value test's own spread."""

    @pytest.mark.parametrize("case", ["table3_N2", "table4_111",
                                      "table2_lam10_D30", "a_only_D20"])
    def test_no_higher_and_cheaper_than_the_former_diameter(self, case,
                                                            monkeypatch):
        bound, evaluations = _run_case(case)
        monkeypatch.setattr(optimizer, "_XTOL", 1e-7)
        ref_bound, ref_evaluations = _run_case(case)
        assert bound <= ref_bound + 1e-10
        assert evaluations < ref_evaluations
