"""Acceptance suite: every criterion at its stated tolerance.

Each criterion test prints one PASS/FAIL line (visible with -s or in
captured output).  Reference reproductions run through the same table jobs
the CLI uses.
"""

import functools
import math
import time

import numpy as np
import pytest

from closedref import inv_power_element_closed
from quadref import element_quad
from test_eigensolver import sturm_eigenvalues

from spikevar.basis import ModelParams
from spikevar.eigensolver import eigen_symmetric
from spikevar.hamiltonian import PotentialSpec, assemble
from spikevar.matelem import inv_power_element, power_element
from spikevar.optimizer import (
    converge_to_digits,
    feasible_A_min,
    ground_state_first_order,
    minimize_bound,
)
from spikevar.oracle import shoot_eigenvalue
from spikevar.tables import TableJob, builtin_job, run_table


def _report_line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name}: {status} {detail}")
    return ok


def _bounds_by_label(report):
    return {r.label: r for r in report.rows}


@pytest.fixture(scope="module")
def table1_run():
    job = builtin_job("table1")
    keep = {"D=1 (A,B)", "D=10 (A,B)", "D=20 (A,B)", "D=100 (A,B)",
            "D=1 A-only", "D=10 A-only", "D=20 A-only"}
    rows = tuple(r for r in job.rows if r.label in keep)
    t0 = time.perf_counter()
    report = run_table(TableJob("table1", rows))
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def table2_run():
    job = builtin_job("table2")
    rows = tuple(r for r in job.rows if r.mode == "ab")
    t0 = time.perf_counter()
    report = run_table(TableJob("table2", rows))
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def table3_run():
    return run_table(builtin_job("table3"))


@pytest.fixture(scope="module")
def table4_run():
    return run_table(builtin_job("table4"))


@pytest.fixture(scope="module")
def table5_run():
    return run_table(builtin_job("table5"))


_PRINTED_UNIT = 1e-6   # one unit in the last printed decimal of every table

# Source-table cells whose last printed digit does not follow round-half.
# A "truncated" cell prints its figure cut after the sixth decimal, so the
# true bound lies in [printed, printed + 1e-6).  An "unconverged" cell prints
# a value above the reachable optimum by less than one printed unit, so the
# true bound lies in (printed - 1e-6, printed].  Declared here rather than
# read from spikevar.tables, so these gates do not rest on the program's own
# row tolerances.
SOURCE_QUIRKS = {
    ("table1", "D=10 A-only"): "truncated",
    ("table1", "D=100 (A,B)"): "truncated",
    ("table2", "lam=1 D=45 (A,B)"): "truncated",
    ("table2", "lam=0.01 D=100 (A,B)"): "unconverged",
    ("table3", "N=6"): "truncated",
    ("table5", "N=2"): "truncated",
}


@functools.lru_cache(maxsize=None)
def _oracle_energy(table, label):
    """Shooting eigenvalue (tol 1e-8) of a built-in cell's potential and level.

    The oracle reports the lower edge of its bracket, so it sits at or just
    below the exact eigenvalue and never above a valid upper bound.
    """
    row = next(r for r in builtin_job(table).rows if r.label == label)
    return shoot_eigenvalue(row.potential, row.level, tol=1e-8).energy


def _cell_fault(kind, bound, printed, tol, oracle=None):
    """Why `bound` misses the gate of a cell of this kind, or None.

    "rounded" cells need |bound - printed| <= tol.  "truncated" cells need
    printed <= bound < printed + 1e-6 and "unconverged" cells need
    printed - 1e-6 < bound <= printed; both quirk kinds also need
    bound >= oracle, so a figure off the print is still an upper bound.
    """
    if kind == "rounded":
        inside = abs(bound - printed) <= tol
        window = f"|dev| <= {tol:g}"
    elif kind == "truncated":
        inside = printed <= bound < printed + _PRINTED_UNIT
        window = "printed <= bound < printed + 1e-6"
    elif kind == "unconverged":
        inside = printed - _PRINTED_UNIT < bound <= printed
        window = "printed - 1e-6 < bound <= printed"
    else:
        raise ValueError(f"unknown cell kind {kind!r}")
    above_oracle = oracle is None or bound >= oracle
    if inside and above_oracle:
        return None
    oracle_text = "" if oracle is None else f", oracle {oracle:.9f}"
    reason = window if not inside else "bound below the oracle"
    return (f"[{kind}] computed {bound:.9f} vs printed {printed}{oracle_text} "
            f"(dev {bound - printed:+.3e}; fails {reason})")


def _check_cells(num, name, table, rows, expected, tol, extra_ok=True,
                 detail=""):
    """Assert every cell by its printing convention, reporting all misses.

    Cells the source rounded must agree to within `tol` (half a printed
    unit).  The cells named in SOURCE_QUIRKS were printed truncated or above
    the reachable optimum, as confirmed by independent multistart search and
    the shooting integrator; each is held to a one-sided window one printed
    unit wide on the side its convention puts the true figure, and must also
    lie at or above the shooting eigenvalue at tol 1e-8.
    """
    bad = []
    for label, ref in expected.items():
        row = rows[label]
        kind = SOURCE_QUIRKS.get((table, label), "rounded")
        if row.error is not None:
            bad.append(f"{label}: error {row.error}")
            continue
        oracle = None if kind == "rounded" else _oracle_energy(table, label)
        fault = _cell_fault(kind, row.bound, ref, tol, oracle)
        if fault is not None:
            bad.append(f"{label}: {fault}")
    ok = not bad and extra_ok
    _report_line(num, name, ok, detail + ("; " + "; ".join(bad) if bad else ""))
    assert not bad, (
        f"criterion {num}: {len(bad)}/{len(expected)} cells off their gate:\n  "
        + "\n  ".join(bad)
    )
    assert extra_ok


def test_criterion_1_table1(table1_run):
    report, seconds = table1_run
    rows = _bounds_by_label(report)
    expected = {
        "D=1 (A,B)": 3.664281, "D=10 (A,B)": 3.582194,
        "D=20 (A,B)": 3.576773, "D=100 (A,B)": 3.575552,
        "D=1 A-only": 3.745811, "D=10 A-only": 3.602189,
        "D=20 A-only": 3.588143,
    }
    _check_cells(1, "table1 reproduction", "table1", rows, expected, 5e-7,
                 extra_ok=seconds < 60.0, detail=f"({seconds:.1f}s)")


def test_criterion_2_first_order():
    t0 = time.perf_counter()
    a = ground_state_first_order(1000.0, "a")
    ab = ground_state_first_order(1000.0, "ab")
    seconds = time.perf_counter() - t0
    ok = abs(a - 21.427793) <= 5e-7 and abs(ab - 21.374087) <= 5e-7
    ok &= seconds < 1.0
    assert _report_line(2, "first-order closed forms", ok,
                        f"(a={a:.6f}, ab={ab:.6f}, {seconds:.2f}s)")
    assert a == pytest.approx(21.427793, abs=5e-7)
    assert ab == pytest.approx(21.374087, abs=5e-7)
    assert seconds < 1.0


def test_criterion_3_table2(table2_run):
    report, seconds = table2_run
    rows = _bounds_by_label(report)
    expected = {
        "lam=1000 D=15 (A,B)": 12.718617,
        "lam=100 D=22 (A,B)": 8.413358,
        "lam=10 D=30 (A,B)": 6.003209,
        "lam=1 D=45 (A,B)": 4.659940,
        "lam=0.1 D=80 (A,B)": 3.915665,
        "lam=0.01 D=100 (A,B)": 3.505455,
    }
    _check_cells(3, "table2 reproduction", "table2", rows, expected, 5e-7,
                 extra_ok=seconds < 300.0, detail=f"({seconds:.1f}s)")


def test_criterion_4_table3(table3_run):
    refs = [21.350246, 21.369463, 21.427056, 21.522860, 21.656596,
            21.827883, 22.036232, 22.281057, 22.561680]
    rows = _bounds_by_label(table3_run)
    expected = {f"N={N}": ref for N, ref in zip(range(2, 11), refs)}
    _check_cells(4, "table3 reproduction", "table3", rows, expected, 5e-7)


def test_criterion_5_table4(table4_run):
    rows = _bounds_by_label(table4_run)
    exact = {"(1,1,1)": 5.0, "(1,9,9)": 7.0, "(1,-7,49)": 7.0,
             "(1,45,225)": 11.0}
    printed = {"(1,10,1)": 6.679054, "(1,1,10)": 6.140123,
               "(1,10,10)": 7.138261, "(1,100,100)": 11.791771,
               "(1,1000,1000)": 21.885192}
    oracle = shoot_eigenvalue(
        PotentialSpec(a1=1.0, terms=((1.0, 4.0), (1.0, 6.0))), 0, tol=1e-6
    )
    ok = all(abs(rows[k].bound - v) <= 1e-6 for k, v in exact.items())
    ok &= all(abs(rows[k].bound - v) <= 5e-7 for k, v in printed.items())
    ok &= abs(oracle.energy - 5.0) <= 1e-6
    assert _report_line(5, "table4 exact rows + oracle", ok,
                        f"(oracle {oracle.energy:.7f})")
    for k, v in exact.items():
        assert rows[k].bound == pytest.approx(v, abs=1e-6), k
    for k, v in printed.items():
        assert rows[k].bound == pytest.approx(v, abs=5e-7), k
    assert oracle.energy == pytest.approx(5.0, abs=1e-6)


def test_criterion_6_table5(table5_run):
    refs = [12.704404, 12.735264, 12.827666, 12.981081, 13.194635,
            13.467115, 13.796990, 14.182423, 14.621300]
    rows = _bounds_by_label(table5_run)
    expected = {f"N={N}": ref for N, ref in zip(range(2, 11), refs)}
    _check_cells(6, "table5 reproduction", "table5", rows, expected, 5e-7)


def test_criterion_7_matrix_element_properties():
    # package vs the explicit radicals over the index block and randomized
    # parameters
    rng = np.random.default_rng(2024)
    worst = 0.0
    for alpha in (2, 4, 6):
        for _ in range(20):
            a_floor = max(0.0, (alpha / 2.0 - 0.9) ** 2 - 0.25)
            p = ModelParams(a_floor + 10.0 ** rng.uniform(-1, 1.6),
                            10.0 ** rng.uniform(-0.7, 1.5), 3, 0)
            for m in range(0, 31, 2):
                for n in range(m, 31, 3):
                    c = inv_power_element_closed(p, m, n, alpha)
                    gen = inv_power_element(p, m, n, float(alpha))
                    if c != 0.0:
                        worst = max(worst, abs(c - gen) / abs(c))
    closed_ok = worst <= 1e-11
    # quadrature agreement, non-even alpha included
    rng = np.random.default_rng(7)
    quad_ok = True
    for _ in range(50):
        A = 10.0 ** rng.uniform(-0.5, 1.5)
        B = 10.0 ** rng.uniform(-0.5, 1.0)
        p = ModelParams(A, B, 3, 0)
        m, n = int(rng.integers(0, 9)), int(rng.integers(0, 9))
        if rng.random() < 0.6:
            alpha = float(rng.uniform(0.2, 2.0 * p.gamma_N - 0.2))
            got = inv_power_element(p, m, n, alpha)
            ref = element_quad(A, B, m, n, -alpha)
        else:
            q = int(rng.choice([2, 4, 6]))
            got = power_element(p, m, n, q)
            ref = element_quad(A, B, m, n, float(q))
        quad_ok &= abs(got - ref) <= max(1e-8, 1e-8 * abs(ref))
    # exact bandedness
    p = ModelParams(6.0, 1.0, 3, 0)
    band_ok = all(
        power_element(p, m, n, q) == 0.0
        for q in (2, 4, 6)
        for m in range(0, 51, 3)
        for n in range(0, 51, 4)
        if abs(m - n) > q // 2
    )
    ok = closed_ok and quad_ok and band_ok
    assert _report_line(7, "matrix-element properties", ok,
                        f"(worst closed/general rel dev {worst:.2e})")
    assert closed_ok and quad_ok and band_ok


def _random_potentials(count):
    rng = np.random.default_rng(99)
    out = []
    while len(out) < count:
        a1 = rng.uniform(0.5, 2.5)
        terms = []
        for _ in range(int(rng.integers(0, 3))):
            alpha = float(rng.choice([1.3, 2.0, 3.5, 4.0, 6.0]))
            lam = 10.0 ** rng.uniform(-1.5, 1.5)
            terms.append((lam, alpha))
        out.append(PotentialSpec(a1=a1, terms=tuple(terms)))
    return out


def test_criterion_8_monotone_convergence():
    schedule = (2, 4, 8, 16, 32)
    fixed_ok = True
    optimized_ok = True
    for v in _random_potentials(10):
        p = ModelParams(feasible_A_min(v) + 2.0, 1.7 * v.a1, v.N, v.l)
        lows = [
            eigen_symmetric(assemble(p, v, D), k=1).values[0] for D in schedule
        ]
        fixed_ok &= all(b <= a + 1e-12 for a, b in zip(lows, lows[1:]))
        run = converge_to_digits(v, 0, 12, schedule, budget=1500)
        bounds = [r.bound for _, r in run.history]
        optimized_ok &= all(b <= a + 1e-12 for a, b in zip(bounds, bounds[1:]))
    ok = fixed_ok and optimized_ok
    assert _report_line(8, "monotone convergence", ok)
    assert fixed_ok and optimized_ok


def test_criterion_9_oracle_self_consistency():
    tol = 1e-6
    cases = [
        (PotentialSpec(a1=1.0, terms=((0.1, 4.0),)), 100),
        (PotentialSpec(a1=1.0, terms=((1000.0, 6.0),)), 15),
        (PotentialSpec(a1=1.0, terms=((0.01, 6.0),)), 100),
        (PotentialSpec(a1=1.0, terms=((1000.0, 4.0),), N=2), 10),
        (PotentialSpec(a1=1.0, terms=((1000.0, 4.0),), N=10), 10),
        (PotentialSpec(a1=1.0, terms=((1.0, 4.0), (1.0, 6.0))), 50),
        (PotentialSpec(a1=1.0, terms=((-7.0, 4.0), (49.0, 6.0))), 40),
        (PotentialSpec(a1=1.0, terms=((1000.0, 4.0), (1000.0, 6.0))), 50),
        (PotentialSpec(a1=1.0, terms=((1.0, 4.0), (1000.0, 6.0))), 30),
        (PotentialSpec(a1=1.0, terms=((1.0, 4.0), (1000.0, 6.0)), N=10), 30),
    ]
    halving_ok = True
    bound_ok = True
    for v, D in cases:
        res = shoot_eigenvalue(v, 0, tol=tol)
        halved = shoot_eigenvalue(v, 0, tol=tol,
                                  grid_scale=2.0 * res.grid_scale,
                                  auto_refine=False)
        halving_ok &= abs(halved.energy - res.energy) < 0.25 * tol
        init = None
        if D > 25:
            warm = minimize_bound(v, 10, budget=800)
            init = (warm.A_star, warm.B_star)
        bound = minimize_bound(v, D, init=init).bound
        bound_ok &= res.energy <= bound + 1e-9
    ok = halving_ok and bound_ok
    assert _report_line(9, "oracle self-consistency", ok)
    assert halving_ok and bound_ok


def test_criterion_10_eigensolver_vs_sturm():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 9))
        M = rng.standard_normal((d, d)) * 10.0 ** rng.uniform(-1, 1)
        A = (M + M.T) / 2.0
        got = eigen_symmetric(A).values
        ref = sturm_eigenvalues(A, tol=1e-12)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    ok = worst < 1e-10
    assert _report_line(10, "eigensolver vs Sturm bisection", ok,
                        f"(worst dev {worst:.2e})")
    assert worst < 1e-10


# -- evidence for the quirk kinds, and checks that the cell gate can fail --

@pytest.mark.parametrize("table, label, printed", [
    ("table3", "N=6", 21.656596),
    ("table5", "N=2", 12.704404),
])
def test_truncated_cell_oracle_above_rounding_window(table, label, printed):
    # the exact eigenvalue already lies above printed + 5e-7, so no valid
    # upper bound rounds to the printed digits: they were truncated
    assert SOURCE_QUIRKS[(table, label)] == "truncated"
    assert _oracle_energy(table, label) > printed + 5e-7


def test_truncated_table1_a_only_cell_unreachable():
    # the D=10 A-only search runs over A alone, so a dense scan of
    # u = log(A - A_min) covers it: no A gives a bound that rounds to 3.602189
    printed = 3.602189
    assert SOURCE_QUIRKS[("table1", "D=10 A-only")] == "truncated"
    row = next(r for r in builtin_job("table1").rows
               if r.label == "D=10 A-only")
    v = row.potential
    a_min = feasible_A_min(v)
    lows = np.array([
        eigen_symmetric(
            assemble(ModelParams(a_min + math.exp(u), v.a1, v.N, v.l), v,
                     row.D), k=1).values[0]
        for u in np.linspace(-4.0, 5.0, 4001)
    ])
    # the valley floor is inside the scanned range, not at its edge
    assert 0 < int(np.argmin(lows)) < len(lows) - 1
    assert lows.min() > printed + 5e-7


_P = 2.5             # a printed value
_O = _P - 5e-6       # an oracle energy below every window around _P


@pytest.mark.parametrize("kind, bound, oracle", [
    ("rounded", _P + 5e-7 + 1e-7, None),
    ("rounded", _P - 5e-7 - 1e-7, None),
    ("truncated", _P - 1e-7, _O),
    ("truncated", _P + 1e-6 + 1e-7, _O),
    ("truncated", _P + 5e-7, _P + 6e-7),
    ("unconverged", _P + 1e-7, _O),
    ("unconverged", _P - 1e-6 - 1e-7, _O),
    ("unconverged", _P - 5e-7, _P - 4e-7),
])
def test_cell_gate_rejects(kind, bound, oracle):
    fault = _cell_fault(kind, bound, _P, 5e-7, oracle)
    assert fault is not None and f"[{kind}]" in fault


@pytest.mark.parametrize("kind, bound", [
    ("rounded", _P + 4e-7),
    ("rounded", _P - 4e-7),
    ("truncated", _P),
    ("truncated", _P + 9e-7),
    ("unconverged", _P),
    ("unconverged", _P - 9e-7),
])
def test_cell_gate_accepts(kind, bound):
    assert _cell_fault(kind, bound, _P, 5e-7, _O) is None
