"""Inputs and output checks for the three benchmark workloads.

Each workload turns a seed into a fixed list of inputs (one "pass"), maps
them to calls into spikevar's public entry points (`spikevar.cli.main` and
`spikevar.tables.run_table`), one per table row, converge run or
eigenvalue, and checks every output.  The runner times the calls and
repeats the pass, so outputs of repeated passes must agree exactly.

Seed 0 is the default seed: only at seed 0 are the oracle outputs compared
with the values recorded in `reference.json`.  Table rows and the series
call at SERIES_DEFAULT are compared with their recorded values at every
seed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass, field

from spikevar import cli
from spikevar import tables as sv_tables

DEFAULT_SEED = 0
BOUND_MATCH = 1e-9            # recorded-bound agreement for tables and series
ORACLE_TOL = 1e-6             # the CLI's default shooting tolerance
SERIES_SCHEDULE = (10, 20)
SERIES_DIGITS = 6
SERIES_DEFAULT = (0.1, 2.5)   # (lambda, alpha) of the first call at every seed
SERIES_CALLS = 3
# exactly solvable table4 potentials r^2 + b r^-4 + c r^-6: (a, b, c, E0)
EXACT_CASES = ((1.0, 1.0, 1.0, 5.0), (1.0, 9.0, 9.0, 7.0),
               (1.0, -7.0, 49.0, 7.0), (1.0, 45.0, 225.0, 11.0))
SPIKE_ALPHAS = (2.5, 4.0, 6.0)
SPIKE_LEVELS = (0, 1, 2)


@dataclass
class Item:
    """One timed call and the failures its checks found."""

    key: str
    seconds: float
    value: object = None
    stable: object = None   # part of the output that must repeat exactly
    failures: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    build: object      # (seed) -> inputs
    calls: object      # (inputs) -> [(key, fn)]; fn(span) -> (value, stable)
    check: object      # (inputs, items, reference, seed) -> None, fills failures


def _run_cli(argv: list[str], span) -> tuple[tuple[int, str], tuple[int, str]]:
    """cli.main with its stdout captured; value and stable part are both
    (exit code, output), which carries no timings without --timing."""
    buf = io.StringIO()
    with span("cli"), contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return (rc, buf.getvalue()), (rc, buf.getvalue())


# -- table rows (workload `tables`) ----------------------------------------

# Three rows from each of tables 3-5, the first, middle and last (N = 2, 6
# and 10 of tables 3 and 5; (1,1,1), (1,100,100) and (1,45,225) of table4).
# All 27 rows take ~28 s, too long to repeat in one run, and row subsets
# picked by the seed, even when balanced on rows timed alone, differed by
# ~10% in pass_s between subsets, well above the noise between seeds of one
# subset; so the seed sets only the order.  Indices are positions in each
# built-in job.
TABLE_ROWS = {"table3": (0, 4, 8), "table4": (0, 4, 8), "table5": (0, 4, 8)}


def build_tables(seed: int) -> list[tuple[str, sv_tables.TableRow]]:
    """TABLE_ROWS in seeded order."""
    rows = [(tid, sv_tables.builtin_job(tid).rows[i])
            for tid, picks in TABLE_ROWS.items() for i in picks]
    random.Random(seed).shuffle(rows)
    return rows


def _run_row(row: sv_tables.TableRow, span):
    with span("tables"):
        (res,) = sv_tables.run_table(sv_tables.TableJob("perfbench", (row,)),
                                     include_slow=True).rows
    return res, (res.bound, res.A_star, res.B_star, res.evaluations, res.error)


def row_calls(inputs):
    # one run_table call per row, so each row is timed on its own; the
    # CLI's `table` command runs only whole tables, so its JSON emit path
    # is left out
    return [(f"{tid}:{row.label}", functools.partial(_run_row, row))
            for tid, row in inputs]


def check_rows(inputs, items, reference, seed) -> None:
    del seed  # every recorded row is checked at every seed
    for (tid, row), item in zip(inputs, items):
        res = item.value
        if res.error:
            item.failures.append(f"raised {res.error}")
            continue
        if res.passed is not True:
            item.failures.append(
                f"bound {res.bound!r} misses published {row.reference} "
                f"by more than {row.tolerance:g}")
        want = reference["rows"].get(tid, {}).get(row.label, {}).get("bound")
        if want is None or not abs(res.bound - want) <= BOUND_MATCH:
            item.failures.append(
                f"bound {res.bound!r} differs from recorded {want!r}")


# -- converge with non-even alpha (workload `series`) ----------------------

def build_series(seed: int) -> list[dict]:
    """SERIES_DEFAULT, then seeded lambda log-uniform in [0.05, 0.2] and
    alpha uniform in [2.2, 3.8], one converge call each.

    The schedule stops at D = 20 and there are three short calls, not one
    long one, so that a run repeats each call about six times: a single
    converge call's time varies by ~15% from one repetition to the next,
    and with D = 40 (~4 s a call) a run held too few repetitions for a
    steady median.  Lambda stays near 0.1 because over [0.01, 10] the
    search's evaluation count varies by up to 45% with it.
    """
    rng = random.Random(seed)
    terms = [SERIES_DEFAULT] + [
        (math.exp(rng.uniform(math.log(0.05), math.log(0.2))), rng.uniform(2.2, 3.8))
        for _ in range(SERIES_CALLS - 1)]
    return [{"key": f"converge({lam:.6g},{alpha:.6g})", "lam": lam, "alpha": alpha,
             "schedule": SERIES_SCHEDULE} for lam, alpha in terms]


def series_argv(case: dict) -> list[str]:
    return ["converge", f"--term={case['lam']!r}:{case['alpha']!r}",
            "--schedule", ",".join(map(str, case["schedule"])),
            "--digits", str(SERIES_DIGITS), "--format", "json"]


def series_calls(inputs):
    # the CLI splits converge's wall time evenly over its rows, so the item
    # is the whole converge call
    return [(case["key"], functools.partial(_run_cli, series_argv(case)))
            for case in inputs]


def check_series(inputs, items, reference, seed) -> None:
    del seed  # the SERIES_DEFAULT call is checked at every seed
    for case, item in zip(inputs, items):
        rc, out = item.value
        if rc != 0:
            item.failures.append(f"converge exited {rc}")
            continue
        rows = [json.loads(line) for line in out.splitlines()]
        bounds = [r["bound"] for r in rows]
        if any(r["error"] for r in rows) or None in bounds:
            item.failures.append("a schedule step raised")
            continue
        steps = [r["D"] for r in rows]
        for i in range(1, len(rows)):
            if bounds[i] > bounds[i - 1]:
                item.failures.append(f"bound rose from D={steps[i - 1]} to D={steps[i]}")
        if (case["lam"], case["alpha"]) == SERIES_DEFAULT:
            want = [s["bound"] for s in reference["series"]["steps"]]
            if len(want) != len(bounds) or any(
                    not abs(b - w) <= BOUND_MATCH for b, w in zip(bounds, want)):
                item.failures.append(f"bounds {bounds} differ from recorded {want}")


# -- shooting eigenvalues (workload `oracle`) ------------------------------

def build_oracle(seed: int) -> list[dict]:
    """The exact table4 cases at level 0, then spiked potentials.

    Each spiked potential r^2 + lam r^-alpha is solved at levels 0-2, so the
    levels can be checked to ascend.  The weak spike lam = 0.1, alpha = 2.5
    is in every pass: there the oracle takes ~45% more RK4 steps than at
    lam >= 0.3, so seeded lambdas (log-uniform in [0.3, 10], one per alpha)
    stay above it to keep the cost of a pass independent of the seed.
    """
    rng = random.Random(seed)
    cases = [{"key": f"exact({b:g},{c:g})", "a1": a, "terms": ((b, 4.0), (c, 6.0)),
              "level": 0, "exact": e} for a, b, c, e in EXACT_CASES]
    spikes = [(0.1, 2.5)] + [(math.exp(rng.uniform(math.log(0.3), math.log(10.0))), alpha)
                             for alpha in SPIKE_ALPHAS]
    for lam, alpha in spikes:
        for level in SPIKE_LEVELS:
            cases.append({"key": f"spike({lam:.6g},{alpha:g})#{level}",
                          "a1": 1.0, "terms": ((lam, alpha),),
                          "level": level, "exact": None})
    return cases


def oracle_argv(case: dict) -> list[str]:
    argv = ["oracle", "--a1", repr(case["a1"])]
    argv += [f"--term={lam!r}:{alpha!r}" for lam, alpha in case["terms"]]
    return argv + ["--level", str(case["level"]), "--tol", repr(ORACLE_TOL),
                   "--format", "json"]


def oracle_calls(inputs):
    return [(case["key"], functools.partial(_run_cli, oracle_argv(case)))
            for case in inputs]


def check_oracle(inputs, items, reference, seed) -> None:
    energies = {}
    for case, item in zip(inputs, items):
        rc, out = item.value
        if rc != 0:
            item.failures.append(f"oracle exited {rc}")
            continue
        energy = json.loads(out)["oracle"]
        energies[case["key"]] = energy
        if case["exact"] is not None and not (
                0.0 <= case["exact"] - energy <= 2.0 * ORACLE_TOL):
            item.failures.append(
                f"energy {energy!r} not within [E - 2 tol, E] of exact {case['exact']}")
    for prev, (case, item) in zip(inputs, zip(inputs[1:], items[1:])):
        if case["level"] > 0 and case["terms"] == prev["terms"]:
            lo = energies.get(prev["key"])
            hi = energies.get(case["key"])
            if lo is not None and hi is not None and not hi > lo:
                item.failures.append(f"level {case['level']} not above level {case['level'] - 1}")
    if seed == DEFAULT_SEED:
        want = reference["oracle"]["energies"]
        for case, item in zip(inputs, items):
            got = energies.get(case["key"])
            if got is not None and not abs(got - want[case["key"]]) <= ORACLE_TOL:
                item.failures.append(f"energy {got!r} differs from recorded "
                                     f"{want[case['key']]!r} by more than tol")


WORKLOADS = {
    "tables": Workload("tables", build_tables, row_calls, check_rows),
    "series": Workload("series", build_series, series_calls, check_series),
    "oracle": Workload("oracle", build_oracle, oracle_calls, check_oracle),
}
