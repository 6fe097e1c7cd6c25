#!/usr/bin/env python3
"""Print the exact results of the bound searches and oracle calls, so that
two revisions of the package can be compared bit for bit with `diff`.

One line per `minimize_bound` call with A*, B* and the bound as float.hex,
the evaluation count and `converged`, for

- every non-slow row of tables 1-5, run as `run_table` runs it (one search
  per row);
- the `series` benchmark's converge calls of seeds 0-2;
- `eig --term 0.1:4 -D 120`, two-parameter and A-only (`--fix-B`);

then one line per `oracle` benchmark call of seeds 0-2 with its exit code,
its energy as float.hex and its work (`OracleResult.sweeps`, the kernel
calls, and `steps`, the final grid's RK4 steps), and last the search
lines of

- searches that run out of budget: r^2 + 0.1 r^-4 at D = 6 on budgets
  12-300, table4 (1,100,100) at D = 10 on 250, and table2 lam=10 D=30
  (A,B) on 350 from a D = 10 optimum as `init`;
- searches with a simplex stuck on neighbouring floats: table2 lam=0.1
  D=80 (A,B) on 3200 from a D = 10 optimum, and `eig --term 0.1:4 -D 5
  --init-A -100 --init-B 1`;
- `eig --a1 1e200 --term 1:4 -D 20`, far from a1 = 1;

and last the same oracle lines for inputs away from a1 = 1 or from a
shallow floor: five a1 < 1 inputs at tol 1e-8, r^2 - 100/r + 1e-6 r^-4,
whose node search runs up to the energy cap, `--a1 7.3e9 --term 1:4`,
four levels whose tails reach past r = 20 at their length scale
a1^(-1/4): draws 30 and 232 of the contract tests' `oracle` draws,
`--level 200` at a1 = 1 and a level near 5.9e3 at a1 = 13.07, then
`--a1 1e-8 --term 1:4 --tol 1e-12`, two members of the exactly
solvable family of `tests/exactref.py`, at a1 = 1e-7 and 1e9, and a well
~2.1e6 deep whose a1 = 1 image has its floor at r = 13.7.

Calls that two seeds share are run once.  The
package is imported from `src/` of the script's own checkout, with BLAS
pinned to one thread as in `perfbench/run.py`.  Takes ~10 s on a 2-vCPU
x86-64 host.

Usage (from the repository root of each revision):

    python benchmarks/fingerprint.py > fingerprint.txt
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from spikevar import cli, optimizer, oracle, tables  # noqa: E402
from spikevar.hamiltonian import PotentialSpec  # noqa: E402

SEEDS = (0, 1, 2)
EIG_ARGV = ["eig", "--term", "0.1:4", "-D", "120", "--format", "json"]
# (table, row, D, budget) of row searches on a budget that binds or that a
# stuck simplex would spend; a D above 10 starts from a D = 10 optimum
BUDGET_ROWS = (("table4", "(1,100,100)", 10, 250),
               ("table2", "lam=10 D=30 (A,B)", 30, 350),
               ("table2", "lam=0.1 D=80 (A,B)", 80, 3200))
# oracle calls off the unit scale: (a1, lam, alpha, level) at tol 1e-8, as
# tests/test_oracle.py::TestScaleIdentity runs them, then more argv
SCALED = ((0.01, 1.0, 4.0, 0), (1e-4, 1.0, 6.0, 1), (0.2, 3.0, 2.5, 2),
          (0.05, 100.0, 6.0, 0), (1e-3, 1e-3, 4.0, 0))
ORACLE_ARGV = [["--a1", repr(a1), "--term", f"{lam!r}:{alpha!r}", "--level", str(level),
                "--tol", "1e-8"] for a1, lam, alpha, level in SCALED]
ORACLE_ARGV += [["--term=-100:1", "--term", "1e-6:4"], ["--a1", "7.3e9", "--term", "1:4"],
                ["--a1", "0.00043509038845730155",
                 "--term=17955.302892105185:2.422260216749421", "--dim", "4", "--ell", "1",
                 "--tol", "1e-6"],
                ["--a1", "0.04123594438376056", "--term=75092.89773120574:2.0", "--dim", "3",
                 "--ell", "2", "--tol", "1e-8"],
                ["--a1", "1", "--level", "200"],
                ["--a1", "13.07", "--term=671666.8515741335:2.0", "--level", "1"],
                ["--a1", "1e-8", "--term", "1:4", "--tol", "1e-12"],
                # (mu, N, l) = (1, 3, 0) and (3, 4, 1): E0 = 5 sqrt(1e-7) and
                # 263245.5532033676
                ["--a1", "1e-7", "--term=3162.277660168379:4", "--term=10000000.0:6",
                 "--tol", "1e-8"],
                ["--a1", "1e9", "--term=0.00041026334038989727:4", "--term=9e-09:6",
                 "--dim", "4", "--ell", "1", "--tol", "1e-4"],
                ["--a1", "255473.1262248806", "--term=-250475.69493172743:6.0",
                 "--term=12106.104526825427:10.907297012934574", "--dim", "5", "--ell", "2"]]


def _recording():
    """Route every minimize_bound call through a wrapper that appends
    (D, result) to the returned list."""
    calls = []
    real = optimizer.minimize_bound

    def recorded(v, D, *args, **kwargs):
        res = real(v, D, *args, **kwargs)
        calls.append((D, res))
        return res

    for module in (optimizer, tables, cli):
        module.minimize_bound = recorded
    return calls


def _recording_oracle():
    """Route the CLI's shoot_eigenvalue calls through a wrapper that appends
    each OracleResult to the returned list."""
    results = []

    def recorded(*args, **kwargs):
        res = oracle.shoot_eigenvalue(*args, **kwargs)
        results.append(res)
        return res

    cli.shoot_eigenvalue = recorded
    return results


def _cli(argv):
    """(exit code, stdout) of one CLI call; its error line is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _oracle_line(label, argv, shots):
    """One line: the exit code, the energy as float.hex and the work of the
    oracle call `argv`, which ends in `--format json`."""
    rc, out = _cli(argv)
    energy = json.loads(out)["oracle"] if rc == 0 else None
    work = "".join(f" sweeps={r.sweeps} steps={r.steps}" for r in shots)
    shots.clear()
    print(f"oracle {label} rc={rc}: {energy.hex() if energy is not None else None}{work}")


def main() -> None:
    calls = _recording()

    def searches(label):
        for D, res in calls:
            print(f"{label} D={D}: {res.A_star.hex()} {res.B_star.hex()} "
                  f"{res.bound.hex()} {res.evaluations} {res.converged}")
        calls.clear()

    for tid in tables.BUILTIN_TABLE_IDS:
        for row in tables.builtin_job(tid).rows:
            if row.slow:
                continue
            (res,) = tables.run_table(tables.TableJob(tid, (row,))).rows
            searches(f"{tid} {row.label}" + (f" error {res.error}" if res.error else ""))
    cases = {c["key"]: c for seed in SEEDS for c in workloads.build_series(seed)}
    for key, case in cases.items():
        rc, _ = _cli(workloads.series_argv(case))
        searches(f"series {key} rc={rc}")
    for extra in ([], ["--fix-B"]):
        rc, _ = _cli(EIG_ARGV + extra)
        searches(" ".join(["eig -D 120", *extra, f"rc={rc}"]))
    shots = _recording_oracle()
    cases = {c["key"]: c for seed in SEEDS for c in workloads.build_oracle(seed)}
    for key, case in cases.items():
        _oracle_line(key, workloads.oracle_argv(case), shots)
    spike = PotentialSpec(a1=1.0, terms=((0.1, 4.0),))
    for budget in (12, 40, 100, 200, 300):
        optimizer.minimize_bound(spike, 6, budget=budget)
        searches(f"r^2+0.1r^-4 budget={budget}")
    for tid, label, D, budget in BUDGET_ROWS:
        v = next(r for r in tables.builtin_job(tid).rows if r.label == label).potential
        init = None
        if D > 10:
            warm = optimizer.minimize_bound(v, 10, budget=800)
            init = (warm.A_star, warm.B_star)
        optimizer.minimize_bound(v, D, budget=budget, init=init)
        searches(f"{tid} {label} budget={budget}")
    rc, _ = _cli(["eig", "--term", "0.1:4", "-D", "5", "--init-A", "-100",
                  "--init-B", "1", "--format", "json"])
    searches(f"eig -D 5 --init-A -100 rc={rc}")
    rc, _ = _cli(["eig", "--a1", "1e200", "--term", "1:4", "-D", "20", "--format", "json"])
    searches(f"eig --a1 1e200 -D 20 rc={rc}")
    for argv in ORACLE_ARGV:
        _oracle_line(" ".join(argv), ["oracle", *argv, "--format", "json"], shots)


if __name__ == "__main__":
    main()
