#!/usr/bin/env python3
"""Time the moment-matrix builders and `assemble` against the truncation D.

Cases: r^2, r^-2, r^-4, r^-6 and r^-3.3 from `power_matrix` /
`inv_power_matrix`, and `assemble` for r^2 + r^-4 + r^-6 in a basis with
B != a1 (it builds r^2, r^-4, r^-6 and the r^-2 counter-term) and with
B = a1 (`assemble_fixB`: r^2 drops out, as in the A-only table rows).  Each case
repeats until --seconds have passed (at least once) and prints the median
time of one call per point (`median_s`).  Successive calls walk a fixed cycle of 17 A values, so each
one sees a new gamma_N, as most calls of a bound search do, and no cache
keyed on gamma_N can answer a call from an identical recent one.  The one
exception, `assemble_sameA`, keeps A fixed and walks 17 values of B, as the
prescan columns and the w-axis lines of the search do: every call after the
first can reuse the moment products of the previous one.  `assemble_eig`
assembles and eigen-solves one point of the A cycle, as one objective
evaluation of a bound search does, and `assemble_batch4` does the same for
four successive points of the cycle as one (4, D, D) stack, as the lockstep
pass of a search does.  Only public entry points are used, and every case
but `assemble_batch4` calls them with one point, so those cases time any
revision of the package.

Usage: python benchmarks/bench_matelem.py [--dims 10,50,350,1000] [--seconds 1]
"""

import argparse
import itertools
import statistics
import time

from spikevar.basis import ModelParams
from spikevar.eigensolver import eigen_symmetric
from spikevar.hamiltonian import PotentialSpec, assemble
from spikevar.matelem import inv_power_matrix, power_matrix

# 17 values of A from 6 up (gamma_N >= 3.5: every case converges)
PARAMS = tuple(ModelParams(A=6.0 + 0.37 * i, B=1.5, N=3, l=0) for i in range(17))
# A fixed, 17 values of B, none equal to a1
SAME_A = tuple(ModelParams(A=6.0, B=1.5 + 0.11 * i, N=3, l=0) for i in range(17))
V = PotentialSpec(a1=1.0, terms=((1.0, 4.0), (1.0, 6.0)))
V_FIX_B = PotentialSpec(a1=PARAMS[0].B, terms=V.terms)
# the A cycle in successive groups of four, 68 points in 17 stacks
BATCHES = tuple(tuple(PARAMS[(4 * i + k) % len(PARAMS)] for k in range(4))
                for i in range(len(PARAMS)))

# name -> (call, parameter cycle, points per call)
CASES = {
    "r^2": (lambda p, D: power_matrix(p, D, 2), PARAMS, 1),
    "r^-2": (lambda p, D: inv_power_matrix(p, D, 2.0), PARAMS, 1),
    "r^-4": (lambda p, D: inv_power_matrix(p, D, 4.0), PARAMS, 1),
    "r^-6": (lambda p, D: inv_power_matrix(p, D, 6.0), PARAMS, 1),
    "r^-3.3": (lambda p, D: inv_power_matrix(p, D, 3.3), PARAMS, 1),
    "assemble": (lambda p, D: assemble(p, V, D), PARAMS, 1),
    "assemble_fixB": (lambda p, D: assemble(p, V_FIX_B, D), PARAMS, 1),
    "assemble_sameA": (lambda p, D: assemble(p, V, D), SAME_A, 1),
    "assemble_eig": (lambda p, D: eigen_symmetric(assemble(p, V, D), k=1),
                     PARAMS, 1),
    "assemble_batch4": (lambda ps, D: eigen_symmetric(assemble(ps, V, D), k=1),
                        BATCHES, 4),
}


def median_call(fn, params, points, D, seconds):
    """Median time per point of fn over the cycle, and the number of calls."""
    times = []
    end = time.perf_counter() + seconds
    for p in itertools.cycle(params):
        if times and time.perf_counter() >= end:
            break
        t0 = time.perf_counter()
        fn(p, D)
        times.append((time.perf_counter() - t0) / points)
    return statistics.median(times), len(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", default="10,50,350,1000")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--cases", default=",".join(CASES))
    args = ap.parse_args()
    print(f"{'case':>15} {'D':>5} {'median_s':>12} {'calls':>6}")
    for D in (int(d) for d in args.dims.split(",")):
        for name in args.cases.split(","):
            t, k = median_call(*CASES[name], D, args.seconds)
            print(f"{name:>15} {D:>5} {t:12.3e} {k:6d}", flush=True)


if __name__ == "__main__":
    main()
