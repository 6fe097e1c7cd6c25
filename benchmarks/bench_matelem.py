#!/usr/bin/env python3
"""Time the moment-matrix builders and `assemble` against the truncation D.

Cases: r^2, r^-2, r^-4, r^-6 and r^-3.3 from `power_matrix` /
`inv_power_matrix`, and `assemble` for r^2 + r^-4 + r^-6 in a basis with
B != a1 (it builds r^2, r^-4, r^-6 and the r^-2 counter-term) and with
B = a1 (`assemble_fixB`: r^2 drops out, as in the A-only table rows).  Each case
repeats until --seconds have passed (at least once) and prints the median
time of one call.  Only public entry points are used, so the same script
times any revision of the package.

Usage: python benchmarks/bench_matelem.py [--dims 10,50,350,1000] [--seconds 1]
"""

import argparse
import statistics
import time

from spikevar.basis import ModelParams
from spikevar.hamiltonian import PotentialSpec, assemble
from spikevar.matelem import inv_power_matrix, power_matrix

P = ModelParams(A=6.0, B=1.5, N=3, l=0)  # gamma_N = 3.5: every case converges
V = PotentialSpec(a1=1.0, terms=((1.0, 4.0), (1.0, 6.0)))
V_FIX_B = PotentialSpec(a1=P.B, terms=V.terms)

CASES = {
    "r^2": lambda D: power_matrix(P, D, 2),
    "r^-2": lambda D: inv_power_matrix(P, D, 2.0),
    "r^-4": lambda D: inv_power_matrix(P, D, 4.0),
    "r^-6": lambda D: inv_power_matrix(P, D, 6.0),
    "r^-3.3": lambda D: inv_power_matrix(P, D, 3.3),
    "assemble": lambda D: assemble(P, V, D),
    "assemble_fixB": lambda D: assemble(P, V_FIX_B, D),
}


def median_call(fn, D, seconds):
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        fn(D)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", default="10,50,350,1000")
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--cases", default=",".join(CASES))
    args = ap.parse_args()
    print(f"{'case':>10} {'D':>5} {'median_s':>12} {'calls':>6}")
    for D in (int(d) for d in args.dims.split(",")):
        for name in args.cases.split(","):
            t, k = median_call(CASES[name], D, args.seconds)
            print(f"{name:>10} {D:>5} {t:12.3e} {k:6d}", flush=True)


if __name__ == "__main__":
    main()
