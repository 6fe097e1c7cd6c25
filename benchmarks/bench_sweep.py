#!/usr/bin/env python3
"""Time the shooting oracle's RK4 kernel `_sweep` against the number of steps.

Cases: seeded synthetic grids of --steps steps (random step sizes on
[0.05, 6], W = r^2 + 2/r^2 plus a seeded ripple, as in the kernel tests),
swept outward with and without node counting.  Each case repeats until
--seconds have passed (at least once) and prints the median time of one
step.  Successive calls walk a fixed cycle of energies from 5 to 25, so
each one sees new transfer matrices, as the calls of an eigenvalue search
do.  Each call runs one chain; only `_sweep`'s positional signature
(w_nodes, w_mid, h, chains, count_nodes), with chains a list of (energy,
y1, y2, steps), is used, so the same script times any revision of the
package that has it.

Usage: python benchmarks/bench_sweep.py [--steps 900,1800,3600,7000] [--seconds 1]
"""

import argparse
import itertools
import statistics
import time

import numpy as np

from spikevar.oracle import _sweep

ENERGIES = tuple(5.0 + 1.25 * i for i in range(17))


def grid(steps, seed=0, r0=0.05, r1=6.0):
    """(w_nodes, w_mid, h) on `steps` seeded random steps from r0 to r1."""
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.5, 1.5, steps)
    h *= (r1 - r0) / h.sum()
    r = r0 + np.concatenate([[0.0], np.cumsum(h)])
    amp, freq = rng.uniform(-2.0, 2.0), rng.uniform(1.0, 5.0)

    def w(x):
        return x * x + 2.0 / (x * x) + amp * np.sin(freq * x)

    return w(r), w(r[:-1] + 0.5 * h), h


def median_step(args, count_nodes, seconds):
    times = []
    end = time.perf_counter() + seconds
    for energy in itertools.cycle(ENERGIES):
        if times and time.perf_counter() >= end:
            break
        t0 = time.perf_counter()
        _sweep(*args, [(energy, 1.0, 0.0, len(args[2]))], count_nodes)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(args[2]), len(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", default="900,1800,3600,7000")
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    print(f"{'steps':>6} {'nodes':>5} {'ns_per_step':>11} {'calls':>6}")
    for steps in (int(s) for s in args.steps.split(",")):
        g = grid(steps)
        for count_nodes in (False, True):
            t, k = median_step(g, count_nodes, args.seconds)
            print(f"{steps:>6} {str(count_nodes):>5} {t * 1e9:11.1f} {k:6d}", flush=True)


if __name__ == "__main__":
    main()
