#!/usr/bin/env python3
"""Time the shooting oracle's RK4 kernel `_sweep` against the number of steps.

Cases: seeded synthetic grids of --steps steps (random step sizes on
[0.05, 6], W = r^2 + 2/r^2 plus a seeded ripple, as in the kernel tests),
tabulated once by `_step_table` as a grid tabulates its steps, and swept
three ways over all of their steps: outward with and without node counting,
and as a matching pair with node counting, outward to the middle node and
inward from the end in one call, the form of every counted sweep of an
eigenvalue search.  Each case repeats until --seconds have passed (at least
once) and prints the median time of one step.  Successive calls walk a
fixed cycle of energies from 5 to 25, so each one evaluates new transfer
matrices, as the calls of an eigenvalue search do.  Only `_step_table(h,
w_nodes, w_mid)` and `_sweep`'s positional signature (table, chains, steps,
count_nodes), with chains a list of (energy, y1, y2, start node, stop node)
and steps one entry per step, are used, so the same script times any
revision of the package that has them.

Usage: python benchmarks/bench_sweep.py [--steps 900,1800,3600,7000] [--seconds 1]
"""

import argparse
import itertools
import statistics
import time

import numpy as np

from spikevar.oracle import _step_table, _sweep

ENERGIES = tuple(5.0 + 1.25 * i for i in range(17))


def grid(steps, seed=0, r0=0.05, r1=6.0):
    """The step table of `steps` seeded random steps from r0 to r1."""
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.5, 1.5, steps)
    h *= (r1 - r0) / h.sum()
    r = r0 + np.concatenate([[0.0], np.cumsum(h)])
    amp, freq = rng.uniform(-2.0, 2.0), rng.uniform(1.0, 5.0)

    def w(x):
        return x * x + 2.0 / (x * x) + amp * np.sin(freq * x)

    return _step_table(h, w(r), w(r[:-1] + 0.5 * h))


def outward(energy, steps):
    return [(energy, 1.0, 0.0, 0, steps)]


def pair(energy, steps):
    """A matching pair: outward to the middle node, inward from the end."""
    return [(energy, 1.0, 0.0, 0, steps // 2), (energy, 1.0, -1.0, steps, steps // 2)]


# (name, chains at an energy, count_nodes)
CASES = (("outward", outward, False), ("outward", outward, True), ("pair", pair, True))


def median_step(table, chains, count_nodes, seconds):
    steps = table.shape[-1]
    times = []
    end = time.perf_counter() + seconds
    for energy in itertools.cycle(ENERGIES):
        if times and time.perf_counter() >= end:
            break
        t0 = time.perf_counter()
        _sweep(table, chains(energy, steps), range(steps), count_nodes)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / steps, len(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", default="900,1800,3600,7000")
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()
    print(f"{'steps':>6} {'case':>7} {'nodes':>5} {'ns_per_step':>11} {'calls':>6}")
    for steps in (int(s) for s in args.steps.split(",")):
        g = grid(steps)
        for name, chains, count_nodes in CASES:
            t, k = median_step(g, chains, count_nodes, args.seconds)
            print(f"{steps:>6} {name:>7} {str(count_nodes):>5} {t * 1e9:11.1f} {k:6d}",
                  flush=True)


if __name__ == "__main__":
    main()
