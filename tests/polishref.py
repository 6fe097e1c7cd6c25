"""Reference golden polish, independent of the package.

The polish as `spikevar.optimizer._golden_polish` ran it before a line's
golden section became conditional: every line scans 15 points around the
incumbent and then runs its golden section around the best scan point,
whether or not the scan moved anything.  Same signature and same budget
rule as the package's, so a test can put it in its place and compare the
two searches.
"""

import math

POLISH_WIDTHS = (4.0, 0.8, 0.12)
POLISH_POINTS = 15
POLISH_ITERS = 35
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_polish(fn, x, f, budget, evaluate):
    """Scan-then-golden on every line; returns (x, f, evaluations_used)."""
    used = 0
    for hw in POLISH_WIDTHS:
        for axis in range(len(x)):
            if used + POLISH_POINTS + POLISH_ITERS + 4 > budget:
                return x, f, used

            def g(t):
                y = list(x)
                y[axis] = t
                return fn(y)

            ts = [x[axis] + hw * (2.0 * i / (POLISH_POINTS - 1) - 1.0)
                  for i in range(POLISH_POINTS)]
            evaluate([x[:axis] + [t] + x[axis + 1:] for t in ts])
            fs = [g(t) for t in ts]
            used += POLISH_POINTS
            k = min(range(POLISH_POINTS), key=lambda i: fs[i])
            best_t, best_f = ts[k], fs[k]
            a = ts[max(0, k - 1)]
            b = ts[min(POLISH_POINTS - 1, k + 1)]
            c = b - GOLDEN * (b - a)
            d = a + GOLDEN * (b - a)
            fc, fd = g(c), g(d)
            used += 2
            for _ in range(POLISH_ITERS):
                if fc < fd:
                    b, d, fd = d, c, fc
                    c = b - GOLDEN * (b - a)
                    fc = g(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + GOLDEN * (b - a)
                    fd = g(d)
                used += 1
            t = 0.5 * (a + b)
            ft = g(t)
            used += 1
            if ft < best_f:
                best_t, best_f = t, ft
            if best_f < f:
                x = list(x)
                x[axis] = best_t
                f = best_f
    return x, f, used
