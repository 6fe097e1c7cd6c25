"""Reference Nelder-Mead simplex, independent of the package.

The simplex search as `spikevar.optimizer._nelder_mead` ran it on numpy
vectors, before its vertex arithmetic moved to Python floats.  It performs
the same floating-point operations in the same order, so the two searches
must return identical points, values and evaluation counts.  Like the
package's, it checks the budget before every point after the first, so it
never makes more than `budget` evaluations.
"""

import math

import numpy as np

# reflection / expansion / contraction / shrink
NM_COEFFS = (1.0, 2.0, 0.5, 0.5)
FTOL = 1e-10
XTOL = math.sqrt(FTOL)  # the diameter a value spread of FTOL spans


def nelder_mead(fn, x0, scale, budget):
    """Standard simplex search; returns (x_best, f_best, n_eval, converged)."""
    dim = len(x0)
    refl, expa, contr, shrink = NM_COEFFS
    pts = [np.array(x0, dtype=float)]
    for i in range(dim):
        q = np.array(x0, dtype=float)
        q[i] += scale
        pts.append(q)
    vals = []
    nev = 0
    for qx in pts:
        vals.append(fn(qx))
        nev += 1
        if nev >= budget:
            i = int(np.argmin(vals))
            return pts[i], vals[i], nev, False
    while True:
        order = sorted(range(dim + 1), key=lambda i: vals[i])
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        diam = max(
            float(np.max(np.abs(pts[i] - pts[0]))) for i in range(1, dim + 1)
        )
        if diam < XTOL and vals[-1] - vals[0] < FTOL:
            return pts[0], vals[0], nev, True
        if nev >= budget:
            return pts[0], vals[0], nev, False
        centroid = np.mean(pts[:-1], axis=0)
        xr = centroid + refl * (centroid - pts[-1])
        fr = fn(xr); nev += 1
        if vals[0] <= fr < vals[-2]:
            pts[-1], vals[-1] = xr, fr
        elif fr < vals[0]:
            if nev >= budget:
                return xr, fr, nev, False
            xe = centroid + expa * (xr - centroid)
            fe = fn(xe); nev += 1
            if fe < fr:
                pts[-1], vals[-1] = xe, fe
            else:
                pts[-1], vals[-1] = xr, fr
        else:
            if nev >= budget:
                return pts[0], vals[0], nev, False
            xc = centroid + contr * (pts[-1] - centroid)
            fc = fn(xc); nev += 1
            if fc < vals[-1]:
                pts[-1], vals[-1] = xc, fc
            else:
                for i in range(1, dim + 1):
                    if nev >= budget:
                        j = int(np.argmin(vals))
                        return pts[j], vals[j], nev, False
                    pts[i] = pts[0] + shrink * (pts[i] - pts[0])
                    vals[i] = fn(pts[i]); nev += 1
