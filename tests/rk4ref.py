"""Reference RK4 sweep, independent of the package.

The classical four-stage RK4 step for (y, y') with y'' = (W(r) - E) y,
evaluated stage by stage as the package did before it tabulated each step
as a 2x2 transfer matrix.  Node counting and the overflow guard follow the
same rules as `spikevar.oracle._sweep`, so the two sweeps differ only in
rounding.
"""


def _sign(x: float) -> float:
    return 1.0 if x > 0.0 else (-1.0 if x < 0.0 else 0.0)


def rk4_sweep(w_nodes, w_mid, h, energy, y1, y2, count_nodes=False):
    """Return (y1, y2, nodes) after len(h) stage-by-stage RK4 steps.

    W is tabulated at the len(h) + 1 step endpoints (w_nodes) and the len(h)
    step midpoints (w_mid); steps h are negative for inward sweeps.
    """
    wn = [float(w) for w in w_nodes]
    wm = [float(w) for w in w_mid]
    y1 = float(y1)
    y2 = float(y2)
    nodes = 0
    prev = _sign(y1)
    e = float(energy)
    for i, hi in enumerate(float(x) for x in h):
        q0 = wn[i] - e
        qm = wm[i] - e
        q1 = wn[i + 1] - e
        half = 0.5 * hi
        k1a = y2
        k1b = q0 * y1
        ya = y1 + half * k1a
        yb = y2 + half * k1b
        k2a = yb
        k2b = qm * ya
        ya = y1 + half * k2a
        yb = y2 + half * k2b
        k3a = yb
        k3b = qm * ya
        ya = y1 + hi * k3a
        yb = y2 + hi * k3b
        k4a = yb
        k4b = q1 * ya
        y1 = y1 + hi / 6.0 * (k1a + 2.0 * (k2a + k3a) + k4a)
        y2 = y2 + hi / 6.0 * (k1b + 2.0 * (k2b + k3b) + k4b)
        if count_nodes:
            s = _sign(y1)
            if s != 0.0:
                if prev != 0.0 and s != prev:
                    nodes += 1
                prev = s
        mag = abs(y1) + abs(y2)
        if mag > 1e250 or (mag != 0.0 and mag < 1e-250):
            y1 /= mag
            y2 /= mag
    return y1, y2, nodes
