"""Independent eigenvalue computation by direct integration of the radial
Schrodinger equation.

-y'' + [Lam(Lam+1)/r^2 + V(r)] y = E y is integrated with fixed-step RK4 on a
composite log-uniform / uniform grid, each step applied as its exact 2x2
transfer matrix on (y, y'), tabulated with numpy and multiplied together
16 steps at a time, so that Python touches the state once per 16 steps.
The energy is located by bisection on the interior node count down to a
bracket holding one node transition, then refined by false position
(Illinois) on the mismatch of logarithmic derivatives of outward and inward
sweeps at the outer classical turning point.  The grid density is doubled
until the eigenvalue moves by less than tol/4 under step halving (Richardson
self-consistency); each refined grid first tries a narrow bracket around the
previous grid's eigenvalue and searches from the potential floor only when
that bracket does not hold the level.

This module never touches the variational machinery: it is the check the
variational bounds are measured against.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .hamiltonian import PotentialSpec

__all__ = ["OracleResult", "ShootingError", "shoot_eigenvalue", "BACKEND"]

_RMIN_CAP = 1e-4     # default inner cutoff floor
_RMAX_CAP = 20.0     # default outer cutoff ceiling (override via r_max)
_TAIL_ACTION = 41.5  # WKB action making the neglected tail < 1e-18
_CORE_ACTION = 22.0  # barrier action below which the start form is exact enough
_BLOCK = 2048        # RK4 steps tabulated at once; bounds the sweep's memory
_SPAN = 16           # RK4 steps per block product; a power of two
_WARM = 16.0         # half-width, in tol, of a refined grid's warm bracket
_WIDEN = 16.0        # the one retry's bracket is this many times wider
_MAX_STEPS = 4_000_000  # RK4 steps of one grid; ~0.3 GB of tabulated arrays

BACKEND = "pure"     # the numpy-tabulated _sweep below is the only kernel


class ShootingError(RuntimeError):
    """Raised when the integrator cannot reach the requested tolerance."""


@dataclass(frozen=True)
class OracleResult:
    """A shooting eigenvalue with its bracketing and domain metadata.

    The reported energy is deliberately one-sided: it is the lower edge of
    the final energy bracket shifted down by one bracket width, so it
    never lands above the true eigenvalue (the root-finding noise floor and
    the grid error sit well inside the shift).  bracket_width is the final
    bracket's width, but never less than tol/8, where the root search stops.
    The eigenvalue lies within a couple of bracket_width above `energy`, and
    bracket_width <= the requested tolerance, so the estimate is still
    accurate to tol.  sweeps counts the RK4 sweeps of the whole call, over
    every grid it tried; fallbacks counts the refined grids whose two warm
    brackets around the previous grid's energy were both rejected, so that
    their search started from the potential floor.
    """

    energy: float
    nodes: int
    bracket_width: float
    r_min: float
    r_max: float
    steps: int
    grid_scale: float
    sweeps: int
    fallbacks: int


class _Tally:
    """RK4 sweeps run so far by one shoot_eigenvalue call, over all its grids."""

    def __init__(self):
        self.sweeps = 0


class _NeedLargerDomain(Exception):
    pass


class _StepSizeFailure(Exception):
    pass


def _product(later, earlier):
    """Matrix products later @ earlier of stacked 2x2 matrices, shape (2, 2, ...)."""
    return later[:, :1] * earlier[:1] + later[:, 1:] * earlier[1:]


def _sweep(w_nodes, w_mid, h, energy, y1, y2, count_nodes=False):
    """Fixed-step RK4 for (y, y') with y'' = (W(r) - E) y; return (y1, y2, nodes).

    W is tabulated at the len(h) + 1 step endpoints (w_nodes) and the len(h)
    step midpoints (w_mid); steps h are negative for inward sweeps.

    On this linear system one classical RK4 step is exactly a 2x2 matrix
    acting on (y, y'), in h and q = W - E at the step's start (q0), midpoint
    (qm) and end (q1):

        M00 = 1 + h^2 (q0 + 2 qm) / 6 + h^4 qm q0 / 24
        M01 = h (1 + h^2 qm / 6)
        M10 = h / 6 (q0 + 4 qm + q1 + h^2 qm (q0 + q1) / 2)
        M11 = 1 + h^2 (2 qm + q1) / 6 + h^4 qm q1 / 24

    The matrices are tabulated with numpy _BLOCK steps at a time and split
    into blocks of _SPAN steps (the last block padded with h = 0 steps,
    which are exactly the identity).  Pairwise products, later times
    earlier, reduce each block to one matrix in log2(_SPAN) numpy passes,
    so the Python loop runs once per block: it applies the block's product
    and renormalizes the state whenever it threatens to overflow or
    underflow.  The guard at 1e250 leaves a factor 1e58 of headroom, far
    more than the 16 steps of one block can change the state by, and the
    rescaling cancels out of node counts and logarithmic derivatives.

    With count_nodes, the same pairwise products walked back down from the
    block-start states give y at every step, all blocks at once, and the
    sign changes of y are counted with numpy; an exact zero leaves the
    previous sign in place.  The start values may be numpy scalars; the
    returned state is Python floats.
    """
    y1 = float(y1)
    y2 = float(y2)
    nodes = 0
    prev = y1  # the last nonzero y so far, or the zero start
    for start in range(0, len(h), _BLOCK):
        stop = min(start + _BLOCK, len(h))
        hb = h[start:stop]
        qn = w_nodes[start:stop + 1] - energy
        qm = w_mid[start:stop] - energy
        pad = -(stop - start) % _SPAN
        if pad:
            zeros = np.zeros(pad)
            hb = np.concatenate((hb, zeros))
            qn = np.concatenate((qn, zeros))
            qm = np.concatenate((qm, zeros))
        q0 = qn[:-1]
        q1 = qn[1:]
        blocks = len(hb) // _SPAN
        h2 = hb * hb
        h2qm = h2 * qm
        c2 = h2 / 6.0
        c4 = h2qm * h2 / 24.0
        m = np.empty((2, 2, blocks, _SPAN))
        m[0, 0] = (1.0 + c2 * (q0 + 2.0 * qm) + c4 * q0).reshape(blocks, _SPAN)
        m[0, 1] = (hb * (1.0 + h2qm / 6.0)).reshape(blocks, _SPAN)
        m[1, 0] = (hb / 6.0 * (q0 + 4.0 * qm + q1 + 0.5 * h2qm * (q0 + q1))
                   ).reshape(blocks, _SPAN)
        m[1, 1] = (1.0 + c2 * (2.0 * qm + q1) + c4 * q1).reshape(blocks, _SPAN)
        # levels[k][..., j] is the product of steps j 2^k .. (j + 1) 2^k - 1
        levels = [m]
        while levels[-1].shape[-1] > 1:
            t = levels[-1]
            levels.append(_product(t[..., 1::2], t[..., 0::2]))
        block = levels.pop().reshape(4, blocks).tolist()
        starts1 = []
        starts2 = []
        for a, b, c, d in zip(*block):
            if count_nodes:
                starts1.append(y1)
                starts2.append(y2)
            y1, y2 = a * y1 + b * y2, c * y1 + d * y2
            mag = abs(y1) + abs(y2)
            if mag > 1e250 or (mag != 0.0 and mag < 1e-250):
                y1 /= mag
                y2 /= mag
        if count_nodes:
            # states at the start of every step: the left half of each
            # product starts where its parent does, the right half after
            # the left half's product
            state = np.array((starts1, starts2))[:, :, None]
            for t in reversed(levels):
                left = t[..., 0::2]
                finer = np.empty((2, blocks, 2 * state.shape[-1]))
                finer[..., 0::2] = state
                finer[..., 1::2] = left[:, 0] * state[0] + left[:, 1] * state[1]
                state = finer
            # y after every step, led by the last nonzero y before them
            seq = np.append(state[0].ravel(), y1)
            seq[0] = prev
            seq = seq[seq != 0.0]
            sign = seq > 0.0
            nodes += int(np.count_nonzero(sign[1:] != sign[:-1]))
            if seq.size:
                prev = seq[-1]
    return y1, y2, nodes


class _RadialProblem:
    """W(r) = Lam(Lam+1)/r^2 + a1 r^2 + sum lam_k r^(-alpha_k) and its pieces."""

    def __init__(self, v: PotentialSpec):
        self.a1 = v.a1
        lam = v.Lambda
        self.c2 = lam * (lam + 1.0) + v.inv_square
        self.terms = v.singular
        self.strong = any(a > 2.0 and l > 0.0 for l, a in self.terms)
        # Hardy, -y'' >= y / (4 r^2): W + hardy / r^2 bounds the spectrum
        # below, and stays finite near 0 where c2 < 0 sends W to -inf
        self.hardy = min(max(-self.c2, 0.0), 0.25)

    def w(self, r: np.ndarray) -> np.ndarray:
        out = self.a1 * r * r
        if self.c2 != 0.0:
            out = out + self.c2 / (r * r)
        for lam, alpha in self.terms:
            out = out + lam * r ** (-alpha)
        return out

    def probe(self, r: np.ndarray) -> np.ndarray:
        """W on a probe grid; a steep barrier overflows to inf quietly.
        Terms of opposite sign that both overflow leave inf - inf, which
        no probe can use: that is an error naming the radius."""
        try:
            with np.errstate(over="ignore", invalid="raise"):
                return self.w(r)
        except FloatingPointError:
            with np.errstate(over="ignore", invalid="ignore"):
                bad = np.isnan(self.w(r))
        raise ShootingError(
            f"the potential is inf - inf at r = {r[bad].max():.3g}: singular "
            "terms of opposite sign both overflow there, so it cannot be "
            "tabulated")

    def floor(self, r: np.ndarray, w: np.ndarray | None = None) -> float:
        """Lower bound on the spectrum over the points r: the least
        W + hardy / r^2, from W tabulated as w, or probed."""
        if w is None:
            w = self.probe(r)
        if self.hardy:
            w = w + self.hardy / (r * r)
        return float(w.min())

    def w_prime(self, r: float) -> float:
        out = 2.0 * self.a1 * r - 2.0 * self.c2 / r**3
        for lam, alpha in self.terms:
            out -= alpha * lam * r ** (-alpha - 1.0)
        return out


class _Grid:
    """Composite grid with the potential pre-tabulated for the RK4 kernel;
    every sweep over it is counted in `tally`."""

    def __init__(self, prob: _RadialProblem, r_min: float, r_max: float,
                 e_cap: float, scale: float, tally: _Tally):
        self._tally = tally
        r_sw = min(max(2.0 * r_min, 0.5), 0.75 * r_max)
        w_floor_est = prob.floor(np.geomspace(r_min, r_max, 512))
        k_est = math.sqrt(max(e_cap - w_floor_est, 1.0))
        w_sw = prob.probe(np.array([r_sw]))[0]
        h_uni = min(0.03 / k_est, 0.25 / math.sqrt(max(w_sw, 1.0)))
        n_uni = max(600, int(math.ceil((r_max - r_sw) / h_uni)))
        stiff = math.sqrt(max(prob.probe(np.array([r_min]))[0], 1.0)) * r_min
        delta = min(0.08, 0.25 / max(stiff, 1.0))
        n_log = max(64, int(math.ceil(math.log(r_sw / r_min) / delta)))
        n_uni = int(math.ceil(n_uni * scale))
        n_log = int(math.ceil(n_log * scale))
        if n_uni + n_log > _MAX_STEPS:
            raise ShootingError(
                f"the RK4 grid on [{r_min:.3g}, {r_max:.3g}] would need "
                f"{n_uni + n_log:.3g} steps, more than {_MAX_STEPS:.0e}: energies "
                f"up to {e_cap:.3g} oscillate too fast to resolve there")
        g_log = np.geomspace(r_min, r_sw, n_log + 1)
        g_uni = np.linspace(r_sw, r_max, n_uni + 1)
        self.r = np.concatenate([g_log, g_uni[1:]])
        self.h = np.diff(self.r)
        mid = 0.5 * (self.r[:-1] + self.r[1:])
        self.wn = prob.w(self.r)
        self.wm = prob.w(mid)
        self.w_floor = min(prob.floor(self.r, self.wn), prob.floor(mid, self.wm))
        self.steps = len(self.h)
        # contiguous reversed copies for inward sweeps
        self._wn_r = np.ascontiguousarray(self.wn[::-1])
        self._wm_r = np.ascontiguousarray(self.wm[::-1])
        self._h_r = np.ascontiguousarray(-self.h[::-1])

    def outward(self, energy, y1, y2, count_nodes=False, stop=None):
        self._tally.sweeps += 1
        if stop is None:
            return _sweep(self.wn, self.wm, self.h, energy, y1, y2, count_nodes)
        return _sweep(self.wn[: stop + 1], self.wm[:stop], self.h[:stop],
                      energy, y1, y2, count_nodes)

    def inward(self, energy, y1, y2, stop):
        """Sweep from r_max down to node index `stop`."""
        self._tally.sweeps += 1
        n = self.steps
        return _sweep(self._wn_r[: n - stop + 1], self._wm_r[: n - stop],
                      self._h_r[: n - stop], energy, y1, y2, False)


def _action_reach(r: np.ndarray, q: np.ndarray, action: float) -> int | None:
    """Index of the first point of r whose WKB action from r[0], the
    trapezoid sum of q = sqrt(max(W - E, 0)), reaches `action`; None if none
    does.  The sum runs outward from r[0], the turning point, so that a
    barrier soaring further out cannot swamp it in rounding."""
    reached = np.cumsum(0.5 * (q[1:] + q[:-1]) * np.abs(np.diff(r))) >= action
    return 1 + int(np.argmax(reached)) if reached.any() else None


def _choose_r_min(prob: _RadialProblem, e_cap: float) -> float:
    if not prob.strong:
        return _RMIN_CAP
    rr = np.geomspace(_RMIN_CAP, 2.0, 4000)
    wv = prob.probe(rr)
    under = wv > e_cap
    if not under[0]:
        return _RMIN_CAP
    turn = int(np.argmin(under))  # first index inside the well
    if turn == 0:
        turn = len(rr) - 1
    q = np.sqrt(np.maximum(wv - e_cap, 0.0))
    k = _action_reach(rr[turn::-1], q[turn::-1], _CORE_ACTION)
    return _RMIN_CAP if k is None else float(rr[turn - k])


def _choose_r_max(prob: _RadialProblem, e_cap: float, cap: float) -> float:
    hi = min(cap, 2.0 * math.sqrt(e_cap / prob.a1) + 10.0)
    rr = np.linspace(0.25, hi, 4000)
    wv = prob.probe(rr)
    q = np.sqrt(np.maximum(wv - e_cap, 0.0))
    outer = len(rr) - 1 - int(np.argmax((wv < e_cap)[::-1]))
    if wv[outer] >= e_cap:  # no allowed region this far out; keep everything
        return hi
    k = _action_reach(rr[outer:], q[outer:], _TAIL_ACTION)
    if k is None:
        if hi >= cap - 1e-12:
            raise ShootingError(
                f"energies near {e_cap:.3g} lie beyond the default outer "
                f"cutoff cap {cap}: the tail does not decay to 1e-18 inside it "
                f"(a larger cutoff is the r_max argument of shoot_eigenvalue)"
            )
        return hi
    return float(rr[outer + k])


def _start_values(prob: _RadialProblem, r0: float, energy: float):
    """(y, y') at r_min: Frobenius form r^s (1 + c r^2) for inverse-square
    leading behavior, WKB log-derivative under a stronger singular barrier."""
    if prob.strong:
        q = prob.w(np.array([r0]))[0] - energy
        if q <= 0.0:
            return 1.0, 0.0
        return 1.0, math.sqrt(q) - prob.w_prime(r0) / (4.0 * q)
    s = 0.5 + math.sqrt(max(0.25 + prob.c2, 0.0))
    c = -energy / (4.0 * s + 2.0)
    return 1.0 + c * r0 * r0, (s + (s + 2.0) * c * r0 * r0) / r0


def _false_position(f, a: float, fa: float, b: float, fb: float, width: float):
    """Shrink a sign-change bracket [a, b] of f to at most `width` by the
    Illinois variant of false position, which halves the weight of an end
    kept twice running so that both ends close in on the root."""
    kept = 0  # +1 / -1 while b / a was kept by the last step
    for _ in range(240):
        if b - a <= width:
            break
        m = a - fa * (b - a) / (fb - fa)
        if not a < m < b:
            m = 0.5 * (a + b)
            if not a < m < b:
                break
        fm = f(m)
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
            if kept > 0:
                fb *= 0.5
            kept = 1
        else:
            b, fb = m, fm
            if kept < 0:
                fa *= 0.5
            kept = -1
    return a, b


def _solve_at_density(prob: _RadialProblem, grid: _Grid, level: int, tol: float,
                      e_cap: float, prior: float | None = None):
    """Bisection on node count to a unit node bracket, then false position
    on the normalized matching Wronskian; return (energy, width, warm).

    With a prior (the energy found on the previous, coarser grid) the
    bracket prior -/+ _WARM * tol is tried first, then once a bracket
    _WIDEN times wider, for a coarse grid whose error exceeds the first.
    When one holds exactly the level-th node transition and the mismatch
    changes sign across it, false position starts from it directly (warm is
    True); otherwise the search starts from the potential floor as it does
    without a prior."""

    def nodes_of(energy: float) -> int:
        y1, y2 = _start_values(prob, grid.r[0], energy)
        return grid.outward(energy, y1, y2, count_nodes=True)[2]

    def mismatch(energy: float) -> float:
        below = grid.wn < energy
        if below.any():
            im = len(grid.wn) - 1 - int(np.argmax(below[::-1]))
        else:
            im = grid.steps // 2
        im = min(max(im, 3), grid.steps - 3)
        y1, y2 = _start_values(prob, grid.r[0], energy)
        o1, o2, _ = grid.outward(energy, y1, y2, stop=im)
        qe = max(grid.wn[-1] - energy, 1e-12)
        i1, i2, _ = grid.inward(energy, 1.0, -math.sqrt(qe), stop=im)
        return (o2 * i1 - i2 * o1) / ((abs(o1) + abs(o2)) * (abs(i1) + abs(i2)))

    def node_bisect(e_lo, n_lo, e_hi, n_hi, width):
        """Halve [e_lo, e_hi] on the node count until it holds a single
        node transition and is at most `width` wide."""
        while n_hi - n_lo > 1 or e_hi - e_lo > width:
            e_mid = 0.5 * (e_lo + e_hi)
            if not e_lo < e_mid < e_hi:
                break
            n_mid = nodes_of(e_mid)
            if not n_lo <= n_mid <= n_hi:
                raise _StepSizeFailure(
                    f"node count {n_mid} at E={e_mid:.6g} outside [{n_lo}, {n_hi}]"
                )
            if n_mid <= level:
                e_lo, n_lo = e_mid, n_mid
            else:
                e_hi, n_hi = e_mid, n_mid
        return e_lo, n_lo, e_hi, n_hi

    def sign_change(f_lo: float, f_hi: float) -> bool:
        return f_lo == f_lo and f_hi == f_hi and (f_lo < 0.0) != (f_hi < 0.0)

    warm = False
    if prior is not None:
        for half in (_WARM * tol, _WIDEN * _WARM * tol):
            e_lo, e_hi = prior - half, prior + half
            if nodes_of(e_lo) == level and nodes_of(e_hi) == level + 1:
                f_lo = mismatch(e_lo)
                f_hi = mismatch(e_hi)
                warm = sign_change(f_lo, f_hi)
            if warm:
                break
    if not warm:
        floor = grid.w_floor
        e_lo = floor + 1e-12 * (1.0 + abs(floor))
        n_lo = nodes_of(e_lo)
        if n_lo > level:
            raise _StepSizeFailure(f"{n_lo} nodes at the potential floor")
        e_hi = floor + max(4.0 * math.sqrt(prob.a1) * (level + 1.0), 1.0)
        n_hi = nodes_of(e_hi)
        while n_hi <= level:
            e_hi = floor + 2.0 * (e_hi - floor)
            if e_hi > e_cap:
                raise _NeedLargerDomain
            n_hi = nodes_of(e_hi)
        e_lo, n_lo, e_hi, n_hi = node_bisect(e_lo, n_lo, e_hi, n_hi, math.inf)
        f_lo = mismatch(e_lo)
        f_hi = mismatch(e_hi)
    # refine on the matching mismatch when it brackets a sign change,
    # otherwise carry the node bisection all the way down
    if warm or sign_change(f_lo, f_hi):
        e_lo, e_hi = _false_position(mismatch, e_lo, f_lo, e_hi, f_hi, 0.125 * tol)
    else:
        e_lo, _, e_hi, _ = node_bisect(e_lo, n_lo, e_hi, n_hi, 0.125 * tol)
    width = e_hi - e_lo
    if width > tol:
        raise ShootingError(
            f"energy bracket stalled at width {width:.3g} > tol {tol:.3g}"
        )
    # one-sided report: lower edge less one width stays below the true level.
    # False position can close the bracket far below the tol/8 stop, so the
    # width counted is never less than that stop: the shift must still cover
    # the grid's own error, which the Richardson check holds near tol/60.
    width = max(width, 0.125 * tol)
    return e_lo - width, width, warm


def _log_result(res: OracleResult) -> None:
    """One DEBUG record per shoot_eigenvalue call on `spikevar.oracle`."""
    # A process that never imported logging has configured no handler or
    # level that could show a DEBUG record, so skipping it there changes no
    # output and spares every oracle call the module's load (~0.5 MiB).
    logging = sys.modules.get("logging")
    if logging is None:
        return
    logging.getLogger(__name__).debug(
        "r_min=%.6g r_max=%.6g steps=%d grid_scale=%g bracket_width=%.3g "
        "fallbacks=%d sweeps=%d", res.r_min, res.r_max, res.steps, res.grid_scale,
        res.bracket_width, res.fallbacks, res.sweeps)


def shoot_eigenvalue(
    v: PotentialSpec,
    level: int,
    tol: float = 1e-6,
    r_min: float | None = None,
    r_max: float | None = None,
    grid_scale: float = 1.0,
    auto_refine: bool = True,
    max_refine: int = 6,
) -> OracleResult:
    """Level-th Dirichlet eigenvalue of -y'' + [Lam(Lam+1)/r^2 + V] y = E y.

    The domain is sized so the start forms at r_min and the neglected tail
    beyond r_max are below the eigenvalue tolerance; explicit r_min / r_max
    override the automatic choice.  With auto_refine the grid density doubles
    until step halving moves the eigenvalue by less than tol/4; failure to
    settle within max_refine doublings raises ShootingError.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if not tol > 0.0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    prob = _RadialProblem(v)
    w_probe = prob.floor(np.geomspace(1e-3, 10.0, 1024))
    e_cap = w_probe + max(4.0 * math.sqrt(v.a1) * (2 * level + 3.0), 20.0)
    tally = _Tally()
    fallbacks = 0  # refined grids whose warm bracket was rejected

    for _ in range(12):
        rmin_eff = r_min if r_min is not None else _choose_r_min(prob, e_cap)
        rmax_eff = r_max if r_max is not None else _choose_r_max(prob, e_cap, _RMAX_CAP)
        if not 0.0 < rmin_eff < rmax_eff:
            raise ValueError(f"invalid domain [{rmin_eff}, {rmax_eff}]")
        scale = grid_scale
        energy = None  # last energy solved, for the Richardson comparison
        refinements = 0
        try:
            while True:
                grid = _Grid(prob, rmin_eff, rmax_eff, e_cap, scale, tally)
                try:
                    found, width, warm = _solve_at_density(prob, grid, level, tol,
                                                           e_cap, energy)
                except _StepSizeFailure:
                    failure = "node-count monotonicity kept failing under refinement"
                else:
                    if energy is not None and not warm:
                        fallbacks += 1
                    if not auto_refine or (energy is not None
                                           and abs(found - energy) < 0.25 * tol):
                        res = OracleResult(float(found), level, float(width),
                                           rmin_eff, rmax_eff, grid.steps, scale,
                                           tally.sweeps, fallbacks)
                        _log_result(res)
                        return res
                    failure = (f"Richardson check did not settle below tol/4 = "
                               f"{0.25 * tol:.3g} within {max_refine} grid doublings")
                    free = energy is None  # the first halving is the check itself
                    energy = found
                    if free:
                        scale *= 2.0
                        continue
                refinements += 1
                if refinements > max_refine:
                    raise ShootingError(failure)
                scale *= 2.0
        except _NeedLargerDomain:
            e_cap = w_probe + 2.0 * (e_cap - w_probe)
            continue
    raise ShootingError("energy cap expansion failed to bracket the level")
