"""Independent eigenvalue computation by direct integration of the radial
Schrodinger equation.

-y'' + [Lam(Lam+1)/r^2 + V(r)] y = E y is integrated with fixed-step RK4 on a
composite grid: log-uniform from r_min to r_sw, uniform in the well at a
step whose phase at the energy cap is 0.03 rad up to tol 1e-8 and grows as
tol^(1/4) to 0.06 rad from tol ~1.6e-7 on, and, beyond 1.5 units of WKB
action past the outer turning point at the cap, a tail stepped only for
RK4 stability (h kappa <= 0.5), since an error made there reaches the
matching point damped by exp(-2 action).  The outer cutoff leaves a tail of
WKB action 8 + ln(1/tol)/2, so a looser tolerance integrates a shorter
domain.  Each step is applied as its exact 2x2 transfer matrix on (y, y'),
tabulated with numpy and multiplied together 16 steps at a time, so that
Python touches the state once per 16 steps.  A kernel call's fixed cost
(~75 us on a 2-vCPU x86-64 host) is worth ~1000 steps (~75 ns each), so
each call runs several sweeps (chains) where it can: the outward and inward
halves of every matching evaluation, and both ends of every bracket.

The energy is located by bisection on the interior node count down to a
bracket holding one node transition, then refined by Brent's method on the
mismatch of logarithmic derivatives of outward and inward sweeps at the
outer classical turning point.  The grid density is doubled until the
eigenvalue moves by less than tol/4 under step halving (Richardson
self-consistency); each refined grid first tries narrow brackets around the
previous grid's eigenvalue and searches from the potential floor only when
none of them holds the level.

This module never touches the variational machinery: it is the check the
variational bounds are measured against.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .hamiltonian import PotentialSpec

__all__ = ["OracleResult", "ShootingError", "shoot_eigenvalue", "BACKEND"]

_RMIN_CAP = 1e-4     # default inner cutoff floor
_RMAX_CAP = 20.0     # default outer cutoff ceiling (override via r_max)
# the tail beyond r_max keeps a WKB action of _TAIL_ACTION + ln(1/tol)/2:
# the wall at r_max then shifts the level by exp(-2 action) = e^-16 tol
# times an O(1) prefactor, below 1e-4 tol while the prefactor is under ~900
_TAIL_ACTION = 8.0
_TAIL_MAX = 41.5     # the longest tail asked for, a 1e-18 one
_CORE_ACTION = 22.0  # barrier action below which the start form is exact enough
# beyond _TAIL_START of WKB action past the outer turning point at the
# energy cap, an error of the tail reaches the matching point damped by
# exp(-2 action) or more, so the tail is stepped for RK4 stability alone,
# at h kappa = _TAIL_HK, rather than as finely as the well
_TAIL_START = 1.5
_TAIL_HK = 0.5
_BLOCK = 2048        # RK4 steps tabulated at once; bounds the sweep's memory
_SPAN = 16           # RK4 steps per block product; a power of two
_WARM = 16.0         # half-width, in tol, of a refined grid's warm bracket
_WIDEN = 16.0        # each of two retries widens the bracket this many times
_MAX_STEPS = 4_000_000  # RK4 steps of one grid; ~0.3 GB of tabulated arrays
# probe radii of the energy cap and of the inner cutoff
_CAP_PROBE = np.geomspace(1e-3, 10.0, 1024)
_CORE_PROBE = np.geomspace(_RMIN_CAP, 2.0, 4000)
_CAP_PROBE.flags.writeable = False
_CORE_PROBE.flags.writeable = False

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
    accurate to tol.  sweeps counts the RK4 kernel calls of the whole call,
    over every grid it tried, each of which may run several chains;
    fallbacks counts the refined grids whose three warm brackets around the
    previous grid's energy were all rejected, so that their search started
    from the potential floor.
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
    """RK4 kernel calls made so far by one shoot_eigenvalue call, over all
    its grids."""

    def __init__(self):
        self.sweeps = 0


class _NeedLargerDomain(Exception):
    pass


class _StepSizeFailure(Exception):
    pass


def _product(later, earlier):
    """Matrix products later @ earlier of stacked 2x2 matrices, shape (2, 2, ...)."""
    return later[:, :1] * earlier[:1] + later[:, 1:] * earlier[1:]


def _chunks(lengths):
    """Cut chains of the given step counts, each padded to whole blocks of
    _SPAN, into chunks of at most _BLOCK steps; yield each chunk as a list
    of pieces (chain, index of the chain's first step, first step, end)."""
    chunk, room, offset = [], _BLOCK, 0
    for k, n in enumerate(lengths):
        padded = n + (-n % _SPAN)
        a = 0
        while a < padded:
            b = a + min(room, padded - a)
            chunk.append((k, offset, a, b))
            room -= b - a
            a = b
            if not room:
                yield chunk
                chunk, room = [], _BLOCK
        offset += n
    if chunk:
        yield chunk


def _sweep(w_nodes, w_mid, h, chains, count_nodes=False):
    """Fixed-step RK4 for (y, y') with y'' = (W(r) - E) y along each of the
    chains (energy, y1, y2, steps); return each chain's (y1, y2, nodes).

    h holds every chain's steps, one chain after another; w_nodes holds
    each chain's steps + 1 values of W at the step endpoints and w_mid its
    steps values at the step midpoints, in the same order.  Steps are
    negative for inward sweeps.  One call runs every chain, so the call's
    fixed cost is paid once for all of them; each chain is padded to whole
    blocks on its own, so it gets the exact bits of a call of its own.

    On this linear system one classical RK4 step is exactly a 2x2 matrix
    acting on (y, y'), in h and q = W - E at the step's start (q0), midpoint
    (qm) and end (q1):

        M00 = 1 + h^2 (q0 + 2 qm) / 6 + h^4 qm q0 / 24
        M01 = h (1 + h^2 qm / 6)
        M10 = h / 6 (q0 + 4 qm + q1 + h^2 qm (q0 + q1) / 2)
        M11 = 1 + h^2 (2 qm + q1) / 6 + h^4 qm q1 / 24

    The steps are split into blocks of _SPAN (the last block of a chain
    padded with h = 0 steps, which are exactly the identity) and their
    matrices are tabulated with numpy _BLOCK steps at a time.  Pairwise
    products, later times earlier, reduce each block to one matrix in
    log2(_SPAN) numpy passes, so the Python loop runs once per block: it
    applies the block's product and renormalizes the state whenever it
    leaves [1e-250, 1e250].  The rescaling cancels out of node counts and
    logarithmic derivatives.  That leaves a state 1e58 of headroom, which
    the 16 steps of a block can exceed on a steep grid (RK4 grows by ~(h
    kappa)^4 / 24 per step where h kappa is large): a product that
    overflows the state is applied again to the state scaled to unit size.

    With count_nodes, the same pairwise products walked back down from the
    block-start states give y at every step, all blocks at once, and the
    sign changes of y are counted with numpy; an exact zero leaves the
    previous sign in place.  The walk-down starts from each block-start
    state scaled by a power of two to unit size, so that its partial
    products cannot overflow either; an exact scaling changes no sign.  The
    start values may be numpy scalars; the returned states are Python
    floats.
    """
    lengths = [steps for *_, steps in chains]
    states = [(float(y1), float(y2)) for _, y1, y2, _ in chains]
    nodes = [0] * len(chains)
    prev = [y1 for y1, _ in states]  # each chain's last nonzero y, or its zero start
    for chunk in _chunks(lengths):
        parts = []  # h, q0, qm, q1 of each piece
        for k, offset, a, b in chunk:
            # steps a .. stop - 1 of chain k, then h = 0 padding up to b;
            # each chain before it has one node more than steps
            stop = min(b, lengths[k])
            energy = chains[k][0]
            hp = h[offset + a:offset + stop]
            qn = w_nodes[offset + k + a:offset + k + stop + 1] - energy
            qm = w_mid[offset + a:offset + stop] - energy
            if b > stop:
                zeros = np.zeros(b - stop)
                hp, qn, qm = (np.concatenate((x, zeros)) for x in (hp, qn, qm))
            parts.append((hp, qn[:-1], qm, qn[1:]))
        if len(parts) == 1:
            hb, q0, qm, q1 = parts[0]
        else:
            hb, q0, qm, q1 = (np.concatenate(x) for x in zip(*parts))
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
        products = zip(*levels.pop().reshape(4, blocks).tolist())
        starts1, starts2 = [], []
        for k, _, a, b in chunk:
            y1, y2 = states[k]
            for m00, m01, m10, m11 in itertools.islice(products, (b - a) // _SPAN):
                if count_nodes:
                    starts1.append(y1)
                    starts2.append(y2)
                z1, z2 = m00 * y1 + m01 * y2, m10 * y1 + m11 * y2
                mag = abs(z1) + abs(z2)
                if not 1e-250 <= mag <= 1e250 and mag != 0.0:
                    if not mag < math.inf:  # the product overflowed the state
                        mag = abs(y1) + abs(y2)
                        y1, y2 = y1 / mag, y2 / mag
                        z1, z2 = m00 * y1 + m01 * y2, m10 * y1 + m11 * y2
                        mag = abs(z1) + abs(z2)
                    z1, z2 = z1 / mag, z2 / mag
                y1, y2 = z1, z2
            states[k] = y1, y2
        if count_nodes:
            state = np.array((starts1, starts2))
            state = np.ldexp(state, -np.frexp(np.abs(state).max(axis=0))[1])[:, :, None]
            # states at the start of every step: the left half of each
            # product starts where its parent does, the right half after
            # the left half's product
            for t in reversed(levels):
                left = t[..., 0::2]
                finer = np.empty((2, blocks, 2 * state.shape[-1]))
                finer[..., 0::2] = state
                finer[..., 1::2] = left[:, 0] * state[0] + left[:, 1] * state[1]
                state = finer
            ys = state[0].ravel()
            for k, _, a, b in chunk:
                # y after every step of the piece, led by the last nonzero y
                # before them
                seq = np.append(ys[:b - a], states[k][0])
                ys = ys[b - a:]
                seq[0] = prev[k]
                seq = seq[seq != 0.0]
                sign = seq > 0.0
                nodes[k] += int(np.count_nonzero(sign[1:] != sign[:-1]))
                if seq.size:
                    prev[k] = seq[-1]
    return [(y1, y2, n) for (y1, y2), n in zip(states, nodes)]


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


class _Domain:
    """What every grid density on [r_min, r_max] shares, computed once: the
    step counts at grid scale 1 of the log-uniform core (n_log), of the
    uniform well run out to r_max (n_uni) and of the stability-stepped tail
    (n_tail), and where that tail begins (r_tail)."""

    def __init__(self, prob: _RadialProblem, r_min: float, r_max: float,
                 e_cap: float, tol: float):
        self.prob = prob
        self.e_cap = e_cap
        self.r_min = r_min
        self.r_max = r_max
        self.r_sw = r_sw = min(max(2.0 * r_min, 0.5), 0.75 * r_max)
        rr = np.geomspace(r_min, r_max, 512)
        wv = prob.probe(rr)
        w_floor = prob.floor(rr, wv)
        k_est = math.sqrt(max(e_cap - w_floor, 1.0))
        w_sw = prob.probe(np.array([r_sw]))[0]
        h_uni = min(_phase(tol) / k_est, 0.25 / math.sqrt(max(w_sw, 1.0)))
        # uniform steps from r_sw to r_max at the well's step
        self.n_uni = max(600, int(math.ceil((r_max - r_sw) / h_uni)))
        stiff = math.sqrt(max(prob.probe(np.array([r_min]))[0], 1.0)) * r_min
        delta = min(0.08, 0.25 / max(stiff, 1.0))
        self.n_log = max(64, int(math.ceil(math.log(r_sw / r_min) / delta)))
        # the tail begins _TAIL_START of WKB action past the outer turning
        # point at e_cap and takes steps of _TAIL_HK / kappa, kappa its
        # steepest sqrt(W - floor): no energy searched is below the floor
        self.r_tail = r_max
        self.n_tail = 0.0
        below = np.flatnonzero(wv < e_cap)
        if below.size:
            outer = int(below[-1])
            q = np.sqrt(np.maximum(wv[outer:] - e_cap, 0.0))
            k = _action_reach(rr[outer:], q, _TAIL_START)
            if k is not None:
                kappa = math.sqrt(max(float(wv[outer + k:].max()) - w_floor, 1.0))
                if math.isfinite(kappa):  # the probe lets W overflow to inf
                    self.r_tail = max(float(rr[outer + k]), r_sw)
                    self.n_tail = (r_max - self.r_tail) * kappa / _TAIL_HK


class _Grid:
    """Composite grid with the potential pre-tabulated for the RK4 kernel:
    log-uniform from r_min to r_sw, uniform at the well's step from there,
    and from r_tail to r_max at the tail's own step where that makes the
    grid shorter.  Every kernel call over it is counted in `tally`."""

    def __init__(self, dom: _Domain, scale: float, tally: _Tally):
        self._tally = tally
        r_min, r_sw, r_max = dom.r_min, dom.r_sw, dom.r_max
        n_log = int(math.ceil(dom.n_log * scale))
        n_uni = int(math.ceil(dom.n_uni * scale))
        # the tail starts at the first well node at or past r_tail, so the
        # well's nodes are those of a grid without the tail
        n_well = int(math.ceil(n_uni * (dom.r_tail - r_sw) / (r_max - r_sw)))
        n_tail = int(math.ceil(dom.n_tail * scale))
        if n_well + n_tail >= n_uni:  # the tail's own step saves nothing
            n_well, n_tail = n_uni, 0
        steps = n_log + n_well + n_tail
        # the matching point of _solve_at_density lies in [3, steps - 3]
        if steps < 6:
            raise ShootingError(
                f"the RK4 grid on [{r_min:.3g}, {r_max:.3g}] would have "
                f"{steps} steps, too few to hold the matching point "
                f"(at least 6): grid scale {scale:g} is too small")
        if steps > _MAX_STEPS:
            raise ShootingError(
                f"the RK4 grid on [{r_min:.3g}, {r_max:.3g}] would need "
                f"{steps:.3g} steps, more than {_MAX_STEPS:.0e}: energies "
                f"up to {dom.e_cap:.3g} oscillate too fast to resolve there")
        g_uni = np.linspace(r_sw, r_max, n_uni + 1)[:n_well + 1]
        self.r = np.concatenate([np.geomspace(r_min, r_sw, n_log + 1), g_uni[1:],
                                 np.linspace(g_uni[-1], r_max, n_tail + 1)[1:]])
        self.h = np.diff(self.r)
        mid = 0.5 * (self.r[:-1] + self.r[1:])
        prob = dom.prob
        self.wn = prob.w(self.r)
        self.wm = prob.w(mid)
        self.w_floor = min(prob.floor(self.r, self.wn), prob.floor(mid, self.wm))
        self.steps = len(self.h)
        self._prob = prob
        self._w0_prime = prob.w_prime(float(self.r[0]))
        # contiguous reversed copies for inward sweeps
        self._wn_r = np.ascontiguousarray(self.wn[::-1])
        self._wm_r = np.ascontiguousarray(self.wm[::-1])
        self._h_r = np.ascontiguousarray(-self.h[::-1])

    def start(self, energy: float):
        """(y, y') at r_min: WKB log-derivative where a stronger singular
        barrier is classically forbidden at r_min, else the Frobenius form
        r^s (1 + c r^2) of inverse-square leading behavior (a barrier too
        weak to rise above E at r_min leaves the solution there close to
        it)."""
        prob = self._prob
        r0 = float(self.r[0])
        if prob.strong:
            q = float(self.wn[0]) - energy
            if q > 0.0:
                return 1.0, math.sqrt(q) - self._w0_prime / (4.0 * q)
        s = 0.5 + math.sqrt(max(0.25 + prob.c2, 0.0))
        c = -energy / (4.0 * s + 2.0)
        return 1.0 + c * r0 * r0, (s + (s + 2.0) * c * r0 * r0) / r0

    def sweep(self, chains, count_nodes=False):
        """Run the chains (energy, stop, inward) in one kernel call and
        return their (y1, y2, nodes).  An outward chain runs from r_min,
        where `start` gives its state, to node `stop`; an inward one runs
        from r_max down to node `stop`, from y = 1 and the decaying
        log-derivative -sqrt(W(r_max) - E)."""
        self._tally.sweeps += 1
        parts, runs = [], []
        for energy, stop, inward in chains:
            if inward:
                n = self.steps - stop
                parts.append((self._wn_r[:n + 1], self._wm_r[:n], self._h_r[:n]))
                y2 = -math.sqrt(max(self.wn[-1] - energy, 1e-12))
                runs.append((energy, 1.0, y2, n))
            else:
                parts.append((self.wn[:stop + 1], self.wm[:stop], self.h[:stop]))
                runs.append((energy, *self.start(energy), stop))
        return _sweep(*(np.concatenate(x) for x in zip(*parts)), runs, count_nodes)


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
    rr = _CORE_PROBE
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


def _phase(tol: float) -> float:
    """Phase, in rad, of one uniform well step at the energy cap: 0.03 up to
    tol 1e-8, then growing as tol^(1/4), as the RK4 error shrinks as h^4, up
    to 0.06 from tol ~1.6e-7 on (still under 1 rad per block of _SPAN)."""
    return min(0.03 * max(tol / 1e-8, 1.0) ** 0.25, 0.06)


def _tail_action(tol: float) -> float:
    """WKB action of the tail neglected beyond r_max for tolerance tol."""
    return min(_TAIL_ACTION + 0.5 * math.log(1.0 / tol), _TAIL_MAX)


def _choose_r_max(prob: _RadialProblem, e_cap: float, cap: float,
                  tol: float) -> float:
    hi = min(cap, 2.0 * math.sqrt(e_cap / prob.a1) + 10.0)
    rr = np.linspace(0.25, hi, 4000)
    wv = prob.probe(rr)
    q = np.sqrt(np.maximum(wv - e_cap, 0.0))
    outer = len(rr) - 1 - int(np.argmax((wv < e_cap)[::-1]))
    if wv[outer] >= e_cap:  # no allowed region this far out; keep everything
        return hi
    action = _tail_action(tol)
    k = _action_reach(rr[outer:], q[outer:], action)
    if k is None:
        if hi >= cap - 1e-12:
            raise ShootingError(
                f"energies near {e_cap:.3g} lie beyond the default outer "
                f"cutoff cap {cap}: the tail does not reach the WKB action "
                f"{action:.3g} that tol = {tol:.3g} needs inside it (a larger "
                f"cutoff is the r_max argument of shoot_eigenvalue)"
            )
        return hi
    return float(rr[outer + k])


def _brent(f, a: float, fa: float, b: float, fb: float, width: float):
    """Shrink a sign-change bracket [a, b] of f to at most `width` by Brent's
    method (R. P. Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 4): inverse quadratic or secant steps while they shrink the
    bracket fast enough, bisection otherwise, and never a step shorter than
    width/4.  So an iterate that lands on the root is followed by one step
    across it, and the bracket closes there.  A zero of f counts as positive,
    as a sign change is judged throughout."""
    # b is the best estimate, c the end across the root, a the previous b
    c, fc = a, fa
    d = e = b - a
    for _ in range(240):
        if (fb < 0.0) == (fc < 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        if abs(c - b) <= width:
            break
        least = 0.25 * width + 2.0 * sys.float_info.epsilon * abs(b)
        m = 0.5 * (c - b)
        if abs(e) >= least and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation through a, b, c
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(least * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > least else math.copysign(least, m)
        fb = f(b)
    return min(b, c), max(b, c)


def _solve_at_density(prob: _RadialProblem, grid: _Grid, level: int, tol: float,
                      e_cap: float, prior: float | None = None):
    """Bisection on node count to a unit node bracket, then Brent's method
    on the normalized matching Wronskian down to a tol/8 bracket; return
    (energy, width, warm).

    With a prior (the energy found on the previous, coarser grid) the
    bracket prior -/+ _WARM * tol is tried first, then up to twice a
    bracket _WIDEN times wider, for a coarse grid whose error exceeds the
    one before.  When one holds exactly the level-th node transition and
    the mismatch changes sign across it, Brent's method starts from it
    directly (warm is True); otherwise the search starts from the potential
    floor as it does without a prior.  Both ends of a bracket are swept in
    one kernel call, and so are the outward and inward halves of every
    matching evaluation.  Brent's method steps across a root it has landed
    on by at least tol/32, so where the bracket closes, and so the energy
    reported, does not hang on the last bits of the mismatch, unless an
    iterate lands within the mismatch's rounding noise of the root."""

    def nodes_of(*energies: float) -> list[int]:
        ends = grid.sweep([(e, grid.steps, False) for e in energies], count_nodes=True)
        return [n for _, _, n in ends]

    def mismatch(*energies: float) -> list[float]:
        chains = []
        for e in energies:
            below = grid.wn < e
            if below.any():
                im = len(grid.wn) - 1 - int(np.argmax(below[::-1]))
            else:
                im = grid.steps // 2
            im = min(max(im, 3), grid.steps - 3)
            chains += [(e, im, False), (e, im, True)]
        ends = grid.sweep(chains)
        return [(o2 * i1 - i2 * o1) / ((abs(o1) + abs(o2)) * (abs(i1) + abs(i2)))
                for (o1, o2, _), (i1, i2, _) in zip(ends[0::2], ends[1::2])]

    def node_bisect(e_lo, n_lo, e_hi, n_hi, width):
        """Halve [e_lo, e_hi] on the node count until it holds a single
        node transition and is at most `width` wide."""
        while n_hi - n_lo > 1 or e_hi - e_lo > width:
            e_mid = 0.5 * (e_lo + e_hi)
            if not e_lo < e_mid < e_hi:
                break
            (n_mid,) = nodes_of(e_mid)
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
        for half in (_WARM * tol, _WIDEN * _WARM * tol, _WIDEN**2 * _WARM * tol):
            e_lo, e_hi = prior - half, prior + half
            if nodes_of(e_lo, e_hi) == [level, level + 1]:
                f_lo, f_hi = mismatch(e_lo, e_hi)
                warm = sign_change(f_lo, f_hi)
            if warm:
                break
    if not warm:
        floor = grid.w_floor
        e_lo = floor + 1e-12 * (1.0 + abs(floor))
        e_hi = floor + max(4.0 * math.sqrt(prob.a1) * (level + 1.0), 1.0)
        n_lo, n_hi = nodes_of(e_lo, e_hi)
        if n_lo > level:
            raise _StepSizeFailure(f"{n_lo} nodes at the potential floor")
        while n_hi <= level:
            e_hi = floor + 2.0 * (e_hi - floor)
            if e_hi > e_cap:
                raise _NeedLargerDomain
            (n_hi,) = nodes_of(e_hi)
        e_lo, n_lo, e_hi, n_hi = node_bisect(e_lo, n_lo, e_hi, n_hi, math.inf)
        f_lo, f_hi = mismatch(e_lo, e_hi)
    # refine on the matching mismatch when it brackets a sign change,
    # otherwise carry the node bisection all the way down
    if warm or sign_change(f_lo, f_hi):
        e_lo, e_hi = _brent(lambda e: mismatch(e)[0], e_lo, f_lo, e_hi, f_hi,
                            0.125 * tol)
    else:
        e_lo, _, e_hi, _ = node_bisect(e_lo, n_lo, e_hi, n_hi, 0.125 * tol)
    width = e_hi - e_lo
    if width > tol:
        raise ShootingError(
            f"energy bracket stalled at width {width:.3g} > tol {tol:.3g}"
        )
    # one-sided report: lower edge less one width stays below the true level.
    # Brent's method can close the bracket below the tol/8 stop, so the
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
    beyond r_max (of WKB action 8 + ln(1/tol)/2) are below the eigenvalue
    tolerance; explicit r_min / r_max override the automatic choice.  With
    auto_refine the grid density doubles until step halving moves the
    eigenvalue by less than tol/4; failure to settle within max_refine
    doublings raises ShootingError, and so does a grid_scale that leaves a
    grid too short to hold the matching point.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and > 0, got {tol}")
    if not 0.0 < grid_scale < math.inf:
        raise ValueError(f"grid_scale must be finite and > 0, got {grid_scale}")
    prob = _RadialProblem(v)
    w_probe = prob.floor(_CAP_PROBE)
    e_cap = w_probe + max(4.0 * math.sqrt(v.a1) * (2 * level + 3.0), 20.0)
    tally = _Tally()
    fallbacks = 0  # refined grids whose warm bracket was rejected

    for _ in range(12):
        rmin_eff = r_min if r_min is not None else _choose_r_min(prob, e_cap)
        rmax_eff = (r_max if r_max is not None
                    else _choose_r_max(prob, e_cap, _RMAX_CAP, tol))
        if not 0.0 < rmin_eff < rmax_eff:
            raise ValueError(f"invalid domain [{rmin_eff}, {rmax_eff}]")
        dom = _Domain(prob, rmin_eff, rmax_eff, e_cap, tol)
        scale = grid_scale
        energy = None  # last energy solved, for the Richardson comparison
        refinements = 0
        try:
            while True:
                grid = _Grid(dom, scale, tally)
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
