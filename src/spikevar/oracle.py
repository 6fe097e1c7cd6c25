"""Independent eigenvalue computation by direct integration of the radial
Schrodinger equation.

-y'' + [Lam(Lam+1)/r^2 + V(r)] y = E y is integrated with fixed-step RK4 on a
composite grid: log-uniform from r_min to r_sw, uniform in the well at a
step whose phase at the energy cap follows tol (`_phase`), then a tail
stepped for RK4 stability alone (h kappa <= 0.5), out to a cutoff that
leaves a tail of WKB action 8 + ln(1/tol)/2.  One tabulation of W, 1000
points a decade from r = 1e-4 out past the well, sizes all of it: its floor
gives the energy cap, and its points on either side of those below the cap
give both cutoffs and the step counts.  Each step is applied as its exact
2x2 transfer matrix on (y, y'), which is quadratic in E: a grid
tabulates the three coefficient matrices of every step once, and a kernel
call evaluates them at its energies and multiplies them 16 steps at a time,
so that Python touches the state once per 16 steps.  A call's fixed cost
is worth several hundred steps, so each call runs several sweeps (chains)
where it can: the outward and inward halves of every matching evaluation,
for both ends of a bracket at once.

Each energy is swept once, as its matching pair, which gives its node
count (by Pruefer angles) and its matching mismatch together.  The energy
is bracketed by node-count bisection, refined by Brent's method on the
mismatch, and checked by doubling the grid density until it moves by less
than tol/4.  This module never touches the variational machinery: it is
the check the variational bounds are measured against.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .hamiltonian import PotentialSpec, unit_scale

__all__ = ["OracleResult", "ShootingError", "shoot_eigenvalue", "BACKEND"]

_RMIN_CAP = 1e-4     # inner cutoff floor
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
_BLOCK = 2048        # RK4 steps tabulated or evaluated at once; bounds temporaries
_SPAN = 16           # RK4 steps per block product; a power of two
_WARM = 16.0         # half-width, in tol, of a refined grid's warm bracket
_WIDEN = 16.0        # each of two retries widens the bracket this many times
_MAX_REFINE = 6      # grid doublings after the first that the Richardson check may take
_MAX_STEPS = 4_000_000  # RK4 steps of one grid: it holds 128 bytes a step, 136 while built
_PROBE_DECADE = 1000  # points per decade of the tabulation that sizes the domain

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
    bracket's width, but never less than min(tol, sqrt(a1))/8, where the
    root search stops.
    The eigenvalue lies within a couple of bracket_width above `energy`, and
    bracket_width <= the requested tolerance, so the estimate is still
    accurate to tol.  r_min, r_max and steps describe the final grid, and
    grid_scale is its density against the first grid's, a power of two of at
    least 2.  sweeps counts the RK4 kernel calls of the whole call,
    over every grid it tried, each of which may run several chains;
    fallbacks counts the refined grids whose three warm brackets around the
    previous grid's energy were all rejected, so that their search started
    from the potential floor.
    """

    energy: float
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
    of pieces (chain, first step, end)."""
    chunk, room = [], _BLOCK
    for k, n in enumerate(lengths):
        a, padded = 0, n + (-n % _SPAN)
        while a < padded:
            b = a + min(room, padded - a)
            chunk.append((k, a, b))
            room -= b - a
            a = b
            if not room:
                yield chunk
                chunk, room = [], _BLOCK
    if chunk:
        yield chunk


def _step_table(h, w_nodes, w_mid):
    """The RK4 step matrices of steps h as quadratics in the energy.

    On y'' = (W(r) - E) y one classical RK4 step is exactly a 2x2 matrix
    acting on (y, y'), in h and q = W - E at the step's start (q0), midpoint
    (qm) and end (q1):

        M00 = 1 + h^2 (q0 + 2 qm) / 6 + h^4 qm q0 / 24
        M01 = h (1 + h^2 qm / 6)
        M10 = h / 6 (q0 + 4 qm + q1 + h^2 qm (q0 + q1) / 2)
        M11 = 1 + h^2 (2 qm + q1) / 6 + h^4 qm q1 / 24

    which is quadratic in E: M = P + E (Q + E R).  Return P, Q and R, entries
    00, 01, 10, 11, as a (3, 4, len(h)) array, for W at the steps' ends
    (w_nodes) and midpoints (w_mid), built _BLOCK steps at a time."""
    table = np.empty((3, 4, len(h)))
    for i in range(0, len(h), _BLOCK):
        j = min(i + _BLOCK, len(h))
        hb, wm, ws = h[i:j], w_mid[i:j], w_nodes[i:j] + w_nodes[i + 1:j + 1]
        p, q, r = table[:, :, i:j]
        a = hb * hb / 6.0
        b = 1.5 * a * a  # h^4 / 24
        awm, bwm = a * wm, b * wm
        for k, w in ((0, w_nodes[i:j]), (3, w_nodes[i + 1:j + 1])):  # M00, M11
            p[k] = 1.0 + 2.0 * awm + (a + bwm) * w
            q[k] = -3.0 * a - bwm - b * w
            r[k] = b
        p[1], q[1], r[1] = hb * (1.0 + awm), -a * hb, 0.0
        p[2] = hb / 6.0 * (ws * (1.0 + 3.0 * awm) + 4.0 * wm)
        q[2] = -hb * (1.0 + 0.5 * a * (2.0 * wm + ws))
        r[2] = a * hb
    return table


def _sweep(table, chains, steps, count_nodes=False):
    """Fixed-step RK4 for (y, y') with y'' = (W(r) - E) y along each of the
    chains (energy, y1, y2, start, stop), from grid node start to node stop,
    over the grid's `_step_table`; return each chain's (y1, y2, nodes).

    A chain with start > stop runs inward: a step run backwards (h -> -h,
    q0 <-> q1) is (M11, -M01, -M10, M00), so the chain runs on (y, -y') with
    M read across the other diagonal, (M11, M01, M10, M00).  steps has one
    entry per RK4 step of the chains (a range will do), so that a wrapper
    of the kernel can count a call's work as len(steps).  One call runs
    every chain, paying the call's fixed cost once; each chain is padded to
    whole blocks on its own, so it gets the exact bits of a call of its own.

    The steps are split into blocks of _SPAN, the last block of a chain
    padded with identity steps, and their matrices are evaluated from the
    table _BLOCK steps at a time.  Pairwise products, later times earlier,
    reduce each block to one matrix in log2(_SPAN) numpy passes, so the
    Python loop runs once per block: it applies the block's product and
    renormalizes the state once it leaves [1e-250, 1e250], which cancels out
    of node counts and logarithmic derivatives.  On a steep grid a block
    can grow by more than that 1e58 of headroom (RK4 grows by ~(h kappa)^4
    / 24 per step where h kappa is large): a product that overflows the
    state is applied again to the state scaled to unit size.

    With count_nodes, the same products walked back down from the block-
    start states, each first scaled exactly to unit size by a power of two,
    give y at every step, all blocks at once, and numpy counts the sign
    changes of y; an exact zero leaves the previous sign in place.  The
    start values may be numpy scalars; the returned states are Python
    floats.
    """
    table = table.reshape(3, 2, 2, -1)
    pad = np.zeros((3, 2, 2, _SPAN))  # identity steps: P = 1, Q = R = 0
    pad[0, 0, 0] = pad[0, 1, 1] = 1.0
    lengths = [abs(stop - start) for *_, start, stop in chains]
    inward = [start > stop for *_, start, stop in chains]
    states = [(float(y1), float(-y2 if a > b else y2)) for _, y1, y2, a, b in chains]
    nodes = [0] * len(chains)
    prev = [y1 for y1, _ in states]  # each chain's last nonzero y, or its zero start
    for chunk in _chunks(lengths):
        parts = []
        for k, a, b in chunk:
            # steps a .. stop - 1 of chain k, then identity padding up to b
            stop, first = min(b, lengths[k]), chains[k][3]
            if inward[k]:  # read across the other diagonal
                part = table[..., first - stop:first - a][..., ::-1]
                part = part.transpose(0, 2, 1, 3)[:, ::-1, ::-1]
            else:
                part = table[..., first + a:first + stop]
            parts += [part, pad[..., :b - stop]]
        pqr = np.concatenate(parts, axis=-1)
        e = [chains[k][0] for k, _, _ in chunk]  # one energy, or one per step
        e = e[0] if len(set(e)) == 1 else np.repeat(e, [b - a for _, a, b in chunk])
        m = pqr[2] * e
        m += pqr[1]
        m *= e
        m += pqr[0]
        blocks = pqr.shape[-1] // _SPAN
        m = m.reshape(2, 2, blocks, _SPAN)
        # levels[k][..., j] is the product of steps j 2^k .. (j + 1) 2^k - 1
        levels = [m]
        while levels[-1].shape[-1] > 1:
            t = levels[-1]
            levels.append(_product(t[..., 1::2], t[..., 0::2]))
        products = zip(*levels.pop().reshape(4, blocks).tolist())
        starts1, starts2 = [], []
        for k, a, b in chunk:
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
            for k, a, b in chunk:
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
    return [(y1, -y2 if back else y2, n)
            for (y1, y2), n, back in zip(states, nodes, inward)]


class _RadialProblem:
    """W(r) = Lam(Lam+1)/r^2 + r^2 + sum lam_k r^(-alpha_k) and its pieces,
    for a v at a1 = 1."""

    def __init__(self, v: PotentialSpec):
        lam = v.Lambda
        self.c2 = lam * (lam + 1.0) + v.inv_square
        self.terms = v.singular
        self.strong = any(a > 2.0 and l > 0.0 for l, a in self.terms)
        # Hardy, -y'' >= y / (4 r^2): W + hardy / r^2 bounds the spectrum
        # below, and stays finite near 0 where c2 < 0 sends W to -inf
        self.hardy = min(max(-self.c2, 0.0), 0.25)

    def w(self, r: np.ndarray) -> np.ndarray:
        out = r * r
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

    def floor(self, r: np.ndarray, w: np.ndarray) -> float:
        """Lower bound on the spectrum over the points r: the least
        W + hardy / r^2, from W tabulated there as w."""
        if self.hardy:
            w = w + self.hardy / (r * r)
        return float(w.min())

    def w_prime(self, r: float) -> float:
        out = 2.0 * r - 2.0 * self.c2 / r**3
        for lam, alpha in self.terms:
            out -= alpha * lam * r ** (-alpha - 1.0)
        return out


class _Domain:
    """What every grid density on [r_min, r_max] shares, computed once from
    the tabulation (rr, wv) of W (`_tabulate`): the cutoffs (`_cutoffs`),
    the step counts at grid scale 1 of the log-uniform core (n_log), of the
    uniform well run out to r_max (n_uni) and of the stability-stepped tail
    (n_tail), and where that tail begins (r_tail)."""

    def __init__(self, prob: _RadialProblem, rr: np.ndarray, wv: np.ndarray,
                 e_cap: float, tol: float):
        self.prob = prob
        self.e_cap = e_cap
        self.r_min, self.r_max = r_min, r_max = _cutoffs(prob, rr, wv, e_cap, tol)
        r_sw = min(max(2.0 * r_min, 0.5), 0.75 * r_max)
        if r_sw <= r_min:  # a narrow well far out: the log core must rise
            r_sw = 0.5 * (r_min + r_max)
        self.r_sw = r_sw
        inside = (rr >= r_min) & (rr <= r_max)
        rr, wv = rr[inside], wv[inside]
        w_floor = prob.floor(rr, wv)
        k_est = math.sqrt(max(e_cap - w_floor, 1.0))
        w_sw = prob.probe(np.array([r_sw]))[0]
        h_uni = min(_phase(tol) / k_est, 0.25 / math.sqrt(max(w_sw, 1.0)))
        # uniform steps from r_sw to r_max at the well's step
        self.n_uni = max(600, int(math.ceil((r_max - r_sw) / h_uni)))
        stiff = math.sqrt(max(wv[0], 1.0)) * r_min
        delta = min(0.08, 0.25 / max(stiff, 1.0))
        self.n_log = max(64, int(math.ceil(math.log(r_sw / r_min) / delta)))
        # the tail begins _TAIL_START of WKB action past the outer turning
        # point at e_cap and takes steps of _TAIL_HK / kappa, kappa its
        # steepest sqrt(W - floor): no energy searched is below the floor
        self.r_tail = r_max
        self.n_tail = 0.0
        outer = int(np.flatnonzero(wv <= e_cap)[-1])
        q = np.sqrt(np.maximum(wv[outer:] - e_cap, 0.0))
        k = _action_reach(rr[outer:], q, _TAIL_START)
        if k is not None:
            kappa = math.sqrt(max(float(wv[outer + k:].max()) - w_floor, 1.0))
            if math.isfinite(kappa):  # the tabulation lets W overflow to inf
                self.r_tail = max(float(rr[outer + k]), r_sw)
                self.n_tail = (r_max - self.r_tail) * kappa / _TAIL_HK


class _Grid:
    """Composite grid with its RK4 step matrices tabulated for the kernel:
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
        wm = prob.w(mid)
        self.w_floor = min(prob.floor(self.r, self.wn), prob.floor(mid, wm))
        del mid  # not held while the table is built
        self.steps = len(self.h)
        self.table = _step_table(self.h, self.wn, wm)
        # least W at or after each node, a non-decreasing sequence
        self.wn_after = np.fmin.accumulate(self.wn[::-1])[::-1]
        self._prob = prob
        self._w0_prime = prob.w_prime(float(self.r[0]))

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
        log-derivative -sqrt(W(r_max) - E).  A block product that passes
        the float range, which the state's rescaling cannot undo, is a
        ShootingError naming the grid; the guard is numpy's error state,
        set once per call."""
        self._tally.sweeps += 1
        runs = [(e, 1.0, -math.sqrt(max(self.wn[-1] - e, 1e-12)), self.steps, stop)
                if inward else (e, *self.start(e), 0, stop) for e, stop, inward in chains]
        steps = sum(abs(stop - start) for *_, start, stop in runs)
        try:
            with np.errstate(over="raise"):
                return _sweep(self.table, runs, range(steps), count_nodes)
        except FloatingPointError:
            raise ShootingError(
                f"RK4 block products overflow on the {self.steps}-step grid on "
                f"[{self.r[0]:.3g}, {self.r[-1]:.3g}]: its steps are too long for "
                f"a potential whose floor is {self.w_floor:.3g}") from None

    def matching_node(self, energy: float) -> int:
        """The last node where W < energy (the last one where wn_after is
        below it) or else the middle one, at least 3 nodes from either end."""
        below = int(np.searchsorted(self.wn_after, energy))
        im = below - 1 if below else self.steps // 2
        return min(max(im, 3), self.steps - 3)

    def probe(self, *energies: float, count_nodes: bool = True):
        """Run each energy's matching pair, outward to its `matching_node`
        and inward from r_max, all in one kernel call; return each energy's
        (energy, nodes, mismatch) by `_matched`.  Without count_nodes the
        count means nothing: only the mismatch is read."""
        ims = [self.matching_node(e) for e in energies]
        ends = self.sweep([(e, im, inward) for e, im in zip(energies, ims)
                           for inward in (False, True)], count_nodes)
        return [(e, *_matched(*ends[2 * k:2 * k + 2])) for k, e in enumerate(energies)]


def _unit(y1: float, y2: float):
    """(y1, y2) scaled exactly, by a power of two, to |y1| + |y2| in [1/2, 1)."""
    k = -math.frexp(abs(y1) + abs(y2))[1]
    return math.ldexp(y1, k), math.ldexp(y2, k)


def _matched(outward, inward):
    """(nodes, mismatch) of one matching pair's end states (y, y', nodes):
    the node count of the outward solution over the whole grid, and the
    Wronskian y'_out y_in - y'_in y_out over both states' sizes, formed
    from the states scaled to unit size (`_unit`), which the kernel's states
    of up to 1e250 then cannot overflow.

    The count is the Pruefer-angle one, n_out + n_in + [theta_out >
    theta_in], with theta = atan2(y, y') mod pi at the matching node, taken
    as atan2(|y|, sign(y) y') in [0, pi], which no size of the states
    overflows; away from zeros of y that is s_out s_in f < 0 for the
    mismatch f and s the sign of y.  An exact zero of y there has been
    reached by the outward sweep (angle pi: a node) and not yet by the
    inward one (angle 0)."""
    (o1, o2, n_out), (i1, i2, n_in) = outward, inward
    (p1, p2), (q1, q2) = _unit(o1, o2), _unit(i1, i2)
    f = (p2 * q1 - q2 * p1) / ((abs(p1) + abs(p2)) * (abs(q1) + abs(q2)))
    theta_out = math.atan2(abs(o1), o2 if o1 > 0.0 else -o2) if o1 else math.pi
    theta_in = math.atan2(abs(i1), i2 if i1 > 0.0 else -i2) if i1 else 0.0
    return n_out + n_in + (theta_out > theta_in), f


def _action_reach(r: np.ndarray, q: np.ndarray, action: float) -> int | None:
    """Index of the first point of r whose WKB action from r[0], the
    trapezoid sum of q = sqrt(max(W - E, 0)), reaches `action`; None if none
    does.  The sum runs outward from r[0], the turning point, so that a
    barrier soaring further out cannot swamp it in rounding."""
    reached = np.cumsum(0.5 * (q[1:] + q[:-1]) * np.abs(np.diff(r))) >= action
    return 1 + int(np.argmax(reached)) if reached.any() else None


def _tabulate(prob: _RadialProblem, r_hi: float):
    """(rr, wv): W at the radii _RMIN_CAP 10^(k / _PROBE_DECADE), k = 0, 1,
    ..., out to the first at or past r_hi, so that a longer tabulation
    holds every point of a shorter one."""
    n = math.ceil(_PROBE_DECADE * math.log10(r_hi / _RMIN_CAP))
    rr = _RMIN_CAP * 10.0 ** (np.arange(n + 1) / _PROBE_DECADE)
    return rr, prob.probe(rr)


def _cutoffs(prob: _RadialProblem, rr: np.ndarray, wv: np.ndarray, e_cap: float,
             tol: float):
    """(r_min, r_max), two points of the tabulation (rr, wv) on either side
    of the points where W <= e_cap, which hold the potential floor's point
    (e_cap is at or above the floor, equal where its margin is lost to
    rounding).  r_min is where the WKB action inward of the first of them
    reaches _CORE_ACTION, for a strong barrier, and else rr[0]; r_max is
    where the action outward of the last reaches `_tail_action(tol)`, or
    rr[-1]."""
    below = np.flatnonzero(wv <= e_cap)
    first, last = int(below[0]), int(below[-1])
    q = np.sqrt(np.maximum(wv - e_cap, 0.0))
    k = _action_reach(rr[first::-1], q[first::-1], _CORE_ACTION) if prob.strong else None
    r_min = rr[0] if k is None else rr[first - k]
    k = _action_reach(rr[last:], q[last:], _tail_action(tol))
    return float(r_min), float(rr[-1] if k is None else rr[last + k])


def _phase(tol: float) -> float:
    """Phase, in rad, of one uniform well step at the energy cap: 0.03 up to
    tol 1e-8, then growing as tol^(1/4), as the RK4 error shrinks as h^4, up
    to 0.06 from tol ~1.6e-7 on (still under 1 rad per block of _SPAN)."""
    return min(0.03 * max(tol / 1e-8, 1.0) ** 0.25, 0.06)


def _tail_action(tol: float) -> float:
    """WKB action of the tail neglected beyond r_max for tolerance tol."""
    return min(_TAIL_ACTION + 0.5 * math.log(1.0 / tol), _TAIL_MAX)


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


def _solve_at_density(grid: _Grid, level: int, tol: float, e_cap: float,
                      prior: float | None = None):
    """Bisection on node count to a unit node bracket, then Brent's method
    on the normalized matching Wronskian down to a tol/8 bracket; return
    (energy, width, warm).

    With a prior (the energy found on the previous, coarser grid) the
    bracket prior -/+ _WARM * tol is tried first, then up to twice a
    bracket _WIDEN times wider, for a coarse grid whose error exceeds the
    one before.  When one holds exactly the level-th node transition and
    the mismatch changes sign across it, Brent's method starts from it
    directly (warm is True); otherwise the search starts from the potential
    floor as it does without a prior.

    Each energy is probed once, by its matching pair (`_Grid.probe`).  The
    outward and inward sweeps count n_out and n_in nodes, and the energy's
    count is n_out + n_in, plus 1 where the outward Pruefer angle at the
    matching node exceeds the inward one (`_matched`).  Below the energy
    cap, where W(r_max) > E, that is the count of one outward sweep over
    the whole grid.  Both ends of a bracket are probed in one kernel call;
    Brent's iterates run their pairs uncounted."""

    def node_bisect(lo, hi, width):
        """Halve the bracket between the probes lo and hi, each (energy,
        nodes, mismatch), until it holds a single node transition and is at
        most `width` wide."""
        while hi[1] - lo[1] > 1 or hi[0] - lo[0] > width:
            e_mid = 0.5 * (lo[0] + hi[0])
            if not lo[0] < e_mid < hi[0]:
                break
            (mid,) = grid.probe(e_mid)
            if not lo[1] <= mid[1] <= hi[1]:
                raise _StepSizeFailure(
                    f"node count {mid[1]} at E={e_mid:.6g} outside [{lo[1]}, {hi[1]}]"
                )
            if mid[1] <= level:
                lo = mid
            else:
                hi = mid
        return lo, hi

    def sign_change(f_lo: float, f_hi: float) -> bool:
        return f_lo == f_lo and f_hi == f_hi and (f_lo < 0.0) != (f_hi < 0.0)

    warm = False
    if prior is not None:
        for half in (_WARM * tol, _WIDEN * _WARM * tol, _WIDEN**2 * _WARM * tol):
            lo, hi = grid.probe(prior - half, prior + half)
            warm = (lo[1], hi[1]) == (level, level + 1) and sign_change(lo[2], hi[2])
            if warm:
                break
    if not warm:
        floor = grid.w_floor
        # the upper end clears the lower one, so each doubling moves it
        lo, hi = grid.probe(floor + 1e-12 * (1.0 + abs(floor)), floor + max(
            4.0 * (level + 1.0), 2e-12 * (1.0 + abs(floor))))
        if lo[1] > level:
            raise _StepSizeFailure(f"{lo[1]} nodes at the potential floor")
        while hi[1] <= level:
            if hi[0] >= e_cap:
                raise _NeedLargerDomain
            (hi,) = grid.probe(min(floor + 2.0 * (hi[0] - floor), e_cap))
        lo, hi = node_bisect(lo, hi, math.inf)
    # refine on the matching mismatch when it brackets a sign change,
    # otherwise carry the node bisection all the way down
    if warm or sign_change(lo[2], hi[2]):
        e_lo, e_hi = _brent(lambda e: grid.probe(e, count_nodes=False)[0][2],
                            lo[0], lo[2], hi[0], hi[2], 0.125 * tol)
    else:
        (e_lo, _, _), (e_hi, _, _) = node_bisect(lo, hi, 0.125 * tol)
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


def shoot_eigenvalue(v: PotentialSpec, level: int, tol: float = 1e-6) -> OracleResult:
    """Level-th Dirichlet eigenvalue of -y'' + [Lam(Lam+1)/r^2 + V] y = E y.

    Solved on v's a1 = 1 image (`unit_scale`) to the working tolerance
    min(tol / sqrt(a1), 1), and mapped back: energies times sqrt(a1),
    radii times a1^(-1/4); a ShootingError names the image's values.  The
    domain is sized so the start forms at r_min and the neglected tail
    beyond r_max (of WKB action 8 + ln(1/tol)/2) are below the working
    tolerance.  The grid density doubles until step halving moves the
    eigenvalue by less than a quarter of it; failure to settle within
    _MAX_REFINE doublings after the first raises ShootingError, and so does
    an energy cap that never reaches the level.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be finite and > 0, got {tol}")
    u, root = unit_scale(v)
    tol = min(tol / root, 1.0)
    if tol == 0.0:
        raise ValueError("tolerance / sqrt(a1) underflows to 0")
    prob = _RadialProblem(u)
    rr, wv = _tabulate(prob, 32.0)
    # the well lies further out while the floor sits at the tabulation's end
    while prob.floor(rr[-1:], wv[-1:]) < prob.floor(rr[:-1], wv[:-1]):
        rr, wv = _tabulate(prob, 10.0 * rr[-1])
    w_probe = prob.floor(rr, wv)
    e_cap = w_probe + max(4.0 * (2 * level + 3.0), 20.0)
    tally = _Tally()
    fallbacks = 0  # refined grids whose warm bracket was rejected

    for _ in range(12):
        # the tail past the outer turning point at e_cap is looked for out
        # to 2 sqrt(e_cap) + 10 at least; a deep negative term can put the
        # energy cap below 0
        r_hi = 2.0 * math.sqrt(max(e_cap, 0.0)) + 10.0
        if r_hi > rr[-1]:
            rr, wv = _tabulate(prob, r_hi)
        dom = _Domain(prob, rr, wv, e_cap, tol)
        scale = 1.0
        energy = None  # last energy solved, for the Richardson comparison
        refinements = 0
        try:
            while True:
                grid = None  # free the coarser grid before the finer one is built
                grid = _Grid(dom, scale, tally)
                try:
                    found, width, warm = _solve_at_density(grid, level, tol, e_cap,
                                                           energy)
                except _StepSizeFailure:
                    failure = "node-count monotonicity kept failing under refinement"
                else:
                    if energy is not None and not warm:
                        fallbacks += 1
                    if energy is not None and abs(found - energy) < 0.25 * tol:
                        res = OracleResult(float(found * root), float(width * root),
                                           dom.r_min / root**0.5, dom.r_max / root**0.5,
                                           grid.steps, scale, tally.sweeps, fallbacks)
                        _log_result(res)
                        return res
                    failure = (f"Richardson check did not settle below tol/4 = "
                               f"{0.25 * tol:.3g} within {_MAX_REFINE} grid doublings")
                    free = energy is None  # the first halving is the check itself
                    energy = found
                    if free:
                        scale *= 2.0
                        continue
                refinements += 1
                if refinements > _MAX_REFINE:
                    raise ShootingError(failure)
                scale *= 2.0
        except _NeedLargerDomain:
            e_cap = w_probe + 2.0 * (e_cap - w_probe)
            continue
    raise ShootingError("energy cap expansion failed to bracket the level")
