"""Minimization of the variational upper bounds over the basis parameters.

The bound for a given truncation size D is the target eigenvalue of the
assembled D x D matrix, viewed as a function of (A, B).  Feasibility
(2*gamma_N > alpha for every singular power) is built into the search by
optimizing in transformed coordinates A = A_min + e^u, B = e^w, so a plain
derivative-free simplex search runs unconstrained.  All searches are
deterministic: fixed start lists, fixed restart policy, no randomness.

The simplex and its restarts are generators: they yield each point to
evaluate and receive its value.  The chains of one search are independent
until their results are compared, so a speculative pass runs them side by
side first and evaluates each round's pending points as one stacked batch;
the search proper then reads those values from a table.  A value depends on
its point alone, so the table changes no bit of a result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import ModelParams
from .eigensolver import eigen_symmetric
from .hamiltonian import PotentialSpec, assemble

__all__ = [
    "BoundResult",
    "ConvergenceRun",
    "feasible_A_min",
    "minimize_bound",
    "ground_state_first_order",
    "converge_to_digits",
]

# reflection / expansion / contraction / shrink
_NM_COEFFS = (1.0, 2.0, 0.5, 0.5)
_XTOL = 1e-7      # simplex diameter in transformed coordinates
_FTOL = 1e-10     # spread of objective values across the simplex
_ALPHA_MARGIN = 1e-6
_CLAMP = 50.0     # |u|, |w| cap; exp stays finite
_MEMO_SIZE = 128  # objective values one search keeps, most recently used
# bytes of one stacked (K, D, D) array of a batch: K = 4 up to D = 64, and
# from D = 91 one point at a time, which leaves nothing to stack.  The
# stacked temporaries raised the peak RSS of the `tables` benchmark by 6.7%
# at 1 MiB (one run) and by 1.3% at 128 KiB (median of ten)
_BATCH_BYTES = 1 << 17


@dataclass(frozen=True)
class BoundResult:
    """Optimized basis parameters and the resulting eigenvalue upper bounds."""

    A_star: float
    B_star: float
    bounds: np.ndarray          # all D eigenvalues at (A_star, B_star), ascending
    target_level: int
    evaluations: int
    converged: bool

    @property
    def bound(self) -> float:
        return float(self.bounds[self.target_level])


@dataclass(frozen=True)
class ConvergenceRun:
    """History of a bound along an increasing truncation-size schedule."""

    bound: float
    D_used: int
    history: tuple[tuple[int, BoundResult], ...]
    converged: bool


def feasible_A_min(v: PotentialSpec) -> float:
    """Smallest A keeping every singular element finite, with a small margin.

    2*gamma_N > alpha is equivalent to A > ((alpha-2)/2)^2 - (Lambda+1/2)^2;
    the returned floor uses the largest alpha, at least the alpha = 2 of the
    counter-term that every assembly carries, plus a 1e-6 margin, and never
    goes below 0.
    """
    alpha_eff = max(v.max_alpha(), 2.0) + _ALPHA_MARGIN
    return max(0.0, ((alpha_eff - 2.0) / 2.0) ** 2 - (v.Lambda + 0.5) ** 2)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_polish(fn, x, f, budget, prefetch, widths=(4.0, 0.8, 0.12),
                   points=15, iters=35):
    """Axis-wise scan-then-golden line searches around the incumbent.

    The bound surface is a long shallow valley whose floor is terraced:
    nearly-equal local minima can sit at well-separated A.  A coarse scan
    along each transformed axis hops terraces the simplex cannot leave, and
    a golden section around the best sample finishes the line.  Rounds with
    shrinking width keep the polish deterministic and budget-bounded.
    The points of a scan are independent; each scan hands them to
    `prefetch` before asking fn for them one by one.
    Returns (x, f, evaluations_used).
    """
    used = 0
    for hw in widths:
        for axis in range(len(x)):
            if used + points + iters + 4 > budget:
                return x, f, used

            def g(t):
                y = list(x)
                y[axis] = t
                return fn(y)

            ts = [x[axis] + hw * (2.0 * i / (points - 1) - 1.0)
                  for i in range(points)]
            prefetch([x[:axis] + [t] + x[axis + 1:] for t in ts])
            fs = [g(t) for t in ts]
            used += points
            k = min(range(points), key=lambda i: fs[i])
            best_t, best_f = ts[k], fs[k]
            a = ts[max(0, k - 1)]
            b = ts[min(points - 1, k + 1)]
            c = b - _GOLDEN * (b - a)
            d = a + _GOLDEN * (b - a)
            fc, fd = g(c), g(d)
            used += 2
            for _ in range(iters):
                if fc < fd:
                    b, d, fd = d, c, fc
                    c = b - _GOLDEN * (b - a)
                    fc = g(c)
                else:
                    a, c, fc = c, d, fd
                    d = a + _GOLDEN * (b - a)
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


def _nelder_mead(x0, scale, budget):
    """Standard simplex search as a generator.

    Yields each point to evaluate, a list of Python floats, and receives its
    value by `send`.  Returns (x_best, f_best, n_eval, converged), the best
    vertex as an ndarray.
    """
    dim = len(x0)
    refl, expa, contr, shrink = _NM_COEFFS
    pts = [[float(t) for t in x0]]
    for i in range(dim):
        q = list(pts[0])
        q[i] += scale
        pts.append(q)
    vals = []
    nev = 0
    for qx in pts:
        vals.append((yield qx))
        nev += 1
        if nev >= budget:
            i = min(range(len(vals)), key=vals.__getitem__)
            return np.array(pts[i]), vals[i], nev, False
    while True:
        order = sorted(range(dim + 1), key=lambda i: vals[i])
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        best = pts[0]
        diam = max(max(abs(a - b) for a, b in zip(p, best)) for p in pts[1:])
        if diam < _XTOL and vals[-1] - vals[0] < _FTOL:
            return np.array(best), vals[0], nev, True
        if nev >= budget:
            return np.array(best), vals[0], nev, False
        # the vertex mean summed in vertex order, then divided, as np.mean
        acc = best
        for p in pts[1:-1]:
            acc = [a + b for a, b in zip(acc, p)]
        centroid = [a / dim for a in acc]
        worst = pts[-1]
        xr = [c + refl * (c - w) for c, w in zip(centroid, worst)]
        fr = yield xr
        nev += 1
        if vals[0] <= fr < vals[-2]:
            pts[-1], vals[-1] = xr, fr
        elif fr < vals[0]:
            xe = [c + expa * (r - c) for c, r in zip(centroid, xr)]
            fe = yield xe
            nev += 1
            if fe < fr:
                pts[-1], vals[-1] = xe, fe
            else:
                pts[-1], vals[-1] = xr, fr
        else:
            xc = [c + contr * (w - c) for c, w in zip(centroid, worst)]
            fc = yield xc
            nev += 1
            if fc < vals[-1]:
                pts[-1], vals[-1] = xc, fc
            else:
                for i in range(1, dim + 1):
                    pts[i] = [b + shrink * (p - b) for b, p in zip(best, pts[i])]
                    vals[i] = yield pts[i]
                    nev += 1
                    if nev >= budget:
                        j = min(range(len(vals)), key=vals.__getitem__)
                        return np.array(pts[j]), vals[j], nev, False


def _restarts(x, budget):
    """One chain: a simplex run plus up to 3 shrinking restarts, over
    `budget` evaluations.

    A generator like `_nelder_mead`; returns (x, f, converged), converged
    if any run converged.
    """
    scale = 0.5
    f_prev = math.inf
    used = 0
    converged = False
    for _ in range(4):  # initial run + up to 3 shrinking restarts
        if used >= budget:
            break
        x, f, n, ok = yield from _nelder_mead(x, scale, budget - used)
        used += n
        converged = converged or ok
        if f_prev - f < 1e-11:
            f_prev = f
            break
        f_prev = f
        scale /= 4.0
    return x, f_prev, converged


def _ask(x):
    """A search that asks for the one point x and returns its value."""
    return (yield x)


def _drive(search, fn):
    """Run a search generator to its end, answering each point with fn;
    returns what the search returns."""
    try:
        x = next(search)
        while True:
            x = search.send(fn(x))
    except StopIteration as stop:
        return stop.value


def _lockstep(searches, evaluate, limit):
    """Values of the points that independent searches ask for.

    Advances the searches side by side.  Each round evaluates the pending
    points not yet in the table, at most one per search, as one batch
    (`evaluate` maps a list of points to their values); a point already in
    the table is answered at once.  `limit` is what the searches may ask
    between them when they run one after another in list order: a search
    stops here once it has asked for what the searches before it leave.
    Returns {tuple(x): value}.
    """
    table = {}
    pending = {}
    for i, search in enumerate(searches):
        try:
            pending[i] = next(search)
        except StopIteration:
            pass
    asked = [0] * len(searches)
    while pending:
        todo = list(dict.fromkeys(tuple(x) for x in pending.values()
                                  if tuple(x) not in table))
        table.update(zip(todo, evaluate(todo)))
        for i, x in list(pending.items()):
            try:
                while tuple(x) in table:
                    asked[i] += 1
                    x = searches[i].send(table[tuple(x)])
                pending[i] = x
            except StopIteration:
                del pending[i]
        left = limit
        for i, n in enumerate(asked):
            if n >= left:
                pending.pop(i, None)
            left -= min(n, left)
    return table


def _values(v: PotentialSpec, D: int, level: int, points) -> list[float]:
    """Search objective at a list of (A, B) points: the level-th eigenvalue
    of each D x D matrix plus its roundoff penalty, assembled and solved as
    one stack.  Each value carries the bits of its point computed alone."""
    try:
        H = assemble([ModelParams(A, B, v.N, v.l) for A, B in points], v, D)
    except OverflowError:  # beta^(alpha/2) at a steep term and large B
        if len(points) > 1:  # the other points of the stack still count
            return [f for point in points for f in _values(v, D, level, [point])]
        return [math.inf]  # a point that bounds nothing
    lows = eigen_symmetric(H, k=level + 1).values[:, level].tolist()
    # eigenvalues computed from a matrix with huge entries (feasibility
    # boundary, where singular elements blow up) carry roundoff of order
    # ||H|| * eps * D and can dip spuriously below the true bound; adding
    # twice that noise bound keeps the search out of the noise sink while
    # biasing legitimate points by < 1e-10
    peaks = np.abs(H).max(axis=(1, 2)).tolist()
    return [low + 2.0 * (peak * 2.3e-16 * D) for low, peak in zip(lows, peaks)]


def minimize_bound(
    v: PotentialSpec,
    D: int,
    target_level: int = 0,
    init: tuple[float, float] | None = None,
    budget: int = 2000,
    fix_B: float | None = None,
) -> BoundResult:
    """Minimize the target-level eigenvalue bound over (A, B), or over A alone.

    Runs the simplex search from a fixed multistart list -- two canned
    points, the best point of a coarse deterministic prescan grid, and
    `init` when given (a previous schedule step's optimum) -- with up to
    three shrinking restarts per start, then finishes the incumbent with
    scan-and-golden line sweeps.  Ties between starts keep the first in
    start order.  Exhausting `budget` returns the best point found with
    converged=False.  `fix_B` pins B (one-parameter search), used for the
    A-only reproduction columns.

    `evaluations` counts calls of the objective, and so does `budget`,
    including the calls answered from the memo of the last _MEMO_SIZE
    distinct (A, B) points: a repeated point costs no assembly, but it
    still moves the search along the same path as before the memo.

    Before the prescan, the chains and each polish scan, a speculative
    lockstep pass evaluates the points they will ask for, a batch per
    round, and the search reads them from a table; a point it asks for
    that the pass did not reach is evaluated then.  The pass stops a chain
    once it has asked for what the budget leaves after the chains before
    it, and is skipped where a batch holds one matrix (D > 90).  It
    changes no value, path or count.
    """
    if D < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {D}")
    if not 0 <= target_level < D:
        raise ValueError(f"need 0 <= target_level < {D}, got {target_level}")
    if budget < 3:
        raise ValueError(f"evaluation budget must be >= 3, got {budget}")
    a_min = feasible_A_min(v)

    def decode(x) -> tuple[float, float]:
        A = a_min + math.exp(min(float(x[0]), _CLAMP))
        B = fix_B if fix_B is not None else math.exp(min(float(x[1]), _CLAMP))
        return A, B

    evaluate = functools.partial(_values, v, D, target_level)
    nev = 0

    # simplex restarts and shrinks and the polish's centre points come back
    # to points already evaluated; they are answered from this memo
    @functools.lru_cache(maxsize=_MEMO_SIZE)
    def value(A: float, B: float) -> float:
        return evaluate([(A, B)])[0]

    # values the speculative passes computed, by transformed point
    table: dict[tuple[float, ...], float] = {}
    per_batch = max(1, _BATCH_BYTES // (8 * D * D))

    def batch(xs) -> list[float]:
        points = [decode(x) for x in xs]
        return [f for i in range(0, len(points), per_batch)
                for f in evaluate(points[i:i + per_batch])]

    def prefetch(searches, limit):
        """Fill `table` with a speculative lockstep pass over the searches;
        with one matrix per batch there is nothing to stack, and no pass."""
        if per_batch > 1:
            table.update(_lockstep(searches, batch, limit))

    def objective(x) -> float:
        nonlocal nev
        nev += 1
        f = table.get(tuple(x))
        return f if f is not None else value(*decode(x))

    def chain_start(A0, B0) -> list[float]:
        u0 = math.log(max(A0 - a_min, 1e-12))
        return [u0] if fix_B is not None else [u0, math.log(max(B0, 1e-12))]

    starts = [(max(1.0, a_min + 1.0), v.a1), (a_min + 10.0, 4.0 * v.a1)]
    # the valley floor can carry several local minima a few 1e-7 apart with
    # optima drifting to large A as the coupling grows; a coarse deterministic
    # prescan seeds one extra chain in whichever basin looks deepest
    prescan = []
    for da in (0.5, 2.0, 8.0, 32.0, 128.0, 512.0):
        if fix_B is not None:
            prescan.append((a_min + da, fix_B))
        else:
            for sb in (0.5, 2.0, 8.0, 32.0, 128.0):
                prescan.append((a_min + da, v.a1 * sb))
    if budget >= 4 * len(prescan):
        probes = [[math.log(A - a_min)] if fix_B is not None
                  else [math.log(A - a_min), math.log(B)] for A, B in prescan]
        prefetch([_ask(x) for x in probes], len(probes))
        k = min(range(len(prescan)), key=lambda i: objective(probes[i]))
        starts.append(prescan[k])
    if init is not None:
        starts.append((float(init[0]), float(init[1])))

    # each chain gets at most the budget left now, as below
    prefetch([_restarts(chain_start(A0, B0), budget - nev) for A0, B0 in starts],
             budget - nev)
    best_x = None
    best_f = math.inf
    any_converged = False
    for A0, B0 in starts:
        x, f, ok = _drive(_restarts(chain_start(A0, B0), budget - nev), objective)
        any_converged = any_converged or ok
        if f < best_f:
            best_f = f
            best_x = x
    remaining = budget - nev
    if remaining > 0:
        best_x, best_f, _ = _golden_polish(
            objective, best_x.tolist(), best_f, remaining,
            lambda xs: prefetch([_ask(x) for x in xs], len(xs)))
    A_star, B_star = decode(best_x)
    H = assemble(ModelParams(A_star, B_star, v.N, v.l), v, D)
    bounds = eigen_symmetric(H).values
    return BoundResult(
        A_star=A_star,
        B_star=B_star,
        bounds=bounds,
        target_level=target_level,
        evaluations=nev,
        converged=any_converged and nev < budget,
    )


def ground_state_first_order(lam: float, mode: str = "a") -> float:
    """First variational approximation (1 x 1 subspace) for r^2 + lam r^(-4).

    mode="a" evaluates the closed-form minimum over A alone: the stationarity
    condition reduces to the depressed cubic 4x^3 - 3x = 8*lam - 1 in
    x = gamma - 3/2, solved by radicals via u = 8*lam - 1 + 4*sqrt(4*lam^2 - lam),
    x = (u^(1/3) + u^(-1/3))/2, and the bound is the objective
    gamma + 1 + lam/((gamma-1)(gamma-2)) + 1/(4(gamma-1)) at that root.
    Requires lam > 1/4 so the radical stays real.

    mode="ab" minimizes the two-parameter bound
    gamma/beta + beta + lam*beta^2/((gamma-1)(gamma-2)) + beta/(4(gamma-1))
    numerically over gamma > 2, beta > 0.
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise ValueError(f"coupling must be finite and > 0, got {lam}")
    if mode == "a":
        if lam <= 0.25:
            raise ValueError(
                f"closed-form A-only bound needs lam > 1/4 (sqrt(4*lam^2 - lam) "
                f"real); got lam={lam}"
            )
        # sqrt(4 lam^2 - lam) as a product: 4 lam^2 overflows past lam ~ 1e154
        u = 8.0 * lam - 1.0 + 4.0 * math.sqrt(lam) * math.sqrt(4.0 * lam - 1.0)
        cbrt = u ** (1.0 / 3.0)
        x = 0.5 * (cbrt + 1.0 / cbrt)
        g = x + 1.5
        return g + 1.0 + lam / ((g - 1.0) * (g - 2.0)) + 1.0 / (4.0 * (g - 1.0))
    if mode == "ab":
        def fn(x):
            g = 2.0 + math.exp(min(float(x[0]), _CLAMP))
            if g == 2.0:  # e^u below half an ulp of 2: the g -> 2 edge
                return math.inf
            b = math.exp(min(float(x[1]), _CLAMP))
            return g / b + b + lam * b * b / ((g - 1.0) * (g - 2.0)) + b / (
                4.0 * (g - 1.0)
            )

        best = math.inf
        for g0, b0 in ((3.5, 1.0), (2.0 + 2.0 * lam ** (1.0 / 3.0), 1.0)):
            x = [math.log(max(g0 - 2.0, 1e-12)), math.log(b0)]
            scale = 0.5
            f_prev = math.inf
            for _ in range(4):
                x, f, _, _ = _drive(_nelder_mead(x, scale, 2000), fn)
                if f_prev - f < 1e-13:
                    f_prev = f
                    break
                f_prev = f
                scale /= 4.0
            best = min(best, f_prev)
        return best
    raise ValueError(f"mode must be 'a' or 'ab', got {mode!r}")


def converge_to_digits(
    v: PotentialSpec,
    target_level: int,
    digits: int,
    D_schedule,
    budget: int = 2000,
    fix_B: float | None = None,
) -> ConvergenceRun:
    """Walk an increasing D schedule until successive bounds agree to `digits`.

    Each step warm-starts from the previous optimum.  Agreement means the
    bounds differ by less than half a unit in the requested decimal place.
    An exhausted schedule returns the last bound with converged=False.
    """
    schedule = [int(D) for D in D_schedule]
    if not schedule:
        raise ValueError("D schedule must be nonempty")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"D schedule must be strictly increasing, got {schedule}")
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    tol = 0.5 * 10.0 ** (-digits)
    history: list[tuple[int, BoundResult]] = []
    prev: float | None = None
    init = None
    for D in schedule:
        res = minimize_bound(v, D, target_level, init=init, budget=budget, fix_B=fix_B)
        history.append((D, res))
        init = (res.A_star, res.B_star)
        if prev is not None and abs(res.bound - prev) < tol:
            return ConvergenceRun(res.bound, D, tuple(history), True)
        prev = res.bound
    last_D, last = history[-1]
    return ConvergenceRun(last.bound, last_D, tuple(history), False)
