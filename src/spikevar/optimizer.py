"""Minimization of the variational upper bounds over the basis parameters.

The bound for a given truncation size D is the target eigenvalue of the
assembled D x D matrix, viewed as a function of (A, B).  Feasibility
(2*gamma_N > alpha for every singular power) is built into the search by
optimizing in transformed coordinates A = A_min + e^u, B = e^w, so a plain
derivative-free simplex search runs unconstrained.  All searches are
deterministic: fixed start lists, one simplex run per start, no randomness.

A simplex run has converged once the values at its vertices spread by less
than _FTOL = 1e-10 and its diameter in transformed coordinates is below
_XTOL = sqrt(_FTOL) = 1e-5.  Near a quadratic minimum a value spread of
_FTOL already spans a diameter of about sqrt(_FTOL), so the diameter test
follows from the value test: shrinking on costs evaluations and moves no
bound by more than that spread.

The simplex is a generator: it yields each point to evaluate and receives
its value.  A search keeps every value it computes in one table keyed on
the transformed point, so no point is evaluated twice.  Independent points
-- the prescan grid, a polish scan, and the pending points of the starts'
simplex runs, which advance side by side over the budget they would share if
run one after another -- are evaluated together as stacked batches.  A
value depends on its point alone, so neither the table nor the batches
change a bit of a result.

The polish after the simplex scans each axis around the incumbent and runs
a golden line search only once a scan has moved the incumbent off the
simplex vertex; a scan that confirms the vertex costs its points alone.
"""

from __future__ import annotations

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
_SCALE = 0.5      # initial simplex edge in transformed coordinates
_FTOL = 1e-10     # spread of objective values across the simplex
# simplex diameter in transformed coordinates: near a quadratic minimum a
# value spread of _FTOL already spans a diameter of about sqrt(_FTOL)
_XTOL = math.sqrt(_FTOL)
# polish: scan half-widths per round, points per scan, golden steps per line
_POLISH_WIDTHS = (4.0, 0.8, 0.12)
_POLISH_POINTS = 15
_POLISH_ITERS = 35
_ALPHA_MARGIN = 1e-6
_CLAMP = 50.0     # |u|, |w| cap; exp stays finite
# bytes of one stacked (K, D, D) array of a batch: K = 4 up to D = 64, and
# from D = 91 one point at a time, which leaves nothing to stack.  The
# stacked temporaries raised the peak RSS of the `tables` benchmark by 6.7%
# at 1 MiB (one run) and by 1.3% at 128 KiB (median of ten)
_BATCH_BYTES = 1 << 17
# largest D a search takes: one evaluation peaks at about 5.5 D x D float64
# arrays (+91.5 MiB of RSS at D = 1500), 0.7 GiB at this D
_MAX_D = 4096


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


def _golden_polish(fn, x, f, budget, evaluate):
    """Axis-wise scan-then-golden line searches around the incumbent.

    The bound surface is a long shallow valley whose floor is terraced:
    nearly-equal local minima can sit at well-separated A.  A coarse scan
    along each transformed axis hops terraces the simplex cannot leave, and
    a golden section around the best sample finishes the line.  Rounds with
    shrinking width keep the polish deterministic and budget-bounded.
    The points of a scan are independent; each scan hands them to
    `evaluate` as one list before asking fn for them one by one.

    A line runs its golden section only when its scan's best point is not
    the centre, which is the incumbent itself, or when an earlier line of
    this polish has moved the incumbent (by a hop or a golden gain).  Every
    other line costs its scan alone.  The polish gets budget only when
    every start's simplex converged or stopped on a step that moved no
    vertex, so the incumbent it starts from is a vertex the simplex no
    longer moves; a converged one has value spread < _FTOL and diameter
    < _XTOL = sqrt(_FTOL).  A golden section around such a point, with no
    scan point below it, is not expected to gain more than that spread:
    over the non-slow rows of tables 1-5, the `series` benchmark calls and
    `eig -D 120`, 42 of the 289 such lines gained at all, 41 of them by
    less than 6e-13 and one by 4.2e-11.
    Returns (x, f, evaluations_used).
    """
    used = 0
    moved = False
    for hw in _POLISH_WIDTHS:
        for axis in range(len(x)):
            if used + _POLISH_POINTS + _POLISH_ITERS + 4 > budget:
                return x, f, used

            def g(t):
                y = list(x)
                y[axis] = t
                return fn(y)

            ts = [x[axis] + hw * (2.0 * i / (_POLISH_POINTS - 1) - 1.0)
                  for i in range(_POLISH_POINTS)]
            evaluate([x[:axis] + [t] + x[axis + 1:] for t in ts])
            fs = [g(t) for t in ts]
            used += _POLISH_POINTS
            k = min(range(_POLISH_POINTS), key=lambda i: fs[i])
            if k == _POLISH_POINTS // 2 and not moved:
                continue  # the scan confirms the converged incumbent
            best_t, best_f = ts[k], fs[k]
            a = ts[max(0, k - 1)]
            b = ts[min(_POLISH_POINTS - 1, k + 1)]
            c = b - _GOLDEN * (b - a)
            d = a + _GOLDEN * (b - a)
            fc, fd = g(c), g(d)
            used += 2
            for _ in range(_POLISH_ITERS):
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
                moved = True
    return x, f, used


def _nelder_mead(x0):
    """Standard simplex search as a generator.

    Yields each point to evaluate, a list of Python floats, and receives its
    value by `send`; `_run` counts and bounds its points.  Returns True once
    its vertex values spread by less than _FTOL and its diameter is below
    _XTOL, and False once an iteration leaves the sorted vertices as they
    were: the step is deterministic, so it would repeat forever.  Its best
    vertex is then the first point of least value it asked for.
    """
    dim = len(x0)
    refl, expa, contr, shrink = _NM_COEFFS
    pts = [[float(t) for t in x0]]
    for i in range(dim):
        q = list(pts[0])
        q[i] += _SCALE
        pts.append(q)
    vals = []
    for qx in pts:
        vals.append((yield qx))
    last = None
    while True:
        order = sorted(range(dim + 1), key=lambda i: vals[i])
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        best = pts[0]
        diam = max(max(abs(a - b) for a, b in zip(p, best)) for p in pts[1:])
        if diam < _XTOL and vals[-1] - vals[0] < _FTOL:
            return True
        if (pts, vals) == last:  # a simplex collapsed onto neighbouring floats
            return False
        last = (pts[:], vals[:])
        # the vertex mean summed in vertex order, then divided, as np.mean
        acc = best
        for p in pts[1:-1]:
            acc = [a + b for a, b in zip(acc, p)]
        centroid = [a / dim for a in acc]
        worst = pts[-1]
        xr = [c + refl * (c - w) for c, w in zip(centroid, worst)]
        fr = yield xr
        if vals[0] <= fr < vals[-2]:
            pts[-1], vals[-1] = xr, fr
        elif fr < vals[0]:
            xe = [c + expa * (r - c) for c, r in zip(centroid, xr)]
            fe = yield xe
            if fe < fr:
                pts[-1], vals[-1] = xe, fe
            else:
                pts[-1], vals[-1] = xr, fr
        else:
            xc = [c + contr * (w - c) for c, w in zip(centroid, worst)]
            fc = yield xc
            if fc < vals[-1]:
                pts[-1], vals[-1] = xc, fc
            else:
                for i in range(1, dim + 1):
                    pts[i] = [b + shrink * (p - b) for b, p in zip(best, pts[i])]
                    vals[i] = yield pts[i]


def _run(searches, known, evaluate, budget):
    """Run simplex searches side by side to the results they give one after
    another in list order, each over the budget the ones before it leave.

    `known` maps tuple(x) to the value of x, and `evaluate` stores there
    the values of a list of points.  Each round hands `evaluate` the
    pending points, one per search, as one list, then answers every search
    from `known`, up to the whole budget, until it asks for a point not
    there.  A search stops asking once it has asked for what the searches
    before it leave at their present counts.  Returns (x, f, evaluations,
    converged) per search: its own result if it ended within its share,
    else the best point it asked within it (its start and +inf for no
    share), not converged.
    """
    # trails[i][k]: the first point of least value among the first k that
    # search i asked for, and its value
    trails = [[(next(search), math.inf)] for search in searches]
    pending = {i: trail[0][0] for i, trail in enumerate(trails)}
    converged = [False] * len(searches)
    while True:
        left = budget
        for i, trail in enumerate(trails):
            if len(trail) > left:
                pending.pop(i, None)
            left -= min(len(trail) - 1, left)
        if not pending:
            break
        evaluate(list(pending.values()))
        for i, x in list(pending.items()):
            trail = trails[i]
            try:
                while len(trail) <= budget and tuple(x) in known:
                    f = known[tuple(x)]
                    trail.append((x, f) if f < trail[-1][1] else trail[-1])
                    x = searches[i].send(f)
                pending[i] = x
            except StopIteration as stop:
                converged[i] = stop.value
                del pending[i]
    results = []
    left = budget
    for trail, ok in zip(trails, converged):
        n = min(len(trail) - 1, left)
        results.append((*trail[n], n, ok and n == len(trail) - 1))
        left -= n
    return results


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

    Runs the simplex search once from each start of a fixed multistart list
    -- two canned points, the best point of a coarse deterministic prescan
    grid, and `init` when given (a previous schedule step's optimum) -- each
    over the budget the starts before it leave, then finishes the incumbent
    with scan-and-golden line sweeps (`_golden_polish`).  The polish runs
    only when no start's simplex ran out of budget, and a line's golden
    section runs only once a scan's best point lies off the incumbent
    vertex.  Ties between starts keep the first in start order.  converged
    means that some start's simplex converged and the budget was not used
    up; exhausting `budget` returns the best point found, not converged.
    `fix_B` pins B (one-parameter search), used for the A-only
    reproduction columns.  A start whose transformed point is not finite
    (B = 4 a1 overflows at a1 ~ 1e308) is refused with a ValueError, and so
    are a non-finite `init` A and an `init` B or `fix_B` that is not finite
    and > 0, before any start is built.  A point whose matrix overflows
    bounds nothing (its value is +inf); when every point does, that is a
    ValueError naming the overflow.

    Every value the search computes goes into one table keyed on the
    transformed point, and the objective reads it from there, evaluating a
    point only on a miss.  `evaluations` counts calls of the objective, and
    so does `budget`, including the calls the table answers: a repeated
    point costs no assembly, but it still moves the search along the same
    path as without the table.

    The prescan grid, each polish scan and each round of the simplex runs
    advanced side by side (`_run`) are evaluated as stacked batches.  None
    of this changes a value, path or count.
    """
    if D < 1:
        raise ValueError(f"matrix dimension must be >= 1, got {D}")
    if D > _MAX_D:
        raise ValueError(f"matrix dimension {D} is above {_MAX_D}: one evaluation "
                         f"would need about {44 * D * D / 2**30:.3g} GiB")
    if not 0 <= target_level < D:
        raise ValueError(f"need 0 <= target_level < {D}, got {target_level}")
    if budget < 3:
        raise ValueError(f"evaluation budget must be >= 3, got {budget}")
    # the messages name the argument, not its value: a nan would read as a
    # failed computation
    if init is not None:
        if not math.isfinite(init[0]):
            raise ValueError("init A must be finite")
        if not 0.0 < init[1] < math.inf:
            raise ValueError("init B must be finite and > 0")
    if fix_B is not None and not 0.0 < fix_B < math.inf:
        raise ValueError("fix_B must be finite and > 0")
    a_min = feasible_A_min(v)

    def decode(x) -> tuple[float, float]:
        A = a_min + math.exp(min(float(x[0]), _CLAMP))
        B = fix_B if fix_B is not None else math.exp(min(float(x[1]), _CLAMP))
        return A, B

    # every value the search has computed, by transformed point: simplex
    # shrinks and the polish's centre points come back to them
    known: dict[tuple[float, ...], float] = {}
    per_batch = max(1, _BATCH_BYTES // (8 * D * D))
    nev = 0

    def evaluate(xs) -> None:
        """Store the values of the points of xs not yet known, stacked
        per_batch at a time."""
        todo = list(dict.fromkeys(tuple(x) for x in xs if tuple(x) not in known))
        for i in range(0, len(todo), per_batch):
            chunk = todo[i:i + per_batch]
            known.update(zip(chunk, _values(v, D, target_level,
                                            [decode(x) for x in chunk])))

    def objective(x) -> float:
        nonlocal nev
        nev += 1
        x = tuple(x)
        if x not in known:
            evaluate([x])
        return known[x]

    def start_point(A0, B0) -> list[float]:
        u0 = math.log(max(A0 - a_min, 1e-12))
        x = [u0] if fix_B is not None else [u0, math.log(max(B0, 1e-12))]
        if not all(math.isfinite(t) for t in x):  # inf - inf in the simplex
            raise ValueError(f"a1 = {v.a1:g} is too large for the bound search: "
                             f"its start (A, B) = ({A0:g}, {B0:g}) overflows")
        return x

    starts = [start_point(max(1.0, a_min + 1.0), v.a1),
              start_point(a_min + 10.0, 4.0 * v.a1)]
    # the valley floor can carry several local minima a few 1e-7 apart with
    # optima drifting to large A as the coupling grows; a coarse deterministic
    # prescan seeds one extra start in whichever basin looks deepest
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
        evaluate(probes)
        k = min(range(len(prescan)), key=lambda i: objective(probes[i]))
        starts.append(start_point(*prescan[k]))
    if init is not None:
        starts.append(start_point(float(init[0]), float(init[1])))

    runs = _run([_nelder_mead(x0) for x0 in starts], known, evaluate, budget - nev)
    nev += sum(run[2] for run in runs)
    best_x, best_f, _, _ = min(runs, key=lambda run: run[1])  # the first of least f
    if nev < budget:
        best_x, best_f, _ = _golden_polish(objective, best_x, best_f,
                                           budget - nev, evaluate)
    A_star, B_star = decode(best_x)
    try:
        H = assemble(ModelParams(A_star, B_star, v.N, v.l), v, D)
    except OverflowError:  # the best point overflows only if every one did
        raise ValueError(f"the {D} x {D} matrix overflows at every (A, B) the "
                         "search tried: no point bounds the level") from None
    bounds = eigen_symmetric(H).values
    return BoundResult(
        A_star=A_star,
        B_star=B_star,
        bounds=bounds,
        target_level=target_level,
        evaluations=nev,
        converged=any(run[3] for run in runs) and nev < budget,
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
    numerically over gamma > 2, beta > 0: one simplex run of at most 2000
    evaluations from each of two starts, keeping the lower value.
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

        known = {}

        def evaluate(xs):
            known.update((tuple(x), fn(x)) for x in xs)

        starts = ([math.log(max(g0 - 2.0, 1e-12)), math.log(b0)]
                  for g0, b0 in ((3.5, 1.0), (2.0 + 2.0 * lam ** (1.0 / 3.0), 1.0)))
        return min(_run([_nelder_mead(x)], known, evaluate, 2000)[0][1] for x in starts)
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

    Each step also starts from the previous step's optimum.  At the same
    (A, B) the D-term basis contains the smaller one, so by interlacing that
    start's bound is at or below the previous step's, and the search keeps
    its best start: the history never rises in D, up to roundoff.  Agreement
    means the bounds differ by less than half a unit in the requested
    decimal place.
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
