"""Outside-in layer trace: spans recorded by wrapping spikevar's bindings.

The traced run replaces module attributes that one layer uses to call the
next with wrappers that record a span (name, start, end, parent) and a few
counts taken from arguments and results.  Spans stay in memory; `layer_metrics`
reduces them to per-layer time and counts.  Nothing inside the package is
changed; the originals are restored when tracing ends.

A layer's self time is its span's duration minus the time of its child
spans.  Calls run on one thread, so children nest strictly.  The benchmark
opens its own `cli` and `tables` spans around each item (HARNESS_SPANS);
only the other spans, opened inside the package's wrapped bindings, count
as attributed time.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter

import numpy as np

_CLOSED_ALPHAS = (2.0, 4.0, 6.0)

# (module, attribute, span name); a name of None splits on alpha into
# matelem.inv_closed (alpha = 2, 4, 6) and matelem.inv_series
BINDINGS = (
    ("spikevar.tables", "minimize_bound", "optimizer"),
    ("spikevar.optimizer", "minimize_bound", "optimizer"),
    ("spikevar.optimizer", "assemble", "hamiltonian"),
    ("spikevar.optimizer", "eigen_symmetric", "eigensolver"),
    ("spikevar.hamiltonian", "power_matrix", "matelem.power"),
    ("spikevar.hamiltonian", "inv_power_matrix", None),
    ("spikevar.cli", "shoot_eigenvalue", "oracle"),
    ("spikevar.oracle", "_sweep", "oracle.sweep"),
)

# spans the benchmark opens around its own calls into the package
HARNESS_SPANS = ("cli", "tables")

# layers a workload's "uses:" list may name; each maps to the spans it owns
LAYERS = ("cli", "tables", "optimizer", "hamiltonian", "matelem.power",
          "matelem.inv_closed", "matelem.inv_series", "eigensolver", "oracle")


class BindingError(RuntimeError):
    """A wrapped attribute is missing, or a layer's call count contradicts
    the workload's prediction."""


class Tracer:
    """Span recorder; `span` is also used by the benchmark around its own
    calls into the package (`cli`, `tables`)."""

    def __init__(self):
        # [name, start, end, parent index, child seconds, info]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.calls: Counter = Counter()

    @contextlib.contextmanager
    def span(self, name: str, info=None):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0.0, info]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[1] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            if rec[3] >= 0:
                self.spans[rec[3]][4] += rec[2] - rec[1]

    def _wrap(self, module: str, attr: str, name: str | None, fn):
        binding = f"{module}.{attr}"

        def wrapper(*args, **kwargs):
            self.calls[binding] += 1
            span_name, info = name, None
            if name == "optimizer":
                # tables.py calls the D = 10 warm start without `init`
                info = (0, False, module == "spikevar.tables" and "init" not in kwargs)
            elif name is None:
                alpha = args[2] if len(args) > 2 else kwargs["alpha"]
                span_name = ("matelem.inv_closed" if alpha in _CLOSED_ALPHAS
                             else "matelem.inv_series")
            elif name == "eigensolver":
                info = np.shape(getattr(args[0], "data", args[0]))[0]
            elif name == "oracle.sweep":
                info = len(args[2])
            with self.span(span_name, info) as rec:
                result = fn(*args, **kwargs)
            if name == "optimizer":
                rec[5] = (result.evaluations, result.converged, info[2])
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; fail naming any binding that is gone."""
        originals = []
        try:
            for module, attr, name in BINDINGS:
                mod = importlib.import_module(module)
                if not hasattr(mod, attr):
                    raise BindingError(
                        f"traced binding {module}.{attr} no longer exists")
                fn = getattr(mod, attr)
                originals.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(module, attr, name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(originals):
                setattr(mod, attr, fn)


def _sum(spans, name, col):
    return sum(col(s) for s in spans if s[0] == name)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer times (s) and counts of one traced pass of `wall_s` seconds."""
    dur = lambda s: s[2] - s[1]                 # noqa: E731
    self_t = lambda s: s[2] - s[1] - s[4]       # noqa: E731
    one = lambda s: 1                           # noqa: E731
    opt = [s for s in spans if s[0] == "optimizer"]
    evals = sum(s[5][0] for s in opt)
    eig_s = _sum(spans, "eigensolver", dur)
    flop = _sum(spans, "eigensolver", lambda s: 4.0 / 3.0 * s[5] ** 3)
    shoot_calls = _sum(spans, "oracle", one)
    sweeps = _sum(spans, "oracle.sweep", one)
    steps = _sum(spans, "oracle.sweep", lambda s: s[5])
    sweep_s = _sum(spans, "oracle.sweep", dur)
    m = {
        "cli.self_s": _sum(spans, "cli", self_t),
        "tables.self_s": _sum(spans, "tables", self_t),
        "tables.warm_evals": sum(s[5][0] for s in opt if s[5][2]),
        "optimizer.calls": len(opt),
        "optimizer.evals": evals,
        "optimizer.evals_per_bound": _ratio(evals, len(opt)),
        "optimizer.self_s": _sum(spans, "optimizer", self_t),
        "optimizer.converged_frac": _ratio(sum(s[5][1] for s in opt), len(opt)),
        "hamiltonian.assemble_s": _sum(spans, "hamiltonian", dur),
        "hamiltonian.assemble_calls": _sum(spans, "hamiltonian", one),
        "hamiltonian.self_s": _sum(spans, "hamiltonian", self_t),
        "eigensolver.s": eig_s,
        "eigensolver.calls": _sum(spans, "eigensolver", one),
        "eigensolver.flop_computed": flop,
        "eigensolver.gflops": _ratio(flop, eig_s) * 1e-9,
        "oracle.calls": shoot_calls,
        "oracle.shoot_s": _sum(spans, "oracle", dur),
        "oracle.self_s": _sum(spans, "oracle", self_t),
        "oracle.sweeps": sweeps,
        "oracle.sweeps_per_eigenvalue": _ratio(sweeps, shoot_calls),
        "oracle.sweep_steps": steps,
        "oracle.sweep_s": sweep_s,
        "oracle.ns_per_step": _ratio(sweep_s, steps) * 1e9,
    }
    for kind in ("power", "inv_closed", "inv_series"):
        m[f"matelem.{kind}_s"] = _sum(spans, f"matelem.{kind}", dur)
        m[f"matelem.{kind}_calls"] = _sum(spans, f"matelem.{kind}", one)
    # wrapped bindings never call back into the harness, so the self times
    # of the other spans add up to the time spent inside the bindings
    m["trace.attributed_frac"] = _ratio(
        sum(self_t(s) for s in spans if s[0] not in HARNESS_SPANS), wall_s)
    return m


def layer_calls(spans: list[list]) -> dict[str, int]:
    """Spans per layer, with the oracle's sweeps counted under `oracle`."""
    calls = Counter(s[0].replace("oracle.sweep", "oracle") for s in spans)
    return {layer: calls[layer] for layer in LAYERS}


# counts that must repeat exactly between passes over the same inputs
EXACT_COUNTS = ("optimizer.evals", "hamiltonian.assemble_calls",
                "oracle.sweeps", "oracle.sweep_steps")
