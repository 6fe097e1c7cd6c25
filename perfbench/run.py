#!/usr/bin/env python3
"""spikevar benchmark: three workloads, end-to-end metrics and a layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload tables --seed 0 --seconds 35 --trace 0

Workloads (see BENCHMARK.json for why each exists): `tables` (seeded rows of
tables 3-5), `series` (`converge` with a non-even alpha), `oracle`
(shooting eigenvalues).  The package is imported from `src/` of the same
checkout and driven only through `spikevar.cli.main` and
`spikevar.tables.run_table`, serially, with BLAS pinned to one thread.

--trace 0 repeats the items of one seeded pass for --seconds and prints the
end-to-end metrics: pass_s (time of one pass), item_s.p50 (median time of
a row, converge call or eigenvalue), setup_s (median time for a fresh
interpreter to import the package and build the inputs) and peak_rss_mb.
The host's speed drifts by tens of percent within a run and between runs,
so each of these times is measured against a fixed calibration probe run
just before it and reported at the probe's reference speed (CAL_REF_S).
--trace 1 runs one untraced pass and two traced passes (tracing.py) and
prints per-layer time and counts per pass, plus the tracing overhead; it
fails if less than 90% of a traced pass is spent inside the wrapped
bindings.  Every output is checked; failed/attempted in the result is the
failure fraction.

Out of scope: the two D = 200 rows of table1 take ~6 s each, too few
repetitions in one run for a steady time, and `tables` covers the same
layers; the table2 slow rows (lambda = 1 at D = 350 and lambda = 0.01 at
D = 1000 take 37 s and 97 s per pass) wait until cheaper matrix elements
and search make them affordable.  benchmarks/bench_core.py stays as the
README points to it; its kernel timing is superseded by oracle.ns_per_step.
"""

from __future__ import annotations

import os

# pin BLAS before numpy is imported, here and in the setup probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 11
# calibration time before an item, as a share of the item's last time
CAL_SHARE = 0.1
# a calibration probe's time on an unloaded core of a 2.1 GHz x86-64 host
# (Python 3.11, OpenBLAS): the end-to-end times are in these units
CAL_REF_S = 0.012
TRACED_PASSES = 2
# share of a traced pass that must be spent inside the wrapped bindings
ATTRIBUTED_MIN = 0.9
E2E_UNITS = {"pass_s": "s", "item_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class HarnessError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def _import_package():
    sys.path.insert(0, str(SRC))
    import spikevar

    if Path(spikevar.__file__).resolve().parent != SRC / "spikevar":
        raise HarnessError(f"spikevar imported from {spikevar.__file__}, "
                           f"not from {SRC}")
    return spikevar


def prepare(workload: str, seed: int):
    """Everything a run does before its first timed item."""
    _import_package()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    reference = json.loads((HERE / "reference.json").read_text())
    return wl, wl.build(seed), reference


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def uses(workload: str) -> list[str]:
    """Layers the workload's `why` in BENCHMARK.json predicts it calls."""
    (why,) = [w["why"] for w in declared()["workloads"] if w["name"] == workload]
    return why.split("uses:")[1].split()


def per_layer_unit(name: str) -> str:
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("gflops"):
        return "GFLOP/s"
    if name.endswith("flop_computed"):
        return "flop"
    if name.endswith("ns_per_step"):
        return "ns"
    return "count"


def _blas_threads() -> int | None:
    """Threads OpenBLAS will use, read from the loaded library itself."""
    with open("/proc/self/maps") as fh:
        libs = {p for line in fh for p in line.split()[5:] if "openblas" in p}
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def env_stamp(seed: int) -> dict:
    import numpy
    import scipy
    from spikevar import oracle

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    stamp = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "oracle_backend": oracle.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }
    if stamp["blas_threads"] not in (1, None):
        raise HarnessError(f"BLAS runs {stamp['blas_threads']} threads, not 1")
    return stamp


def setup_seconds(workload: str, seed: int) -> float:
    """Median time for a fresh interpreter to reach the first timed item,
    in calibration units as in measure(); each probe reports its own end,
    so its exit is not counted."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    ratios = []
    for _ in range(SETUP_PROBES):
        probe = calibrate(0.0)
        start = time.time()
        out = subprocess.run(cmd + [repr(start)], check=True, timeout=60, cwd=ROOT,
                             capture_output=True, text=True).stdout
        ratios.append(float(out) / probe)
    return CAL_REF_S * statistics.median(ratios)


_CAL_MATRIX = None


def calibration_probe() -> float:
    """Seconds taken by a fixed computation that does not use spikevar:
    a pure-Python float loop and small numpy/LAPACK calls, like the
    workloads' mix.  The shared host's speed drifts by tens of percent
    over seconds and minutes and moves this probe and the items much
    alike, so an item's time over the probe's varies far less than
    either time alone."""
    global _CAL_MATRIX
    import numpy as np

    if _CAL_MATRIX is None:
        m = np.sin(np.arange(1600.0)).reshape(40, 40)
        _CAL_MATRIX = m + m.T
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(150_000):
        acc += i * 0.5
    for _ in range(25):
        np.linalg.eigh(_CAL_MATRIX)
        (_CAL_MATRIX @ _CAL_MATRIX).sum()
    return time.perf_counter() - t0


def calibrate(seconds: float) -> float:
    """Median probe time over at least one probe and about `seconds`."""
    times = [calibration_probe()]
    while sum(times) < seconds:
        times.append(calibration_probe())
    return statistics.median(times)


def _nospan(name, info=None):
    return contextlib.nullcontext()


def _wall(items) -> float:
    """Time of a pass: its items' times, without the harness's own work."""
    return sum(i.seconds for i in items)


def run_item(key, call, span):
    from workloads import Item

    t0 = time.perf_counter()
    value, stable = call(span)
    return Item(key, time.perf_counter() - t0, value, stable)


def run_pass(wl, inputs, span) -> list:
    return [run_item(key, call, span) for key, call in wl.calls(inputs)]


def check_passes(wl, inputs, passes, reference, seed) -> None:
    """Check every item; repeated passes must give the same outputs."""
    for items in passes:
        wl.check(inputs, items, reference, seed)
        for item, ref in zip(items, passes[0]):
            if item.stable != ref.stable:
                item.failures.append("output differs from the first pass: nondeterminism")


def measure(wl, inputs, reference, seed, seconds):
    """One whole pass, then its items again in turn while each one's last
    time still fits in `seconds`; returns (end-to-end metrics, passes).

    Each item is timed in units of the calibration probes run just before
    it (see calibration_probe); an item's time is the median of these
    ratios over its repetitions, times CAL_REF_S.
    """
    calls = wl.calls(inputs)
    ratios = [[] for _ in calls]
    passes = [[]]
    start = time.perf_counter()
    while True:
        if len(passes[-1]) == len(calls):
            passes.append([])
        i = len(passes[-1])
        last = passes[-2][i].seconds if len(passes) > 1 else 0.0
        if len(passes) > 1 and time.perf_counter() - start + last > seconds:
            break
        probe = calibrate(CAL_SHARE * last)
        item = run_item(*calls[i], _nospan)
        ratios[i].append(item.seconds / probe)
        passes[-1].append(item)
    if not passes[-1]:
        passes.pop()
    check_passes(wl, inputs, passes, reference, seed)
    times = [CAL_REF_S * statistics.median(r) for r in ratios]
    metrics = {
        "pass_s": sum(times),
        "item_s.p50": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, passes


def measure_traced(wl, inputs, reference, seed):
    """One untraced pass, then traced passes; returns (per-layer metrics,
    passes, calls per binding)."""
    from tracing import EXACT_COUNTS, Tracer, layer_calls, layer_metrics

    untraced = run_pass(wl, inputs, _nospan)
    tracer = Tracer()
    traced, per_pass, calls = [], [], []
    with tracer.installed():
        for _ in range(TRACED_PASSES):
            first_span = len(tracer.spans)
            traced.append(run_pass(wl, inputs, tracer.span))
            spans = tracer.spans[first_span:]
            per_pass.append(layer_metrics(spans, _wall(traced[-1])))
            calls.append(layer_calls(spans))
    passes = [untraced] + traced
    check_passes(wl, inputs, passes, reference, seed)
    for key in EXACT_COUNTS:
        if len({m[key] for m in per_pass}) > 1:
            traced[-1][0].failures.append(
                f"{key} differs between traced passes: nondeterminism "
                f"{[m[key] for m in per_pass]}")
    expected = set(uses(wl.name))
    for layer, n in calls[0].items():
        if (n > 0) != (layer in expected):
            raise HarnessError(
                f"layer {layer} made {n} calls on {wl.name}, but BENCHMARK.json "
                f"predicts it {'busy' if layer in expected else 'idle'}; a binding "
                f"in tracing.BINDINGS may have been renamed or bypassed")
    metrics = {k: statistics.mean(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_s"] = (statistics.mean(_wall(items) for items in traced)
                                   - _wall(untraced))
    return metrics, passes, dict(tracer.calls)


def check_attributed(metrics: dict, workload: str) -> None:
    """Refuse a trace whose wrapped bindings miss much of the pass's time:
    work has moved to a path the trace does not see."""
    frac = metrics["trace.attributed_frac"]
    if not frac >= ATTRIBUTED_MIN:
        raise HarnessError(
            f"the traced bindings cover {frac:.3f} of the {workload} pass's time, "
            f"below {ATTRIBUTED_MIN}; a call path may bypass tracing.BINDINGS")


def summarize(passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every item of every pass."""
    items = [i for its in passes for i in its]
    failed = [i for i in items if i.failures]
    return len(items), len(failed), [f"{i.key}: {'; '.join(i.failures)}" for i in failed]


def result_line(metrics: dict, units: dict, attempted: int, failed: int) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(metrics)},
    }


def check_declared(metrics: dict, units: dict, trace: bool) -> None:
    spec = declared()["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: units[k] for k in metrics}
    if want != got:
        raise HarnessError(f"metrics {sorted(set(got) ^ set(want))} or their units "
                           f"differ from BENCHMARK.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tables", "series", "oracle"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the parent's time.time() at launch; prints the setup time
    parser.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    wl, inputs, reference = prepare(args.workload, args.seed)
    if args.setup_probe is not None:
        print(time.time() - args.setup_probe)
        return 0
    print("env", json.dumps(env_stamp(args.seed)))
    if args.trace:
        metrics, passes, binding_calls = measure_traced(wl, inputs, reference, args.seed)
        units = {k: per_layer_unit(k) for k in metrics}
        print("calls per traced binding:", json.dumps(binding_calls))
        check_attributed(metrics, args.workload)
    else:
        metrics, passes = measure(wl, inputs, reference, args.seed, args.seconds)
        # after the timed passes, so launching the probes does not disturb the
        # caches and memory the first pass starts with
        metrics["setup_s"] = setup_seconds(args.workload, args.seed)
        units = E2E_UNITS
    check_declared(metrics, units, bool(args.trace))
    attempted, failed, messages = summarize(passes)
    for msg in messages:
        print("FAIL", msg)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, {attempted} items")
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print(f"  fail_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps(result_line(metrics, units, attempted, failed)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)
