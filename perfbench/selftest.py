#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny inputs (about 20 s).

    python3 perfbench/selftest.py

Checks that every metric the runner prints is declared in BENCHMARK.json
with the same unit, in both modes and on every workload; that a bound
perturbed by 1e-6 from its recorded value is counted as failed; that
BENCHMARK.json encodes the layer predictions with a one-line why per
workload; that the traced run refuses a missing or bypassed binding and a
trace that attributes less than 90% of a pass to the wrapped bindings; and
that the recorded reference passes the published table values.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run  # pins BLAS before numpy is imported

run._import_package()

import record  # noqa: E402
import tracing  # noqa: E402
import workloads as wk  # noqa: E402
from spikevar import oracle as sv_oracle  # noqa: E402
from spikevar.tables import RowResult, builtin_job  # noqa: E402

# tiny inputs that still reach every layer the workload's prediction names
_ROW = [("table1", next(r for r in builtin_job("table1").rows if r.label == "D=1 (A,B)"))]
TINY = {
    "tables": _ROW,
    "series": [{"key": "converge", "lam": 0.1, "alpha": 2.5, "schedule": (1, 2)}],
    "oracle": [c for c in wk.build_oracle(1) if c["key"].startswith(("exact(1,1)", "spike"))][:3],
}

# the prediction table: layers that carry work on a workload, and layers
# that must stay idle there (predicted flat)
PREDICTIONS = {
    "tables": ({"tables"}, {"tables"}, {"series", "oracle"}),
    "optimizer": ({"optimizer"}, {"tables", "series"}, {"oracle"}),
    "hamiltonian": ({"hamiltonian"}, {"tables"}, {"oracle"}),
    "matelem closed": ({"matelem.power", "matelem.inv_closed"},
                       {"tables"}, {"oracle"}),
    "matelem series": ({"matelem.inv_series"}, {"series"},
                       {"tables", "oracle"}),
    "eigensolver": ({"eigensolver"}, {"tables"}, {"oracle"}),
    "oracle": ({"oracle"}, {"oracle"}, {"tables", "series"}),
}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def test_metric_names(reference) -> None:
    setup = run.setup_seconds("oracle", 1)
    for name, wl in wk.WORKLOADS.items():
        for trace in (False, True):
            try:
                if trace:
                    metrics, _, _ = run.measure_traced(wl, TINY[name], reference, 1)
                    units = {k: run.per_layer_unit(k) for k in metrics}
                else:
                    metrics, _ = run.measure(wl, TINY[name], reference, 1, 0.0)
                    metrics["setup_s"] = setup
                    units = run.E2E_UNITS
                run.check_declared(metrics, units, trace)
                ok = True
            except RuntimeError as exc:
                print("     ", exc)
                ok = False
            expect(ok, f"{name} --trace {int(trace)}: printed metrics match BENCHMARK.json")


def test_perturbed_bound(reference) -> None:
    tid, row = "table3", builtin_job("table3").rows[0]
    bound = reference["rows"][tid][row.label]["bound"]
    fields = {f.name: None for f in dataclasses.fields(RowResult)}
    for delta, want_failed in ((0.0, 0), (1e-6, 1)):
        res = RowResult(**{**fields, "label": row.label, "bound": bound + delta,
                           "passed": True, "wall_ms": 1.0, "evaluations": 1})
        passes = [[wk.Item("row", 1.0, res)]]
        wk.check_rows([(tid, row)], passes[0], reference, 1)
        attempted, failed, _ = run.summarize(passes)
        expect(failed == want_failed and attempted == 1,
               f"table bound recorded {delta:+g}: fail_frac {failed}/{attempted}")

    inputs = wk.build_series(wk.DEFAULT_SEED)[:1]
    steps = reference["series"]["steps"]
    out = "".join(json.dumps({"D": s["D"], "bound": s["bound"] + 1e-6 * (i == 1),
                              "error": None}) + "\n" for i, s in enumerate(steps))
    items = [wk.Item("converge", 1.0, (0, out))]
    wk.check_series(inputs, items, reference, wk.DEFAULT_SEED)
    expect(run.summarize([items])[1] == 1,
           "series bound recorded +1e-06 is counted as failed")


def test_predictions() -> None:
    spec = run.declared()
    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(wk.WORKLOADS), f"workloads {names} match the runner's")
    for w in spec["workloads"]:
        layers = run.uses(w["name"])
        expect("\n" not in w["why"] and set(layers) <= set(tracing.LAYERS),
               f"{w['name']}: one-line why naming known layers {layers}")
    per_layer = {m["name"] for m in spec["per_layer"]}
    for layer in tracing.LAYERS:
        prefix = layer + ("_" if "." in layer else ".")
        expect(any(n.startswith(prefix) for n in per_layer),
               f"layer {layer} has per-layer metrics")
    for what, (layers, busy, idle) in PREDICTIONS.items():
        for name in names:
            used = layers & set(run.uses(name))
            if name in busy:
                expect(bool(used), f"{what} predicted busy on {name}")
            if name in idle:
                expect(not used, f"{what} predicted idle on {name}")


def test_binding_guard(reference) -> None:
    sweep = sv_oracle._sweep
    del sv_oracle._sweep
    try:
        with tracing.Tracer().installed():
            pass
        ok = False
    except tracing.BindingError as exc:
        ok = "spikevar.oracle._sweep" in str(exc)
    finally:
        sv_oracle._sweep = sweep
    expect(ok, "a missing binding fails the traced run and is named")
    # an oracle pass checked against the tables prediction: its layers are
    # busy where idle is predicted and idle where busy is
    wl = dataclasses.replace(wk.WORKLOADS["oracle"], name="tables")
    try:
        run.measure_traced(wl, TINY["oracle"][:1], reference, 1)
        ok = False
    except run.HarnessError as exc:
        ok = "BENCHMARK.json predicts" in str(exc)
    expect(ok, "a layer whose calls contradict the prediction fails the traced run")


def test_attribution() -> None:
    # a 1 s cli span around a 0.5 s oracle span with a 0.3 s sweep inside:
    # only the oracle's time is inside the wrapped bindings
    spans = [["cli", 0.0, 1.0, -1, 0.5, None], ["oracle", 0.25, 0.75, 0, 0.3, None],
             ["oracle.sweep", 0.3, 0.6, 1, 0.0, 100]]
    metrics = tracing.layer_metrics(spans, 1.0)
    expect(abs(metrics["trace.attributed_frac"] - 0.5) < 1e-12,
           f"harness span time is not attributed ({metrics['trace.attributed_frac']:.3f})")
    try:
        run.check_attributed(metrics, "oracle")
        ok = False
    except run.HarnessError as exc:
        ok = "0.500" in str(exc)
    expect(ok, "a trace attributing less than 90% of the pass fails")


def main() -> int:
    reference = json.loads((run.HERE / "reference.json").read_text())
    problems = record.published_mismatches(reference)
    expect(not problems, "recorded bounds pass their published references")
    test_predictions()
    test_perturbed_bound(reference)
    test_binding_guard(reference)
    test_attribution()
    test_metric_names(reference)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
