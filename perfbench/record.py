#!/usr/bin/env python3
"""Record the benchmark's reference outputs into perfbench/reference.json.

Records every bound and evaluation count of tables 3-5, the bounds of the
`series` call at SERIES_DEFAULT and the `oracle` energies at the default
seed.  Before writing, every recorded bound must pass its published table
reference at the row tolerance in spikevar.tables, so the reference cannot
drift from the paper unnoticed (selftest.py repeats the check on
the committed file).  Takes about 50 s on one core.

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS before numpy is imported

REFERENCE = run.HERE / "reference.json"
ROW_TABLES = ("table3", "table4", "table5")


def published_mismatches(reference: dict) -> list[str]:
    """Recorded bounds that miss their published value by more than the
    row tolerance, and recorded rows missing from the reference."""
    from spikevar.tables import builtin_job

    problems = []
    for tid in ROW_TABLES:
        for row in builtin_job(tid).rows:
            rec = reference["rows"].get(tid, {}).get(row.label)
            if rec is None:
                problems.append(f"{tid} {row.label}: not recorded")
            elif not abs(rec["bound"] - row.reference) <= row.tolerance:
                problems.append(f"{tid} {row.label}: recorded {rec['bound']!r} misses "
                                f"published {row.reference} by more than {row.tolerance:g}")
    return problems


def record() -> dict:
    from spikevar.hamiltonian import PotentialSpec
    from spikevar.optimizer import converge_to_digits
    from spikevar.tables import builtin_job, run_table
    import workloads as wk

    rows = {}
    for tid in ROW_TABLES:
        report = run_table(builtin_job(tid), include_slow=True)
        rows[tid] = {r.label: {"bound": r.bound, "evaluations": r.evaluations}
                     for r in report.rows}
    lam, alpha = wk.SERIES_DEFAULT
    conv = converge_to_digits(PotentialSpec(1.0, ((lam, alpha),), 3, 0), 0,
                              wk.SERIES_DIGITS, wk.SERIES_SCHEDULE)
    cases = wk.build_oracle(wk.DEFAULT_SEED)
    items = [fn(run._nospan)[0] for _, fn in wk.oracle_calls(cases)]
    return {
        "rows": rows,
        "series": {"lambda": lam, "alpha": alpha, "steps": [
            {"D": D, "bound": res.bound, "evaluations": res.evaluations}
            for D, res in conv.history]},
        "oracle": {"seed": wk.DEFAULT_SEED, "tol": wk.ORACLE_TOL, "energies": {
            case["key"]: json.loads(out)["oracle"] for case, (_, out) in zip(cases, items)}},
    }


def main() -> int:
    run._import_package()
    reference = record()
    problems = published_mismatches(reference)
    for p in problems:
        print("MISMATCH", p)
    if problems:
        return 1
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE}; every recorded bound passes its published reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
