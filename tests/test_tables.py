"""Reproduction job definitions and the row runner."""

import dataclasses

import numpy as np
import pytest

from spikevar import tables
from spikevar.hamiltonian import PotentialSpec
from spikevar.optimizer import BoundResult
from spikevar.tables import (
    BUILTIN_TABLE_IDS,
    RowResult,
    TableJob,
    TableReport,
    TableRow,
    builtin_job,
    run_table,
)

# label -> (reference, tolerance); a spot-check manifest for provenance audits
MANIFEST = {
    ("table1", "D=10 (A,B)"): (3.582194, 5e-7),
    ("table1", "D=1 A-only"): (3.745811, 5e-7),
    ("table1", "D=10 A-only"): (3.602189, 1e-6),  # source digits truncated
    ("table2", "lam=1000 D=15 (A,B)"): (12.718617, 5e-7),
    ("table3", "N=2"): (21.350246, 5e-7),
    ("table3", "N=6"): (21.656596, 1e-6),  # source digits truncated
    ("table4", "(1,1,1)"): (5.000000, 1e-6),
    ("table4", "(1,-7,49)"): (7.000000, 1e-6),
    ("table5", "N=10"): (14.621300, 5e-7),
}


class TestJobDefinitions:
    def test_builtin_ids(self):
        assert BUILTIN_TABLE_IDS == ("table1", "table2", "table3", "table4", "table5")
        with pytest.raises(ValueError):
            builtin_job("table9")

    def test_every_reference_has_provenance(self):
        for ident in BUILTIN_TABLE_IDS:
            job = builtin_job(ident)
            for row in job.rows:
                assert row.reference is not None
                assert row.reference_source
                assert ident in row.reference_source or "companion" in row.reference_source

    def test_manifest_values_embedded(self):
        for (ident, label), (ref, tol) in MANIFEST.items():
            job = builtin_job(ident)
            match = [r for r in job.rows if r.label == label]
            assert len(match) == 1, (ident, label)
            assert match[0].reference == ref
            assert match[0].tolerance == tol

    def test_row_counts(self):
        assert len(builtin_job("table1").rows) == 10
        assert len(builtin_job("table2").rows) == 12
        assert len(builtin_job("table3").rows) == 9
        assert len(builtin_job("table4").rows) == 9
        assert len(builtin_job("table5").rows) == 9

    def test_slow_rows_marked(self):
        t1 = builtin_job("table1")
        assert {r.D for r in t1.rows if r.slow} == {200}
        t2 = builtin_job("table2")
        assert {r.D for r in t2.rows if r.slow} == {350, 1000}

    def test_row_validation(self):
        v = PotentialSpec(a1=1.0)
        with pytest.raises(ValueError):
            TableRow(label="x", potential=v, D=5, reference=1.0)


def _single_row_job() -> TableJob:
    src = builtin_job("table3")
    return TableJob("custom", (src.rows[0],))  # N=2, D=10, 21.350246


class TestRunTable:
    def test_single_row_reproduces(self):
        report = run_table(_single_row_job())
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.error is None
        assert row.passed
        assert row.bound == pytest.approx(21.350246, abs=5e-7)
        assert row.oracle is None
        assert report.all_passed

    def test_row_without_reference_is_judged_against_the_oracle(self):
        # the free oscillator, which the model basis at (A, B) = (0, 1)
        # holds exactly
        row = TableRow(label="free", potential=PotentialSpec(a1=1.0), D=5)
        (res,) = run_table(TableJob("custom", (row,)), with_oracle=True).rows
        assert res.reference is None and res.error is None
        assert res.deviation == res.bound - res.oracle
        assert 0.0 <= res.deviation <= 2e-6
        assert res.passed is (res.deviation <= row.tolerance)

    def test_with_oracle(self):
        report = run_table(_single_row_job(), with_oracle=True, oracle_tol=1e-6)
        row = report.rows[0]
        assert row.oracle == pytest.approx(21.350246, abs=2e-6)
        assert row.oracle <= row.bound + 1e-9

    def test_determinism_excluding_wall_time(self):
        r1 = run_table(_single_row_job())
        r2 = run_table(_single_row_job())
        a = dataclasses.asdict(r1.rows[0])
        b = dataclasses.asdict(r2.rows[0])
        a.pop("wall_ms")
        b.pop("wall_ms")
        assert a == b

    def test_failing_row_fails_report(self):
        ok = RowResult(label="a", N=3, l=0, D=10, level=0, passed=True)
        unchecked = RowResult(label="b", N=3, l=0, D=10, level=0)
        assert TableReport("custom", (ok, unchecked)).all_passed
        failing = RowResult(label="c", N=3, l=0, D=10, level=0, passed=False)
        assert not TableReport("custom", (ok, failing)).all_passed

    def test_row_failure_recorded_not_raised(self):
        bad = TableRow(
            label="infeasible",
            potential=PotentialSpec(a1=1.0, N=3),
            D=0,  # invalid dimension triggers a per-row error
        )
        report = run_table(TableJob("custom", (bad,)))
        row = report.rows[0]
        assert row.error is not None
        assert row.passed is False

    def test_slow_rows_skipped_by_default(self):
        job = builtin_job("table1")
        fast = [r for r in job.rows if not r.slow]
        report_rows = run_table(
            TableJob("table1", tuple(r for r in job.rows if r.D == 1))
        ).rows
        assert len(report_rows) == 2
        assert len(fast) == 8

    @pytest.mark.parametrize("table_id", BUILTIN_TABLE_IDS)
    def test_one_search_per_row_at_its_own_D(self, table_id, monkeypatch):
        # the row's search is its whole cost: no smaller-D search feeds it
        calls = []

        def search(v, D, level=0, **kwargs):
            calls.append((v, D, level, kwargs))
            return BoundResult(1.0, v.a1, np.full(D, 3.0), level, 7, True)

        monkeypatch.setattr(tables, "minimize_bound", search)
        job = builtin_job(table_id)
        report = run_table(job, include_slow=True)
        assert [r.evaluations for r in report.rows] == [7] * len(job.rows)
        assert len(calls) == len(job.rows)
        for row, (v, D, level, kwargs) in zip(job.rows, calls):
            assert (v, D, level) == (row.potential, row.D, row.level)
            assert kwargs == {"fix_B": row.fix_B}
