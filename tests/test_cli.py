"""Command-line parsing, serialization formats, and exit codes."""

import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikevar import cli, optimizer
from spikevar.hamiltonian import PotentialSpec
from spikevar.oracle import shoot_eigenvalue
from spikevar.tables import RowResult, TableReport


class TestParseRoundTrip:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as e:
            cli.main(["eig", "--frobnicate", "1"])
        assert e.value.code == 2

    def test_missing_command_exits_2(self):
        with pytest.raises(SystemExit) as e:
            cli.main([])
        assert e.value.code == 2

    def test_bad_term_syntax_exits_2(self):
        with pytest.raises(SystemExit) as e:
            cli.main(["eig", "--term", "nonsense"])
        assert e.value.code == 2

    # eig never ran the oracle, and only table rows carry a reference
    @pytest.mark.parametrize("argv, flag", [
        (["eig", "--tol", "1e-6"], "--tol"),
        (["eig", "--strict"], "--strict"),
        (["oracle", "--strict"], "--strict"),
        (["converge", "--strict"], "--strict"),
        (["first-order", "--lambda", "1000", "--strict"], "--strict"),
    ])
    def test_removed_flag_exits_2(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def _row(**kw) -> RowResult:
    base = dict(
        label="r", N=3, l=0, D=10, level=0, A_star=1.5, B_star=2.5,
        bound=3.582194, oracle=None, reference=3.582194, deviation=0.0,
        passed=True, wall_ms=12.5, evaluations=100, error=None,
    )
    base.update(kw)
    return RowResult(**base)


class TestEmit:
    def test_csv_header_and_row(self, capsys):
        cli.emit_results([_row()], "csv", None)
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ("row,N,l,D,level,A_star,B_star,bound,oracle,"
                          "reference,deviation,pass,wall_ms,evaluations")
        # the columns are RowResult's fields in order, but `error`
        fields = [f.metadata.get("column", f.name)
                  for f in dataclasses.fields(RowResult)]
        assert out[0].split(",") == fields[:-1] and fields[-1] == "error"
        cells = out[1].split(",")
        assert cells[0] == "r"
        assert cells[7] == "3.582194"
        assert cells[12] == "0"  # timing suppressed by default
        assert cells[13] == "100"

    def test_csv_quotes_commas_and_quotes(self, capsys):
        cli.emit_results([_row(label='(1,10,1) "x"')], "csv", None)
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith('"(1,10,1) ""x""",3,')
        (row,) = csv.DictReader(io.StringIO(out))
        assert row["row"] == '(1,10,1) "x"' and row["bound"] == "3.582194"

    def test_empty_report_is_header_only(self, capsys):
        cli.emit_results([], "csv", None)
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1

    def test_human_format_mentions_fields(self, capsys):
        cli.emit_results([_row()], "human", None)
        out = capsys.readouterr().out
        assert "bound" in out and "3.582194" in out

    def test_timing_flag_controls_wall_ms(self, capsys):
        cli.emit_results([_row()], "csv", None, timing=True)
        out = capsys.readouterr().out.splitlines()[1]
        assert out.split(",")[12] == "12.5"

    def test_out_path(self, tmp_path):
        target = tmp_path / "report.csv"
        cli.emit_results([_row()], "csv", str(target))
        assert target.read_text().startswith("row,")

    def test_unwritable_path_reported(self, tmp_path):
        with pytest.raises(RuntimeError):
            cli.emit_results([_row()], "csv", str(tmp_path / "nope" / "x.csv"))

    opt_float = st.none() | st.floats(allow_nan=False, allow_infinity=False)

    @given(
        bound=opt_float, oracle=opt_float, reference=opt_float,
        deviation=opt_float,
        passed=st.none() | st.booleans(),
        wall=st.floats(0, 1e6, allow_nan=False),
        evaluations=st.integers(0, 10**6),
        label=st.text(
            alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=20,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_json_lines_round_trip(self, bound, oracle, reference, deviation,
                                   passed, wall, evaluations, label):
        row = _row(label=label, bound=bound, oracle=oracle, reference=reference,
                   deviation=deviation, passed=passed, wall_ms=wall,
                   evaluations=evaluations)
        lines = []
        for d in [cli._row_dict(row, timing=True)]:
            lines.append(json.dumps(d))
        back = cli.rows_from_json_lines("\n".join(lines))
        assert back == [row]


class TestMain:
    def test_eig_exact_oscillator(self, capsys):
        code = cli.main(["eig", "--a1", "1", "--dim", "3", "--ell", "0",
                         "-D", "1", "--level", "0", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        bound = float(out[1].split(",")[7])
        assert bound == pytest.approx(3.0, abs=1e-6)

    def test_table_csv_reads_back_cell_for_cell(self, capsys):
        # table4 labels such as (1,10,1) hold commas
        assert cli.main(["table", "--id", "table4", "--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert rows
        for row in rows:  # no cell left over (key None), none missing
            assert len(row) == 14 and None not in row.values()
            assert int(row["evaluations"]) > 0  # the row's own search
        row = next(r for r in rows if r["row"] == "(1,10,1)")
        assert (row["N"], row["D"], row["pass"]) == ("3", "50", "yes")

    def test_first_order_value(self, capsys):
        code = cli.main(["first-order", "--lambda", "1000", "--mode", "a",
                         "--format", "json"])
        assert code == 0
        row = json.loads(capsys.readouterr().out)
        assert row["bound"] == pytest.approx(21.427793, abs=5e-7)

    def test_oracle_command(self, capsys):
        code = cli.main(["oracle", "--a1", "1", "--tol", "1e-5",
                         "--format", "json"])
        assert code == 0
        row = json.loads(capsys.readouterr().out)
        assert row["oracle"] == pytest.approx(3.0, abs=1e-5)

    def test_oracle_default_output_has_no_log_lines(self):
        # the oracle's DEBUG record stays out of a plain run's stdout and stderr
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "spikevar.cli", "oracle", "--a1", "1",
             "--tol", "1e-5", "--format", "json"],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.stderr == ""
        (line,) = proc.stdout.splitlines()
        assert list(json.loads(line)) == [*cli._FIELDS, "error"]

    def test_converge_command(self, capsys):
        code = cli.main(["converge", "--a1", "1", "--term", "0.1:4",
                         "--digits", "1", "--schedule", "1,10,20",
                         "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4  # header + three schedule steps
        final = float(lines[-1].split(",")[7])
        assert final == pytest.approx(3.576773, abs=5e-7)

    def test_computation_failure_exits_1(self, capsys):
        code = cli.main(["eig", "--a1", "-3", "-D", "2", "--format", "csv"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_lone_init_flag_rejected(self, capsys):
        code = cli.main(["eig", "--a1", "1", "-D", "2", "--init-A", "2.0"])
        assert code == 1
        assert "together" in capsys.readouterr().err

    def test_byte_identical_reruns(self, capsys):
        argv = ["eig", "--a1", "1", "--term", "0.1:4", "-D", "3",
                "--format", "csv"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_strict_turns_mismatch_into_exit_1(self, monkeypatch, capsys):
        failing = TableReport("table3", (_row(passed=False),))
        monkeypatch.setattr(cli, "run_table", lambda *a, **k: failing)
        assert cli.main(["table", "--id", "table3"]) == 0
        capsys.readouterr()
        assert cli.main(["table", "--id", "table3", "--strict"]) == 1

    def test_strict_table_without_mismatch_exits_0(self, monkeypatch, capsys):
        passing = TableReport("table3", (_row(passed=True), _row(passed=None)))
        monkeypatch.setattr(cli, "run_table", lambda *a, **k: passing)
        assert cli.main(["table", "--id", "table3", "--strict"]) == 0

    def test_level_beyond_outer_cap_exits_1(self, capsys):
        assert cli.main(["oracle", "--a1", "1", "--level", "200"]) == 1
        err = capsys.readouterr().err
        assert "default outer cutoff cap 20" in err
        assert "pass a larger" not in err

    def test_timing_shares_command_time_across_untimed_rows(self, capsys):
        assert cli.main(["converge", "--a1", "1", "--term", "0.1:4",
                         "--digits", "1", "--schedule", "1,2,3",
                         "--format", "json", "--timing"]) == 0
        walls = {json.loads(line)["wall_ms"]
                 for line in capsys.readouterr().out.splitlines()}
        assert len(walls) == 1 and walls.pop() > 0.0

    def test_timing_keeps_table_row_times(self, monkeypatch, capsys):
        report = TableReport("table3", (_row(wall_ms=12.5), _row(wall_ms=7.0)))
        monkeypatch.setattr(cli, "run_table", lambda *a, **k: report)
        assert cli.main(["table", "--id", "table3", "--format", "json",
                         "--timing"]) == 0
        walls = [json.loads(line)["wall_ms"]
                 for line in capsys.readouterr().out.splitlines()]
        assert walls == [12.5, 7.0]

    def test_row_error_exits_1(self, monkeypatch, capsys):
        broken = TableReport("table3", (_row(passed=False, error="boom"),))
        monkeypatch.setattr(cli, "run_table", lambda *a, **k: broken)
        assert cli.main(["table", "--id", "table3"]) == 1

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 29.1 TiB"), "error: Unable to allocate 29.1 TiB"),
        (MemoryError(), "error: MemoryError"),
    ])
    def test_memory_error_is_one_error_line(self, exc, line, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "minimize_bound", exhausted)
        assert cli.main(["eig", "--term", "0.1:4"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [line]


# extreme or newly admitted inputs: (argv, value printed, tolerance), or
# (argv, None, text of the one error line)
EDGE_CASES = [
    (["eig", "--dim", "2"], 2.0, 1e-6),
    (["oracle", "--dim", "2"], 2.0, 2e-6),
    (["eig", "--dim", "5", "--term=-1:2"], 2.0 + 5.0 ** 0.5, 5e-3),
    (["oracle", "--dim", "5", "--term=-1:2"], 2.0 + 5.0 ** 0.5, 2e-6),
    (["eig", "--term", "1:inf"], None, "finite exponent"),
    (["oracle", "--term", "1:inf"], None, "finite exponent"),
    (["eig", "--a1", "inf"], None, "a1 must be finite"),
    (["oracle", "--a1", "inf"], None, "a1 must be finite"),
    (["oracle", "--tol", "inf"], None, "finite"),
    (["oracle", "--term", "1000:10"], 8.3655150, 2e-6),
    (["oracle", "--term", "1000:12"], 7.6397213, 2e-6),
    (["oracle", "--term", "1:20"], 5.2255396, 2e-6),
    (["oracle", "--term", "1:100"], 5.7717191, 2e-6),
    (["eig", "--term", "1:300"], 12.1914163, 1e-7),
    (["oracle", "--a1", "1e308"], None, "would need"),
    # the search's start B = 4 a1 overflows; the simplex would meet inf - inf
    (["eig", "--a1", "1e308", "--term", "1:4"], None, "a1 = 1e+308"),
    (["eig", "--term", "0.1:4", "-D", "5", "--init-A", "nan", "--init-B", "1"],
     None, "init A must be finite"),
    (["eig", "--term", "0.1:4", "-D", "5", "--init-A", "5", "--init-B", "inf"],
     None, "init B must be finite and > 0"),
    (["eig", "--term", "0.1:4", "-D", "5", "--init-A", "5", "--init-B", "-3"],
     None, "init B must be finite and > 0"),
    (["eig", "--term", "0.1:4", "-D", "5", "--init-A", "5", "--init-B", "nan"],
     None, "init B must be finite and > 0"),
    (["oracle", "--term=-1:1000", "--term", "1:2000"], None, "inf - inf"),
    # refused before anything is allocated
    (["eig", "--term", "0.1:4", "-D", str(optimizer._MAX_D + 1)], None,
     "would need about 0.688 GiB"),
    (["eig", "--term=-1:1"], None, "not supported"),
    (["oracle", "--term=-0.3:2"], None, "< -1/4"),
    (["first-order", "--lambda", "1e200"], 8.77205321e66, 1e58),
    (["first-order", "--lambda", "inf", "--mode", "ab"], None, "finite"),
    # points whose assembly overflows in numpy bound nothing (+inf); the
    # search goes on among the others
    (["eig", "--a1", "125534023.84739846", "--term=1.2384775060295942e+292:6",
      "--dim", "1"], 2.1953924607385067e+79, 1e70),
    (["eig", "-D", "4", "--term=1e308:6"], None, "overflows at every (A, B)"),
    # a steep grid: 16 RK4 steps overflow a state near the rescale guard
    (["oracle", "--a1", "7.3e9", "--term", "1:4"], None, "6.54e+06 steps"),
]


class TestEdgeCases:
    """Each input prints its value or exits 1 with one error line that
    names no nan; a RuntimeWarning fails the test (pytest's filterwarnings
    setting)."""

    @pytest.mark.parametrize("argv, value, tol", EDGE_CASES,
                             ids=[" ".join(c[0]) for c in EDGE_CASES])
    def test_value_or_one_error_line(self, argv, value, tol, capsys):
        code = cli.main([*argv, "--format", "json"])
        out, err = capsys.readouterr()
        if value is None:
            assert code == 1 and out == ""
            (line,) = err.splitlines()
            assert line.startswith("error: ") and tol in line
            assert "nan" not in line
            return
        assert code == 0 and err == ""
        row = json.loads(out)
        printed = row["oracle"] if argv[0] == "oracle" else row["bound"]
        assert printed == pytest.approx(value, abs=tol)


def test_opposite_overflowing_terms_give_one_error_line_under_W_error():
    # r^-1000 and r^-2000 both overflow inside the oracle's probe, with
    # opposite signs; a RuntimeWarning raised as an error would end in a
    # traceback instead of the one line
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "spikevar.cli",
         "oracle", "--term=-1:1000", "--term", "1:2000", "--format", "json"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 1 and proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: the potential is inf - inf at r = ")


class TestCachedParser:
    """main reuses one parser; no call may see another call's arguments."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_successive_calls_share_no_terms(self, monkeypatch, capsys):
        seen = []

        def record(v, level, tol):
            seen.append(v.terms)
            return shoot_eigenvalue(PotentialSpec(a1=1.0), 0, tol=1e-3)

        monkeypatch.setattr(cli, "shoot_eigenvalue", record)
        argvs = [["--term", "1:4"], ["--term", "2:6", "--term", "3:4"], [],
                 ["--term", "0.5:2.5"]]
        for extra in argvs:
            assert cli.main(["oracle", "--a1", "1", *extra, "--format", "json"]) == 0
        capsys.readouterr()
        assert seen == [((1.0, 4.0),), ((2.0, 6.0), (3.0, 4.0)), (), ((0.5, 2.5),)]

    def test_usage_error_after_cached_parse_exits_2(self, capsys):
        assert cli.main(["first-order", "--lambda", "1000", "--format", "json"]) == 0
        with pytest.raises(SystemExit) as e:
            cli.main(["eig", "--frobnicate", "1"])
        assert e.value.code == 2
        assert "--frobnicate" in capsys.readouterr().err
        assert cli.main(["first-order", "--lambda", "1000", "--format", "json"]) == 0
