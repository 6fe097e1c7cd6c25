"""Command-line parsing, serialization formats, and exit codes."""

import csv
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exactref
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

    def test_level_past_r_20_gets_its_value(self, capsys):
        # the oscillator level 4 * 200 + 3, whose allowed region reaches r = 28.3
        assert cli.main(["oracle", "--a1", "1", "--level", "200", "--format", "json"]) == 0
        assert 803.0 - 2e-6 <= json.loads(capsys.readouterr().out)["oracle"] <= 803.0

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
    # deep negative terms put the energy cap below 0: the level sits ~5e5
    # above a floor of -2.6e6, past twelve doublings of the cap's margin
    (["oracle", "--a1", "0.41026503895141375",
      "--term=1.0682102871782548e-06:4.434396315485245",
      "--term=-61071.7322960802:0.6936741410163838", "--ell", "2"],
     None, "energy cap expansion failed"),
    # the floor search's first step 4 sqrt(a1) is under half an ulp of the
    # floor near -0.25 (and so is the cap's margin): it steps past it and
    # stops at the energy cap, where the level is not bracketed
    (["oracle", "--a1", "1e-300", "--term=-1:1", "--term=1:2"], None,
     "energy cap expansion failed"),
    # the outer cutoff's search end 2 sqrt(E/a1) + 10 overflows
    (["oracle", "--a1", "1e-300", "--term=1e12:2"], None, "outer cutoff overflows"),
    (["oracle", "--a1", "5e-324", "--ell", "1"], None, "outer cutoff overflows"),
    # the value `eig` converges to from -D 8 through -D 24
    (["oracle", "--a1", "0.045986086553579934",
      "--term=-9959.586135666304:1.2424399846039489",
      "--term=290732.80111262115:4.0"], -876.364363, 2e-6),
    # a floor of -8e41: the grid's block products pass the float range
    (["oracle", "--a1", "0.0008886676747687037",
      "--term=-3.314972325510248e-07:18.754534938575237",
      "--term=8.841066919342414e-09:19.340990795319584", "--dim", "1",
      "--level", "2"], None, "block products overflow on the 668-step grid"),
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


# seeded draws per contract test: 20 in Tier-1; CI's contract job sets 500
_CONTRACT_DRAWS = int(os.environ.get("SPIKEVAR_CONTRACT_DRAWS", "20"))


def _contract_draws(rng, count):
    """`count` random shared arguments of `oracle` and `eig` with an oracle
    tolerance: a1 = 10^U(-4, 6); one or two terms lam r^-alpha with lam =
    +-10^U(-12, 6), a quarter of them negative, and alpha from U(0.05, 20)
    or, a quarter of the time, one of 2, 4 and 6; N 1-5, l 0-2, level 0-2;
    tol 1e-6 or 1e-8."""
    draws = []
    for _ in range(count):
        argv = ["--a1", repr(10.0 ** rng.uniform(-4.0, 6.0))]
        for _ in range(rng.choice((1, 2))):
            lam = 10.0 ** rng.uniform(-12.0, 6.0)
            if rng.random() < 0.25:
                lam = -lam
            alpha = (rng.choice((2.0, 4.0, 6.0)) if rng.random() < 0.25
                     else rng.uniform(0.05, 20.0))
            argv.append(f"--term={lam!r}:{alpha!r}")
        argv += ["--dim", str(rng.randint(1, 5)), "--ell", str(rng.randint(0, 2)),
                 "--level", str(rng.randint(0, 2)), "--format", "json"]
        draws.append((argv, rng.choice((1e-6, 1e-8))))
    return draws


def _main_strict(argv, capsys):
    """(exit code, stdout, stderr) of `cli.main`, any warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv)
    return (code, *capsys.readouterr())


def _one_error_line(code, out, err) -> bool:
    """Whether the run exited 1 with exactly one `error:` line and no
    output."""
    if code != 1:
        return False
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ")
    return True


class TestOracleContract:
    """On any input the parser accepts, `oracle` exits 0 with a finite
    energy, which a bound `eig -D 8` prints for the same input does not
    undercut by more than 2 tol max(1, |E|), or exits 1 with exactly one
    `error:` line; a warning of any kind is an error.  That line never
    names an outer cutoff cap (the cutoff has none).  Seeded draws, so the
    inputs are the same on every run."""

    @pytest.mark.parametrize("argv, tol", _contract_draws(random.Random(0), _CONTRACT_DRAWS))
    def test_value_or_one_error_line(self, argv, tol, capsys):
        code, out, err = _main_strict(["oracle", *argv, "--tol", repr(tol)], capsys)
        if _one_error_line(code, out, err):
            assert "outer cutoff cap" not in err
            return
        assert code == 0 and err == ""
        energy = json.loads(out)["oracle"]
        assert math.isfinite(energy)
        code, out, err = _main_strict(["eig", *argv, "-D", "8"], capsys)
        if code == 0:
            assert json.loads(out)["bound"] >= energy - 2.0 * tol * max(1.0, abs(energy))
        else:
            assert code == 1 and len(err.splitlines()) == 1


class TestFarLevels:
    """Levels whose tails reach past r = 20 at their length scale a1^(-1/4)
    each get their value."""

    @pytest.mark.parametrize("argv, tol, exact", [
        # draw 232 of the contract draws (there at tol 1e-8): its well sits
        # at r = 36.7, and E0 = 2 sqrt(a1) (1 + sqrt(c2 + 1/4)), c2 = 6 + lam
        (["--a1", "0.04123594438376056", "--term=75092.89773120574:2.0", "--dim", "3",
          "--ell", "2"], 1e-6, 2.0 * math.sqrt(0.04123594438376056)
         * (1.0 + math.sqrt(6.25 + 75092.89773120574))),
        # level 1 near 5.9e3 at a1 = 13.07: sqrt(a1) (6 + 2 sqrt(c2 + 1/4))
        (["--a1", "13.07", "--term=671666.8515741335:2.0", "--level", "1"], 1e-6,
         math.sqrt(13.07) * (6.0 + 2.0 * math.sqrt(671666.8515741335 + 0.25))),
    ])
    def test_exact_level(self, argv, tol, exact, capsys):
        code, out, err = _main_strict(["oracle", *argv, "--tol", repr(tol),
                                       "--format", "json"], capsys)
        assert code == 0 and err == ""
        assert exact - 2.0 * tol <= json.loads(out)["oracle"] <= exact

    def test_below_the_bound(self, capsys):
        # draw 30 of the contract draws, under its D = 20 bound
        argv = ["--a1", "0.00043509038845730155",
                "--term=17955.302892105185:2.422260216749421", "--dim", "4", "--ell", "1",
                "--format", "json"]
        code, out, err = _main_strict(["oracle", *argv, "--tol", "1e-6"], capsys)
        assert code == 0 and err == ""
        energy = json.loads(out)["oracle"]
        code, out, err = _main_strict(["eig", *argv, "-D", "20"], capsys)
        assert code == 0 and err == ""
        assert energy <= json.loads(out)["bound"] + 2e-6 * max(1.0, abs(energy))


class TestExactFamily:
    """`oracle` and `eig -D 20` on seeded members of the exactly solvable
    family of `exactref`, r^2 + mu (2s - 3) r^-4 + mu^2 r^-6 carried to
    a1 = 10^U(-5, 5): the oracle at tol 1e-8 lies inside [E0 - 2 tol, E0],
    and the bound is not below E0 by more than 1e-12 max(1, E0)."""

    @pytest.mark.parametrize("mu, N, l, a1", exactref.draws(random.Random(0), _CONTRACT_DRAWS))
    def test_oracle_and_bound_around_E0(self, mu, N, l, a1, capsys):
        (lam4, lam6), exact = exactref.ground_state(mu, N, l, a1)
        argv = ["--a1", repr(a1), f"--term={lam4!r}:4", f"--term={lam6!r}:6",
                "--dim", str(N), "--ell", str(l), "--format", "json"]
        code, out, err = _main_strict(["oracle", *argv, "--tol", "1e-8"], capsys)
        assert code == 0 and err == ""
        assert exact - 2e-8 <= json.loads(out)["oracle"] <= exact
        code, out, err = _main_strict(["eig", *argv, "-D", "20"], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["bound"] >= exact - 1e-12 * max(1.0, exact)


_SEARCH_DRAWS = [argv for argv, _ in _contract_draws(random.Random(0), _CONTRACT_DRAWS)]
_MODES = {"ab": [], "a": ["--fix-B"]}


def _first_order_draws(rng, count):
    """`count` couplings +-10^U(-12, 6) for `first-order`, a quarter of
    them negative."""
    lams = [10.0 ** rng.uniform(-12.0, 6.0) for _ in range(count)]
    return [-lam if rng.random() < 0.25 else lam for lam in lams]


class TestSearchContract:
    """The bound searches on the random inputs of `TestOracleContract`, in
    both modes: `eig -D 8`, `converge` over a short schedule and
    `first-order` each exit 0 with finite bounds or exit 1 with exactly one
    `error:` line; a warning of any kind is an error."""

    @pytest.mark.parametrize("mode", _MODES)
    @pytest.mark.parametrize("argv", _SEARCH_DRAWS)
    def test_eig(self, argv, mode, capsys):
        code, out, err = _main_strict(["eig", *argv, "-D", "8", *_MODES[mode]], capsys)
        if not _one_error_line(code, out, err):
            assert code == 0 and err == ""
            assert math.isfinite(json.loads(out)["bound"])

    @pytest.mark.parametrize("mode", _MODES)
    @pytest.mark.parametrize("argv", _SEARCH_DRAWS)
    def test_converge_history_never_rises(self, argv, mode, capsys):
        code, out, err = _main_strict(
            ["converge", *argv, "--schedule", "2,4,8", "--digits", "4", *_MODES[mode]],
            capsys)
        if _one_error_line(code, out, err):
            return
        assert code == 0 and err == ""
        bounds = [json.loads(line)["bound"] for line in out.splitlines()]
        assert bounds and all(math.isfinite(b) for b in bounds)
        for prev, b in zip(bounds, bounds[1:]):
            assert b <= prev + 1e-9 * max(1.0, abs(prev))

    @pytest.mark.parametrize("mode", ["a", "ab"])
    @pytest.mark.parametrize("lam", _first_order_draws(random.Random(0), _CONTRACT_DRAWS))
    def test_first_order(self, lam, mode, capsys):
        code, out, err = _main_strict(
            ["first-order", f"--lambda={lam!r}", "--mode", mode, "--format", "json"],
            capsys)
        if not _one_error_line(code, out, err):
            assert code == 0 and err == ""
            assert math.isfinite(json.loads(out)["bound"])


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
