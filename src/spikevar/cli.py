"""Command-line front end.

Subcommands: eig (optimize one bound), oracle (shooting eigenvalue), table
(built-in reproduction jobs), converge (bound along a truncation schedule),
first-order (1 x 1 closed forms).  Output formats: human, csv, json-lines.

Numeric output is byte-identical across reruns of the same configuration:
no randomness anywhere, and wall-clock fields are emitted as 0 unless
--timing is given.  Exit status: 0 success (reference mismatches are data,
not errors, unless --strict), 1 computation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass

from .hamiltonian import PotentialSpec
from .optimizer import converge_to_digits, ground_state_first_order, minimize_bound
from .oracle import shoot_eigenvalue
from .tables import BUILTIN_TABLE_IDS, RowResult, builtin_job, run_table

__all__ = ["RunConfig", "parse_args", "emit_results", "main"]

_CSV_HEADER = "row,N,l,D,level,A_star,B_star,bound,oracle,reference,deviation,pass,wall_ms"
_FIELDS = ("row", "N", "l", "D", "level", "A_star", "B_star", "bound",
           "oracle", "reference", "deviation", "pass", "wall_ms")


@dataclass(frozen=True)
class RunConfig:
    command: str
    a1: float = 1.0
    terms: tuple[tuple[float, float], ...] = ()
    N: int = 3
    l: int = 0
    D: int = 10
    schedule: tuple[int, ...] = ()
    level: int = 0
    tol: float = 1e-6
    digits: int = 6
    lam: float = 0.0
    mode: str = "a"
    table_id: str = "table1"
    fix_B: bool = False
    init_A: float | None = None
    init_B: float | None = None
    with_oracle: bool = False
    include_slow: bool = False
    fmt: str = "human"
    out: str | None = None
    strict: bool = False
    timing: bool = False


def _term(text: str) -> tuple[float, float]:
    try:
        lam_s, alpha_s = text.split(":")
        return float(lam_s), float(alpha_s)
    except Exception:
        raise argparse.ArgumentTypeError(
            f"expected <lambda>:<alpha>, got {text!r}"
        ) from None


def _schedule(text: str) -> tuple[int, ...]:
    try:
        vals = tuple(int(p) for p in text.split(","))
    except Exception:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of integers, got {text!r}"
        ) from None
    if not vals:
        raise argparse.ArgumentTypeError("schedule must be nonempty")
    return vals


def _add_common(sub, potential=True):
    if potential:
        sub.add_argument("--a1", type=float, default=1.0,
                         help="coefficient of r^2 (default 1)")
        sub.add_argument("--term", type=_term, action="append", default=[],
                         metavar="LAM:ALPHA",
                         help="singular term lam r^(-alpha); repeatable")
        sub.add_argument("--dim", type=int, default=3, help="spatial dimension N")
        sub.add_argument("--ell", type=int, default=0, help="angular momentum l")
        sub.add_argument("--level", type=int, default=0, help="eigenvalue index")
    sub.add_argument("--format", dest="fmt", choices=("human", "csv", "json"),
                     default="human")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--strict", action="store_true",
                     help="reference mismatch becomes exit status 1")
    sub.add_argument("--timing", action="store_true",
                     help="emit real wall-clock times (breaks byte-identical reruns)")


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the command line, built on first use.

    Parsing leaves it unchanged (an appended --term list is copied before it
    grows), so one instance serves every call of `main` in a process.
    """
    parser = argparse.ArgumentParser(
        prog="spikevar",
        description="Variational upper bounds for radial operators with "
                    "singular anharmonic potentials, plus a shooting-method check.",
        epilog="Output rows share one schema in every format (human, csv, "
               "json-lines): row,N,l,D,level,A_star,B_star,bound,oracle,"
               "reference,deviation,pass,wall_ms. csv/human print 9 "
               "significant digits; json-lines keeps full precision and "
               "round-trips. See docs/formats.md for the field reference. "
               "Exit status: 0 ok, 1 computation failure (or mismatch under "
               "--strict), 2 usage error.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    eig = subs.add_parser("eig", help="optimize one eigenvalue bound over (A, B)")
    _add_common(eig)
    eig.add_argument("-D", type=int, default=10, help="matrix truncation size")
    eig.add_argument("--fix-B", action="store_true",
                     help="pin B = a1 (one-parameter optimization)")
    eig.add_argument("--init-A", type=float, default=None)
    eig.add_argument("--init-B", type=float, default=None)
    eig.add_argument("--tol", type=float, default=1e-6,
                     help="oracle tolerance when cross-checking")

    orc = subs.add_parser("oracle", help="shooting-method eigenvalue")
    _add_common(orc)
    orc.add_argument("--tol", type=float, default=1e-6)

    tab = subs.add_parser("table", help="run a built-in reproduction job")
    tab.add_argument("--id", dest="table_id", choices=BUILTIN_TABLE_IDS,
                     required=True)
    tab.add_argument("--with-oracle", action="store_true")
    tab.add_argument("--include-slow", action="store_true")
    tab.add_argument("--tol", type=float, default=1e-6,
                     help="oracle tolerance for --with-oracle")
    _add_common(tab, potential=False)

    conv = subs.add_parser("converge", help="walk a D schedule to fixed digits")
    _add_common(conv)
    conv.add_argument("--digits", type=int, default=6)
    conv.add_argument("--schedule", type=_schedule, default=(1, 10, 20, 100))
    conv.add_argument("--fix-B", action="store_true")

    first = subs.add_parser("first-order",
                            help="1 x 1 closed-form bound for r^2 + lam r^(-4)")
    first.add_argument("--lambda", dest="lam", type=float, required=True)
    first.add_argument("--mode", choices=("a", "ab"), default="a")
    _add_common(first, potential=False)

    return parser


def parse_args(argv) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    kw = dict(
        command=ns.command,
        fmt=ns.fmt,
        out=ns.out,
        strict=ns.strict,
        timing=ns.timing,
    )
    if hasattr(ns, "a1"):
        kw.update(a1=ns.a1, terms=tuple(ns.term), N=ns.dim, l=ns.ell, level=ns.level)
    if hasattr(ns, "D"):
        kw.update(D=ns.D)
    if hasattr(ns, "tol"):
        kw.update(tol=ns.tol)
    if hasattr(ns, "fix_B"):
        kw.update(fix_B=ns.fix_B)
    if hasattr(ns, "init_A"):
        kw.update(init_A=ns.init_A, init_B=ns.init_B)
    if hasattr(ns, "digits"):
        kw.update(digits=ns.digits, schedule=tuple(ns.schedule))
    if hasattr(ns, "lam"):
        kw.update(lam=ns.lam)
    if hasattr(ns, "mode"):
        kw.update(mode=ns.mode)
    if hasattr(ns, "table_id"):
        kw.update(table_id=ns.table_id)
    if hasattr(ns, "with_oracle"):
        kw.update(with_oracle=ns.with_oracle, include_slow=ns.include_slow)
    return RunConfig(**kw)


def to_argv(cfg: RunConfig) -> list[str]:
    """Canonical argv for a config; parse(to_argv(parse(x))) == parse(x)."""
    argv = [cfg.command]
    if cfg.command in ("eig", "oracle", "converge"):
        argv += ["--a1", repr(cfg.a1)]
        for lam, alpha in cfg.terms:
            argv += ["--term", f"{lam!r}:{alpha!r}"]
        argv += ["--dim", str(cfg.N), "--ell", str(cfg.l), "--level", str(cfg.level)]
    if cfg.command == "eig":
        argv += ["-D", str(cfg.D), "--tol", repr(cfg.tol)]
        if cfg.fix_B:
            argv += ["--fix-B"]
        if cfg.init_A is not None:
            argv += ["--init-A", repr(cfg.init_A)]
        if cfg.init_B is not None:
            argv += ["--init-B", repr(cfg.init_B)]
    elif cfg.command == "oracle":
        argv += ["--tol", repr(cfg.tol)]
    elif cfg.command == "table":
        argv += ["--id", cfg.table_id, "--tol", repr(cfg.tol)]
        if cfg.with_oracle:
            argv += ["--with-oracle"]
        if cfg.include_slow:
            argv += ["--include-slow"]
    elif cfg.command == "converge":
        argv += ["--digits", str(cfg.digits),
                 "--schedule", ",".join(str(d) for d in cfg.schedule)]
        if cfg.fix_B:
            argv += ["--fix-B"]
    elif cfg.command == "first-order":
        argv += ["--lambda", repr(cfg.lam), "--mode", cfg.mode]
    argv += ["--format", cfg.fmt]
    if cfg.out is not None:
        argv += ["--out", cfg.out]
    if cfg.strict:
        argv += ["--strict"]
    if cfg.timing:
        argv += ["--timing"]
    return argv


def _row_dict(r: RowResult, timing: bool) -> dict:
    return {
        "row": r.label, "N": r.N, "l": r.l, "D": r.D, "level": r.level,
        "A_star": r.A_star, "B_star": r.B_star, "bound": r.bound,
        "oracle": r.oracle, "reference": r.reference, "deviation": r.deviation,
        "pass": r.passed, "wall_ms": r.wall_ms if timing else 0.0,
        "error": r.error,
    }


def _fmt_num(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return f"{x:.9g}"


def emit_results(rows, fmt: str, destination, timing: bool = False) -> None:
    """Serialize row results as csv, json-lines, or an aligned human table."""
    dicts = [_row_dict(r, timing) for r in rows]
    lines: list[str] = []
    if fmt == "csv":
        lines.append(_CSV_HEADER)
        for d in dicts:
            lines.append(",".join(_fmt_num(d[k]) for k in _FIELDS))
    elif fmt == "json":
        for d in dicts:
            lines.append(json.dumps(d))
    elif fmt == "human":
        widths = {k: max(len(k), 12) for k in _FIELDS}
        lines.append("  ".join(k.ljust(widths[k]) for k in _FIELDS))
        for d in dicts:
            lines.append("  ".join(_fmt_num(d[k]).ljust(widths[k]) for k in _FIELDS))
            if d["error"]:
                lines.append(f"    error: {d['error']}")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    text = "\n".join(lines) + "\n"
    if destination is None:
        sys.stdout.write(text)
    else:
        try:
            with open(destination, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise RuntimeError(f"cannot write {destination}: {exc}") from exc


def rows_from_json_lines(text: str) -> list[RowResult]:
    """Inverse of the json-lines emitter (full float precision round-trip)."""
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        d = json.loads(line)
        out.append(RowResult(
            label=d["row"], N=d["N"], l=d["l"], D=d["D"], level=d["level"],
            A_star=d["A_star"], B_star=d["B_star"], bound=d["bound"],
            oracle=d["oracle"], reference=d["reference"],
            deviation=d["deviation"], passed=d["pass"], wall_ms=d["wall_ms"],
            evaluations=0, error=d.get("error"),
        ))
    return out


def _potential(cfg: RunConfig) -> PotentialSpec:
    return PotentialSpec(a1=cfg.a1, terms=cfg.terms, N=cfg.N, l=cfg.l)


def _cmd_eig(cfg: RunConfig) -> list[RowResult]:
    import time

    t0 = time.perf_counter()
    v = _potential(cfg)
    if (cfg.init_A is None) != (cfg.init_B is None):
        raise ValueError("--init-A and --init-B must be given together")
    init = None
    if cfg.init_A is not None and cfg.init_B is not None:
        init = (cfg.init_A, cfg.init_B)
    res = minimize_bound(v, cfg.D, cfg.level, init=init,
                         fix_B=(cfg.a1 if cfg.fix_B else None))
    wall = (time.perf_counter() - t0) * 1e3
    return [RowResult(
        label="eig", N=v.N, l=v.l, D=cfg.D, level=cfg.level,
        A_star=res.A_star, B_star=res.B_star, bound=res.bound, oracle=None,
        reference=None, deviation=None, passed=None, wall_ms=wall,
        evaluations=res.evaluations,
    )]


def _cmd_oracle(cfg: RunConfig) -> list[RowResult]:
    import time

    t0 = time.perf_counter()
    v = _potential(cfg)
    res = shoot_eigenvalue(v, cfg.level, tol=cfg.tol)
    wall = (time.perf_counter() - t0) * 1e3
    return [RowResult(
        label="oracle", N=v.N, l=v.l, D=0, level=cfg.level,
        A_star=None, B_star=None, bound=None, oracle=res.energy,
        reference=None, deviation=None, passed=None, wall_ms=wall,
        evaluations=0,
    )]


def _cmd_converge(cfg: RunConfig) -> list[RowResult]:
    import time

    v = _potential(cfg)
    t0 = time.perf_counter()
    run = converge_to_digits(v, cfg.level, cfg.digits, cfg.schedule,
                             fix_B=(cfg.a1 if cfg.fix_B else None))
    wall = (time.perf_counter() - t0) * 1e3
    rows = []
    for D, res in run.history:
        rows.append(RowResult(
            label=f"D={D}", N=v.N, l=v.l, D=D, level=cfg.level,
            A_star=res.A_star, B_star=res.B_star, bound=res.bound, oracle=None,
            reference=None, deviation=None, passed=None,
            wall_ms=wall / len(run.history), evaluations=res.evaluations,
        ))
    return rows


def _cmd_first_order(cfg: RunConfig) -> list[RowResult]:
    import time

    t0 = time.perf_counter()
    value = ground_state_first_order(cfg.lam, cfg.mode)
    wall = (time.perf_counter() - t0) * 1e3
    return [RowResult(
        label=f"first-order {cfg.mode}", N=3, l=0, D=1, level=0,
        A_star=None, B_star=None, bound=value, oracle=None, reference=None,
        deviation=None, passed=None, wall_ms=wall, evaluations=0,
    )]


def main(argv=None) -> int:
    cfg = parse_args(argv if argv is not None else sys.argv[1:])
    try:
        if cfg.command == "table":
            report = run_table(builtin_job(cfg.table_id),
                               with_oracle=cfg.with_oracle,
                               include_slow=cfg.include_slow,
                               oracle_tol=cfg.tol)
            rows = list(report.rows)
        elif cfg.command == "eig":
            rows = _cmd_eig(cfg)
        elif cfg.command == "oracle":
            rows = _cmd_oracle(cfg)
        elif cfg.command == "converge":
            rows = _cmd_converge(cfg)
        elif cfg.command == "first-order":
            rows = _cmd_first_order(cfg)
        else:  # pragma: no cover - argparse enforces the choices
            raise ValueError(f"unknown command {cfg.command!r}")
        emit_results(rows, cfg.fmt, cfg.out, timing=cfg.timing)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    hard_failure = any(r.error for r in rows)
    if hard_failure:
        return 1
    if cfg.strict and any(r.passed is False for r in rows):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
