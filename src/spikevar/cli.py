"""Command-line front end.

Subcommands: eig (optimize one bound), oracle (shooting eigenvalue), table
(built-in reproduction jobs), converge (bound along a truncation schedule),
first-order (1 x 1 closed forms).  Output formats: human, csv, json-lines.

Each subparser names its handler (`set_defaults(run=...)`); a handler reads
the parsed namespace and returns its rows, and `main` dispatches to it,
times it once and emits the rows.  Rows that carry no time of their own get
an equal share of the command's time; table rows keep their own.

Numeric output is byte-identical across reruns of the same configuration:
no randomness anywhere, and wall-clock fields are emitted as 0 unless
--timing is given.  Exit status: 0 success (reference mismatches are data,
not errors, unless `table --strict`), 1 computation failure, 2 usage error.
Only `table` rows carry a reference, so only `table` takes --strict.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
import time
from dataclasses import fields, replace

from .hamiltonian import PotentialSpec
from .optimizer import converge_to_digits, ground_state_first_order, minimize_bound
from .oracle import shoot_eigenvalue
from .tables import BUILTIN_TABLE_IDS, RowResult, builtin_job, run_table

__all__ = ["emit_results", "rows_from_json_lines", "main"]

# (field, column) of every RowResult field, in output order; each format
# prints all but `error` as columns
_COLUMNS = tuple((f.name, f.metadata.get("column", f.name)) for f in fields(RowResult))
_FIELDS = tuple(column for _, column in _COLUMNS if column != "error")


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
                         help="singular term lam r^(-alpha); repeatable; a "
                              "negative lam needs the = form, --term=-7:4")
        sub.add_argument("--dim", type=int, default=3, help="spatial dimension N")
        sub.add_argument("--ell", type=int, default=0, help="angular momentum l")
        sub.add_argument("--level", type=int, default=0, help="eigenvalue index")
    sub.add_argument("--format", dest="fmt", choices=("human", "csv", "json"),
                     default="human")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
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
               f"json-lines): {','.join(_FIELDS)}. csv/human print 9 "
               "significant digits; json-lines keeps full precision and "
               "round-trips. See docs/formats.md for the field reference. "
               "Exit status: 0 ok, 1 computation failure (or a reference "
               "mismatch under table --strict), 2 usage error.",
    )
    parser.set_defaults(strict=False)
    subs = parser.add_subparsers(dest="command", required=True)

    eig = subs.add_parser("eig", help="optimize one eigenvalue bound over (A, B)")
    eig.set_defaults(run=_cmd_eig)
    _add_common(eig)
    eig.add_argument("-D", type=int, default=10, help="matrix truncation size")
    eig.add_argument("--fix-B", action="store_true",
                     help="pin B = a1 (one-parameter optimization)")
    eig.add_argument("--init-A", type=float, default=None)
    eig.add_argument("--init-B", type=float, default=None)

    orc = subs.add_parser("oracle", help="shooting-method eigenvalue")
    orc.set_defaults(run=_cmd_oracle)
    _add_common(orc)
    orc.add_argument("--tol", type=float, default=1e-6)

    tab = subs.add_parser("table", help="run a built-in reproduction job")
    tab.set_defaults(run=_cmd_table)
    tab.add_argument("--id", dest="table_id", choices=BUILTIN_TABLE_IDS,
                     required=True)
    tab.add_argument("--with-oracle", action="store_true")
    tab.add_argument("--include-slow", action="store_true")
    tab.add_argument("--tol", type=float, default=1e-6,
                     help="oracle tolerance for --with-oracle")
    tab.add_argument("--strict", action="store_true",
                     help="reference mismatch becomes exit status 1")
    _add_common(tab, potential=False)

    conv = subs.add_parser("converge", help="walk a D schedule to fixed digits")
    conv.set_defaults(run=_cmd_converge)
    _add_common(conv)
    conv.add_argument("--digits", type=int, default=6)
    conv.add_argument("--schedule", type=_schedule, default=(1, 10, 20, 100))
    conv.add_argument("--fix-B", action="store_true")

    first = subs.add_parser("first-order",
                            help="1 x 1 closed-form bound for r^2 + lam r^(-4)")
    first.set_defaults(run=_cmd_first_order)
    first.add_argument("--lambda", dest="lam", type=float, required=True)
    first.add_argument("--mode", choices=("a", "ab"), default="a")
    _add_common(first, potential=False)

    return parser


def _row_dict(r: RowResult, timing: bool) -> dict:
    d = {column: getattr(r, name) for name, column in _COLUMNS}
    if not timing:
        d["wall_ms"] = 0.0
    return d


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
    if fmt == "csv":
        # imported here: the module adds ~0.2 MiB to a process that never
        # writes csv
        import csv

        # RFC 4180 quoting: a cell holding a comma, quote or line break, such
        # as the label (1,10,1), is quoted, so every row keeps its cells
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_FIELDS)
        writer.writerows([_fmt_num(d[k]) for k in _FIELDS] for d in dicts)
        text = buf.getvalue()
    elif fmt == "json":
        text = "\n".join(json.dumps(d) for d in dicts) + "\n"
    elif fmt == "human":
        widths = {k: max(len(k), 12) for k in _FIELDS}
        lines = ["  ".join(k.ljust(widths[k]) for k in _FIELDS)]
        for d in dicts:
            lines.append("  ".join(_fmt_num(d[k]).ljust(widths[k]) for k in _FIELDS))
            if d["error"]:
                lines.append(f"    error: {d['error']}")
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
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
        d.setdefault("error", None)
        out.append(RowResult(**{name: d[column] for name, column in _COLUMNS}))
    return out


def _potential(ns) -> PotentialSpec:
    return PotentialSpec(a1=ns.a1, terms=tuple(ns.term), N=ns.dim, l=ns.ell)


def _cmd_eig(ns) -> list[RowResult]:
    v = _potential(ns)
    if (ns.init_A is None) != (ns.init_B is None):
        raise ValueError("--init-A and --init-B must be given together")
    init = None if ns.init_A is None else (ns.init_A, ns.init_B)
    res = minimize_bound(v, ns.D, ns.level, init=init,
                         fix_B=(ns.a1 if ns.fix_B else None))
    return [RowResult(label="eig", N=v.N, l=v.l, D=ns.D, level=ns.level,
                      A_star=res.A_star, B_star=res.B_star, bound=res.bound,
                      evaluations=res.evaluations)]


def _cmd_oracle(ns) -> list[RowResult]:
    v = _potential(ns)
    res = shoot_eigenvalue(v, ns.level, tol=ns.tol)
    return [RowResult(label="oracle", N=v.N, l=v.l, D=0, level=ns.level,
                      oracle=res.energy)]


def _cmd_table(ns) -> tuple[RowResult, ...]:
    return run_table(builtin_job(ns.table_id), with_oracle=ns.with_oracle,
                     include_slow=ns.include_slow, oracle_tol=ns.tol).rows


def _cmd_converge(ns) -> list[RowResult]:
    v = _potential(ns)
    run = converge_to_digits(v, ns.level, ns.digits, ns.schedule,
                             fix_B=(ns.a1 if ns.fix_B else None))
    return [RowResult(label=f"D={D}", N=v.N, l=v.l, D=D, level=ns.level,
                      A_star=res.A_star, B_star=res.B_star, bound=res.bound,
                      evaluations=res.evaluations)
            for D, res in run.history]


def _cmd_first_order(ns) -> list[RowResult]:
    value = ground_state_first_order(ns.lam, ns.mode)
    return [RowResult(label=f"first-order {ns.mode}", N=3, l=0, D=1, level=0,
                      bound=value)]


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv if argv is not None else sys.argv[1:])
    try:
        t0 = time.perf_counter()
        rows = ns.run(ns)
        wall = (time.perf_counter() - t0) * 1e3
        # a row with wall_ms 0 timed nothing itself: it gets an equal share
        rows = [r if r.wall_ms else replace(r, wall_ms=wall / len(rows))
                for r in rows]
        emit_results(rows, ns.fmt, ns.out, timing=ns.timing)
    except (ValueError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    if any(r.error for r in rows):
        return 1
    if ns.strict and any(r.passed is False for r in rows):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
