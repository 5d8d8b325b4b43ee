"""Command line front end.

Exit codes: 0 all checks passed, 1 a bracketing check failed or a suite
negative control was not rejected, 2 a hypothesis or admissibility
precondition was rejected, 3 bad usage, an
unreadable input, or an input the numerics refuse (not Hermitian, not
PSD, an uncertifiable bound, an ill-conditioned split, an intermediate
that overflowed to a non-finite value).  Suite JSON
output is byte-identical across runs of the same version; timing lives
only in the CSV (per row and in the TOTAL row) and on stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from ._rng import child_seed
from .errors import FramekitError, HypothesisFailed, InvalidConfig
from .instances import (
    REGISTRY,
    THEOREM_IDS,
    GenSpec,
    Instance,
    build_instance,
    check_instance,
    default_suite_entries,
    spoiler_suite_entries,
)
from .serialize import SUITE_FORMAT, dumps, dumps_instance, loads_instance, report_to_obj
from .theorems import TheoremReport

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse reserves 2 for usage errors; remap onto the config channel."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first call; parsing leaves it unchanged."""
    parser = _Parser(prog="framekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    gen = sub.add_parser("gen", help="write seeded instance files")
    gen.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--dim", type=int, default=4)
    gen.add_argument("--scenario", default=None,
                     help="generator scenario (default: cycle per index)")
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--out", default=".", help="output directory")

    check = sub.add_parser("check", help="verify instance files")
    check.add_argument("files", nargs="+", metavar="FILE")
    check.add_argument("--tol", type=float, default=1e-9)
    check.add_argument("--format", choices=("json", "csv"), default="json")
    check.add_argument("--out", default=None, help="write reports to this path")

    suite = sub.add_parser("suite", help="run the seeded regression sweep")
    suite.add_argument("--config", default=None, help="JSON config file")
    suite.add_argument("--n-per-theorem", type=int, default=None)
    suite.add_argument("--seed", type=int, default=None)
    suite.add_argument("--tol", type=float, default=None)
    suite.add_argument("--threads", type=int, default=None,
                       help="accepted for compatibility; the suite runs in one thread")
    suite.add_argument("--spoilers", action="store_true",
                       help="append the negative-control instances")
    suite.add_argument("--format", choices=("json", "csv"), default="json")
    suite.add_argument("--out", default=None, help="write the report to this path")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {"gen": _cmd_gen, "check": _cmd_check, "suite": _cmd_suite}
    if args.command not in commands:
        parser.print_help()
        return 3
    try:
        # an overflow shows as a NonFinite error or a non-finite report
        # value, not as numpy's warning lines on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return commands[args.command](args)
    except InvalidConfig as exc:
        print(f"framekit: config error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"framekit: {exc}", file=sys.stderr)
        return 3
    except FramekitError as exc:
        print(f"framekit: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def _cmd_gen(args) -> int:
    if args.count < 1:
        raise InvalidConfig("--count must be at least 1")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cycle = REGISTRY[args.theorem].scenarios
    for i in range(args.count):
        seed = args.seed if args.count == 1 else child_seed(args.seed, i)
        scenario = args.scenario or cycle[i % len(cycle)]
        inst = build_instance(args.theorem, GenSpec(seed, args.dim, scenario))
        path = out_dir / f"{args.theorem}_{seed}.json"
        path.write_text(dumps_instance(inst))
        print(path)
    return 0


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return "%.17g" % value
    return str(value)


_CSV_COLUMNS = (
    "theorem", "seed", "dim", "scalar", "scenario", "expect", "status",
    "predicted_lower", "predicted_upper", "actual_lower", "actual_upper",
    "lower_margin", "upper_margin", "detail", "wall_time_s",
)


def _rows_to_csv(rows, summary=None) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in _CSV_COLUMNS])
    if summary is not None:
        writer.writerow([_fmt(summary.get(col)) for col in _CSV_COLUMNS])
    return buffer.getvalue()


def _evaluate(inst: Instance, tol: float,
              fold_expectation: bool) -> tuple[dict, TheoremReport | None]:
    """Run one instance; the row's ``wall_time_s`` is the time this took.

    With ``fold_expectation`` the row status is judged against the
    instance's declared expectation (suite semantics: an expected
    rejection counts as a pass).  Without it the raw outcome stands
    (check semantics: a rejection is a rejection).
    """
    started = time.perf_counter()
    meta = inst.meta
    expect = meta.get("expect", "pass") if fold_expectation else "pass"
    row = {
        "theorem": meta.get("theorem"),
        "seed": meta.get("seed"),
        "dim": inst.dim,
        "scalar": inst.scalar,
        "scenario": meta.get("scenario"),
        "expect": meta.get("expect", "pass"),
    }
    try:
        report = check_instance(inst, tol)
    except HypothesisFailed as exc:
        rejected_as_expected = expect == "hypothesis_failed"
        report = None
        row.update({
            "status": "pass" if rejected_as_expected else "hypothesis_failed",
            "detail": f"{type(exc).__name__}: {exc.clause}",
        })
    else:
        outcome = "pass" if report.passed else "fail"
        if expect == "hypothesis_failed":
            outcome = "fail"
            row["detail"] = "expected a hypothesis rejection, none was raised"
        row.update({
            "status": outcome,
            "predicted_lower": report.predicted.lower,
            "predicted_upper": report.predicted.upper,
            "actual_lower": report.actual.lower,
            "actual_upper": report.actual.upper,
            "lower_margin": report.lower_margin,
            "upper_margin": report.upper_margin,
        })
    row["wall_time_s"] = time.perf_counter() - started
    return row, report


def _exit_code(rows) -> int:
    statuses = {row["status"] for row in rows}
    if "hypothesis_failed" in statuses:
        return 2
    if "fail" in statuses:
        return 1
    return 0


def _read_text(path: str) -> str:
    """The file's text; InvalidConfig when it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"{path}: not UTF-8 text: {exc}") from None


def _valid_tol(tol, source: str) -> float:
    """``tol`` as a float; InvalidConfig unless it is a number in
    (0, max double], which refuses bools, 0, negatives, inf and NaN."""
    if (isinstance(tol, bool) or not isinstance(tol, (int, float))
            or not 0 < tol <= sys.float_info.max):
        raise InvalidConfig(f"{source}: tol must be a finite positive number")
    return float(tol)


def _cmd_check(args) -> int:
    tol = _valid_tol(args.tol, "--tol")
    rows = []
    reports: list[dict] = []
    for name in args.files:
        inst = loads_instance(_read_text(name))
        row, report = _evaluate(inst, tol, fold_expectation=False)
        row["file"] = name
        if report is not None:
            reports.append(report_to_obj(report))
        rows.append(row)
        print(
            f"{row['theorem']} seed={row['seed']} status={row['status']}"
            + (f" detail={row['detail']}" if row.get("detail") else "")
        )
    if args.out:
        if args.format == "json":
            Path(args.out).write_text(dumps(reports))
        else:
            Path(args.out).write_text(_rows_to_csv(rows))
    return _exit_code(rows)


def _load_suite_config(path: str | None) -> dict:
    if path is None:
        return {}
    import json

    try:
        obj = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise InvalidConfig(f"{path}: suite config must be a JSON object")
    allowed = {"n_per_theorem", "base_seed", "tol", "threads", "include_spoilers"}
    unknown = set(obj) - allowed
    if unknown:
        raise InvalidConfig(f"{path}: unknown keys {sorted(unknown)}")
    for key in ("n_per_theorem", "base_seed", "threads"):
        if key in obj and (not isinstance(obj[key], int)
                           or isinstance(obj[key], bool)):
            raise InvalidConfig(f"{path}: {key} must be an integer")
    _valid_tol(obj.get("tol", 1e-9), path)
    if not isinstance(obj.get("include_spoilers", False), bool):
        raise InvalidConfig(f"{path}: include_spoilers must be true or false")
    return obj


def _cmd_suite(args) -> int:
    config = _load_suite_config(args.config)
    n_per = args.n_per_theorem if args.n_per_theorem is not None else int(
        config.get("n_per_theorem", 20)
    )
    base_seed = args.seed if args.seed is not None else int(
        config.get("base_seed", 20260814)
    )
    tol = (_valid_tol(args.tol, "--tol") if args.tol is not None
           else float(config.get("tol", 1e-9)))
    spoilers = args.spoilers or bool(config.get("include_spoilers", False))
    if n_per < 1:
        raise InvalidConfig("n_per_theorem must be at least 1")

    started = time.perf_counter()
    entries = list(default_suite_entries(n_per, base_seed))
    if spoilers:
        entries.extend(spoiler_suite_entries())
    rows = [_evaluate(inst, tol, True)[0] for inst in entries]
    elapsed = time.perf_counter() - started

    counts = {"pass": 0, "fail": 0, "hypothesis_failed": 0}
    for row in rows:
        counts[row["status"]] += 1
    total = Counter(row["theorem"] for row in rows)
    passed = Counter(row["theorem"] for row in rows if row["status"] == "pass")
    for tid in THEOREM_IDS:
        print(f"{tid}: {passed[tid]}/{total[tid]} pass")
    print(
        f"suite: {len(rows)} instances, {counts['pass']} pass, "
        f"{counts['fail']} fail, {counts['hypothesis_failed']} rejected "
        f"unexpectedly ({elapsed:.1f}s)",
        file=sys.stderr,
    )

    if args.out:
        if args.format == "json":
            # no timing field: the report must be byte-identical across runs
            obj = {
                "format": SUITE_FORMAT,
                "base_seed": base_seed,
                "n_per_theorem": n_per,
                "tol": tol,
                "include_spoilers": spoilers,
                "counts": counts,
                "results": [
                    {key: row.get(key) for key in _CSV_COLUMNS[:-1]}
                    for row in rows
                ],
            }
            Path(args.out).write_text(dumps(obj))
        else:
            summary = dict(counts)
            total_row = {
                "theorem": "TOTAL",
                "status": "pass" if _exit_code(rows) == 0 else "fail",
                "detail": (
                    f"pass={summary['pass']} fail={summary['fail']} "
                    f"hypothesis_failed={summary['hypothesis_failed']}"
                ),
                "wall_time_s": elapsed,
            }
            Path(args.out).write_text(_rows_to_csv(rows, total_row))
    return _exit_code(rows)


if __name__ == "__main__":
    sys.exit(main())
