"""Command-line entry point: generate, validate, solve, and report.

Subcommands cover the full workflow: `generate` writes a synthetic case
to disk, `validate` checks a network file, `solve` produces the day's
switching schedule with its cost and loading tables, and `report`
audits completed runs against their inputs and compares their totals. Exit codes are
scriptable: 0 success, 1 validation failure, 2 unreadable or malformed
input, 3 infeasible hour, 4 solver limits. An out-of-range or
non-finite parameter, of `solve` or in a run that `report` audits, is
malformed input.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

from .model import (
    Network,
    NetworkFormatError,
    StructureError,
    is_spanning_forest,  # the report's audit calls it through this module
    parse_network_file,
    serialize_network,
    validate,
)
from .optimize import (
    DayProblem,
    DaySolution,
    InfeasibleHourError,
    ModelOptions,
    NodeLimitError,
    SolverOptions,
    solve_day,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2
EXIT_INFEASIBLE = 3
EXIT_LIMIT = 4


class CliError(Exception):
    """A failure with a designated exit code and a printable message."""

    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _io_error(message: str) -> CliError:
    return CliError(message, EXIT_IO)


# ---------------------------------------------------------------------------
# file I/O


def _read_network(path: str) -> Network:
    try:
        return parse_network_file(path)
    except OSError as exc:
        raise _io_error(f"cannot read network {path}: {exc}") from exc
    except (NetworkFormatError, json.JSONDecodeError) as exc:
        raise _io_error(f"malformed network {path}: {exc}") from exc


def _read_profile_csv(path: str, what: str, columns: list[str]) -> np.ndarray:
    """Read an hour-by-column CSV; the header must match `columns` exactly."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise _io_error(f"cannot read {what} {path}: {exc}") from exc
    if not rows:
        raise _io_error(f"{what} {path} is empty")
    header = rows[0]
    if header != ["hour"] + columns:
        raise _io_error(
            f"{what} {path} header does not match the network: "
            f"expected hour,{','.join(columns)}")
    data = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(columns) + 1:
            raise _io_error(f"{what} {path} line {lineno}: "
                            f"expected {len(columns) + 1} fields, got {len(row)}")
        try:
            if int(row[0]) != lineno - 1:
                raise ValueError
            data.append([float(v) for v in row[1:]])
        except ValueError:
            raise _io_error(f"{what} {path} line {lineno}: bad value") from None
    if not data:
        raise _io_error(f"{what} {path} has no data rows")
    return np.asarray(data, dtype=float)


def _read_day(network: str, loads: str, prices: str, horizon: int | None,
              scale: float, angle_lo: float, angle_hi: float,
              epsilon: float) -> tuple[DayProblem, ModelOptions]:
    """The problem and model options of one solve, read and checked once
    for `solve` and for the report's audit: the first horizon hours of the
    profiles (all of them when None), loads times scale."""
    net = _read_network(network)
    load_table = _read_profile_csv(loads, "loads", _bus_columns(net))
    price_table = _read_profile_csv(prices, "prices", _substation_columns(net))
    hours = min(len(load_table), len(price_table))
    if horizon is None:
        horizon = len(load_table)
    if not 1 <= horizon <= hours:
        raise _io_error(f"horizon {horizon} outside the profiles' {hours} hours")
    if not 0 < scale < np.inf:
        raise _io_error(f"load scale {scale} is not positive and finite")
    try:
        return (DayProblem(net, load_table[:horizon] * scale, price_table[:horizon]),
                ModelOptions(angle_lo=angle_lo, angle_hi=angle_hi, epsilon=epsilon))
    except ValueError as exc:
        raise _io_error(str(exc)) from exc


def _write_profile_csv(path: Path, columns: list[str], table: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["hour"] + columns)
        for t, row in enumerate(table):
            out.writerow([t + 1] + [f"{v:.6f}" for v in row])


def _bus_columns(net: Network) -> list[str]:
    return [str(b.id + net.id_base) for b in net.buses]


def _substation_columns(net: Network) -> list[str]:
    return [str(b + net.id_base) for b in net.substations]


def _micro_str(micro: int) -> str:
    sign = "-" if micro < 0 else ""
    micro = abs(micro)
    return f"{sign}{micro // 1_000_000}.{micro % 1_000_000:06d}"


def _loading_cells(net: Network, flows: dict[str, float]) -> list[str]:
    """Each line's loading in percent of its rating, as loading.csv holds it."""
    return [f"{100.0 * abs(flows.get(l.id, 0.0)) / l.rating:.6f}"
            for l in net.lines]


# the files _tables renders, in its order
_TABLE_FILES = ("schedule.csv", "cost.csv", "loading.csv")


def _tables(net: Network, hours) -> tuple[list[list[str]], ...]:
    """The rows of schedule.csv, cost.csv and loading.csv for a day's
    HourSolutions, as `solve` writes them and the report's audit compares
    them. Costs are rounded to integer micro-units first, so the day's
    total, the last cell of cost.csv, is exactly the sum of the hourly
    entries."""
    flex_ids = sorted(l.id for l in net.flexible_lines)
    schedule = [["hour"] + flex_ids]
    cost = [["hour", "cost"]]
    loading = [["hour"] + [l.id for l in net.lines]]
    total = 0
    for t, hour in enumerate(hours, start=1):
        if flex_ids:
            schedule.append([str(t)] + [str(hour.statuses[lid]) for lid in flex_ids])
        micro = int(round(hour.cost * 1_000_000))
        total += micro
        cost.append([str(t), _micro_str(micro)])
        loading.append([str(t)] + _loading_cells(net, hour.flows))
    cost.append(["total", _micro_str(total)])
    return schedule, cost, loading


def _sha256(path: str) -> str:
    """A file's sha256 digest, from the interpreter's own sha256 module
    where it has one: hashlib loads OpenSSL, which adds about 3.7 MB to a
    solve process's resident memory."""
    try:
        from _sha2 import sha256            # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256      # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    with open(path, "rb") as fh:
        return sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    # imported here so that a solve never compiles the generator
    from .casegen import FixtureSpec, day_problem
    try:
        problem = day_problem(FixtureSpec(case_id=args.case, seed=args.seed,
                                          rating_scale=args.rating_scale),
                              price_shape=args.price_shape)
    except ValueError as exc:
        raise _io_error(str(exc)) from exc
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "network.json").write_text(serialize_network(problem.net))
        _write_profile_csv(out / "loads.csv", _bus_columns(problem.net),
                           problem.loads)
        _write_profile_csv(out / "prices.csv", _substation_columns(problem.net),
                           problem.prices)
    except OSError as exc:
        raise _io_error(f"cannot write to {out}: {exc}") from exc
    print(f"wrote network.json, loads.csv, prices.csv to {out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    net = _read_network(args.network)
    loads = None
    if args.loads:
        # a bus only counts as unloaded when it draws nothing all day
        loads = _read_profile_csv(args.loads, "loads",
                                  _bus_columns(net)).max(axis=0)
    report = validate(net, loads)
    for finding in report.errors:
        print(f"error {finding.code}: {finding.message}")
    for finding in report.warnings:
        print(f"warning {finding.code}: {finding.message}")
    print(f"{len(report.errors)} errors, {len(report.warnings)} warnings")
    return EXIT_OK if report.is_valid else EXIT_INVALID


def cmd_solve(args) -> int:
    if args.jobs < 1:
        raise _io_error("jobs must be at least 1")
    try:
        solver_opts = SolverOptions(gap=args.gap)
    except ValueError as exc:
        raise _io_error(str(exc)) from exc
    problem, model_opts = _read_day(args.network, args.loads, args.prices,
                                    args.horizon, args.scale, args.angle_lo,
                                    args.angle_hi, args.epsilon)
    started = time.perf_counter()
    try:
        day = solve_day(problem, model_opts, solver_opts, jobs=args.jobs)
    except StructureError as exc:
        # solve_day validates the network once and raises with the report
        for finding in exc.report.errors:
            print(f"error {finding.code}: {finding.message}", file=sys.stderr)
        return EXIT_INVALID
    except InfeasibleHourError as exc:
        hour = "?" if exc.hour is None else exc.hour + 1
        print(f"infeasible hour {hour}: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NodeLimitError as exc:
        print(f"solver limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    elapsed = time.perf_counter() - started

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        total = _write_outputs(out, problem.net, day, args, elapsed)
    except OSError as exc:
        raise _io_error(f"cannot write to {out}: {exc}") from exc
    print(f"total cost {total}, {len(day.hours)} hours, outputs in {out}")
    return EXIT_OK


def _write_outputs(out: Path, net: Network, day: DaySolution,
                   args: argparse.Namespace, elapsed: float) -> str:
    """Write a solved day's files; return its total, as cost.csv holds it."""
    tables = _tables(net, day.hours)
    for name, rows in zip(_TABLE_FILES, tables):
        with open(out / name, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    schedule, cost, _loading = tables
    total = cost[-1][-1]

    nodes = sum(h.stats.nodes for h in day.hours if h.stats)
    relaxations = sum(h.stats.relaxations for h in day.hours if h.stats)
    with open(out / "summary.txt", "w") as fh:
        fh.write(f"total cost: {total}\n")
        fh.write(f"hours: {len(day.hours)}\n")
        fh.write(f"branch-and-bound nodes: {nodes}\n")
        fh.write(f"relaxations solved: {relaxations}\n")
        fh.write(f"solve time: {elapsed:.2f} s\n")

    run = {
        "network": args.network,
        "loads": args.loads,
        "prices": args.prices,
        "sha256": {what: _sha256(getattr(args, what))
                   for what in ("network", "loads", "prices")},
        "n_buses": net.n_buses,
        "n_lines": len(net.lines),
        "flexible_lines": schedule[0][1:],
        "horizon": len(day.hours),
        "scale": args.scale,
        "gap": args.gap,
        "epsilon": args.epsilon,
        "angle_lo": args.angle_lo,
        "angle_hi": args.angle_hi,
        "total_cost": total,
        "nodes": nodes,
    }
    (out / "run.json").write_text(json.dumps(run, indent=2, sort_keys=True) + "\n")
    return total


def cmd_report(args) -> int:
    # imported here so that a solve never compiles the audit
    from .audit import audit, read_run
    runs = [(run_dir, read_run(run_dir)) for run_dir in args.runs]

    first = runs[0][1]
    for run_dir, run in runs[1:]:
        if run.get("n_buses") != first.get("n_buses"):
            print(f"error: {run_dir} solved a different network "
                  f"({run.get('n_buses')} buses vs {first.get('n_buses')})",
                  file=sys.stderr)
            return EXIT_INVALID

    for run_dir, run in runs:
        try:
            problem = audit(run_dir, run)
        except (KeyError, TypeError) as exc:
            raise _io_error(f"malformed run.json in {run_dir}: {exc!r}") from None
        if problem is not None:
            print(f"error: {run_dir} {problem}", file=sys.stderr)
            return EXIT_INVALID

    base_cost = float(runs[0][1]["total_cost"])
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "comparison.csv", "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["run", "total_cost", "delta_pct"])
            for run_dir, run in runs:
                cost = float(run["total_cost"])
                delta = 100.0 * (cost - base_cost) / base_cost
                w.writerow([Path(run_dir).name, run["total_cost"], f"{delta:.6f}"])
    except OSError as exc:
        raise _io_error(f"cannot write to {out}: {exc}") from exc
    print(f"compared {len(runs)} runs, wrote {out / 'comparison.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reconf",
        description="Day-ahead switching schedules for radial feeders.",
        epilog="Exit codes: 0 success, 1 validation failure, 2 unreadable or "
               "malformed input (an out-of-range or non-finite parameter "
               "included), 3 infeasible hour, 4 solver limits.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic three-feeder case")
    gen.add_argument("--case", type=int, required=True, choices=(1, 2, 3, 4))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--rating-scale", type=float, default=1.0)
    gen.add_argument("--price-shape", default="diurnal",
                     choices=("diurnal", "random"))
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(fn=cmd_generate)

    val = sub.add_parser("validate", help="check a network file")
    val.add_argument("--network", required=True)
    val.add_argument("--loads", help="optional loads CSV for zero-load warnings")
    val.set_defaults(fn=cmd_validate)

    sol = sub.add_parser("solve", help="optimize the day's switching schedule")
    sol.add_argument("--network", required=True)
    sol.add_argument("--loads", required=True)
    sol.add_argument("--prices", required=True)
    sol.add_argument("--out", required=True, help="output directory")
    sol.add_argument("--horizon", type=int)
    sol.add_argument("--scale", type=float, default=1.0,
                     help="multiply every load by this factor")
    sol.add_argument("--gap", type=float, default=1e-6)
    sol.add_argument("--epsilon", type=float, default=1e-5)
    sol.add_argument("--angle-lo", type=float, default=-0.6)
    sol.add_argument("--angle-hi", type=float, default=0.6)
    sol.add_argument("--jobs", type=int, default=1)
    sol.set_defaults(fn=cmd_solve)

    rep = sub.add_parser("report", help="verify and compare completed runs")
    rep.add_argument("runs", nargs="+", help="solve output directories")
    rep.add_argument("--out", required=True, help="directory for comparison.csv")
    rep.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    # importing numpy and reconf leaves about 20,000 long-lived objects;
    # moved to the permanent generation, they are no longer rescanned by
    # every full collection, the one at exit included. Done here, not on
    # import, so that a library user's collector is left alone.
    gc.freeze()
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    # run as `python -m reconf.cli`, this file is __main__, while the
    # report's audit imports reconf.cli and raises that module's CliError:
    # only reconf.cli's main catches it
    from reconf.cli import main as _main
    sys.exit(_main())
