"""Command-line entry point: generate, validate, solve, and report.

Subcommands cover the full workflow: `generate` writes a synthetic case
to disk, `validate` checks a network file, `solve` produces the day's
switching schedule with its cost and loading tables, and `report`
cross-checks completed runs and compares their totals. Exit codes are
scriptable: 0 success, 1 validation failure, 2 unreadable or malformed
input, 3 infeasible hour, 4 solver limits.

Every flag default can be overridden by an environment variable named
RECONF_<FLAG> (for example RECONF_GAP=1e-7, RECONF_JOBS=4).
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import (
    Network,
    NetworkFormatError,
    StructureError,
    parse_network_file,
    serialize_network,
    is_spanning_forest,
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

_ENV_PREFIX = "RECONF_"


class CliError(Exception):
    """A failure with a designated exit code and a printable message."""

    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _io_error(message: str) -> CliError:
    return CliError(message, EXIT_IO)


@dataclass(frozen=True)
class RunConfig:
    """Everything one solve run needs, as plain values."""

    network: str
    loads: str
    prices: str
    out_dir: str
    horizon: int
    epsilon: float = 1e-5
    angle_lo: float = -0.6
    angle_hi: float = 0.6
    gap: float = 1e-6
    scale: float = 1.0
    jobs: int = 1

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.epsilon <= 0 or self.gap <= 0:
            raise ValueError("epsilon and gap must be positive")
        if not self.angle_lo < self.angle_hi:
            raise ValueError("angle_lo must be strictly below angle_hi")
        if self.scale <= 0:
            raise ValueError("load scale must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")


def _env(name: str, cast, fallback):
    raw = os.environ.get(_ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as exc:
        raise _io_error(f"bad {_ENV_PREFIX}{name}={raw!r}: {exc}") from exc


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


# cost cells are written from integer micro-units so that the printed
# total is exactly the sum of the printed hourly entries
def _micros(value: float) -> int:
    return int(round(value * 1_000_000))


def _micro_str(micro: int) -> str:
    sign = "-" if micro < 0 else ""
    micro = abs(micro)
    return f"{sign}{micro // 1_000_000}.{micro % 1_000_000:06d}"


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args) -> int:
    # imported here so that a solve never compiles the generator
    from .casegen import FixtureSpec, day_problem
    spec = FixtureSpec(case_id=args.case, seed=args.seed,
                       rating_scale=args.rating_scale)
    problem = day_problem(spec, price_shape=args.price_shape)
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


def _solve_config(args) -> RunConfig:
    try:
        return RunConfig(
            network=args.network, loads=args.loads, prices=args.prices,
            out_dir=args.out, horizon=args.horizon,
            epsilon=args.epsilon, angle_lo=args.angle_lo,
            angle_hi=args.angle_hi, gap=args.gap, scale=args.scale,
            jobs=args.jobs)
    except ValueError as exc:
        raise _io_error(str(exc)) from exc


def cmd_solve(args) -> int:
    net = _read_network(args.network)
    loads = _read_profile_csv(args.loads, "loads", _bus_columns(net))
    prices = _read_profile_csv(args.prices, "prices", _substation_columns(net))
    horizon = args.horizon if args.horizon is not None else len(loads)
    if not 1 <= horizon <= min(len(loads), len(prices)):
        raise _io_error(
            f"horizon {horizon} outside the profiles' {min(len(loads), len(prices))} hours")
    args.horizon = horizon
    config = _solve_config(args)

    problem = DayProblem(net, loads[:horizon] * config.scale, prices[:horizon])
    model_opts = ModelOptions(angle_lo=config.angle_lo,
                              angle_hi=config.angle_hi,
                              epsilon=config.epsilon)
    solver_opts = SolverOptions(gap=config.gap)
    started = time.perf_counter()
    try:
        day = solve_day(problem, model_opts, solver_opts, jobs=config.jobs)
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

    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_outputs(out, net, day, config, elapsed)
    except OSError as exc:
        raise _io_error(f"cannot write to {out}: {exc}") from exc
    print(f"total cost {_micro_str(_micros(day.total_cost))}, "
          f"{len(day.hours)} hours, outputs in {out}")
    return EXIT_OK


def _write_outputs(out: Path, net: Network, day: DaySolution,
                   config: RunConfig, elapsed: float) -> None:
    flex_ids = sorted(l.id for l in net.flexible_lines)
    with open(out / "schedule.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["hour"] + flex_ids)
        if flex_ids:
            for t, hour in enumerate(day.hours):
                w.writerow([t + 1] + [hour.statuses[lid] for lid in flex_ids])

    hour_micros = [_micros(h.cost) for h in day.hours]
    with open(out / "cost.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["hour", "cost"])
        for t, micro in enumerate(hour_micros):
            w.writerow([t + 1, _micro_str(micro)])
        w.writerow(["total", _micro_str(sum(hour_micros))])

    line_ids = [l.id for l in net.lines]
    by_id = net.lines_by_id
    with open(out / "loading.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["hour"] + line_ids)
        for t, hour in enumerate(day.hours):
            w.writerow([t + 1] + [
                f"{100.0 * abs(hour.flows.get(lid, 0.0)) / by_id[lid].rating:.6f}"
                for lid in line_ids])

    nodes = sum(h.stats.nodes for h in day.hours if h.stats)
    relaxations = sum(h.stats.relaxations for h in day.hours if h.stats)
    with open(out / "summary.txt", "w") as fh:
        fh.write(f"total cost: {_micro_str(sum(hour_micros))}\n")
        fh.write(f"hours: {len(day.hours)}\n")
        fh.write(f"branch-and-bound nodes: {nodes}\n")
        fh.write(f"relaxations solved: {relaxations}\n")
        fh.write(f"solve time: {elapsed:.2f} s\n")

    run = {
        "network": config.network,
        "n_buses": net.n_buses,
        "n_lines": len(net.lines),
        "flexible_lines": flex_ids,
        "horizon": config.horizon,
        "scale": config.scale,
        "gap": config.gap,
        "epsilon": config.epsilon,
        "angle_lo": config.angle_lo,
        "angle_hi": config.angle_hi,
        "total_cost": _micro_str(sum(hour_micros)),
        "nodes": nodes,
    }
    (out / "run.json").write_text(json.dumps(run, indent=2, sort_keys=True) + "\n")


def _read_run(run_dir: str) -> tuple[dict, list[tuple[int, dict[str, int]]]]:
    """Load one completed solve: its run.json and schedule rows."""
    base = Path(run_dir)
    try:
        run = json.loads((base / "run.json").read_text())
        with open(base / "schedule.csv", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise _io_error(f"cannot read run {run_dir}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _io_error(f"malformed run.json in {run_dir}: {exc}") from exc
    if not rows or rows[0][:1] != ["hour"]:
        raise _io_error(f"malformed schedule.csv in {run_dir}")
    flex_ids = rows[0][1:]
    schedule = []
    for row in rows[1:]:
        try:
            schedule.append((int(row[0]),
                             {lid: int(v) for lid, v in zip(flex_ids, row[1:])}))
        except ValueError:
            raise _io_error(f"malformed schedule.csv in {run_dir}") from None
    return run, schedule


def cmd_report(args) -> int:
    runs = []
    for run_dir in args.runs:
        run, schedule = _read_run(run_dir)
        runs.append((run_dir, run, schedule))

    first = runs[0][1]
    for run_dir, run, _schedule in runs[1:]:
        if run.get("n_buses") != first.get("n_buses"):
            print(f"error: {run_dir} solved a different network "
                  f"({run.get('n_buses')} buses vs {first.get('n_buses')})",
                  file=sys.stderr)
            return EXIT_INVALID

    # round-trip check: every scheduled topology must still be a forest
    for run_dir, run, schedule in runs:
        net_path = Path(run["network"])
        if not net_path.exists():
            net_path = Path(run_dir) / run["network"]
        net = _read_network(str(net_path))
        always_closed = {l.id for l in net.nonflexible_lines}
        for hour, statuses in schedule:
            closed = always_closed | {lid for lid, on in statuses.items() if on}
            if not is_spanning_forest(net, closed):
                print(f"error: {run_dir} hour {hour} schedule is not radial",
                      file=sys.stderr)
                return EXIT_INVALID

    base_cost = float(runs[0][1]["total_cost"])
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "comparison.csv", "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["run", "total_cost", "delta_pct"])
            for run_dir, run, _schedule in runs:
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
        epilog="Flag defaults accept environment overrides named "
               "RECONF_<FLAG>, e.g. RECONF_GAP=1e-7 or RECONF_JOBS=4.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic three-feeder case")
    gen.add_argument("--case", type=int, required=True, choices=(1, 2, 3, 4))
    gen.add_argument("--seed", type=int, default=_env("SEED", int, 0))
    gen.add_argument("--rating-scale", type=float,
                     default=_env("RATING_SCALE", float, 1.0))
    gen.add_argument("--price-shape", default=_env("PRICE_SHAPE", str, "diurnal"),
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
    sol.add_argument("--horizon", type=int, default=_env("HORIZON", int, None))
    sol.add_argument("--scale", type=float, default=_env("SCALE", float, 1.0),
                     help="multiply every load by this factor")
    sol.add_argument("--gap", type=float, default=_env("GAP", float, 1e-6))
    sol.add_argument("--epsilon", type=float,
                     default=_env("EPSILON", float, 1e-5))
    sol.add_argument("--angle-lo", type=float,
                     default=_env("ANGLE_LO", float, -0.6))
    sol.add_argument("--angle-hi", type=float,
                     default=_env("ANGLE_HI", float, 0.6))
    sol.add_argument("--jobs", type=int, default=_env("JOBS", int, 1))
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
    sys.exit(main())
