"""What `reconf report` checks of a completed solve.

read_run loads a run's run.json and schedule; audit recomputes the run
from the inputs it recorded. Only `report` imports this module.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .cli import (
    _io_error,
    _loading_cells,
    _micro_str,
    _micros,
    _read_day,
    _sha256,
    is_spanning_forest,
)
from .optimize import apply_epsilon_loads, evaluate_topology


def _read_rows(path: Path, run_dir: str) -> list[list[str]]:
    try:
        with open(path, newline="") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise _io_error(f"cannot read run {run_dir}: {exc}") from exc


def read_run(run_dir: str) -> tuple[dict, list[tuple[int, dict[str, int]]]]:
    """Load one completed solve: its run.json and schedule rows."""
    base = Path(run_dir)
    try:
        run = json.loads((base / "run.json").read_text())
    except OSError as exc:
        raise _io_error(f"cannot read run {run_dir}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _io_error(f"malformed run.json in {run_dir}: {exc}") from exc
    rows = _read_rows(base / "schedule.csv", run_dir)
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


def audit(run_dir: str, run: dict, schedule) -> str | None:
    """What does not hold in one completed solve, or None when all does.

    The three inputs must still have the sha256 digests the solve
    recorded. Every scheduled hour is then evaluated again with
    evaluate_topology, under the run's loads, load scale, prices, angle
    bounds and epsilon: it must be radial and keep every rating and angle
    bound, and its cost and line loadings must be the rows of cost.csv
    and loading.csv. The hourly costs must add up to the totals of
    cost.csv and run.json.
    """
    paths = {}
    for what in ("network", "loads", "prices"):
        path = Path(run[what])
        if not path.exists():
            path = Path(run_dir) / run[what]
        try:
            digest = _sha256(str(path))
        except OSError as exc:
            raise _io_error(f"cannot read the {what} of run {run_dir}: {exc}") from exc
        if digest != run["sha256"][what]:
            return f"{what} {path} changed since the solve"
        paths[what] = str(path)
    problem, opts = _read_day(paths["network"], paths["loads"], paths["prices"],
                              run["horizon"], run["scale"], run["angle_lo"],
                              run["angle_hi"], run["epsilon"])
    net, horizon = problem.net, problem.horizon
    flex_ids = sorted(l.id for l in net.flexible_lines)
    hours = list(range(1, horizon + 1)) if flex_ids else []
    if ([hour for hour, _ in schedule] != hours
            or any(sorted(statuses) != flex_ids for _, statuses in schedule)):
        return "schedule.csv does not match the run's hours and switchable lines"

    always = {l.id for l in net.nonflexible_lines}
    statuses = dict(schedule)
    micros = []
    cost_rows = [["hour", "cost"]]
    loading_rows = [["hour"] + [l.id for l in net.lines]]
    for t in range(1, horizon + 1):
        closed = {lid for lid, on in statuses.get(t, {}).items() if on}
        if not is_spanning_forest(net, always | closed):
            return f"hour {t} schedule is not radial"
        sol = evaluate_topology(net, closed,
                                apply_epsilon_loads(problem.loads[t - 1],
                                                    opts.epsilon),
                                problem.prices[t - 1], opts)
        if sol is None:
            return f"hour {t} schedule breaks a line rating or an angle bound"
        micros.append(_micros(sol.cost))
        cost_rows.append([str(t), _micro_str(micros[-1])])
        loading_rows.append([str(t)] + _loading_cells(net, sol.flows))
    total = _micro_str(sum(micros))
    cost_rows.append(["total", total])
    for name, expected in (("cost.csv", cost_rows), ("loading.csv", loading_rows)):
        rows = _read_rows(Path(run_dir) / name, run_dir)
        for i, row in enumerate(rows):
            if i >= len(expected) or row != expected[i]:
                return f"{name} row {i + 1} differs from the recomputed run"
        if len(rows) < len(expected):
            return f"{name} lacks rows of the recomputed run"
    if run["total_cost"] != total:
        return (f"run.json total_cost {run['total_cost']} differs from "
                f"the recomputed {total}")
    return None
