"""What `reconf report` checks of a completed solve.

read_run loads a run's run.json; audit recomputes the run from the
inputs it recorded and renders it with the same function that `solve`
writes its tables with. Only `report` imports this module.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .cli import (
    _TABLE_FILES,
    _io_error,
    _read_day,
    _sha256,
    _tables,
    is_spanning_forest,
)
from .optimize import apply_epsilon_loads, evaluate_topology


def _read_rows(path: Path, run_dir: str) -> list[list[str]]:
    try:
        with open(path, newline="") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise _io_error(f"cannot read run {run_dir}: {exc}") from exc


def read_run(run_dir: str) -> dict:
    """Load one completed solve's run.json."""
    try:
        return json.loads((Path(run_dir) / "run.json").read_text())
    except OSError as exc:
        raise _io_error(f"cannot read run {run_dir}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _io_error(f"malformed run.json in {run_dir}: {exc}") from exc


def audit(run_dir: str, run: dict) -> str | None:
    """What does not hold in one completed solve, or None when all does.

    The three inputs must still have the sha256 digests the solve
    recorded. Every hour of the schedule is then evaluated again with
    evaluate_topology, under the run's loads, load scale, prices, angle
    bounds and epsilon: it must be radial and keep every rating and angle
    bound. The recomputed hours, rendered as `solve` renders its own,
    must be schedule.csv, cost.csv and loading.csv row by row, and their
    total the total_cost of run.json.
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
    files = [_read_rows(Path(run_dir) / name, run_dir) for name in _TABLE_FILES]
    schedule = files[0]
    net = problem.net
    always = {l.id for l in net.nonflexible_lines}
    header = schedule[0][1:] if schedule else []
    hours = []
    for t in range(1, problem.horizon + 1):
        # a cell is found by its column's line id; one that is not "1", or
        # that the file lacks, reads as open. The comparison below refuses
        # any row that solve would not have written.
        row = dict(zip(header, schedule[t][1:])) if t < len(schedule) else {}
        closed = {l.id for l in net.flexible_lines if row.get(l.id) == "1"}
        if not is_spanning_forest(net, always | closed):
            return f"hour {t} schedule is not radial"
        sol = evaluate_topology(net, closed,
                                apply_epsilon_loads(problem.loads[t - 1],
                                                    opts.epsilon),
                                problem.prices[t - 1], opts)
        if sol is None:
            return f"hour {t} schedule breaks a line rating or an angle bound"
        hours.append(sol)
    tables = _tables(net, hours)
    for name, rows, expected in zip(_TABLE_FILES, files, tables):
        for i, row in enumerate(rows):
            if i >= len(expected) or row != expected[i]:
                return f"{name} row {i + 1} differs from the recomputed run"
        if len(rows) < len(expected):
            return f"{name} lacks rows of the recomputed run"
    total = tables[1][-1][-1]
    if run["total_cost"] != total:
        return (f"run.json total_cost {run['total_cost']} differs from "
                f"the recomputed {total}")
    return None
