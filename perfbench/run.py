"""Benchmark of `reconf solve`: end-to-end timing, a traced run, and checks.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each solve is a fresh process
(`launch.py`, equivalent to `python -m reconf.cli`) with BLAS pinned to
one thread. A round runs every solve of the workload once; rounds repeat
until S seconds have passed, and at least twice, so that repeat solves
can be compared byte for byte. After the timed rounds, and outside them,
every output is audited with the benchmark's own code (audit.py) and every
hour's cost is checked against HiGHS (oracle.py).

--trace 0 prints the end-to-end metrics: medians of wall_s, setup_s and
peak_rss_mb. --trace 1 alternates untraced and traced rounds and prints
the per-layer metrics of the traced ones plus trace.overhead_s.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from audit import AuditError, Inputs, audit_run, close, summary_counts
from oracle import day_optima
from spans import PARENT, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-runs"

# every case is generated with the program's own generator, seed 0 and
# diurnal prices: the cases whose costs and search sizes ROADMAP records
GEN_SEED = 0
MIN_ROUNDS = 2
COMMAND_TIMEOUT = 150.0
OUTPUTS = ("schedule.csv", "cost.csv", "loading.csv", "run.json")

# case-4 hours (1-based): 8, the morning hour where substation 1 is
# cheapest; 15, the load peak; 20, the evening price spike. Together they
# cover the day's three price regimes and its peak load in about a tenth
# of a full day's search; at +-0.2 rad the peak hour's search grows most.
CASE4_HOURS = (8, 15, 20)


@dataclass(frozen=True)
class Solve:
    """One `reconf solve` command of a workload."""

    case: int
    hours: tuple[int, ...] | None     # hours of the generated day; None: all 24
    angle: float                      # symmetric bus-angle bound, rad

    @property
    def name(self) -> str:
        part = "day" if self.hours is None else "h" + "-".join(map(str, self.hours))
        return f"case{self.case}-{part}-a{self.angle}"


WORKLOADS = {
    "small-switch-sets": (Solve(1, None, 0.6), Solve(2, None, 0.6), Solve(3, None, 0.6)),
    "all-flexible": (Solve(4, CASE4_HOURS, 0.6),),
    "binding-angles": (Solve(4, CASE4_HOURS, 0.2),),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class CheckFailed(Exception):
    """An output failed a correctness check."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RECONF_")}
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# inputs


def make_inputs(work: Path, solves) -> dict[Solve, tuple[str, str, str]]:
    """Generate each case once; cut hour subsets out of the generated day."""
    paths = {}
    for solve in solves:
        case_dir = work / "inputs" / f"case{solve.case}"
        if not case_dir.exists():
            subprocess.run(
                [sys.executable, "-m", "reconf.cli", "generate", "--case", str(solve.case),
                 "--seed", str(GEN_SEED), "--price-shape", "diurnal", "--out", str(case_dir)],
                cwd=work, env=child_env(), check=True, timeout=COMMAND_TIMEOUT,
                stdout=subprocess.DEVNULL)
        src = case_dir
        if solve.hours is not None:
            src = work / "inputs" / f"case{solve.case}-h{'-'.join(map(str, solve.hours))}"
            src.mkdir(exist_ok=True)
            shutil.copyfile(case_dir / "network.json", src / "network.json")
            for name in ("loads.csv", "prices.csv"):
                lines = (case_dir / name).read_text().splitlines()
                rows = [lines[0]] + [f"{i},{lines[h].split(',', 1)[1]}"
                                     for i, h in enumerate(solve.hours, start=1)]
                (src / name).write_text("\n".join(rows) + "\n")
        rel = src.relative_to(work)
        paths[solve] = (str(rel / "network.json"), str(rel / "loads.csv"),
                        str(rel / "prices.csv"))
    return paths


# ---------------------------------------------------------------------------
# launching


@dataclass
class Result:
    """One command launched from the benchmark."""

    solve: Solve | None
    out_dir: Path
    code: int
    wall_s: float
    setup_s: float | None
    rss_mb: float
    stdout: str
    spans: list


def launch(work: Path, run_dir: Path, mode: str, argv: list[str],
           solve: Solve | None) -> Result:
    """Run launch.py in a fresh process; time it from launch to exit."""
    run_dir.mkdir(parents=True)
    record = run_dir / "record.json"
    cmd = [sys.executable, str(HERE / "launch.py"), str(record), mode, *argv]
    with open(run_dir / "stdout.txt", "w") as out, open(run_dir / "stderr.txt", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
        killer.start()
        try:
            _pid, status, _usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    doc = {"first_hour": None, "peak_rss_kb": 0, "spans": []}
    if record.exists():
        doc = json.loads(record.read_text())
    first_hour = doc["first_hour"]
    return Result(solve, run_dir / "out", proc.returncode, end - start,
                  None if first_hour is None else first_hour - start,
                  doc["peak_rss_kb"] / 1024.0, (run_dir / "stdout.txt").read_text(),
                  doc["spans"])


def log_round(label: str, results: list[Result]) -> None:
    parts = ", ".join(f"{res.solve.name} {res.wall_s:.3f} s" for res in results)
    print(f"{label}: {sum(res.wall_s for res in results):.3f} s ({parts})", file=sys.stderr)


def run_round(work: Path, label: str, order, inputs, mode: str) -> list[Result]:
    results = []
    for solve in order:
        network, loads, prices = inputs[solve]
        run_dir = work / label / solve.name
        argv = ["solve", "--network", network, "--loads", loads, "--prices", prices,
                "--out", str((run_dir / "out").relative_to(work)),
                "--angle-lo", str(-solve.angle), "--angle-hi", str(solve.angle),
                "--epsilon", "1e-5", "--scale", "1.0"]
        results.append(launch(work, run_dir, mode, argv, solve))
    return results


# ---------------------------------------------------------------------------
# checks


def check_rounds(rounds: list[list[Result]], specs, optima) -> None:
    """Audit every output, compare with the oracle, and check the properties."""
    first: dict[Solve, dict[str, bytes]] = {}
    costs: dict[Solve, list[float]] = {}
    for r, results in enumerate(rounds):
        for res in results:
            if res.code != 0:
                continue
            solve = res.solve
            try:
                hour_costs = audit_run(res.out_dir, specs[solve], res.stdout)
            except AuditError as exc:
                raise CheckFailed(f"round {r + 1} {solve.name}: {exc}") from None
            data = {name: (res.out_dir / name).read_bytes() for name in OUTPUTS}
            if solve not in first:
                first[solve] = data
                costs[solve] = hour_costs
            for name in OUTPUTS:
                if data[name] != first[solve][name]:
                    raise CheckFailed(f"round {r + 1} {solve.name}: {name} differs "
                                      "from the first round's")

    for solve, hour_costs in costs.items():
        for t, (cost, best) in enumerate(zip(hour_costs, optima[solve]), start=1):
            if best is None or not close(cost, best):
                raise CheckFailed(f"{solve.name} hour {t}: cost {cost:.6f} but the "
                                  f"HiGHS optimum is {best}")

    nested = sorted((s for s in costs if s.hours is None), key=lambda s: s.case)
    for wider, narrower in zip(nested[1:], nested):
        for t, (c_wide, c_narrow) in enumerate(zip(costs[wider], costs[narrower]), start=1):
            # the search stops within its 1e-6 relative gap, so allow that much
            if c_wide > c_narrow + 1e-6 * max(1.0, c_narrow):
                raise CheckFailed(f"hour {t}: case {wider.case} costs {c_wide:.6f}, more "
                                  f"than case {narrower.case}'s {c_narrow:.6f}")


def read_specs(work: Path, inputs):
    """What each solve was asked to do, parsed by the audit's own reader."""
    return {solve: Inputs.read(work / network, work / loads, work / prices,
                               1.0, -solve.angle, solve.angle)
            for solve, (network, loads, prices) in inputs.items()}


# ---------------------------------------------------------------------------
# metrics


def merged_spans(results: list[Result]) -> list[list]:
    """Spans of several processes as one list, parent indices rebased."""
    out: list[list] = []
    for res in results:
        base = len(out)
        for span in res.spans:
            span = list(span)
            if span[PARENT] >= 0:
                span[PARENT] += base
            out.append(span)
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def trace_checks(traced: list[list[Result]], metrics_per_round) -> None:
    """The traced counts must match what the program itself reports."""
    for results, metrics in zip(traced, metrics_per_round):
        if any(res.code != 0 for res in results):
            continue
        summed = {"branch-and-bound nodes": 0, "relaxations solved": 0}
        for res in results:
            for key, value in summary_counts(res.out_dir).items():
                summed[key] += value
        if metrics["lp.relax_calls"] != summed["relaxations solved"]:
            raise CheckFailed(f"traced lp.relax_calls {metrics['lp.relax_calls']} but "
                              f"summary.txt reports {summed['relaxations solved']}")
        if metrics["optimize.nodes"] != summed["branch-and-bound nodes"]:
            raise CheckFailed(f"traced optimize.nodes {metrics['optimize.nodes']} but "
                              f"summary.txt reports {summed['branch-and-bound nodes']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "reconf" / "cli.py").is_file():
        print(f"error: no reconf source tree at {SRC}", file=sys.stderr)
        return 2

    solves = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = make_inputs(work, solves)
    # the seed only orders the solves inside each round; the problems are fixed
    rng = random.Random(args.seed)

    plain: list[list[Result]] = []
    traced: list[list[Result]] = []
    started = time.perf_counter()
    while (len(plain) + len(traced) < MIN_ROUNDS
           or time.perf_counter() - started < args.seconds):
        plain.append(run_round(work, f"round{len(plain) + 1}",
                               rng.sample(solves, len(solves)), inputs, "plain"))
        log_round(f"round {len(plain)}", plain[-1])
        if args.trace:
            traced.append(run_round(work, f"traced{len(traced) + 1}",
                                    rng.sample(solves, len(solves)), inputs, "trace"))
            log_round(f"traced round {len(traced)}", traced[-1])
    timed = time.perf_counter() - started
    report = None
    if args.trace:
        last = traced[-1]
        report = launch(work, work / "report", "trace",
                        ["report", *[str(r.out_dir.relative_to(work)) for r in last],
                         "--out", "report/out"], None)

    everything = plain + traced
    attempted = sum(len(results) for results in everything)
    failed = sum(1 for results in everything for res in results if res.code != 0)
    correct = True
    try:
        specs = read_specs(work, inputs)
        check_rounds(everything, specs, {s: day_optima(spec) for s, spec in specs.items()})
        if report is not None and report.code != 0:
            raise CheckFailed(f"reconf report exited {report.code}")
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct = False

    print(f"timed rounds {timed:.1f} s, checks {time.perf_counter() - started - timed:.1f} s",
          file=sys.stderr)

    def wall(results):
        return sum(res.wall_s for res in results)

    if args.trace:
        per_round = [layer_metrics(merged_spans(results)) for results in traced]
        try:
            trace_checks(traced, per_round)
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            correct = False
        values = {name: statistics.median(m[name] for m in per_round)
                  for name in per_round[0]}
        values["cli.report_s"] = layer_metrics(report.spans)["cli.report_s"]
        values["trace.overhead_s"] = (statistics.median(map(wall, traced))
                                      - statistics.median(map(wall, plain)))
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in sorted(values.items())}
    else:
        setups = [res.setup_s for results in plain for res in results
                  if res.setup_s is not None]
        values = {
            "wall_s": statistics.median(map(wall, plain)),
            "setup_s": statistics.median(setups) if setups else 0.0,
            "peak_rss_mb": statistics.median(max(res.rss_mb for res in results)
                                             for results in plain),
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in values.items()}

    for name, metric in metrics.items():
        print(f"{args.workload:18s} {name:30s} {metric['value']:14.6f} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
