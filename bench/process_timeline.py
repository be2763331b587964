"""Where the time of one `reconf solve` process goes, for two source trees.

    python3 bench/process_timeline.py TREE_A TREE_B [--launches N]
        [--case 4] [--hours 8,15,20] [--angle 0.6] [--out FILE]

Each TREE is the root of a source checkout (its `src/` goes on
PYTHONPATH). The script generates the case once with TREE_A's generator
(seed 0, diurnal prices, as perfbench does), keeps the given 1-based hours
(all 24 when --hours is empty), and then launches `reconf solve` N times
per tree, alternating which tree goes first in each pair. BLAS is pinned
to one thread; the rest of the environment, PYTHONDONTWRITEBYTECODE
included, is passed on unchanged, so a tree with a `__pycache__` under
`src/` reads bytecode the other compiles.

A child records time.perf_counter marks (CLOCK_MONOTONIC, shared with
this process) around what it does, and the phases are the gaps between
them:

    start     launch to the child's first statement (interpreter start)
    numpy     `import numpy`
    import    `from reconf import cli, optimize` (numpy already loaded)
    inputs    argument parsing, reading, validation, up to the first
              build_hour_model call
    forests   optimize._radial_forests (count, list and lay out)
    hours     the rest of solve_day: every hour's build and solve
    write     cli._write_outputs and the final message
    shutdown  cli.main's return to the process's exit, as wait() sees it

It prints one JSON object: per tree the median and quartiles of every
phase, of `wall` (launch to exit), of `import_rss_mb` (the child's VmHWM
right after the `reconf` import, which includes compiling `reconf` when
no bytecode is cached) and of `peak_rss_mb` (its VmHWM at exit); per
phase and memory reading the median of the pairs' differences (B minus
A), which the host's drift disturbs less than the difference of
medians; the per-pair wall differences; and how many pairs B won.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# the child: marks are taken before anything but `time` is imported
CHILD = r"""
import time
t_start = time.perf_counter()
import json, sys
import numpy
t_numpy = time.perf_counter()
from reconf import cli, optimize
t_import = time.perf_counter()

def vm_hwm_kb():
    with open("/proc/self/status") as fh:
        return [int(l.split()[1]) for l in fh if l.startswith("VmHWM:")][0]

import_rss = vm_hwm_kb()
marks = {}

def mark(owner, attr, before, after=None):
    orig = getattr(owner, attr)
    def timed(*args, **kwargs):
        marks.setdefault(before, time.perf_counter())
        try:
            return orig(*args, **kwargs)
        finally:
            if after:
                marks[after] = time.perf_counter()
    setattr(owner, attr, timed)

mark(optimize, "build_hour_model", "first_build")
mark(optimize, "_radial_forests", "forests_start", "forests_end")
mark(cli, "_write_outputs", "write_start")
code = cli.main(sys.argv[2:])
t_main = time.perf_counter()
rss = vm_hwm_kb()
with open(sys.argv[1], "w") as fh:
    json.dump(dict(marks, start=t_start, numpy=t_numpy, reconf=t_import,
                   main=t_main, code=code, import_rss_kb=import_rss,
                   rss_kb=rss), fh)
sys.exit(code)
"""

PHASES = ("start", "numpy", "import", "inputs", "forests", "hours", "write",
          "shutdown")
MEMORY = ("import_rss_mb", "peak_rss_mb")


def launch(tree: Path, work: Path, argv: list[str]) -> dict:
    """One child solve; its phases in seconds and its peak memory."""
    env = dict(os.environ)
    env.update(PYTHONPATH=str(tree / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    record = work / "record.json"
    shutil.rmtree(work / "out", ignore_errors=True)
    launched = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, str(record), *argv],
                          cwd=work, env=env, stdout=subprocess.DEVNULL)
    exited = time.perf_counter()
    m = json.loads(record.read_text())
    if proc.returncode != 0 or m["code"] != 0:
        raise SystemExit(f"{tree}: reconf solve exited {proc.returncode}")
    forests = m.get("forests_end", m["first_build"]) - m.get("forests_start",
                                                             m["first_build"])
    return {
        "start": m["start"] - launched,
        "numpy": m["numpy"] - m["start"],
        "import": m["reconf"] - m["numpy"],
        "inputs": m["first_build"] - m["reconf"],
        "forests": forests,
        "hours": m["write_start"] - m["first_build"] - forests,
        "write": m["main"] - m["write_start"],
        "shutdown": exited - m["main"],
        "wall": exited - launched,
        "import_rss_mb": m["import_rss_kb"] / 1024.0,
        "peak_rss_mb": m["rss_kb"] / 1024.0,
    }


def make_inputs(tree: Path, work: Path, case: int, hours: list[int]) -> list[str]:
    """Generate the case and cut out the hours; the solve's arguments."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    day = work / "day"
    subprocess.run([sys.executable, "-m", "reconf.cli", "generate", "--case",
                    str(case), "--seed", "0", "--price-shape", "diurnal",
                    "--out", str(day)], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    for name in ("loads.csv", "prices.csv"):
        rows = (day / name).read_text().splitlines()
        if hours:
            rows = [rows[0]] + [f"{i},{rows[h].split(',', 1)[1]}"
                                for i, h in enumerate(hours, start=1)]
        (work / name).write_text("\n".join(rows) + "\n")
    shutil.copyfile(day / "network.json", work / "network.json")
    return ["solve", "--network", "network.json", "--loads", "loads.csv",
            "--prices", "prices.csv", "--out", "out"]


def summary(samples: list[dict]) -> dict:
    out = {}
    for key in (*PHASES, "wall", *MEMORY):
        values = sorted(s[key] for s in samples)
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        scale = 1.0 if key in MEMORY else 1000.0   # phases in ms
        out[key] = {"median": round(median * scale, 2),
                    "q1": round(q1 * scale, 2), "q3": round(q3 * scale, 2)}
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs=2, type=Path)
    parser.add_argument("--launches", type=int, default=20)
    parser.add_argument("--case", type=int, default=4)
    parser.add_argument("--hours", default="8,15,20",
                        help="1-based hours to keep; empty for the whole day")
    parser.add_argument("--angle", type=float, default=0.6)
    parser.add_argument("--out", help="also write the result to this JSON file")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in args.trees]
    hours = [int(h) for h in args.hours.split(",") if h]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        solve = make_inputs(trees[0], work, args.case, hours) + [
            "--angle-lo", str(-args.angle), "--angle-hi", str(args.angle)]
        samples: list[list[dict]] = [[], []]
        for i in range(args.launches):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                samples[side].append(launch(trees[side], work, solve))
    diffs = [b["wall"] - a["wall"] for a, b in zip(*samples)]
    result = {
        "case": args.case, "hours": hours, "angle": args.angle,
        "launches": args.launches,
        "units": "ms; import_rss_mb and peak_rss_mb in MB",
        "trees": {str(tree): summary(s) for tree, s in zip(trees, samples)},
        "median_diff_ms_b_minus_a": {
            key: round(statistics.median(b[key] - a[key] for a, b in zip(*samples))
                       * 1000.0, 2)
            for key in (*PHASES, "wall")},
        "median_diff_mb_b_minus_a": {
            key: round(statistics.median(b[key] - a[key] for a, b in zip(*samples)), 3)
            for key in MEMORY},
        "wall_diff_ms_b_minus_a": [round(d * 1000.0, 2) for d in diffs],
        "b_wins": sum(d < 0 for d in diffs),
    }
    text = json.dumps(result, indent=1)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")


if __name__ == "__main__":
    main()
