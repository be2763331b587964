"""Time ranked enumeration against the branch and bound on case-4 variants.

The variants (tests/variants.py) are generated case-4 networks with one
to four extra switchable ties (more radial topologies, 39 buses), some
feeder lines made always-closed (fewer), or longer feeders (the same
16,017 topologies over more buses, with reactances shrunk by the square
of the feeder length so the angle drops stay those of case 4), or both
(c4-feeders50+ties_ac: 398,545 topologies over 150 buses). For each variant
the script lists the forest set once and solves hours 8, 15 and 20 both
ways, ignoring _ENUMERATION_BYTES:

    PYTHONPATH=src python3 bench/cap_crossover.py [VARIANT ...] [--hours 8,15,20]
        [--no-bb VARIANT,...] [--no-enum VARIANT,...] [--out FILE]

It prints one JSON record per variant: buses, lines, forest count, the
byte estimate that _radial_forests compares with _ENUMERATION_BYTES, the
listing time, its traced peak and the distinct assignments, and per
hour the enumeration time, the forests laid out so far (kept layouts,
at most _KEPT_LAYOUTS), the branch-and-bound time, nodes and
relaxations, and the costs (which must agree to 1e-9). An empty --hours
means all 24.
The default run covers every variant but c4+ties_abc and c4+ties_abcd,
with 1.6 and 6.5 million forests; --no-enum times a variant by the
branch and bound alone, without listing it, and --no-bb by enumeration
alone (c4-feeders50+ties_ac, 150 buses, takes 7-47 s per hour by
branch and bound).

    PYTHONPATH=src python3 bench/cap_crossover.py VARIANT --peak enum|bb

instead solves the hours one way only (enumeration lists the forest set
once, as solve_day does, and refuses a variant over the byte budget; the
branch and bound runs _solve_milp per hour)
and reports the time, each hour's cost and their total, and the
process's peak resident memory before and after; run one variant per
process, since the peak never falls.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import tracemalloc
from pathlib import Path

import reconf.forests as fs
import reconf.optimize as opt

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from variants import VARIANTS, variant  # noqa: E402

DEFAULT = [name for name in VARIANTS if name not in ("c4+ties_abc", "c4+ties_abcd")]


def measure(name: str, hours, with_bb: bool, with_enum: bool) -> dict:
    problem = variant(*VARIANTS[name])
    net = problem.net
    fs._ENUMERATION_BYTES = float("inf")
    n_nodes, edges = fs._contracted_edges(net)
    count = fs._spanning_tree_count(n_nodes, edges)
    out = {"variant": name, "buses": net.n_buses, "lines": len(net.lines),
           "forests": count,
           "estimate_mb": round(fs._forest_bytes(net, n_nodes, edges, count)
                                / 2**20, 1),
           "hours": []}
    if with_enum:
        start = time.perf_counter()
        forests = fs._radial_forests(net)
        list_s = time.perf_counter() - start
        del forests
        tracemalloc.start()
        forests = fs._radial_forests(net)
        list_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out.update(list_s=round(list_s, 3),
                   list_peak_mb=round(list_peak / 2**20, 1),
                   assignments=forests.assignments.shape[1])
    for hour in hours:
        model = opt.build_hour_model(
            net, opt.apply_epsilon_loads(problem.loads[hour - 1]),
            problem.prices[hour - 1])
        record = {"hour": hour}
        if with_enum:
            start = time.perf_counter()
            ranked = opt.solve_hour(model, forests=forests)
            record.update(enum_s=round(time.perf_counter() - start, 3),
                          cost=ranked.cost, laid_out=forests.layouts.kept)
        if with_bb:
            start = time.perf_counter()
            sol, stats = opt._solve_milp(model, opt.SolverOptions())
            record.update(bb_s=round(time.perf_counter() - start, 3),
                          bb_nodes=stats.nodes, bb_relaxations=stats.relaxations)
            if not with_enum:
                record.update(cost=sol.cost)
            elif abs(sol.cost - ranked.cost) > 1e-9 * abs(ranked.cost):
                raise SystemExit(f"{name} hour {hour}: costs differ "
                                 f"{sol.cost} vs {ranked.cost}")
        out["hours"].append(record)
    return out


def peak(name: str, hours, path: str) -> dict:
    problem = variant(*VARIANTS[name])
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = time.perf_counter()
    forests = fs._radial_forests(problem.net) if path == "enum" else None
    if forests is not None and not forests.listed:
        raise SystemExit(f"{name} is over the byte budget")
    costs, nodes = [], 0
    for hour in hours:
        model = opt.build_hour_model(
            problem.net, opt.apply_epsilon_loads(problem.loads[hour - 1]),
            problem.prices[hour - 1])
        if path == "enum":
            costs.append(opt.solve_hour(model, forests=forests).cost)
        else:
            sol, stats = opt._solve_milp(model, opt.SolverOptions())
            costs.append(sol.cost)
            nodes += stats.nodes
    return {"variant": name, "hours": list(hours), "path": path,
            "s": round(time.perf_counter() - start, 3), "total": sum(costs),
            "costs": costs, "bb_nodes": nodes,
            "rss_before_mb": round(before, 1),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                 / 1024, 1)}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("variants", nargs="*", default=DEFAULT)
    parser.add_argument("--hours", default="8,15,20")
    parser.add_argument("--no-bb", default="",
                        help="comma-separated variants to time by enumeration only")
    parser.add_argument("--no-enum", default="",
                        help="comma-separated variants to time by branch and bound only")
    parser.add_argument("--peak", choices=("enum", "bb"))
    parser.add_argument("--out", help="also write the records to this JSON file")
    args = parser.parse_args(argv)
    hours = [int(h) for h in args.hours.split(",")] if args.hours else range(1, 25)
    skip = set(filter(None, args.no_bb.split(",")))
    bb_only = set(filter(None, args.no_enum.split(",")))
    records = []
    for name in args.variants:
        if args.peak:
            records.append(peak(name, hours, args.peak))
        else:
            records.append(measure(name, hours, name not in skip,
                                   name not in bb_only))
        print(json.dumps(records[-1]), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"argv": sys.argv[1:], "records": records}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
