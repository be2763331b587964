"""The benchmark's span wrappers still see the layers they wrap.

perfbench/spans.py replaces module globals of reconf (optimize.solve_flows,
optimize._propagate, ...) with spanned calls. A wrapped name that moves
out of its module, or a call that stops going through the module's
binding, leaves its layer silently empty in every traced run. Each test
here installs the wrappers in a fresh interpreter, so this process keeps
its own bindings, solves one hour and requires at least one span from
every layer that hour's path runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import reconf

TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"

SCRIPT = """
import collections, json, sys
import numpy as np
from spans import Tracer, install, NAME, HOUR
tracer = Tracer()
install(tracer)
from reconf import optimize
from test_optimize import grid_net, two_sub_net
if sys.argv[1] == "enumerated":
    problem = optimize.DayProblem(two_sub_net(), [[0.0, 0.0, 8.0]],
                                  [[10.0, 20.0]])
else:
    problem = optimize.DayProblem(grid_net(), [np.linspace(0.005, 0.02, 20)],
                                  [[10.0, 12.0]])
day = optimize.solve_day(problem, solver_opts=optimize.SolverOptions(max_nodes=1_000))
print(json.dumps({
    "spans": collections.Counter(s[NAME] for s in tracer.spans),
    "hours": sorted({s[HOUR] for s in tracer.spans
                     if s[NAME].startswith(("optimize.", "dcflow.", "lp."))}),
    "nodes": day.hours[0].stats.nodes}))
"""

# every layer an enumerated hour runs, from validation to exact physics
ENUMERATED = {"model.validate", "optimize.build", "optimize.solve_hour",
              "optimize.physics", "model.forest", "dcflow.flow",
              "dcflow.limits"}

# the branch and bound also propagates, polishes and solves one root LP
BRANCH_AND_BOUND = ENUMERATED | {
    "optimize.propagate", "optimize.bridges", "optimize.polish",
    "lp.prepare", "lp.relax", "lp.solve", "lp.cold", "lp.primal", "lp.audit"}


def traced_hour(path: str) -> dict:
    """Span counts, the hour ids of the solve's spans, and the nodes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PERFBENCH), str(TESTS), str(Path(reconf.__file__).parents[1])])
    out = subprocess.run([sys.executable, "-c", SCRIPT, path],
                         capture_output=True, text=True, timeout=120, env=env)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_enumerated_hour_fills_every_layer_it_runs():
    record = traced_hour("enumerated")
    assert ENUMERATED - set(record["spans"]) == set()
    assert not any(name.startswith("lp.") for name in record["spans"])
    assert record["hours"] == [0]


def test_branch_and_bound_hour_fills_every_layer_it_runs():
    # the loaded grid hour of test_loaded_substations_close_at_the_root:
    # above the enumeration cap, solved at the root
    record = traced_hour("branch-and-bound")
    assert record["nodes"] == 0
    assert BRANCH_AND_BOUND - set(record["spans"]) == set()
    assert record["hours"] == [0]
