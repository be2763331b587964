"""The branch and bound above the enumeration byte budget, refereed by HiGHS.

c4+ties_abcd (tests/variants.py) has 6,508,304 radial topologies, too
many to list, so every hour of it goes to the branch and bound. Each hour
is also solved by HiGHS over the paper's full angle/big-M model
(perfbench/oracle.py), read from the same input files by
perfbench/audit.py; neither shares code with reconf. Without SciPy the
tests are skipped.

HiGHS reports its objective only within its feasibility tolerance: on
hour 20 at ±0.6 rad it reads 91.007006 for a topology whose flows cost
91.007007, what the branch and bound returns. The hours here are ones
where its objective is exact to 1e-14.
"""

import sys
from pathlib import Path

import pytest

pytest.importorskip("scipy")

from reconf.cli import _bus_columns, _read_day, _substation_columns, _write_profile_csv
from reconf.model import serialize_network
from reconf.optimize import ModelOptions, solve_day
from variants import VARIANTS, variant

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from audit import Inputs  # noqa: E402
from oracle import day_optima  # noqa: E402


def refereed_day(tmp_path, hours, angle, jobs):
    """Solve the given 1-based hours of c4+ties_abcd as one day at
    ±angle rad, from files, and return reconf's and HiGHS's hour costs."""
    problem = variant(*VARIANTS["c4+ties_abcd"])
    rows = [h - 1 for h in hours]
    files = [tmp_path / name for name in ("network.json", "loads.csv", "prices.csv")]
    files[0].write_text(serialize_network(problem.net))
    _write_profile_csv(files[1], _bus_columns(problem.net), problem.loads[rows])
    _write_profile_csv(files[2], _substation_columns(problem.net),
                       problem.prices[rows])
    read, model_opts = _read_day(*map(str, files), None, 1.0, -angle, angle,
                                 ModelOptions().epsilon)
    day = solve_day(read, model_opts, jobs=jobs)
    assert all(h.stats.nodes > 0 for h in day.hours)    # the branch and bound
    return ([h.cost for h in day.hours],
            day_optima(Inputs.read(*files, 1.0, -angle, angle)))


def test_two_hour_day_in_worker_processes_matches_highs(tmp_path):
    costs, optima = refereed_day(tmp_path, [1, 15], 0.6, jobs=2)
    assert costs == pytest.approx(optima, rel=1e-9)


def test_hour_under_binding_angles_matches_highs(tmp_path):
    # the cheapest hour whose optimum the ±0.2 rad bounds raise (22.486806
    # against 22.477191 at ±0.6 rad)
    costs, optima = refereed_day(tmp_path, [7], 0.2, jobs=1)
    assert costs == pytest.approx(optima, rel=1e-9)
