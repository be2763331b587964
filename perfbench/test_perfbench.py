"""Tests of the benchmark's own checks: each must pass good outputs and
refuse bad ones.

Run with: python3 -m pytest perfbench

The network is small enough to solve by hand. Buses 1 and 4 are
substations; L(1,2) is always closed and exactly one of the switchable
lines L(1,3), L(2,3), L(3,4) closes:

    closed    feeds bus 3 from   cost (price 10 at bus 1, 20 at bus 4)
    L(2,3)    bus 1 via bus 2    5.0003, angle at bus 3 is -0.09 rad
    L(3,4)    bus 4              7.0003, angles within +-0.05 rad
    L(1,3)    bus 1 directly     breaks L(1,3)'s 0.1 MW rating

Loads are 0.3 MW at bus 2 and 0.2 MW at bus 3; the substations' zero
loads become the 1e-5 MW fill-in, which they pay for themselves.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from audit import AuditError, Inputs, audit_run
from oracle import hour_optimum
from run import CheckFailed, Result, Solve, check_rounds
from spans import layer_metrics, self_times

NETWORK = {
    "base_mva": 100.0,
    "buses": [{"id": i, "name": f"bus-{i}", "substation": i in (1, 4)}
              for i in (1, 2, 3, 4)],
    "lines": [
        {"id": "L(1,2)", "from": 1, "to": 2, "x": 0.1, "rating_mw": 1.0, "flexible": False},
        {"id": "L(2,3)", "from": 2, "to": 3, "x": 0.2, "rating_mw": 1.0, "flexible": True},
        {"id": "L(3,4)", "from": 3, "to": 4, "x": 0.25, "rating_mw": 1.0, "flexible": True},
        {"id": "L(1,3)", "from": 1, "to": 3, "x": 0.3, "rating_mw": 0.1, "flexible": True},
    ],
}

# line ids hold commas, so the program's CSV writer quotes them
SCHEDULE_HEAD = 'hour,"L(1,3)","L(2,3)","L(3,4)"'
LOADING_HEAD = 'hour,"L(1,2)","L(2,3)","L(3,4)","L(1,3)"'

# the optimum at +-0.6 rad: close L(2,3); L(1,2) carries 0.5 MW, L(2,3) 0.2 MW
GOOD = {
    "schedule.csv": SCHEDULE_HEAD + "\n1,0,1,0\n",
    "cost.csv": "hour,cost\n1,5.000300\ntotal,5.000300\n",
    "loading.csv": LOADING_HEAD + "\n1,50.000000,20.000000,0.000000,0.000000\n",
    "run.json": json.dumps({"total_cost": "5.000300"}) + "\n",
}
GOOD_STDOUT = "total cost 5.000300, 1 hours, outputs in out\n"


@pytest.fixture
def case(tmp_path):
    (tmp_path / "network.json").write_text(json.dumps(NETWORK))
    (tmp_path / "loads.csv").write_text("hour,1,2,3,4\n1,0.000000,0.300000,0.200000,0.000000\n")
    (tmp_path / "prices.csv").write_text("hour,1,4\n1,10.000000,20.000000\n")
    return tmp_path


def inputs(case, angle=0.6):
    return Inputs.read(case / "network.json", case / "loads.csv", case / "prices.csv",
                       1.0, -angle, angle)


def outputs(case, **changes):
    out = case / "out"
    out.mkdir(exist_ok=True)
    for name, text in {**GOOD, **changes}.items():
        (out / name).write_text(text)
    return out


def test_good_outputs_pass(case):
    assert audit_run(outputs(case), inputs(case), GOOD_STDOUT) == pytest.approx([5.0003])


@pytest.mark.parametrize("row, message", [
    ("1,0,1,1", "joined"),          # bus 1 reaches bus 4 through L(2,3), L(3,4)
    ("1,1,1,0", "cycle"),           # 1-2-3-1
    ("1,0,0,0", "fed by no substation"),
])
def test_non_radial_schedule_fails(case, row, message):
    out = outputs(case, **{"schedule.csv": f"{SCHEDULE_HEAD}\n{row}\n"})
    with pytest.raises(AuditError, match=message):
        audit_run(out, inputs(case), GOOD_STDOUT)


def test_schedule_breaking_a_rating_fails(case):
    out = outputs(case, **{
        "schedule.csv": SCHEDULE_HEAD + "\n1,1,0,0\n",
        "loading.csv": LOADING_HEAD + "\n"
                       "1,30.000000,0.000000,0.000000,200.000000\n"})
    with pytest.raises(AuditError, match=r"L\(1,3\) carries .* rating"):
        audit_run(out, inputs(case), GOOD_STDOUT)


def test_schedule_breaking_an_angle_bound_fails(case):
    with pytest.raises(AuditError, match="bus 3 angle -0.09"):
        audit_run(outputs(case), inputs(case, angle=0.08), GOOD_STDOUT)


def test_cost_entry_off_by_1e_4_fails(case):
    out = outputs(case, **{"cost.csv": "hour,cost\n1,5.000400\ntotal,5.000400\n",
                           "run.json": json.dumps({"total_cost": "5.000400"})})
    with pytest.raises(AuditError, match="cost.csv hour 1"):
        audit_run(out, inputs(case), "total cost 5.000400, 1 hours\n")


def test_loading_entry_off_fails(case):
    out = outputs(case, **{"loading.csv": LOADING_HEAD + "\n"
                                          "1,50.000000,20.010000,0.000000,0.000000\n"})
    with pytest.raises(AuditError, match=r"loading.csv hour 1 line L\(2,3\)"):
        audit_run(out, inputs(case), GOOD_STDOUT)


def test_printed_total_must_match(case):
    with pytest.raises(AuditError, match="printed total"):
        audit_run(outputs(case), inputs(case), "total cost 5.000301, 1 hours\n")


def test_oracle_optima(case):
    spec = inputs(case)
    loads = [1e-5, 0.3, 0.2, 1e-5]
    assert hour_optimum(spec.net, loads, spec.prices[0], -0.6, 0.6) == pytest.approx(5.0003, rel=1e-9)
    assert hour_optimum(spec.net, loads, spec.prices[0], -0.08, 0.08) == pytest.approx(7.0003, rel=1e-9)
    assert hour_optimum(spec.net, loads, spec.prices[0], -0.01, 0.01) is None


def _result(out, stdout=GOOD_STDOUT, solve=Solve(1, None, 0.6)):
    return Result(solve, out, 0, 1.0, 0.1, 30.0, stdout, [])


def test_wrong_oracle_optimum_fails(case):
    solve = Solve(1, None, 0.6)
    rounds = [[_result(outputs(case))]]
    check_rounds(rounds, {solve: inputs(case)}, {solve: [5.0003]})
    with pytest.raises(CheckFailed, match="HiGHS optimum"):
        check_rounds(rounds, {solve: inputs(case)}, {solve: [5.0003 * (1 + 2e-6)]})


def test_repeat_solves_must_match_bytes(case):
    solve = Solve(1, None, 0.6)
    first = outputs(case)
    second = case / "again"
    second.mkdir()
    for name, text in GOOD.items():
        (second / name).write_text(text)
    (second / "run.json").write_text(json.dumps({"total_cost": "5.000300"}, indent=1))
    with pytest.raises(CheckFailed, match="run.json differs"):
        check_rounds([[_result(first)], [_result(second)]], {solve: inputs(case)},
                     {solve: [5.0003]})


def test_wider_switch_set_may_not_cost_more(case, tmp_path):
    narrow, wide = Solve(1, None, 0.6), Solve(2, None, 0.6)
    cheap = outputs(case)
    dear = tmp_path / "dear"
    dear.mkdir()
    for name, text in GOOD.items():
        (dear / name).write_text(text)
    (dear / "schedule.csv").write_text(SCHEDULE_HEAD + "\n1,0,0,1\n")
    (dear / "cost.csv").write_text("hour,cost\n1,7.000300\ntotal,7.000300\n")
    (dear / "loading.csv").write_text(LOADING_HEAD + "\n"
                                      "1,30.000000,0.000000,20.000000,0.000000\n")
    (dear / "run.json").write_text(json.dumps({"total_cost": "7.000300"}))
    specs = {narrow: inputs(case), wide: inputs(case)}
    rounds = [[_result(cheap, solve=narrow),
               _result(dear, "total cost 7.000300, 1 hours\n", solve=wide)]]
    with pytest.raises(CheckFailed, match="case 2 costs 7.000300, more than case 1"):
        check_rounds(rounds, specs, {narrow: [5.0003], wide: [7.0003]})


def test_program_output_passes_audit_and_oracle(case):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "reconf.cli", "solve", "--network", "network.json",
         "--loads", "loads.csv", "--prices", "prices.csv", "--out", "out"],
        cwd=case, env=env, capture_output=True, text=True, timeout=60, check=True)
    solve = Solve(1, None, 0.6)
    check_rounds([[_result(case / "out", done.stdout)]], {solve: inputs(case)},
                 {solve: [hour_optimum(inputs(case).net, [1e-5, 0.3, 0.2, 1e-5],
                                       inputs(case).prices[0], -0.6, 0.6)]})


# ---------------------------------------------------------------------------
# span arithmetic


def span(name, start, end, parent=-1, hour=None, attrs=None):
    return [name, start, end, parent, hour, attrs]


def test_self_time_subtracts_children():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 3.0, parent=0),
        span("c", 4.0, 8.0, parent=0),
        span("d", 5.0, 6.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", 0.0, 10.0), span("b", 2.0, 6.0, parent=0),
             span("c", 5.0, 7.0, parent=0), span("d", 9.0, 12.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_on_hand_built_spans():
    spans = [
        span("optimize.solve_hour", 0.0, 10.0, hour=0,
             attrs={"nodes": 3, "relaxations": 2, "incumbent_updates": 1}),
        # a relaxation solved cold after the warm path gave up
        span("lp.relax", 1.0, 4.0, parent=0, hour=0),
        span("lp.solve", 1.0, 4.0, parent=1, hour=0, attrs={"warm": True}),
        span("lp.warm", 1.0, 2.0, parent=2, hour=0, attrs={"factor_hit": False}),
        span("numpy.solve", 1.0, 1.5, parent=3, hour=0),
        span("lp.cold", 2.0, 4.0, parent=2, hour=0),
        span("lp.primal", 2.0, 3.5, parent=5, hour=0, attrs={"iterations": 0, "pivots": 7}),
        # a relaxation served from the memo
        span("lp.relax", 5.0, 5.5, parent=0, hour=0),
        span("optimize.physics", 6.0, 7.0, parent=0, hour=0, attrs={"accepted": True}),
        span("model.forest", 6.0, 6.25, parent=8, hour=0),
        span("optimize.physics", 7.0, 8.0, parent=0, hour=0, attrs={"accepted": False}),
    ]
    m = layer_metrics(spans)
    assert m["lp.relax_calls"] == 2
    assert m["lp.memo_hits"] == 1 and m["lp.memo_hit_ratio"] == 0.5
    assert m["lp.cold_fallbacks"] == 1 and m["lp.cold_s"] == pytest.approx(2.0)
    assert m["lp.factor_misses"] == 1 and m["lp.factor_hits"] == 0
    assert m["lp.refactor_s"] == pytest.approx(0.5)
    assert m["lp.warm_s"] == pytest.approx(0.5)
    assert m["lp.primal_cold_pivots"] == 7 and m["lp.primal_warm_pivots"] == 0
    assert m["optimize.physics_calls"] == 2 and m["optimize.physics_accept_ratio"] == 0.5
    assert m["optimize.physics_s"] == pytest.approx(1.75)
    assert m["optimize.nodes"] == 3
    assert m["optimize.hour_max_s"] == pytest.approx(10.0)
