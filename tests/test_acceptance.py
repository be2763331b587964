"""Acceptance gate: one test per shipped guarantee.

Run `pytest tests/test_acceptance.py -v -s` to get one summary line per
criterion with the measured quantity next to its tolerance. Solved day
problems are cached module-wide, so the expensive all-flexible case is
solved once no matter how many criteria consume it.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from forest_oracle import RadialTopologies, kirchhoff_count
from hour_oracle import enumerate_hour, solve_flows_dense
from oracle_lp import enumerate_optimum, random_program
from reconf.casegen import FixtureSpec, day_problem
from reconf.cli import main
from reconf.dcflow import solve_flows
from reconf.lp import OPTIMAL, UNBOUNDED, LinearProgram, PreparedLp
from reconf.model import is_spanning_forest, required_closed_flexible_count
from reconf.optimize import (
    DayProblem,
    DaySolution,
    ModelOptions,
    apply_epsilon_loads,
    evaluate_topology,
    solve_day,
)
from test_dcflow import random_forest

CASES = (1, 2, 3, 4)

_PROBLEMS = {}
_SOLVED: dict[int, tuple[DaySolution, float]] = {}
_TOPOLOGIES: dict[int, RadialTopologies] = {}


def _problem(case):
    if case not in _PROBLEMS:
        _PROBLEMS[case] = day_problem(FixtureSpec(case_id=case))
    return _PROBLEMS[case]


def _solved(case):
    """Day solution for a case plus the wall-clock seconds it took."""
    if case not in _SOLVED:
        start = time.perf_counter()
        solution = solve_day(_problem(case))
        _SOLVED[case] = (solution, time.perf_counter() - start)
    return _SOLVED[case]


def _topologies(case):
    """Every radial topology of a case, listed by the test-only oracle."""
    if case not in _TOPOLOGIES:
        _TOPOLOGIES[case] = RadialTopologies(_problem(case).net)
    return _TOPOLOGIES[case]


def _passed(name, detail):
    print(f"PASS {name}: {detail}")


def test_search_matches_enumeration_on_small_cases():
    """The solver's daily cost equals brute-force enumeration.

    Cases 1-3 keep the flexible set small enough to try every closed set
    of the required size per hour, so the enumeration total is an
    independent optimum the solver must reproduce within 1e-6 relative.
    """
    start = time.perf_counter()
    worst = 0.0
    for case in (1, 2, 3):
        problem = _problem(case)
        day, _ = _solved(case)
        oracle_total = 0.0
        for t in range(problem.horizon):
            loads = apply_epsilon_loads(problem.loads[t])
            oracle_total += enumerate_hour(problem.net, loads,
                                           problem.prices[t]).cost
        rel = abs(day.total_cost - oracle_total) / abs(oracle_total)
        worst = max(worst, rel)
        assert rel <= 1e-6
    elapsed = time.perf_counter() - start + sum(
        _SOLVED[c][1] for c in (1, 2, 3))
    assert elapsed < 30.0
    _passed("oracle equivalence",
            f"cases 1-3 x 24 h, max rel diff {worst:.2e} <= 1e-6, "
            f"{elapsed:.1f} s < 30 s")


def test_radial_topology_counts_match_kirchhoff():
    """The oracle's brute-force listing finds Kirchhoff's number of forests.

    The matrix-tree determinant of the contracted graph counts 11, 46,
    214 and 16,017 radial topologies for cases 1-4; listing every closed
    set of the required size must find exactly that many radial ones.
    """
    counts = {1: 11, 2: 46, 3: 214, 4: 16_017}
    for case, count in counts.items():
        assert kirchhoff_count(_problem(case).net) == count
        assert len(_topologies(case)) == count
    _passed("forest counts", "cases 1-4: 11 / 46 / 214 / 16,017 listed = "
            "Kirchhoff's determinant")


def test_case4_matches_forest_oracle():
    """Every case-4 hour is the optimum of an oracle sharing no solver code.

    tests/forest_oracle.py prices all 16,017 radial topologies by the
    substation feeding each bus and confirms the cheapest with batched
    dense susceptance solves. All 24 hours of the solved day must match
    it to 1e-6 relative, and so must hours 8, 15 and 20 at +-0.2 rad,
    where angle bounds bind.
    """
    problem = _problem(4)
    oracle = _topologies(4)
    day, _ = _solved(4)
    worst = 0.0
    for t, hour in enumerate(day.hours):
        best = oracle.optimum(problem.loads[t], problem.prices[t], 0.6)
        rel = abs(hour.cost - best[0]) / best[0]
        worst = max(worst, rel)
        assert rel <= 1e-6
    hours = [7, 14, 19]
    tight = ModelOptions(angle_lo=-0.2, angle_hi=0.2)
    solved = solve_day(DayProblem(problem.net, problem.loads[hours],
                                  problem.prices[hours]), tight)
    for t, hour, want in zip(hours, solved.hours,
                             (26.258849, 49.128387, 91.818209)):
        best = oracle.optimum(problem.loads[t], problem.prices[t], 0.2)
        assert hour.cost == pytest.approx(best[0], rel=1e-6)
        assert hour.cost == pytest.approx(want, abs=5e-7)
    _passed("case-4 oracle",
            f"24 hours within {worst:.1e} <= 1e-6 of the forest oracle; "
            f"hours 8, 15, 20 at +-0.2 rad match it and 26.258849 / "
            f"49.128387 / 91.818209")


def test_wider_switch_sets_never_cost_more():
    """Daily cost is non-increasing as more lines become switchable.

    Cases 1-4 nest their flexible sets over identical loads and prices,
    so every schedule feasible for a case stays feasible for the next;
    the optimizer must convert that freedom into cost reductions.
    """
    costs = {case: _solved(case)[0].total_cost for case in CASES}
    for narrow, wide in ((1, 2), (2, 3), (3, 4)):
        assert costs[wide] <= costs[narrow] + 1e-6
    cuts = [100.0 * (costs[1] - costs[c]) / costs[1] for c in (2, 3, 4)]
    chain = " >= ".join(f"{costs[c]:.6f}" for c in CASES)
    _passed("flexibility monotonicity",
            f"{chain}; reductions vs case 1: "
            f"{cuts[0]:.3f}% / {cuts[1]:.3f}% / {cuts[2]:.3f}%")


def test_heavier_loads_cost_more():
    """Uniformly scaling every load up raises the optimal daily cost.

    Strict increase, and at least proportional growth: serving alpha
    times the demand from the same prices can never cost less than
    alpha times the base optimum.
    """
    problem = _problem(1)
    costs = {1.0: _solved(1)[0].total_cost}
    for alpha in (1.1, 1.2):
        costs[alpha] = solve_day(
            DayProblem(problem.net, problem.loads * alpha, problem.prices)).total_cost
    assert costs[1.0] < costs[1.1] < costs[1.2]
    for alpha in (1.1, 1.2):
        assert costs[alpha] >= alpha * costs[1.0] - 1e-6
    _passed("load monotonicity",
            f"{costs[1.0]:.6f} < {costs[1.1]:.6f} < {costs[1.2]:.6f}, "
            f"both >= alpha * base - 1e-6")


def test_tree_flows_match_dense_solves():
    """Tree-traversal flows agree with a dense linear solve to 1e-9.

    1,000 random spanning forests of up to 100 buses: per-line flow
    agreement, substation injections balancing total load, and the
    flow-angle law on every closed line.
    """
    rng = np.random.default_rng(2024)
    worst_flow = worst_balance = worst_law = 0.0
    for _ in range(1000):
        net, loads = random_forest(rng)
        closed = {line.id for line in net.lines}
        tree = solve_flows(net, closed, loads)
        dense = solve_flows_dense(net, closed, loads)
        for line in net.lines:
            worst_flow = max(worst_flow,
                             abs(tree.flows[line.id] - dense.flows[line.id]))
            drop = (tree.angles[line.from_bus]
                    - tree.angles[line.to_bus]) / line.reactance
            worst_law = max(worst_law, abs(tree.flows[line.id] - drop))
        balance = abs(sum(tree.injections.values()) - loads.sum())
        worst_balance = max(worst_balance,
                            balance / max(1.0, abs(loads.sum())))
    assert worst_flow <= 1e-9
    assert worst_balance <= 1e-9
    assert worst_law <= 1e-9
    _passed("physics suite",
            f"1000 forests: flow diff {worst_flow:.1e}, balance "
            f"{worst_balance:.1e}, flow-law residual {worst_law:.1e}, "
            f"all <= 1e-9")


def test_every_returned_hour_is_feasible():
    """Every hour of every solved case satisfies the model word for word.

    Spanning forest, exact closed-switch count, thermal and angle
    limits, open switches carrying exactly zero flow, and closed
    switches obeying the flow-angle law within 1e-6.
    """
    opts = ModelOptions()
    checked = 0
    for case in CASES:
        net = _problem(case).net
        k_star = required_closed_flexible_count(net)
        always = {line.id for line in net.nonflexible_lines}
        day, _ = _solved(case)
        for hour in day.hours:
            assert is_spanning_forest(net, always | hour.closed_flexible())
            assert sum(hour.statuses.values()) == k_star
            assert np.all(hour.angles >= opts.angle_lo - 1e-6)
            assert np.all(hour.angles <= opts.angle_hi + 1e-6)
            for line in net.lines:
                flow = hour.flows.get(line.id, 0.0)
                if line.flexible and hour.statuses[line.id] == 0:
                    assert flow == 0.0
                    continue
                assert abs(flow) <= line.rating + 1e-6
                drop = (hour.angles[line.from_bus]
                        - hour.angles[line.to_bus]) / line.reactance
                assert abs(flow - drop) <= 1e-6
            checked += 1
    _passed("milp feasibility",
            f"{checked} hour solutions pass forest, cardinality, limit, "
            f"and switch-status checks")


def test_simplex_matches_vertex_oracle():
    """Simplex agrees with brute-force vertex enumeration on 500 LPs.

    Random programs are small enough (at most 6 variables and 6 rows)
    to enumerate every basic point; classifications must agree,
    optimal objectives must match within 1e-6 and optimal values lie
    within their bounds to 1e-7. Unboundedness cannot
    arise under finite bounds, so it is probed directly with an
    improving ray.
    """
    rng = np.random.default_rng(90125)
    optima = infeasible = 0
    for _ in range(500):
        c, rows, senses, rhs, lo, hi = random_program(rng)
        prog = LinearProgram(objective=list(c), lower=list(lo), upper=list(hi))
        for row, sense, b in zip(rows, senses, rhs):
            prog.add_row(sense, b, row)
        out = PreparedLp(prog).solve()[0]
        status, best = enumerate_optimum(c, rows, senses, rhs, lo, hi)
        assert out.status == status
        if status == OPTIMAL:
            optima += 1
            assert out.objective == pytest.approx(best, rel=1e-6, abs=1e-6)
            assert np.all(out.values >= lo - 1e-7)
            assert np.all(out.values <= hi + 1e-7)
        else:
            infeasible += 1
    assert optima > 100 and infeasible > 20  # both classes exercised
    ray = LinearProgram(objective=[-1.0], lower=[0.0], upper=[np.inf])
    assert PreparedLp(ray).solve()[0].status == UNBOUNDED
    _passed("lp correctness",
            f"500 random programs: {optima} optimal, {infeasible} "
            f"infeasible, all matching; unbounded ray classified")


def test_cheapest_substation_attracts_all_transferable_load():
    """Price differences alone steer the topology when nothing binds.

    With ratings scaled far above any flow, the midday optimum (middle
    substation cheapest) must hand that substation every megawatt any
    feasible topology could give it; the early-morning optimum (first
    substation cheapest) must not.
    """
    problem = day_problem(FixtureSpec(case_id=1, rating_scale=20.0))
    net = problem.net
    k_star = required_closed_flexible_count(net)
    flex = sorted(line.id for line in net.flexible_lines)
    midday, morning = 11, 6
    assert int(np.argmin(problem.prices[midday])) == 1
    assert int(np.argmin(problem.prices[morning])) == 0
    middle_sub = net.substations[1]

    def optimum_vs_reachable(t):
        loads = apply_epsilon_loads(problem.loads[t])
        prices = problem.prices[t]
        best = enumerate_hour(net, loads, prices)
        reachable = max(
            candidate.injections[middle_sub]
            for combo in combinations(flex, k_star)
            if (candidate := evaluate_topology(net, combo, loads, prices))
            is not None)
        return best.injections[middle_sub], reachable

    got_midday, max_midday = optimum_vs_reachable(midday)
    got_morning, max_morning = optimum_vs_reachable(morning)
    assert got_midday == pytest.approx(max_midday, abs=1e-6)
    assert got_morning < max_morning - 1e-6
    _passed("behavioral",
            f"hour 12 serves {got_midday:.4f} MW from the cheap substation "
            f"= max transferable {max_midday:.4f}; hour 7 serves "
            f"{got_morning:.4f} < {max_morning:.4f}")


def test_end_to_end_pipeline(tmp_path):
    """generate -> validate -> solve -> report on the all-flexible case.

    The full command pipeline finishes under 60 s with exit code 0, and
    a repeat solve reproduces every output byte for byte (summary.txt
    carries wall-clock timing and is deliberately outside the
    comparison).
    """
    start = time.perf_counter()
    case = tmp_path / "case4"
    assert main(["generate", "--case", "4", "--out", str(case)]) == 0
    assert main(["validate", "--network", str(case / "network.json")]) == 0
    solve_argv = ["solve", "--network", str(case / "network.json"),
                  "--loads", str(case / "loads.csv"),
                  "--prices", str(case / "prices.csv")]
    first = tmp_path / "run1"
    assert main(solve_argv + ["--out", str(first)]) == 0
    assert main(["report", str(first), "--out", str(tmp_path / "rep")]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    second = tmp_path / "run2"
    assert main(solve_argv + ["--out", str(second)]) == 0
    for name in ("schedule.csv", "cost.csv", "loading.csv", "run.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    _passed("end to end",
            f"case-4 pipeline {elapsed:.1f} s < 60 s, exit 0, outputs "
            f"byte-stable across two runs")
