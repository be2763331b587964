import concurrent.futures
import hashlib
import os
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hour_oracle import enumerate_hour
import reconf.forests
from reconf import optimize
from reconf.casegen import FixtureSpec, day_problem
from reconf.dcflow import solve_flows
from reconf.forests import (
    _ENUMERATION_BYTES,
    _contracted_edges,
    _forest_bytes,
    _radial_forests,
    _spanning_tree_count,
)
from reconf.lp import LinearProgram
from reconf.model import Bus, Line, Network, StructureError, is_spanning_forest
from reconf.optimize import (
    DayProblem,
    InfeasibleHourError,
    ModelOptions,
    NodeLimitError,
    SolverOptions,
    _add_hour,
    _Milp,
    _solve_milp,
    apply_epsilon_loads,
    build_hour_model,
    evaluate_topology,
    solve_day,
    solve_hour,
)


def _net(buses, lines):
    return Network(tuple(buses), tuple(lines), base_mva=100.0)


def _bus(bid, substation=False):
    return Bus(bid, f"B{bid}", substation)


def _line(lid, a, b, x=0.05, rating=10.0, flexible=True):
    return Line(lid, a, b, x, rating, flexible)


def two_sub_net(rating_a=10.0, rating_b=10.0):
    """Substations 0 and 1 compete for the single load bus 2."""
    return _net([_bus(0, True), _bus(1, True), _bus(2)],
                [_line("s1-b", 0, 2, rating=rating_a),
                 _line("s2-b", 1, 2, rating=rating_b)])


def two_sub_loads(demand=8.0):
    return np.array([1e-5, 1e-5, demand])


def solve_two_sub(prices, rating_a=10.0, rating_b=10.0, demand=8.0):
    net = two_sub_net(rating_a, rating_b)
    model = build_hour_model(net, two_sub_loads(demand), prices)
    return solve_hour(model)


class TestOptions:
    def test_angle_bounds_must_be_ordered(self):
        with pytest.raises(ValueError, match="angle_lo"):
            ModelOptions(angle_lo=0.6, angle_hi=0.6)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError, match="epsilon"):
            ModelOptions(epsilon=0.0)

    def test_gap_must_be_positive(self):
        with pytest.raises(ValueError, match="gap"):
            SolverOptions(gap=-1e-9)


class TestEpsilonLoads:
    def test_zeros_become_epsilon(self):
        out = apply_epsilon_loads([0.0, 5.0, 0.0])
        assert out.tolist() == [1e-5, 5.0, 1e-5]

    def test_positive_loads_unchanged(self):
        out = apply_epsilon_loads([0.5, 5.0, 2.5])
        assert out.tolist() == [0.5, 5.0, 2.5]

    def test_all_zero(self):
        assert apply_epsilon_loads([0.0, 0.0]).tolist() == [1e-5, 1e-5]

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            apply_epsilon_loads([-1.0, 2.0])

    def test_input_not_mutated(self):
        loads = np.array([0.0, 1.0])
        apply_epsilon_loads(loads)
        assert loads[0] == 0.0


def relaxation(model):
    """The hour's relaxation as _Milp builds it, with its column maps
    (sub_col, flow_col, j_col)."""
    milp = _Milp(model)
    lp = LinearProgram()
    sub_col, flow_col, j_col = _add_hour(lp, model.net, model.loads, model.prices)
    assert lp == milp.lp and j_col == milp.j_col
    return milp.lp, sub_col, flow_col, j_col


class TestBuildHourModel:
    def test_tiny_model_shape(self):
        net = two_sub_net()
        model = build_hour_model(net, two_sub_loads(), [10.0, 20.0])
        lp = _Milp(model).lp
        # 2 substation injections + 2 line flows + 2 statuses
        assert lp.num_vars == 6
        assert model.k_star == 1
        # balance x3, rating pairs x2, one count row
        assert lp.num_rows == 8

    def test_columns_are_injections_flows_and_statuses(self):
        # two_sub_net with the second line pointing into its substation
        net = _net([_bus(0, True), _bus(1, True), _bus(2)],
                   [_line("s1-b", 0, 2), _line("b-s2", 2, 1)])
        model = build_hour_model(net, [1e-5, 2e-5, 8.0], [10.0, 20.0])
        lp, sub_col, flow_col, j_col = relaxation(model)
        cols = list(sub_col.values()) + list(flow_col.values()) + list(j_col.values())
        assert sorted(cols) == list(range(lp.num_vars))
        for col in j_col.values():
            assert (lp.lower[col], lp.upper[col]) == (0.0, 1.0)
        # substations are roots: each injects at least its own bus's load,
        # and a switchable line's flow only leaves a substation (it is
        # otherwise bounded by its gated rating rows alone)
        assert {b: (lp.lower[c], lp.upper[c]) for b, c in sub_col.items()} == {
            0: (1e-5, np.inf), 1: (2e-5, np.inf)}
        assert {lid: (lp.lower[c], lp.upper[c]) for lid, c in flow_col.items()} == {
            "s1-b": (0.0, np.inf), "b-s2": (-np.inf, 0.0)}

    def test_angle_bounds_leave_relaxation_unchanged(self):
        # angle bounds reach the search only through evaluate_topology
        net = two_sub_net()
        wide = build_hour_model(net, two_sub_loads(), [10.0, 20.0])
        tight = build_hour_model(net, two_sub_loads(), [10.0, 20.0],
                                 ModelOptions(angle_lo=-0.4, angle_hi=0.5))
        assert _Milp(tight).lp == _Milp(wide).lp
        assert (tight.opts.angle_lo, tight.opts.angle_hi) == (-0.4, 0.5)

    def test_static_network_has_no_status_columns(self):
        net = _net([_bus(0, True), _bus(1), _bus(2)],
                   [_line("a", 0, 1, flexible=False),
                    _line("b", 1, 2, flexible=False)])
        model = build_hour_model(net, [1e-5, 1.0, 1.0], [10.0])
        lp, sub_col, flow_col, j_col = relaxation(model)
        assert j_col == {}
        assert model.k_star == 0
        # one injection and two rating-bounded flows, balance rows only;
        # line a leaves the substation, so its flow is not negative
        assert lp.num_vars == 3
        assert lp.num_rows == 3
        assert (lp.lower[sub_col[0]], lp.upper[sub_col[0]]) == (1e-5, np.inf)
        assert {lid: (lp.lower[c], lp.upper[c]) for lid, c in flow_col.items()} == {
            "a": (0.0, 10.0), "b": (-10.0, 10.0)}

    def test_wrong_load_count_rejected(self):
        net = two_sub_net()
        with pytest.raises(ValueError, match="loads"):
            build_hour_model(net, [1.0, 2.0], [10.0, 20.0])

    def test_wrong_price_count_rejected(self):
        net = two_sub_net()
        with pytest.raises(ValueError, match="prices"):
            build_hour_model(net, two_sub_loads(), [10.0])

    def test_impossible_count_rejected(self):
        net = _net([_bus(0, True), _bus(1)],
                   [_line("a", 0, 1, flexible=False),
                    _line("b", 0, 1, flexible=False)])
        with pytest.raises(StructureError):
            build_hour_model(net, [1e-5, 1.0], [10.0])


class TestSolveHour:
    def test_cheap_substation_wins(self):
        sol = solve_two_sub([10.0, 20.0])
        assert sol.statuses == {"s1-b": 1, "s2-b": 0}
        assert sol.cost == pytest.approx(80.0003)

    def test_rating_blocks_cheap_path(self):
        sol = solve_two_sub([10.0, 20.0], rating_a=5.0)
        assert sol.statuses == {"s1-b": 0, "s2-b": 1}
        assert sol.cost == pytest.approx(160.0003)

    def test_open_line_carries_no_flow(self):
        sol = solve_two_sub([10.0, 20.0])
        assert sol.flows["s2-b"] == 0.0

    def test_closed_line_obeys_flow_law(self):
        sol = solve_two_sub([10.0, 20.0])
        dtheta = sol.angles[0] - sol.angles[2]
        assert sol.flows["s1-b"] == pytest.approx(dtheta / 0.05, abs=1e-9)

    def test_statuses_span_the_network(self):
        sol = solve_two_sub([20.0, 10.0])
        net = two_sub_net()
        assert is_spanning_forest(net, {l for l, on in sol.statuses.items() if on})

    def test_injections_balance_loads(self):
        sol = solve_two_sub([10.0, 20.0])
        assert sum(sol.injections.values()) == pytest.approx(8.0 + 2e-5)

    def test_near_zero_loads(self):
        net = two_sub_net()
        model = build_hour_model(net, [1e-5, 1e-5, 1e-5], [10.0, 20.0])
        sol = solve_hour(model)
        assert sol.cost == pytest.approx(1e-5 * (10 + 10 + 20), rel=1e-6)
        assert sum(sol.statuses.values()) == 1

    def test_infeasible_when_all_ratings_too_small(self):
        net = two_sub_net(rating_a=5.0, rating_b=5.0)
        model = build_hour_model(net, two_sub_loads(8.0), [10.0, 20.0])
        with pytest.raises(InfeasibleHourError):
            solve_hour(model)

    def test_seed_does_not_change_answer(self):
        # the expensive seed is the first incumbent; the search replaces it
        net = two_sub_net()
        model = build_hour_model(net, two_sub_loads(), [10.0, 20.0])
        seeded, seeded_stats = _solve_milp(model, SolverOptions(),
                                           seeds=[{"s1-b": 0, "s2-b": 1}])
        cold, cold_stats = _solve_milp(model, SolverOptions())
        assert seeded.statuses == cold.statuses == {"s1-b": 1, "s2-b": 0}
        assert seeded.cost == cold.cost
        assert seeded_stats.incumbent_updates == cold_stats.incumbent_updates + 1

    def test_stats_reported(self):
        net = two_sub_net()
        model = build_hour_model(net, two_sub_loads(), [10.0, 20.0])
        sol, stats = _solve_milp(model, SolverOptions())
        assert stats.nodes >= 0
        assert stats.relaxations >= 1
        assert stats.incumbent_updates >= 1
        assert stats.best_bound == pytest.approx(sol.cost, rel=1e-6)

    def test_enumerated_hour_stats(self):
        sol = solve_two_sub([10.0, 20.0])
        assert (sol.stats.nodes, sol.stats.relaxations) == (0, 0)
        assert sol.stats.incumbent_updates == 1
        assert sol.stats.best_bound == sol.cost


def double_bus_net():
    """Two load buses, each reachable from a tight cheap and a roomy
    expensive substation; serving either bus from the cheap side is
    thermally impossible, which leaves the relaxation fractional."""
    buses = [_bus(0, True), _bus(1, True), _bus(2), _bus(3)]
    lines = [_line("s1-b1", 0, 2, rating=3.0), _line("s1-b2", 0, 3, rating=3.0),
             _line("s2-b1", 1, 2, rating=10.0), _line("s2-b2", 1, 3, rating=10.0)]
    return _net(buses, lines)


class TestBranchAndBound:
    def test_thermal_limits_force_expensive_side(self):
        net = double_bus_net()
        loads = np.array([1e-5, 1e-5, 8.0, 8.0])
        model = build_hour_model(net, loads, [10.0, 20.0])
        sol = solve_hour(model)
        assert sol.statuses == {"s1-b1": 0, "s1-b2": 0, "s2-b1": 1, "s2-b2": 1}
        oracle = enumerate_hour(net, loads, [10.0, 20.0])
        assert sol.cost == pytest.approx(oracle.cost, rel=1e-9)

    def test_node_limit_reported(self):
        net = double_bus_net()
        loads = np.array([1e-5, 1e-5, 8.0, 8.0])
        model = build_hour_model(net, loads, [10.0, 20.0])
        with pytest.raises(NodeLimitError):
            _solve_milp(model, SolverOptions(max_nodes=1))

    def test_loaded_substations_close_at_the_root(self):
        # each substation serves at least its own load: the relaxation may
        # not let bus 19 import it from the cheaper substation 0
        loads = np.linspace(0.005, 0.02, 20)
        model = build_hour_model(grid_net(), loads, [10.0, 12.0])
        sol, stats = _solve_milp(model, SolverOptions(max_nodes=1_000))
        assert sol.cost == pytest.approx(
            10 * loads[:19].sum() + 12 * loads[19], rel=1e-9)
        assert stats.nodes == 0

    def test_polish_skips_swaps_that_break_radiality(self, monkeypatch):
        # the grid hour above: of the 236 candidates single swaps give,
        # 159 are no spanning forest and need no physics
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return evaluate_topology(*args, **kwargs)

        monkeypatch.setattr(optimize, "evaluate_topology", counted)
        loads = np.linspace(0.005, 0.02, 20)
        model = build_hour_model(grid_net(), loads, [10.0, 12.0])
        sol, stats = _solve_milp(model, SolverOptions(max_nodes=1_000))
        assert sol.cost == pytest.approx(
            10 * loads[:19].sum() + 12 * loads[19], rel=1e-9)
        assert stats.nodes == 0
        assert len(calls) < 236
        assert all(is_spanning_forest(model.net, set(closed)) for closed in calls)

    def test_substation_join_pruned(self):
        # the only size-2 closed sets avoiding a substation bridge are
        # one line per bus; closing both s-lines of one bus never appears
        net = double_bus_net()
        loads = np.array([1e-5, 1e-5, 2.0, 2.0])
        model = build_hour_model(net, loads, [10.0, 20.0])
        sol = solve_hour(model)
        assert sol.statuses == {"s1-b1": 1, "s1-b2": 1, "s2-b1": 0, "s2-b2": 0}
        assert sol.cost == pytest.approx(10 * (4 + 1e-5) + 20 * 1e-5)


def long_cheap_feeder_net():
    """A cheap substation whose only route is a long high-reactance chain,
    against a pricier one with short low-reactance ties to every bus."""
    buses = [_bus(0, True), _bus(1, True), _bus(2), _bus(3), _bus(4)]
    lines = [_line("c02", 0, 2, x=0.08), _line("c23", 2, 3, x=0.08),
             _line("c34", 3, 4, x=0.08), _line("e12", 1, 2, x=0.01),
             _line("e13", 1, 3, x=0.01), _line("e14", 1, 4, x=0.01)]
    return _net(buses, lines)


class TestAngleBoundsEnforcedByPhysics:
    """The relaxation carries no angles; exact physics must reject every
    candidate that breaks an angle bound, so these optima bind on angles."""

    def test_cheapest_radial_topology_breaks_the_angle_bound(self):
        net = long_cheap_feeder_net()
        loads = np.array([1e-5, 1e-5, 2.0, 2.0, 2.0])
        prices = [10.0, 20.0]
        unbounded = enumerate_hour(net, loads, prices, ModelOptions(-10.0, 10.0))
        # the chain from the cheap substation drops 0.96 rad at its end
        assert unbounded.statuses == {"c02": 1, "c23": 1, "c34": 1,
                                      "e12": 0, "e13": 0, "e14": 0}
        assert evaluate_topology(net, unbounded.closed_flexible(), loads,
                                 prices) is None
        sol = solve_hour(build_hour_model(net, loads, prices))
        oracle = enumerate_hour(net, loads, prices)
        assert sol.statuses == oracle.statuses
        assert sol.cost == pytest.approx(oracle.cost, rel=1e-9)
        assert sol.cost > unbounded.cost + 1.0
        assert np.all(np.abs(sol.angles) <= 0.6 + 1e-9)

    @pytest.mark.parametrize("bound, daily_cost", [
        (0.29, 899.504618), (0.25, 901.102101), (0.22, 903.695418)])
    def test_case3_daily_cost_under_tight_angles(self, bound, daily_cost):
        problem = day_problem(FixtureSpec(case_id=3))
        opts = ModelOptions(angle_lo=-bound, angle_hi=bound)
        day = solve_day(problem, opts)
        assert day.total_cost == pytest.approx(daily_cost, rel=1e-6)
        if bound == 0.22:
            for t, hour in enumerate(day.hours):
                oracle = enumerate_hour(
                    problem.net, apply_epsilon_loads(problem.loads[t]),
                    problem.prices[t], opts)
                assert hour.cost == pytest.approx(oracle.cost, rel=1e-6)

    def test_case3_infeasible_at_tightest_angles(self):
        problem = day_problem(FixtureSpec(case_id=3))
        with pytest.raises(InfeasibleHourError) as info:
            solve_day(problem, ModelOptions(angle_lo=-0.2, angle_hi=0.2))
        assert info.value.hour == 14
        assert sorted(info.value.partial) == list(range(14))


def branch_and_bound(model, opts=None):
    """The hour's optimum from the branch and bound, whatever the count."""
    return _solve_milp(model, opts or SolverOptions())[0]


class TestBranchAndBoundAgreesWithEnumeration:
    """Every shipped case now solves by enumeration, so the branch and
    bound is checked against it directly, hour by hour."""

    def test_case3_day_under_tight_angles(self):
        problem = day_problem(FixtureSpec(case_id=3))
        opts = ModelOptions(angle_lo=-0.22, angle_hi=0.22)
        forests = _radial_forests(problem.net)
        for t in range(problem.horizon):
            model = build_hour_model(problem.net,
                                     apply_epsilon_loads(problem.loads[t]),
                                     problem.prices[t], opts)
            ranked = solve_hour(model, forests=forests)
            assert branch_and_bound(model).cost == pytest.approx(
                ranked.cost, rel=1e-9)

    @pytest.mark.parametrize("hour", [8, 15, 20])
    def test_case4_hours(self, hour):
        problem = day_problem(FixtureSpec(case_id=4))
        model = build_hour_model(problem.net,
                                 apply_epsilon_loads(problem.loads[hour - 1]),
                                 problem.prices[hour - 1])
        assert branch_and_bound(model).cost == pytest.approx(
            solve_hour(model).cost, rel=1e-9)


def radial_closed_sets(net):
    """Brute force: every closed flexible set that leaves a spanning forest."""
    always = {l.id for l in net.nonflexible_lines}
    flex = sorted(l.id for l in net.flexible_lines)
    k = len(net.buses) - len(net.substations) - len(always)
    return [frozenset(combo) for combo in combinations(flex, k)
            if is_spanning_forest(net, always | set(combo))]


def assignment_ids(forests):
    """Each forest's assignment id, rebuilt from the forests grouped by
    assignment."""
    ids = np.empty(forests.count, dtype=np.intp)
    ids[forests.grouped] = np.repeat(np.arange(len(forests.starts) - 1),
                                     np.diff(forests.starts))
    return ids


def forest_labels(forests):
    """Per bus and forest, the feeding substation's position, rebuilt from
    the grouped forests."""
    return forests.assignments[:, assignment_ids(forests)]


def layouts(forests):
    """Every listed forest's parent lines and depths, per bus and forest."""
    return forests.layout(np.arange(forests.count))


def listed_closed_sets(net, forests):
    """Each listed forest's closed flexible lines, read off its parent lines.

    Also walks every bus's parent lines to its substation: the walk must
    use lines at the bus, its length must be the laid-out depth and its
    end the rebuilt label. The distinct assignments must all be used and
    differ from each other.
    """
    subs = {b: s for s, b in enumerate(net.substations)}
    labels = forest_labels(forests)
    parent_line, depths = layouts(forests)
    out = []
    for f in range(forests.count):
        lines = [net.lines[k] for k in parent_line[:, f] if k >= 0]
        assert sum(1 for k in parent_line[:, f] if k < 0) == len(net.substations)
        assert is_spanning_forest(net, {l.id for l in lines})
        out.append(frozenset(l.id for l in lines if l.flexible))
        known = {b: (0, s) for b, s in subs.items()}
        for b in range(net.n_buses):
            path = []
            while b not in known:
                path.append(b)
                line = net.lines[parent_line[b, f]]
                assert b in (line.from_bus, line.to_bus)
                b = line.to_bus if line.from_bus == b else line.from_bus
            depth, label = known[b]
            for bus in reversed(path):
                depth += 1
                known[bus] = (depth, label)
        assert [known[b] for b in range(net.n_buses)] == list(
            zip(depths[:, f].tolist(), labels[:, f].tolist()))
    columns = {tuple(col) for col in forests.assignments.T.tolist()}
    assert len(columns) == forests.assignments.shape[1]
    assert sorted(forests.grouped.tolist()) == list(range(forests.count))
    assert set(assignment_ids(forests).tolist()) == set(range(len(columns)))
    return out


def wide_case4():
    """Case 4 with 50-bus feeders and two more ties: 398,545 radial
    topologies over 150 buses. Reactances shrink with the square of the
    feeder length to keep the angle drops of case 4."""
    scale = (13 / 50) ** 2
    problem = day_problem(FixtureSpec(case_id=4, feeder_size=50,
                                      reactance_range=(0.01 * scale, 0.1 * scale)))
    net = problem.net
    extra = [Line("t1", 3, 53, 0.05, 1.0, True),
             Line("t2", 61, 109, 0.05, 1.0, True)]
    net = Network(net.buses, net.lines + tuple(extra), net.base_mva)
    return DayProblem(net, problem.loads, problem.prices)


def tied_case4():
    """Case 4 with two more ties, rated as its own, between feeders 1 and
    2 near and far from their substations: 415,081 radial topologies over
    39 buses."""
    problem = day_problem(FixtureSpec(case_id=4))
    net = problem.net
    rating = net.lines[-1].rating
    extra = [Line("t1", 3, 16, 0.05, rating, True),
             Line("t2", 11, 24, 0.05, rating, True)]
    net = Network(net.buses, net.lines + tuple(extra), net.base_mva)
    return DayProblem(net, problem.loads, problem.prices)


@pytest.fixture(scope="module")
def wide_listed():
    problem = wide_case4()
    return problem, _radial_forests(problem.net)


class TestForestSet:
    """Counting and listing on graphs that contraction must get right."""

    def check(self, net, count):
        forests = _radial_forests(net)
        assert forests.count == count
        listed = listed_closed_sets(net, forests)
        assert sorted(map(sorted, listed)) == sorted(map(sorted, radial_closed_sets(net)))
        flex = {l.id for l in net.flexible_lines}
        opened = [sorted(flex - closed) for closed in listed]
        assert opened == sorted(opened)  # the tie rule's order
        loads = apply_epsilon_loads([0.0] * len(net.buses))
        loads[[b.id for b in net.buses if not b.is_substation]] = 1.0
        prices = [10.0 + 5.0 * s for s in range(len(net.substations))]
        sol = solve_hour(build_hour_model(net, loads, prices), forests=forests)
        assert sol.cost == pytest.approx(
            enumerate_hour(net, loads, prices).cost, rel=1e-12)
        return forests

    def test_parallel_lines(self):
        net = _net([_bus(0, True), _bus(1), _bus(2)],
                   [_line("a", 0, 1), _line("b", 0, 1), _line("c", 1, 2),
                    _line("d", 0, 2)])
        # Laplacian cofactor [[3, -1], [-1, 2]]
        self.check(net, 5)

    def test_chain_of_always_closed_lines(self):
        net = _net([_bus(0, True), _bus(1), _bus(2), _bus(3), _bus(4, True)],
                   [_line("a", 1, 2, flexible=False),
                    _line("b", 2, 3, flexible=False),
                    _line("s0", 0, 1), _line("s4", 3, 4), _line("t", 2, 4)])
        forests = self.check(net, 3)
        # open {s0, s4}, {s0, t}, {s4, t}: bus 3 fed via t, s4, then s0
        assert layouts(forests)[1][3].tolist() == [2, 1, 3]

    def test_flexible_line_with_joined_ends(self):
        net = _net([_bus(0, True), _bus(1), _bus(2), _bus(3)],
                   [_line("a", 0, 1, flexible=False),
                    _line("b", 1, 2, flexible=False),
                    _line("loop", 0, 2), _line("c", 2, 3), _line("d", 0, 3)])
        forests = self.check(net, 2)
        loop = [l.id for l in net.lines].index("loop")
        assert not np.any(layouts(forests)[0] == loop)

    def test_single_radial_topology(self):
        net = _net([_bus(0, True), _bus(1), _bus(2)],
                   [_line("a", 0, 1, flexible=False),
                    _line("b", 1, 2, flexible=False)])
        forests = self.check(net, 1)
        assert forest_labels(forests).tolist() == [[0], [0], [0]]
        assert layouts(forests)[1].tolist() == [[0], [1], [2]]

    def test_no_radial_topology_is_infeasible(self):
        # bus 2 has no line at all
        net = _net([_bus(0, True), _bus(1), _bus(2)],
                   [_line("a", 0, 1), _line("b", 0, 1)])
        assert _radial_forests(net).count == 0
        with pytest.raises(InfeasibleHourError):
            solve_hour(build_hour_model(net, [0.1, 1.0, 1.0], [10.0]))

    def test_many_topologies_go_to_branch_and_bound(self):
        net = grid_net()
        forests = _radial_forests(net)
        n_nodes, edges = _contracted_edges(net)
        assert _forest_bytes(net, n_nodes, edges, forests.count) > _ENUMERATION_BYTES
        assert not forests.listed

    def test_more_topologies_that_fit_the_budget_are_listed(self):
        # 415,081 radial topologies over 39 buses: more than the 400,000
        # the count once allowed, but listing them fits the byte budget
        problem = tied_case4()
        forests = _radial_forests(problem.net)
        assert forests.count == 415_081 and forests.listed
        for hour in (3, 4):
            model = build_hour_model(problem.net,
                                     apply_epsilon_loads(problem.loads[hour - 1]),
                                     problem.prices[hour - 1])
            assert solve_hour(model, forests=forests).cost == pytest.approx(
                _solve_milp(model, SolverOptions())[0].cost, rel=1e-9)

    def test_many_buses_few_topologies(self):
        # case 3 with 60-bus feeders: 214 topologies over 180 buses and
        # 181 lines, so the layout needs int16; reactances shrink with the
        # square of the feeder length to keep the angle drops of case 3
        spec = FixtureSpec(case_id=3, feeder_size=60,
                           reactance_range=(0.01 * (13 / 60) ** 2,
                                            0.1 * (13 / 60) ** 2))
        problem = day_problem(spec)
        forests = _radial_forests(problem.net)
        assert forests.count == 214 and forests.listed
        assert layouts(forests)[0].dtype == np.int16
        listed = listed_closed_sets(problem.net, forests)
        assert sorted(map(sorted, listed)) == sorted(
            map(sorted, radial_closed_sets(problem.net)))
        model = build_hour_model(problem.net, apply_epsilon_loads(problem.loads[19]),
                                 problem.prices[19])
        assert solve_hour(model, forests=forests).cost == pytest.approx(
            branch_and_bound(model).cost, rel=1e-9)

    def test_many_buses_over_the_byte_budget_go_to_branch_and_bound(
            self, wide_listed, monkeypatch):
        # 398,545 topologies over 150 buses: each is held as its open set
        # and assignment id, so listing them fits the budget; a budget
        # below the estimate sends the network to the branch and bound
        problem, forests = wide_listed
        assert forests.count == 398_545
        assert forests.listed
        n_nodes, edges = _contracted_edges(problem.net)
        estimate = _forest_bytes(problem.net, n_nodes, edges, forests.count)
        monkeypatch.setattr(reconf.forests, "_ENUMERATION_BYTES", estimate - 1)
        assert not _radial_forests(problem.net).listed

    def test_many_buses_cost_what_listing_every_layout_gave(self, wide_listed):
        # the costs of these hours when every forest was laid out up front
        problem, forests = wide_listed
        for hour, cost in ((8, 108.3480828057246), (15, 207.14734795232107),
                           (20, 396.30242286406894)):
            model = build_hour_model(problem.net,
                                     apply_epsilon_loads(problem.loads[hour - 1]),
                                     problem.prices[hour - 1])
            assert solve_hour(model, forests=forests).cost == pytest.approx(
                cost, rel=1e-12)

    @pytest.mark.parametrize("wide", [False, True])
    def test_byte_estimate_bounds_the_listing_peak(self, wide):
        net = wide_case4().net if wide else day_problem(FixtureSpec(case_id=4)).net
        n_nodes, edges = _contracted_edges(net)
        estimate = _forest_bytes(net, n_nodes, edges,
                                 _spanning_tree_count(n_nodes, edges))
        tracemalloc.start()
        try:
            forests = _radial_forests(net)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert forests.listed
        assert peak <= estimate <= 1.5 * peak

    def test_tied_assignments_go_to_the_smallest_open_set(self):
        # both substations sell at one price and every load is a binary
        # fraction, so all assignments cost exactly the same; forests of two
        # of them are feasible and tie, and the smallest open set among them
        # wins, not the first feasible forest of the first assignment
        net = _net([_bus(0, True), _bus(1, True), _bus(2), _bus(3), _bus(4)],
                   [_line("a2", 0, 2, rating=1.0), _line("a3", 0, 3, rating=1.0),
                    _line("b3", 1, 3, rating=2.0), _line("b4", 1, 4, rating=4.0),
                    _line("x23", 2, 3), _line("x24", 2, 4), _line("x34", 3, 4)])
        loads, prices = np.array([0.25, 0.25, 1.0, 2.0, 0.5]), [10.0, 10.0]
        best = enumerate_hour(net, loads, prices)
        flex = sorted(l.id for l in net.flexible_lines)
        tied = {}    # open set: which component feeds each bus
        for closed in combinations(flex, 3):
            sol = evaluate_topology(net, closed, loads, prices)
            if sol is not None and sol.cost == best.cost:
                tied[tuple(sorted(set(flex) - set(closed)))] = tuple(
                    solve_flows(net, set(closed), loads).component_of.tolist())
        assert len(set(tied.values())) == 2
        sol = solve_hour(build_hour_model(net, loads, prices))
        assert sol.cost == best.cost
        assert tuple(sorted(l for l, on in sol.statuses.items() if not on)) == min(tied)

    def test_equal_costs_go_to_smallest_open_set(self):
        # one substation: all three topologies of the triangle cost the same
        net = _net([_bus(0, True), _bus(1), _bus(2)],
                   [_line("c", 1, 2), _line("a", 0, 1), _line("b", 0, 2)])
        sol = solve_hour(build_hour_model(net, [1e-5, 1.0, 1.0], [10.0]))
        assert sol.statuses == {"a": 0, "b": 1, "c": 1}

    def test_topology_at_its_rating_and_angle_bound_survives(self):
        # 8 MW over x = 0.05 drops exactly 0.4 rad onto a line rated 8 MW
        net = two_sub_net(rating_a=8.0)
        opts = ModelOptions(angle_lo=-0.4, angle_hi=0.4)
        sol = solve_hour(build_hour_model(net, two_sub_loads(8.0),
                                          [10.0, 20.0], opts))
        assert sol.statuses == {"s1-b": 1, "s2-b": 0}
        assert sol.flows["s1-b"] == 8.0
        assert sol.angles[2] == -0.4

    def test_screen_survivor_still_needs_physics(self):
        # 1.5e-6 MW over the rating: inside the screen's slack, outside
        # evaluate_topology's, so the expensive side must win
        net = two_sub_net(rating_a=8.0 - 1.5e-6)
        sol = solve_hour(build_hour_model(net, two_sub_loads(8.0), [10.0, 20.0]))
        assert sol.statuses == {"s1-b": 0, "s2-b": 1}


class TestLazyRelaxation:
    """The hour's LP is built only by the branch and bound."""

    @pytest.fixture
    def built(self, monkeypatch):
        """(lp, column maps) of every relaxation built, in order."""
        calls = []

        def spy(lp, net, loads, prices):
            cols = _add_hour(lp, net, loads, prices)
            calls.append((lp, cols))
            return cols

        monkeypatch.setattr(optimize, "_add_hour", spy)
        return calls

    def test_enumerated_hour_builds_no_relaxation(self, built):
        model = build_hour_model(two_sub_net(), two_sub_loads(), [10.0, 20.0])
        solve_hour(model)
        assert built == []

    def test_branch_and_bound_builds_the_same_relaxation(self, built):
        # the grid is above the cap, so solve_hour runs the branch and
        # bound; the digest pins the program, root-aware bounds included
        model = build_hour_model(grid_net(), np.full(20, 0.01), [10.0, 10.0])
        assert built == []
        assert solve_hour(model).stats.relaxations == 1
        assert len(built) == 1
        lp, (sub_col, flow_col, j_col) = built[0]
        assert (lp.num_vars, lp.num_rows) == (64, 83)
        doc = repr((lp.objective, lp.lower, lp.upper, lp.rows, lp.senses, lp.rhs,
                    sorted(sub_col.items()), sorted(flow_col.items()),
                    sorted(j_col.items())))
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "5987790dc1b29a32352bfd46e80b1e95e0d85975a68f452f0ea320e7925eda58")


class TestSubstationCapacityScreen:
    """Whole assignments are dropped when a substation would send out more
    than its lines' ratings; each case must agree with brute force."""

    def agree(self, net, loads, prices):
        loads = apply_epsilon_loads(loads)
        sol = solve_hour(build_hour_model(net, loads, prices))
        assert sol.cost == pytest.approx(
            enumerate_hour(net, loads, prices).cost, rel=1e-12)
        return sol

    def test_substation_bus_with_its_own_load(self):
        # substation 0 serves 5 MW at its own bus and 8 MW through a line
        # rated 8 MW: counting its own load against the line would drop it
        net = two_sub_net(rating_a=8.0)
        sol = self.agree(net, [5.0, 0.0, 8.0], [10.0, 20.0])
        assert sol.statuses == {"s1-b": 1, "s2-b": 0}

    @pytest.mark.parametrize("over", [0.0, 9e-7])
    def test_forest_exactly_at_capacity(self, over):
        # substation 0 sends 3 + 5 MW over two lines rated 3 and 5 MW, and
        # then 0.9e-6 MW more, within exact physics' 1e-6 MW tolerance
        net = _net([_bus(0, True), _bus(1, True), _bus(2), _bus(3)],
                   [_line("a2", 0, 2, rating=3.0), _line("a3", 0, 3, rating=5.0),
                    _line("b2", 1, 2), _line("b3", 1, 3)])
        sol = self.agree(net, [0.0, 0.0, 3.0, 5.0 + over], [10.0, 20.0])
        assert sol.statuses == {"a2": 1, "a3": 1, "b2": 0, "b3": 0}

    def test_line_joining_two_substations(self):
        # the tie between the substations can never close, yet its rating
        # counts toward both capacities; the overloaded cheap side still loses
        net = _net([_bus(0, True), _bus(1, True), _bus(2)],
                   [_line("tie", 0, 1, rating=100.0),
                    _line("s1-b", 0, 2, rating=8.0), _line("s2-b", 1, 2)])
        sol = self.agree(net, [0.0, 0.0, 9.0], [10.0, 20.0])
        assert sol.statuses == {"tie": 0, "s1-b": 0, "s2-b": 1}
        sol = self.agree(net, [0.0, 0.0, 7.0], [10.0, 20.0])
        assert sol.statuses == {"tie": 0, "s1-b": 1, "s2-b": 0}


class TestEvaluateTopology:
    def test_rejects_non_forest(self):
        net = two_sub_net()
        assert evaluate_topology(net, ["s1-b", "s2-b"], two_sub_loads(),
                                 [10.0, 20.0]) is None

    def test_rejects_thermal_violation(self):
        net = two_sub_net(rating_a=5.0)
        assert evaluate_topology(net, ["s1-b"], two_sub_loads(8.0),
                                 [10.0, 20.0]) is None

    def test_rejects_angle_excursion(self):
        net = two_sub_net()
        opts = ModelOptions(angle_lo=-0.01, angle_hi=0.01)
        # 8 MW over x=0.05 drops 0.4 rad, far outside the bounds
        assert evaluate_topology(net, ["s1-b"], two_sub_loads(8.0),
                                 [10.0, 20.0], opts) is None

    def test_accepts_and_prices_valid_topology(self):
        net = two_sub_net()
        sol = evaluate_topology(net, ["s2-b"], two_sub_loads(8.0), [10.0, 20.0])
        assert sol is not None
        assert sol.cost == pytest.approx(160.0002 + 1e-4)
        assert sol.statuses == {"s1-b": 0, "s2-b": 1}


class TestEnumerate:
    def test_matches_branch_and_bound(self):
        net = two_sub_net()
        loads = two_sub_loads()
        model = build_hour_model(net, loads, [10.0, 20.0])
        assert enumerate_hour(net, loads, [10.0, 20.0]).cost == pytest.approx(
            solve_hour(model).cost, rel=1e-9)

    def test_substation_tie_line_never_selected(self):
        net = _net([_bus(0, True), _bus(1, True), _bus(2)],
                   [_line("s1-s2", 0, 1), _line("s1-a", 0, 2),
                    _line("s2-a", 1, 2)])
        sol = enumerate_hour(net, [1e-5, 1e-5, 4.0], [10.0, 20.0])
        assert sol.statuses["s1-s2"] == 0
        assert sol.statuses["s1-a"] == 1

    def test_cap_enforced(self):
        buses = [_bus(0, True)] + [_bus(i) for i in range(1, 18)]
        lines = [_line(f"l{i}", i - 1, i) for i in range(1, 18)]
        net = _net(buses, lines)
        with pytest.raises(ValueError, match="at most"):
            enumerate_hour(net, [0.1] * 18, [10.0], cap=15)

    def test_all_candidates_infeasible(self):
        net = two_sub_net(rating_a=5.0, rating_b=5.0)
        with pytest.raises(InfeasibleHourError):
            enumerate_hour(net, two_sub_loads(8.0), [10.0, 20.0])


class TestDayProblem:
    def test_shape_checked(self):
        net = two_sub_net()
        with pytest.raises(ValueError, match="loads"):
            DayProblem(net, np.zeros((2, 4)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="prices"):
            DayProblem(net, np.zeros((2, 3)), np.ones((3, 2)))

    def test_negative_load_rejected(self):
        net = two_sub_net()
        with pytest.raises(ValueError, match="non-negative"):
            DayProblem(net, -np.ones((2, 3)), np.ones((2, 2)))

    def test_horizon(self):
        net = two_sub_net()
        problem = DayProblem(net, np.ones((5, 3)), np.ones((5, 2)))
        assert problem.horizon == 5


def two_hour_problem():
    net = two_sub_net()
    loads = np.array([[0.0, 0.0, 8.0], [0.0, 0.0, 8.0]])
    prices = np.array([[10.0, 20.0], [20.0, 10.0]])
    return DayProblem(net, loads, prices)


def light_grid_day():
    """Two hours on the grid, light enough to close at the root."""
    loads = np.full((2, 20), 0.01) * np.array([[1.0], [1.02]])
    return DayProblem(grid_net(), loads, np.array([[10.0, 12.0], [12.0, 10.0]]))


class TestSolveDay:
    def test_schedule_follows_the_cheap_substation(self):
        day = solve_day(two_hour_problem())
        assert day.hours[0].statuses == {"s1-b": 1, "s2-b": 0}
        assert day.hours[1].statuses == {"s1-b": 0, "s2-b": 1}

    def test_total_is_exact_sum(self):
        day = solve_day(two_hour_problem())
        assert day.total_cost == sum(h.cost for h in day.hours)

    def test_single_hour_equals_solve_hour(self):
        net = two_sub_net()
        problem = DayProblem(net, np.array([[0.0, 0.0, 8.0]]),
                             np.array([[10.0, 20.0]]))
        day = solve_day(problem)
        direct = solve_two_sub([10.0, 20.0])
        assert day.total_cost == pytest.approx(direct.cost, rel=1e-12)

    def test_uniform_prices_cost_is_price_times_demand(self):
        net = two_sub_net()
        loads = np.array([[0.3, 0.4, 5.0], [0.2, 0.1, 7.0]])
        prices = np.full((2, 2), 13.0)
        day = solve_day(DayProblem(net, loads, prices))
        assert day.total_cost == pytest.approx(13.0 * loads.sum(), rel=1e-9)

    def test_parallel_matches_serial(self):
        problem = two_hour_problem()
        serial = solve_day(problem)
        parallel = solve_day(problem, jobs=2)
        assert parallel.total_cost == pytest.approx(serial.total_cost, rel=1e-9)

    def test_parallel_day_starts_no_more_workers_than_hours(self, monkeypatch):
        # the grid is over the byte budget, so its hours go to the pool;
        # light loads close each hour at the root
        workers = []
        pool = concurrent.futures.ProcessPoolExecutor

        def recording(max_workers, **kwargs):
            workers.append(max_workers)
            return pool(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording)
        problem = light_grid_day()
        day = solve_day(problem, jobs=4)
        assert workers == [2]
        assert day.total_cost == solve_day(problem).total_cost

    def test_listed_day_starts_no_pool(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a listed day started a pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        problem = day_problem(FixtureSpec(case_id=3))
        parallel = solve_day(problem, jobs=2)
        serial = solve_day(problem)
        assert [h.statuses for h in parallel.hours] == [h.statuses for h in serial.hours]
        assert parallel.total_cost == serial.total_cost

    def test_serial_day_seeds_each_hour_with_the_last(self, monkeypatch):
        # the grid is over the byte budget, so every hour goes to the
        # branch and bound, which tries its seeds first; light loads close
        # each hour at the root
        calls = []

        def spy(model, opts, seeds, forests=None):
            sol = solve_hour(model, opts, seeds, forests=forests)
            calls.append((seeds, sol))
            return sol

        monkeypatch.setattr(optimize, "solve_hour", spy)
        loads = np.full((3, 20), 0.01) * np.array([[1.0], [1.02], [1.04]])
        prices = np.array([[10.0, 12.0], [12.0, 10.0], [10.0, 12.0]])
        solve_day(DayProblem(grid_net(), loads, prices))
        assert len(calls) == 3 and list(calls[0][0]) == []
        for (seeds, sol), (_, previous) in zip(calls[1:], calls):
            assert sol.stats is not None
            assert list(seeds) == [previous.statuses]

    def test_infeasible_hour_reports_index_and_partials(self):
        net = two_sub_net()
        loads = np.array([[0.0, 0.0, 8.0], [0.0, 0.0, 25.0]])
        prices = np.array([[10.0, 20.0], [10.0, 20.0]])
        with pytest.raises(InfeasibleHourError, match="hour 2") as info:
            solve_day(DayProblem(net, loads, prices))
        assert info.value.hour == 1
        assert list(info.value.partial) == [0]

    def test_parallel_schedules_match_serial_on_case1(self):
        problem = day_problem(FixtureSpec(case_id=1))
        serial = solve_day(problem)
        parallel = solve_day(problem, jobs=2)
        assert [h.statuses for h in parallel.hours] == [h.statuses for h in serial.hours]
        assert parallel.total_cost == serial.total_cost

    def test_parallel_day_lists_the_forest_set_once(self, monkeypatch):
        # the workers are forked with the wrapper, which refuses to list
        # anywhere but in this process
        pid, calls = os.getpid(), []

        def listing(net):
            if os.getpid() != pid:
                raise RuntimeError("a worker listed the forest set")
            calls.append(net)
            return _radial_forests(net)

        monkeypatch.setattr(optimize, "_radial_forests", listing)
        problem = light_grid_day()
        parallel = solve_day(problem, jobs=2)
        assert len(calls) == 1
        assert parallel.total_cost == solve_day(problem).total_cost

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_node_limit_reports_index_and_partials(self, jobs):
        # light loads leave hour 1 to the root; heavy ones need a search
        light = np.full(20, 0.01)
        heavy = np.full(20, 0.1)
        problem = DayProblem(grid_net(), np.array([light, heavy]),
                             np.array([[10.0, 10.0], [10.0, 20.0]]))
        with pytest.raises(NodeLimitError, match="hour 2") as info:
            solve_day(problem, solver_opts=SolverOptions(max_nodes=1), jobs=jobs)
        assert info.value.hour == 1
        assert list(info.value.partial) == [0]
        assert info.value.partial[0].stats.relaxations >= 1


def grid_net(rows=4, cols=5, substations=(0, 19)):
    """A grid of switchable lines, by default 4 x 5 fed from two opposite
    corners: 8,454,183 radial topologies, too many to list in the budget."""
    n = rows * cols
    buses = [_bus(i, i in substations) for i in range(n)]
    lines = []
    for i in range(n):
        if i % cols < cols - 1:
            lines.append(_line(f"h{i}", i, i + 1, x=0.01, rating=0.5))
        if i < n - cols:
            lines.append(_line(f"v{i}", i, i + cols, x=0.01, rating=0.5))
    return _net(buses, lines)


def exact_tree_count(n_nodes, edges):
    """Kirchhoff's count in integers: the determinant of the Laplacian
    grounded at node 0, by fraction-free (Bareiss) elimination."""
    m = n_nodes - 1
    a = [[0] * m for _ in range(m)]
    for _, u, v in edges:
        for x, y in ((u, v), (v, u)):
            if x:
                a[x - 1][x - 1] += 1
                if y:
                    a[x - 1][y - 1] -= 1
    sign, prev = 1, 1
    for k in range(m):
        pivot = next((r for r in range(k, m) if a[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot], sign = a[pivot], a[k], -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


class TestSpanningTreeCount:
    def test_exact_determinant_on_random_multigraphs(self):
        # node 0 is the merged substations; lines repeat, and sparse
        # graphs leave parts that reach no substation
        rng = np.random.default_rng(11)
        zeros = parallel = 0
        for _ in range(600):
            n_nodes = int(rng.integers(2, 13))
            pairs = [tuple(rng.choice(n_nodes, size=2, replace=False).tolist())
                     for _ in range(int(rng.integers(0, 3 * n_nodes)))]
            edges = [(k, u, v) for k, (u, v) in enumerate(pairs)]
            count = _spanning_tree_count(n_nodes, edges)
            assert type(count) is int
            assert count == exact_tree_count(n_nodes, edges)
            zeros += count == 0
            parallel += len(set(map(frozenset, pairs))) < len(pairs)
        assert zeros > 50 and parallel > 50

    def test_exact_int_where_a_float_determinant_is_not(self):
        forests = _radial_forests(grid_net())
        assert type(forests.count) is int and forests.count == 8_454_183
        # a 6 x 6 grid with one substation: a floating-point determinant
        # reads 32565539635199.83
        count = _spanning_tree_count(*_contracted_edges(grid_net(6, 6, (0,))))
        assert type(count) is int and count == 32_565_539_635_200

    def test_mesh_past_float_range_goes_to_branch_and_bound(self):
        net = grid_net(30, 30, (0,))
        start = time.perf_counter()
        forests = _radial_forests(net)
        assert time.perf_counter() - start < 1.0
        assert not forests.listed

    def test_enumerated_day_calls_no_linear_algebra(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in np.linalg.__all__:
            if not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, refuse)
        day = solve_day(day_problem(FixtureSpec(case_id=4)))
        assert day.total_cost == pytest.approx(884.318898, abs=1e-6)
        assert all(h.stats.nodes == 0 for h in day.hours)


def random_switchable_net(rng):
    """Random tree plus tie lines, with ties and some tree lines flexible."""
    n = int(rng.integers(3, 11))
    n_subs = int(rng.integers(1, 3))
    buses = [_bus(i, i < n_subs) for i in range(n)]
    lines = []
    for bus in range(n_subs, n):
        parent = int(rng.integers(0, bus))
        lines.append(_line(f"t{bus}", parent, bus,
                           x=float(rng.uniform(0.01, 0.1)), rating=1e6,
                           flexible=bool(rng.random() < 0.4)))
    used = {(l.from_bus, l.to_bus) for l in lines}
    for k in range(int(rng.integers(1, 4))):
        a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (a, b) in used or (a < n_subs and b < n_subs):
            continue
        used.add((a, b))
        lines.append(_line(f"c{k}", a, b, x=float(rng.uniform(0.01, 0.1)),
                           rating=1e6, flexible=True))
    net = _net(buses, lines)
    loads = rng.uniform(0.0, 0.03, size=n)
    prices = rng.uniform(5.0, 50.0, size=n_subs)
    return net, apply_epsilon_loads(loads), prices


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_search_agrees_with_enumeration_on_random_networks(seed):
    rng = np.random.default_rng(seed)
    net, loads, prices = random_switchable_net(rng)
    model = build_hour_model(net, loads, prices)
    try:
        oracle = enumerate_hour(net, loads, prices)
    except InfeasibleHourError:
        with pytest.raises(InfeasibleHourError):
            solve_hour(model)
        with pytest.raises(InfeasibleHourError):
            branch_and_bound(model)
        return
    sol = solve_hour(model)
    assert sol.cost == pytest.approx(oracle.cost, rel=1e-6)
    assert is_spanning_forest(net, sol.closed_flexible() |
                              {l.id for l in net.nonflexible_lines})
    assert branch_and_bound(model).cost == pytest.approx(oracle.cost, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_listing_matches_brute_force_on_random_networks(seed):
    net, _loads, _prices = random_switchable_net(np.random.default_rng(seed))
    listed = listed_closed_sets(net, _radial_forests(net))
    assert sorted(map(sorted, listed)) == sorted(map(sorted, radial_closed_sets(net)))


def random_congested_net(rng):
    """Like random_switchable_net but with ratings tight enough to bind."""
    n = int(rng.integers(4, 11))
    n_subs = int(rng.integers(1, 3))
    buses = [_bus(i, i < n_subs) for i in range(n)]
    lines = []
    for bus in range(n_subs, n):
        parent = int(rng.integers(0, bus))
        lines.append(_line(f"t{bus}", parent, bus,
                           x=float(rng.uniform(0.01, 0.1)),
                           rating=float(rng.uniform(0.02, 0.2)),
                           flexible=bool(rng.random() < 0.5)))
    used = {(l.from_bus, l.to_bus) for l in lines}
    for k in range(int(rng.integers(1, 4))):
        a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
        if (a, b) in used or (a < n_subs and b < n_subs):
            continue
        used.add((a, b))
        lines.append(_line(f"c{k}", a, b, x=float(rng.uniform(0.01, 0.1)),
                           rating=float(rng.uniform(0.02, 0.2))))
    net = _net(buses, lines)
    loads = rng.uniform(0.0, 0.04, size=n)
    prices = rng.uniform(5.0, 50.0, size=n_subs)
    return net, apply_epsilon_loads(loads), prices


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_search_agrees_with_enumeration_under_congestion(seed):
    rng = np.random.default_rng(seed)
    net, loads, prices = random_congested_net(rng)
    model = build_hour_model(net, loads, prices)
    try:
        oracle = enumerate_hour(net, loads, prices)
    except InfeasibleHourError:
        with pytest.raises(InfeasibleHourError):
            solve_hour(model)
        with pytest.raises(InfeasibleHourError):
            branch_and_bound(model)
        return
    sol = solve_hour(model)
    assert sol.cost == pytest.approx(oracle.cost, rel=1e-6)
    assert branch_and_bound(model).cost == pytest.approx(oracle.cost, rel=1e-6)
