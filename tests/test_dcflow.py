import numpy as np
import pytest

from hour_oracle import solve_flows_dense
from reconf.cli import _loading_cells
from reconf.dcflow import (
    TopologyError,
    check_limits,
    solve_flows,
)
from reconf.model import Bus, Line, Network


def _net(buses, lines):
    return Network(tuple(buses), tuple(lines), base_mva=100.0)


def _bus(bid, substation=False):
    return Bus(bid, f"B{bid}", substation)


def _line(lid, a, b, x=0.1, rating=100.0, flexible=False):
    return Line(lid, a, b, x, rating, flexible)


def _two_bus():
    return _net([_bus(0, True), _bus(1)], [_line("L", 0, 1, x=0.1)])


def random_forest(rng, max_buses=100):
    """Random spanning forest: 1-3 substations, each rooting its own tree."""
    n = rng.integers(2, max_buses + 1)
    n_subs = int(rng.integers(1, min(3, n) + 1))
    assignment = rng.integers(0, n_subs, size=n)
    assignment[:n_subs] = np.arange(n_subs)  # bus i < n_subs is substation i
    buses = [_bus(i, i < n_subs) for i in range(n)]
    lines = []
    members = {k: [k] for k in range(n_subs)}
    for bus in range(n_subs, n):
        tree = int(assignment[bus])
        parent = int(rng.choice(members[tree]))
        members[tree].append(bus)
        x = float(rng.uniform(0.01, 0.1))
        if rng.random() < 0.5:
            lines.append(_line(f"L{bus}", parent, bus, x=x))
        else:
            lines.append(_line(f"L{bus}", bus, parent, x=x))
    loads = rng.uniform(0.0, 2.0, size=n)
    loads[:n_subs] = 0.0
    return _net(buses, lines), loads


class TestHandExamples:
    def test_single_line(self):
        net = _two_bus()
        sol = solve_flows(net, {"L"}, [0.0, 5.0])
        assert sol.flows["L"] == pytest.approx(5.0)
        assert sol.angles[1] == pytest.approx(-0.5)
        assert sol.angles[0] == 0.0
        assert sol.injections == {0: pytest.approx(5.0)}

    def test_two_hop_path(self):
        net = _net(
            [_bus(0, True), _bus(1), _bus(2)],
            [_line("L1", 0, 1, x=0.1), _line("L2", 1, 2, x=0.1)],
        )
        sol = solve_flows(net, {"L1", "L2"}, [0.0, 2.0, 3.0])
        assert sol.flows["L1"] == pytest.approx(5.0)
        assert sol.flows["L2"] == pytest.approx(3.0)
        assert sol.angles[1] == pytest.approx(-0.5)
        assert sol.angles[2] == pytest.approx(-0.8)

    def test_orientation_flip_negates_flow(self):
        net = _net([_bus(0, True), _bus(1)], [_line("L", 1, 0, x=0.1)])
        sol = solve_flows(net, {"L"}, [0.0, 5.0])
        assert sol.flows["L"] == pytest.approx(-5.0)
        assert sol.angles[1] == pytest.approx(-0.5)

    def test_zero_loads_zero_flows(self):
        net = _two_bus()
        sol = solve_flows(net, {"L"}, [0.0, 0.0])
        assert sol.flows["L"] == 0.0
        assert sol.injections[0] == 0.0


class TestStructure:
    def test_cycle_rejected(self):
        net = _net(
            [_bus(0, True), _bus(1), _bus(2)],
            [_line("a", 0, 1), _line("b", 1, 2), _line("c", 2, 0)],
        )
        with pytest.raises(TopologyError, match="cycle"):
            solve_flows(net, {"a", "b", "c"}, [0, 1, 1])

    def test_two_substations_in_component_rejected(self):
        net = _net(
            [_bus(0, True), _bus(1, True), _bus(2)],
            [_line("a", 0, 2), _line("b", 1, 2)],
        )
        with pytest.raises(TopologyError, match="both substations"):
            solve_flows(net, {"a", "b"}, [0, 0, 1])

    def test_stranded_load_rejected(self):
        net = _net([_bus(0, True), _bus(1), _bus(2)], [_line("a", 0, 1), _line("b", 1, 2)])
        with pytest.raises(TopologyError, match="no substation"):
            solve_flows(net, {"a"}, [0, 1, 1])

    def test_unloaded_island_tolerated(self):
        net = _net([_bus(0, True), _bus(1), _bus(2), _bus(3)],
                   [_line("a", 0, 1), _line("b", 2, 3)])
        sol = solve_flows(net, {"a", "b"}, [0, 1, 0, 0])
        assert sol.flows["b"] == 0.0
        assert sol.angles[2] == 0.0 and sol.angles[3] == 0.0
        assert sol.injections == {0: pytest.approx(1.0)}

    def test_unknown_line_raises_keyerror(self):
        with pytest.raises(KeyError):
            solve_flows(_two_bus(), {"nope"}, [0, 1])

    def test_open_lines_not_stored(self):
        net = _net(
            [_bus(0, True), _bus(1)],
            [_line("a", 0, 1), _line("c", 0, 1, flexible=True)],
        )
        sol = solve_flows(net, {"a"}, [0, 1])
        assert "c" not in sol.flows
        assert sol.flow("c") == 0.0


class TestDenseAgreement:
    def test_random_forests_match(self):
        rng = np.random.default_rng(7)
        for _ in range(150):
            net, loads = random_forest(rng)
            closed = {l.id for l in net.lines}
            tree = solve_flows(net, closed, loads)
            dense = solve_flows_dense(net, closed, loads)
            for line in net.lines:
                assert abs(tree.flows[line.id] - dense.flows[line.id]) <= 1e-9
            assert np.max(np.abs(tree.angles - dense.angles)) <= 1e-9
            assert tree.injections.keys() == dense.injections.keys()
            for sub, val in tree.injections.items():
                assert abs(val - dense.injections[sub]) <= 1e-9

    def test_injections_balance_loads(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            net, loads = random_forest(rng)
            sol = solve_flows(net, {l.id for l in net.lines}, loads)
            total = sum(sol.injections.values())
            assert abs(total - loads.sum()) <= 1e-9 * max(1.0, loads.sum())

    def test_flow_law_residuals(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            net, loads = random_forest(rng)
            sol = solve_flows(net, {l.id for l in net.lines}, loads)
            for line in net.lines:
                drop = (sol.angles[line.from_bus] - sol.angles[line.to_bus]) / line.reactance
                assert abs(sol.flows[line.id] - drop) <= 1e-9

    def test_per_bus_balance(self):
        rng = np.random.default_rng(17)
        net, loads = random_forest(rng, max_buses=60)
        sol = solve_flows(net, {l.id for l in net.lines}, loads)
        for bus in range(net.n_buses):
            inflow = sum(
                sol.flows[l.id] * (1 if l.to_bus == bus else -1)
                for l in net.lines
                if bus in (l.from_bus, l.to_bus)
            )
            inflow += sol.injections.get(bus, 0.0)
            assert abs(inflow - loads[bus]) <= 1e-9


class TestLimits:
    def test_overload_reported(self):
        net = _net([_bus(0, True), _bus(1)], [_line("L", 0, 1, rating=10.0)])
        sol = solve_flows(net, {"L"}, [0.0, 12.0])
        violations = check_limits(net, sol)
        assert len(violations) == 1
        v = violations[0]
        assert v.line_id == "L" and v.flow == pytest.approx(12.0)
        assert v.rating == 10.0

    def test_reverse_overload_reported(self):
        net = _net([_bus(0, True), _bus(1)], [_line("L", 1, 0, rating=10.0)])
        sol = solve_flows(net, {"L"}, [0.0, 12.0])
        assert len(check_limits(net, sol)) == 1

    def test_at_rating_is_fine(self):
        net = _net([_bus(0, True), _bus(1)], [_line("L", 0, 1, rating=10.0)])
        sol = solve_flows(net, {"L"}, [0.0, 10.0])
        assert check_limits(net, sol) == []

    def test_loading_percent(self):
        net = _net(
            [_bus(0, True), _bus(1)],
            [_line("a", 0, 1, rating=10.0), _line("c", 0, 1, rating=5.0, flexible=True)],
        )
        sol = solve_flows(net, {"a"}, [0.0, 7.5])
        assert _loading_cells(net, sol.flows) == ["75.000000", "0.000000"]

    def test_loading_at_exact_rating_is_100(self):
        net = _net([_bus(0, True), _bus(1)], [_line("a", 0, 1, rating=10.0)])
        sol = solve_flows(net, {"a"}, [0.0, 10.0])
        assert _loading_cells(net, sol.flows) == ["100.000000"]
