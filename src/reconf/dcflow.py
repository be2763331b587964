"""DC power flow on a fixed radial topology.

On a forest the flow picture is fully determined by the loads: the flow on
each line equals the total load hanging below it, and bus angles follow by
walking outward from each substation (pinned at angle 0). solve_flows does
exactly that accumulation.

Sign convention: flow on a line is positive in its from->to direction and
equals (theta_from - theta_to) / x with x in per-unit and flow in MW.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DisjointSet, Line, Network


class TopologyError(ValueError):
    """Raised when the closed lines cannot carry the given loads radially."""


@dataclass(frozen=True)
class Violation:
    """A closed line whose flow magnitude exceeds its rating."""

    line_id: str
    flow: float
    rating: float


@dataclass(frozen=True)
class FlowSolution:
    """Flows for one topology and load snapshot.

    flows has an entry for every closed line (open lines carry exactly 0
    and are not stored); angles is indexed by bus id; injections maps each
    substation bus to the power it imports; component_of labels each bus
    with a small component index.
    """

    flows: dict[str, float]
    angles: np.ndarray
    injections: dict[int, float]
    component_of: np.ndarray

    def flow(self, line_id: str) -> float:
        return self.flows.get(line_id, 0.0)


def _closed_lines(net: Network, closed: set[str]) -> list[Line]:
    by_id = net.lines_by_id
    lines = []
    for line_id in closed:
        if line_id not in by_id:
            raise KeyError(f"unknown line id {line_id!r}")
        lines.append(by_id[line_id])
    lines.sort(key=lambda l: l.id)
    return lines


def _split_components(net: Network, lines: list[Line], loads: np.ndarray):
    """Group buses into components, assign roots, reject non-radial input.

    Components are numbered by their lowest bus id. Each component may hold
    at most one substation (its root); a component without a substation is
    tolerated only when it carries no load.
    """
    n = net.n_buses
    if len(loads) != n:
        raise TopologyError(f"expected {n} loads, got {len(loads)}")
    dsu = DisjointSet(n)
    for line in lines:
        if not dsu.unite(line.from_bus, line.to_bus):
            raise TopologyError(f"closed line {line.id} creates a cycle")

    comp_of = np.empty(n, dtype=int)
    comp_index: dict[int, int] = {}
    for bus in range(n):
        root = dsu.find(bus)
        if root not in comp_index:
            comp_index[root] = len(comp_index)
        comp_of[bus] = comp_index[root]

    n_comp = len(comp_index)
    sub_of = [-1] * n_comp
    for sub in net.substations:
        comp = comp_of[sub]
        if sub_of[comp] >= 0:
            raise TopologyError(
                f"buses {sub_of[comp] + net.id_base} and {sub + net.id_base}"
                " are both substations in one connected component"
            )
        sub_of[comp] = sub
    for bus in range(n):
        if sub_of[comp_of[bus]] < 0 and loads[bus] > 0:
            raise TopologyError(
                f"bus {bus + net.id_base} carries load but its component has no substation"
            )
    return comp_of, sub_of


def solve_flows(net: Network, closed: set[str], loads) -> FlowSolution:
    """Solve the DC flow on a radial topology by subtree accumulation.

    loads is indexed by bus id (MW, non-negative). Raises TopologyError if
    the closed set has a cycle, joins two substations, or strands load.
    """
    loads = np.asarray(loads, dtype=float)
    lines = _closed_lines(net, closed)
    comp_of, sub_of = _split_components(net, lines, loads)

    adjacency: dict[int, list[Line]] = {b: [] for b in range(net.n_buses)}
    for line in lines:
        adjacency[line.from_bus].append(line)
        adjacency[line.to_bus].append(line)

    angles = np.zeros(net.n_buses)
    flows: dict[str, float] = {}
    injections: dict[int, float] = {}

    for root in sub_of:
        if root < 0:
            continue
        # BFS from the substation; reverse order then accumulates leaves first
        order: list[int] = [root]
        parent_line: dict[int, Line] = {}
        seen = {root}
        head = 0
        while head < len(order):
            bus = order[head]
            head += 1
            for line in adjacency[bus]:
                other = line.to_bus if line.from_bus == bus else line.from_bus
                if other not in seen:
                    seen.add(other)
                    parent_line[other] = line
                    order.append(other)
        subtree = {bus: float(loads[bus]) for bus in order}
        for bus in reversed(order[1:]):
            line = parent_line[bus]
            up = line.to_bus if line.from_bus == bus else line.from_bus
            subtree[up] += subtree[bus]
            # positive flow runs from -> to
            flows[line.id] = subtree[bus] if line.to_bus == bus else -subtree[bus]
        for bus in order[1:]:
            line = parent_line[bus]
            if line.to_bus == bus:
                angles[bus] = angles[line.from_bus] - flows[line.id] * line.reactance
            else:
                angles[bus] = angles[line.to_bus] + flows[line.id] * line.reactance
        injections[root] = subtree[root]

    # lines inside substation-free components carry nothing
    for line in lines:
        flows.setdefault(line.id, 0.0)
    return FlowSolution(flows, angles, injections, comp_of)


def check_limits(net: Network, solution: FlowSolution, tol: float = 1e-6) -> list[Violation]:
    """List every closed line whose |flow| exceeds its rating.

    tol absorbs solver round-off so a flow sitting exactly at its rating is
    not reported.
    """
    by_id = net.lines_by_id
    violations = []
    for line_id in sorted(solution.flows):
        flow = solution.flows[line_id]
        rating = by_id[line_id].rating
        if abs(flow) > rating + tol:
            violations.append(Violation(line_id, flow, rating))
    return violations

