"""Brute-force references for one hour and one topology's flows.

Test-only oracles. enumerate_hour tries every closed set of the right
size with exact physics, independent of the solver's forest listing and
branch and bound; solve_flows_dense solves the susceptance system
directly, independent of solve_flows' subtree accumulation.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from reconf.dcflow import FlowSolution, _closed_lines, _split_components
from reconf.model import required_closed_flexible_count
from reconf.optimize import (
    HourSolution,
    InfeasibleHourError,
    ModelOptions,
    evaluate_topology,
)


def enumerate_hour(net, loads_t, prices_t,
                   opts: ModelOptions | None = None,
                   cap: int = 15) -> HourSolution:
    """Brute-force optimum: try every closed-set of the required size.

    Independent of the branch and bound: candidates come from combinations,
    feasibility from the forest test and recomputed flows. Only usable for
    small flexible sets (cap guards the combinatorics).
    """
    opts = opts or ModelOptions()
    flex_ids = sorted(l.id for l in net.flexible_lines)
    if len(flex_ids) > cap:
        raise ValueError(
            f"enumeration supports at most {cap} flexible lines, got {len(flex_ids)}")
    k_star = required_closed_flexible_count(net)
    loads_t = np.asarray(loads_t, dtype=float)
    best: HourSolution | None = None
    for combo in combinations(flex_ids, k_star):
        candidate = evaluate_topology(net, combo, loads_t, prices_t, opts)
        if candidate is not None and (best is None or candidate.cost < best.cost):
            best = candidate
    if best is None:
        raise InfeasibleHourError("no feasible radial topology")
    return best


def solve_flows_dense(net, closed: set[str], loads) -> FlowSolution:
    """Same contract as solve_flows, via a dense susceptance-matrix solve."""
    loads = np.asarray(loads, dtype=float)
    lines = _closed_lines(net, closed)
    comp_of, sub_of = _split_components(net, lines, loads)

    n = net.n_buses
    b_matrix = np.zeros((n, n))
    for line in lines:
        y = 1.0 / line.reactance
        a, b = line.from_bus, line.to_bus
        b_matrix[a, a] += y
        b_matrix[b, b] += y
        b_matrix[a, b] -= y
        b_matrix[b, a] -= y

    angles = np.zeros(n)
    for comp, root in enumerate(sub_of):
        if root < 0:
            continue
        members = np.flatnonzero(comp_of == comp)
        free = members[members != root]
        if free.size:
            sub_b = b_matrix[np.ix_(free, free)]
            theta = np.linalg.solve(sub_b, -loads[free])
            angles[free] = theta

    flows: dict[str, float] = {}
    for line in lines:
        flows[line.id] = (angles[line.from_bus] - angles[line.to_bus]) / line.reactance

    injections: dict[int, float] = {}
    for comp, root in enumerate(sub_of):
        if root < 0:
            continue
        total = float(loads[comp_of == comp].sum())
        injections[root] = total
    return FlowSolution(flows, angles, injections, comp_of)
