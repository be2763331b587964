"""Best-bound branch and bound over line statuses.

An hour goes here only when its network's radial topologies are too
many to list within the byte budget of forests.py. optimize.solve_hour
imports this module, and with it the LP engine, only then, so a solve
that enumerates compiles neither. The relaxation is the hour's flow LP
without angles; every candidate the search accepts is verified with
exact physics.

Propagation, polish and exact physics stay in optimize, and the search
calls them through that module (optimize._propagate, never a name bound
here at import), so that a wrapper installed on optimize's names, as
perfbench's spans are, sees every call.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

import numpy as np

from . import optimize
from .forests import _base_contraction
from .lp import OPTIMAL, BlockSolver, LinearProgram
from .model import required_closed_flexible_count
from .optimize import HourSolution, InfeasibleHourError, NodeLimitError, SolveStats

if TYPE_CHECKING:
    from .model import Network
    from .optimize import HourModel, SolverOptions


def _add_hour(lp: LinearProgram, net: Network, loads, prices):
    """Append one hour's variables and rows to lp; return the column maps
    (sub_col, flow_col, j_col) by substation bus and by line id.

    The relaxation carries no angles. On a spanning forest the loads fix
    every flow, so angles matter only through their bounds, and those are
    enforced exactly by evaluate_topology at every candidate the search
    accepts; the LP only has to bound the cost from below.

    Every substation is a root of a radial forest (Lavorato et al., IEEE
    TPWRS 27(1), 2012), and loads are non-negative: a substation injects
    at least its own bus's load, and a line from a substation to another
    bus carries flow only away from the substation. Without these bounds
    the relaxation lets one substation import its load from another.
    """
    price_of = dict(zip(net.substations, prices))
    subs = set(net.substations)

    sub_col = {b: lp.add_variable(price_of[b], float(loads[b]))
               for b in net.substations}
    flow_col = {}
    for line in net.lines:
        lo, hi = ((-np.inf, np.inf) if line.flexible
                  else (-line.rating, line.rating))
        if (line.from_bus in subs) != (line.to_bus in subs):
            # positive flow runs from from_bus to to_bus
            lo, hi = (0.0, hi) if line.from_bus in subs else (lo, 0.0)
        flow_col[line.id] = lp.add_variable(0.0, lo, hi)
    j_col = {line.id: lp.add_variable(0.0, 0.0, 1.0) for line in net.flexible_lines}

    # nodal balance: injection plus inflow minus outflow equals demand
    incident: dict[int, list[tuple[int, float]]] = {b.id: [] for b in net.buses}
    for line in net.lines:
        incident[line.to_bus].append((flow_col[line.id], 1.0))
        incident[line.from_bus].append((flow_col[line.id], -1.0))
    for bus in net.buses:
        coeffs = list(incident[bus.id])
        if bus.is_substation:
            coeffs.append((sub_col[bus.id], 1.0))
        lp.add_row("=", float(loads[bus.id]), coeffs)

    # switchable lines: rating gated by status
    for line in net.flexible_lines:
        p, j = flow_col[line.id], j_col[line.id]
        lp.add_row("<=", 0.0, [(p, 1.0), (j, -line.rating)])
        lp.add_row("<=", 0.0, [(p, -1.0), (j, -line.rating)])

    if j_col:
        k = required_closed_flexible_count(net)
        lp.add_row("=", float(k), [(c, 1.0) for c in j_col.values()])

    return sub_col, flow_col, j_col


# statuses within this of 0 or 1 count as integral
_INTEGRALITY_TOL = 1e-6


class _Milp:
    """One hour's search data: the model, its LP relaxation lp (status
    columns j_col bounded to [0, 1]), and the contraction that merges the
    substations into root (bus b maps to contract[b]) with the
    always-closed lines already joined in base_dsu."""

    def __init__(self, model: HourModel):
        net = model.net
        self.model = model
        self.net = net
        self.lp = LinearProgram()
        _sub_col, _flow_col, self.j_col = _add_hour(
            self.lp, net, model.loads, model.prices)
        self.root = net.n_buses
        self.base_dsu = _base_contraction(net)
        subs = set(net.substations)
        self.contract = [self.root if b in subs else b
                         for b in range(net.n_buses)] + [self.root]


def _greedy_closed(milp: _Milp, order: list[str]) -> frozenset[str] | None:
    """First spanning forest found by closing lines in the given order."""
    lines = milp.net.lines_by_id
    k_star = milp.model.k_star
    dsu = milp.base_dsu.copy()
    closed = set()
    for lid in order:
        if len(closed) == k_star:
            break
        line = lines[lid]
        if dsu.unite(milp.contract[line.from_bus], milp.contract[line.to_bus]):
            closed.add(lid)
    return frozenset(closed) if len(closed) == k_star else None


def _solve_milp(model: HourModel, opts: SolverOptions,
                seeds=()) -> tuple[HourSolution, SolveStats]:
    """Best-bound branch and bound on the hour's J columns.

    seeds are status dicts tried as incumbents before the search; those
    that do not close exactly k_star of the hour's switchable lines are
    skipped. Candidates found by the search are always re-verified with
    exact flow physics before acceptance. Nodes are evaluated lazily on
    pop, warm-starting each relaxation from the parent's basis;
    fully-decided assignments skip the relaxation and go straight to
    physics.
    """
    milp = _Milp(model)
    j_col = milp.j_col
    solver = BlockSolver(milp.lp)
    relaxations = 0

    def relax(fixed, warm=None):
        nonlocal relaxations
        relaxations += 1
        overrides = {col: (float(v), float(v)) for col, v in fixed.items()}
        return solver.solve_with_basis(overrides, warm)

    incumbent: HourSolution | None = None
    inc_cost = np.inf
    updates = 0

    def offer(closed, polish=False) -> None:
        """Make closed the incumbent if exact physics accepts it and it is
        cheaper; closed is None when no candidate was found."""
        nonlocal incumbent, inc_cost, updates
        if closed is None:
            return
        sol = optimize.evaluate_topology(model.net, closed, model.loads,
                                         model.prices, model.opts)
        if sol is None or sol.cost >= inc_cost:
            return
        if polish:
            sol = optimize._polish(milp, closed, sol)
        inc_cost, incumbent = sol.cost, sol
        updates += 1

    def offer_fixed(fixed) -> None:
        offer(frozenset(lid for lid, col in j_col.items() if fixed.get(col) == 1),
              polish=True)

    def finish(best_bound: float):
        if incumbent is None:
            raise InfeasibleHourError("no feasible radial topology")
        stats = SolveStats(nodes=nodes, relaxations=relaxations,
                           incumbent_updates=updates,
                           best_bound=float(best_bound))
        return incumbent, stats

    nodes = 0
    for statuses in seeds:
        closed = frozenset(lid for lid, on in statuses.items() if on)
        if closed <= set(j_col) and len(closed) == model.k_star:
            offer(closed)
    id_order = sorted(j_col)
    offer(_greedy_closed(milp, id_order))

    root_fixed = optimize._propagate(milp, {})
    if root_fixed is None:
        raise InfeasibleHourError("no feasible radial topology")
    if len(root_fixed) == len(j_col):
        # propagation alone settles every switch
        offer_fixed(root_fixed)
        return finish(inc_cost)

    root, root_snap = relax(root_fixed)
    if root.status != OPTIMAL:
        raise InfeasibleHourError("no feasible radial topology")
    root_bound = root.objective

    # round the root relaxation: close lines by descending fractional value
    offer(_greedy_closed(milp, sorted(
        j_col, key=lambda lid: (-root.values[j_col[lid]], lid))))
    if incumbent is not None:
        polished = optimize._polish(milp, incumbent.closed_flexible(), incumbent)
        if polished.cost < inc_cost:
            inc_cost, incumbent = polished.cost, polished
            updates += 1

    def gap_slack() -> float:
        return opts.gap * max(1.0, abs(inc_cost))

    def gap_closed(bound: float) -> bool:
        if incumbent is None:
            return False
        return inc_cost - bound <= gap_slack()

    def rc_fix(fixed, bound, snap):
        """Fix switches whose flip is already priced out of the gap.

        The relaxation's reduced costs bound the objective increase of
        moving a switch off its resting bound; when bound + rate clears
        the incumbent cutoff, no improving solution flips that switch,
        so it is fixed for the entire subtree. Returns the (possibly
        augmented and propagated) assignment, or None when propagation
        proves the subtree empty of improvements.
        """
        if incumbent is None or snap is None:
            return fixed
        up, down = snap.bound_rates()
        cutoff = inc_cost - gap_slack()
        fixes = {}
        for col in j_col.values():
            if col in fixed:
                continue
            if up[col] > 0.0 and bound + up[col] >= cutoff:
                fixes[col] = 0
            elif down[col] > 0.0 and bound + down[col] >= cutoff:
                fixes[col] = 1
        if not fixes:
            return fixed
        return optimize._propagate(milp, {**fixed, **fixes})

    tightened = rc_fix(root_fixed, root_bound, root_snap)
    if tightened is None:
        return finish(inc_cost)  # nothing better exists
    if len(tightened) > len(root_fixed):
        root_fixed = tightened
        if len(root_fixed) == len(j_col):
            offer_fixed(root_fixed)
            return finish(inc_cost)
        root, new_snap = relax(root_fixed, root_snap)
        if root.status != OPTIMAL:
            return finish(inc_cost)
        root_snap = new_snap
        root_bound = max(root_bound, root.objective)

    # pseudo-costs: observed bound growth per unit of rounding, kept per
    # switch and direction, steer branching toward decisions that move
    # the proof fastest; unseen switches borrow the running average
    pc: dict[tuple[int, int], list[float]] = {}

    def pc_update(col: int, value: int, delta: float, gain: float) -> None:
        cell = pc.setdefault((col, value), [0.0, 0])
        cell[0] += gain / max(delta, 1e-6)
        cell[1] += 1

    def pc_rate(col: int, value: int, fallback: float) -> float:
        cell = pc.get((col, value))
        if cell is None or cell[1] == 0:
            return fallback
        return cell[0] / cell[1]

    heap = [(root_bound, 0, root_fixed, (root.values, root_snap, True, None))]
    seq = 1
    best_bound = root_bound
    while heap:
        key, _, fixed, (values, snap, solved, binfo) = heapq.heappop(heap)
        best_bound = key
        if gap_closed(key):
            best_bound = inc_cost
            break
        if not solved:
            if nodes >= opts.max_nodes:
                raise NodeLimitError(
                    f"node limit {opts.max_nodes} reached with gap still open")
            nodes += 1
            out, new_snap = relax(fixed, snap)
            if binfo is not None and out.status == OPTIMAL:
                b_col, b_val, b_delta = binfo
                pc_update(b_col, b_val, b_delta, max(0.0, out.objective - key))
            if out.status != OPTIMAL:
                continue
            bound = max(key, out.objective)  # a child never beats its parent
            if gap_closed(bound):
                continue
            if heap and bound > heap[0][0] + 1e-12:
                # no longer the best node; requeue at its true bound
                heapq.heappush(heap, (bound, seq, fixed,
                                      (out.values, new_snap, True, None)))
                seq += 1
                continue
            values, snap = out.values, new_snap
            key = bound
            tightened = rc_fix(fixed, bound, snap)
            if tightened is None:
                continue
            if len(tightened) == len(j_col):
                offer_fixed(tightened)
                continue
            fixed = tightened

        cells = [c for c in pc.values() if c[1]]
        avg_rate = (sum(c[0] / c[1] for c in cells) / len(cells)) if cells else 1.0
        branch_col = -1
        best_score = -1.0
        fallback_col = -1
        integral = True
        for lid in id_order:
            col = j_col[lid]
            if col in fixed:
                continue
            if fallback_col < 0:
                fallback_col = col
            f = float(values[col])
            if min(f, 1.0 - f) <= _INTEGRALITY_TOL:
                continue
            integral = False
            score = (max(pc_rate(col, 1, avg_rate) * (1.0 - f), 1e-9)
                     * max(pc_rate(col, 0, avg_rate) * f, 1e-9))
            if score > best_score:
                best_score = score
                branch_col = col
        if integral:
            # the rounded candidate may still lose real flow to a tiny
            # status fraction on a high-rating line, or break an angle
            # bound the relaxation does not carry, so it only closes the
            # subtree when it attains the node bound within gap
            offer(frozenset(
                lid for lid, col in j_col.items()
                if (fixed[col] == 1 if col in fixed else values[col] > 0.5)),
                polish=True)
            if gap_closed(key):
                continue
            branch_col = fallback_col
            if branch_col < 0:
                continue
        f_branch = float(values[branch_col])
        for value in (1, 0) if f_branch >= 0.5 else (0, 1):
            child = dict(fixed)
            child[branch_col] = value
            child = optimize._propagate(milp, child)
            if child is None:
                continue
            if len(child) == len(j_col):
                offer_fixed(child)  # fully decided: physics, not another LP
                continue
            delta = 1.0 - f_branch if value == 1 else f_branch
            heapq.heappush(heap, (key, seq, child,
                                  (None, snap, False, (branch_col, value, delta))))
            seq += 1
    else:
        best_bound = inc_cost

    return finish(best_bound)
