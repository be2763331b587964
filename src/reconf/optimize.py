"""Day-ahead switching optimization for radial distribution networks.

Each hour is a mixed-integer problem: choose which flexible lines to
close so that, together with the always-closed lines, every bus is served
radially within thermal limits, at minimum total substation energy cost.

Count, then enumerate. forests.py counts the network's radial topologies
and, when there are few enough, lists them once per network together
with the few distinct assignments of buses to substations they induce:
in the lossless DC model an hour's cost depends only on that assignment.
Each hour prices every assignment once, drops those that load a
substation beyond what its lines can carry, ranks the remaining forests
by cost, and the cheapest one that passes the vectorized rating and
angle screen and then exact physics is optimal; equal costs go to the
lexicographically smallest open set. Above the limits the hour is a
best-bound branch and bound over line statuses with an LP relaxation,
verifying every candidate with exact physics; the relaxation is built,
and the LP engine imported, only then.

solve_day chains the hourly solves, those of the branch and bound
optionally in parallel.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .dcflow import check_limits, solve_flows
from .forests import _base_contraction, _in_rank_order, _radial_forests, _screen
from .model import (
    Network,
    StructureError,
    _Frozen,
    is_spanning_forest,
    required_closed_flexible_count,
    validate,
)

if TYPE_CHECKING:
    from .forests import _Forests
    from .lp import LinearProgram


class _HourError(Exception):
    """A failed hour.

    hour is the 0-based hour index when raised by the day driver (None for
    a standalone solve); partial maps the indices of the hours before it,
    all solved, to their solutions so a failed day can still be diagnosed.
    """

    def __init__(self, message: str, hour: int | None = None, partial=None):
        super().__init__(message)
        self.hour = hour
        self.partial: dict[int, HourSolution] = dict(partial or {})


class InfeasibleHourError(_HourError, ValueError):
    """No radial topology can serve the hour's loads within limits."""


class NodeLimitError(_HourError, RuntimeError):
    """Branch and bound exhausted its node budget before proving optimality."""


class ModelOptions(_Frozen):
    """Model parameters: angle bounds (rad), which exact physics enforces,
    and the zero-load fill-in."""

    __slots__ = _fields = ("angle_lo", "angle_hi", "epsilon")

    def __init__(self, angle_lo: float = -0.6, angle_hi: float = 0.6,
                 epsilon: float = 1e-5):
        super().__init__(angle_lo, angle_hi, epsilon)
        if not -np.inf < self.angle_lo < self.angle_hi < np.inf:
            raise ValueError("angle bounds must be finite, angle_lo strictly "
                             "below angle_hi")
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")


class SolverOptions(_Frozen):
    """Search parameters for the branch and bound: the relative optimality
    gap and the node budget. An enumerated hour uses neither."""

    __slots__ = _fields = ("gap", "max_nodes")

    def __init__(self, gap: float = 1e-6, max_nodes: int = 100_000):
        super().__init__(gap, max_nodes)
        if not 0 < self.gap < np.inf:
            raise ValueError("gap must be positive and finite")
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be at least 1")


class DayProblem(_Frozen):
    """A horizon of per-bus loads (MW) and per-substation prices.

    loads has shape (T, n_buses) indexed by bus id; prices has shape
    (T, n_substations) ordered like net.substations (ascending bus id).
    """

    __slots__ = _fields = ("net", "loads", "prices")

    def __init__(self, net: Network, loads: np.ndarray, prices: np.ndarray):
        super().__init__(net, np.asarray(loads, dtype=float),
                         np.asarray(prices, dtype=float))
        if self.loads.ndim != 2 or self.loads.shape[1] != self.net.n_buses:
            raise ValueError(
                f"loads must be (hours, {self.net.n_buses}), got {self.loads.shape}"
            )
        n_subs = len(self.net.substations)
        if self.prices.shape != (self.loads.shape[0], n_subs):
            raise ValueError(
                f"prices must be ({self.loads.shape[0]}, {n_subs}), got {self.prices.shape}"
            )
        if self.loads.shape[0] < 1:
            raise ValueError("horizon must be at least one hour")
        if np.any(self.loads < 0):
            raise ValueError("loads must be non-negative")
        if not (np.all(np.isfinite(self.loads)) and np.all(np.isfinite(self.prices))):
            raise ValueError("loads and prices must be finite")

    @property
    def horizon(self) -> int:
        return int(self.loads.shape[0])


class SolveStats(NamedTuple):
    """Search effort: nodes expanded, relaxations solved, proof bound."""

    nodes: int
    relaxations: int
    incumbent_updates: int
    best_bound: float


class HourSolution(NamedTuple):
    """One hour's optimum: line statuses, physics, and its energy cost."""

    statuses: dict[str, int]
    injections: dict[int, float]
    angles: np.ndarray
    flows: dict[str, float]
    cost: float
    stats: SolveStats | None = None

    def closed_flexible(self) -> frozenset[str]:
        return frozenset(lid for lid, on in self.statuses.items() if on)


class DaySolution(NamedTuple):
    """Hourly solutions in order plus their summed cost."""

    hours: tuple[HourSolution, ...]
    total_cost: float

    @classmethod
    def from_hours(cls, hours) -> DaySolution:
        hours = tuple(hours)
        return cls(hours=hours, total_cost=float(sum(h.cost for h in hours)))


def apply_epsilon_loads(loads, epsilon: float = 1e-5) -> np.ndarray:
    """Replace exactly-zero loads with a small positive fill-in (MW).

    A zero-load bus would otherwise be free to disconnect; the fill-in
    keeps every bus demanding service so radiality is enforced by the
    balance rows themselves.
    """
    loads = np.asarray(loads, dtype=float)
    if np.any(loads < 0):
        raise ValueError("loads must be non-negative")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    out = loads.copy()
    out[out == 0.0] = epsilon
    return out


class HourModel(NamedTuple):
    """One hour's data: the network, its loads, substation prices and
    model options, and k_star, the number of switchable lines a radial
    topology closes."""

    k_star: int
    net: Network
    loads: np.ndarray
    prices: np.ndarray
    opts: ModelOptions


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


def build_hour_model(net: Network, loads_t, prices_t,
                     opts: ModelOptions | None = None) -> HourModel:
    """One hour's model; the branch and bound builds its relaxation."""
    opts = opts or ModelOptions()
    loads_t = np.asarray(loads_t, dtype=float)
    prices_t = np.asarray(prices_t, dtype=float)
    if loads_t.shape != (net.n_buses,):
        raise ValueError(f"expected {net.n_buses} loads, got {loads_t.shape}")
    if prices_t.shape != (len(net.substations),):
        raise ValueError(
            f"expected {len(net.substations)} prices, got {prices_t.shape}")
    k_star = required_closed_flexible_count(net)
    return HourModel(k_star, net, loads_t, prices_t, opts)


def evaluate_topology(net: Network, closed_flexible, loads, prices_t,
                      opts: ModelOptions | None = None) -> HourSolution | None:
    """Exact physics of one candidate topology, or None if infeasible.

    closed_flexible names the flexible lines to close; always-closed lines
    are implied. Feasible means: spanning forest, angles within bounds,
    no thermal violation. The cost is priced from the recomputed flows,
    independent of any LP arithmetic.
    """
    opts = opts or ModelOptions()
    closed_flexible = frozenset(closed_flexible)
    closed = {l.id for l in net.nonflexible_lines} | closed_flexible
    if not is_spanning_forest(net, closed):
        return None
    solution = solve_flows(net, closed, loads)
    if np.any(solution.angles > opts.angle_hi + 1e-9):
        return None
    if np.any(solution.angles < opts.angle_lo - 1e-9):
        return None
    if check_limits(net, solution):
        return None
    prices_by_bus = dict(zip(net.substations, prices_t))
    cost = sum(prices_by_bus[b] * p for b, p in sorted(solution.injections.items()))
    statuses = {l.id: int(l.id in closed_flexible) for l in net.flexible_lines}
    flows = {l.id: solution.flow(l.id) for l in net.lines}
    return HourSolution(statuses=statuses, injections=dict(solution.injections),
                        angles=solution.angles, flows=flows, cost=float(cost))


# ---------------------------------------------------------------------------
# ranked enumeration over the listed forests


# assignments priced per vectorized batch
_PRICE_BLOCK = 512


def _solve_by_enumeration(model: HourModel, forests: _Forests) -> HourSolution:
    """The cheapest forest that passes exact physics.

    In the lossless DC model an hour's cost depends only on which
    substation feeds each bus, so each distinct assignment is priced
    once, bus by bus, and its forests take its cost. Assignments that
    load some substation beyond what its lines can carry are dropped
    whole: a substation sends out what it serves less its own bus's
    load, and no line can carry more than its rating. The remaining
    assignments are ranked by cost, and their forests are screened in
    (cost, forest index) order and confirmed with evaluate_topology; the
    first confirmed forest is optimal. Among equal costs the
    lexicographically smallest open set wins.
    """
    net, loads = model.net, model.loads
    subs = list(net.substations)
    labels = forests.assignments
    cost = np.empty(labels.shape[1])
    served = np.empty((len(subs), labels.shape[1]))
    for lo in range(0, labels.shape[1], _PRICE_BLOCK):
        part = labels[:, lo:lo + _PRICE_BLOCK]
        # summed bus by bus (a reduction over rows adds them in order), as
        # a single forest's cost would be, so that ties are exact
        priced = model.prices[part]
        priced *= loads[:, None]
        np.add.reduce(priced, axis=0, out=cost[lo:lo + _PRICE_BLOCK])
        bus_loads = np.broadcast_to(loads[:, None], part.shape)
        for s in range(len(subs)):
            np.add.reduce(bus_loads, axis=0, where=part == s,
                          out=served[s, lo:lo + _PRICE_BLOCK])
    served -= loads[subs, None]
    ranked = np.flatnonzero(np.all(served <= forests.capacity[:, None], axis=0))
    ranked = ranked[np.argsort(cost[ranked], kind="stable")]
    for chunk in _in_rank_order(forests, ranked, cost[ranked]):
        for f in chunk[_screen(model, forests, chunk)]:
            closed = {net.lines[k].id for k in forests.closed_lines(f)}
            sol = evaluate_topology(net, closed, model.loads, model.prices,
                                    model.opts)
            if sol is not None:
                return sol._replace(stats=SolveStats(
                    nodes=0, relaxations=0, incumbent_updates=1,
                    best_bound=sol.cost))
    raise InfeasibleHourError("no feasible radial topology")


# ---------------------------------------------------------------------------
# branch and bound over line statuses


# statuses within this of 0 or 1 count as integral
_INTEGRALITY_TOL = 1e-6


class _Milp:
    """One hour's search data: the model, its LP relaxation lp (status
    columns j_col bounded to [0, 1]), and the contraction that merges the
    substations into root (bus b maps to contract[b]) with the
    always-closed lines already joined in base_dsu."""

    def __init__(self, model: HourModel):
        from .lp import LinearProgram
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


def _bridges(n_nodes: int, edges: list[tuple[int, int]]) -> set[int]:
    """Indices of bridge edges in an undirected multigraph."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_nodes)]
    for idx, (u, v) in enumerate(edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    disc = [-1] * n_nodes
    low = [0] * n_nodes
    out: set[int] = set()
    timer = 0
    for start in range(n_nodes):
        if disc[start] != -1:
            continue
        disc[start] = low[start] = timer
        timer += 1
        stack = [(start, -1, iter(adj[start]))]
        while stack:
            u, via, it = stack[-1]
            step = next(it, None)
            if step is None:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[u])
                    if low[u] > disc[parent]:
                        out.add(via)
                continue
            v, idx = step
            if idx == via:
                continue
            if disc[v] == -1:
                disc[v] = low[v] = timer
                timer += 1
                stack.append((v, idx, iter(adj[v])))
            else:
                low[u] = min(low[u], disc[v])
    return out


def _propagate(milp: _Milp, fixed: dict[int, int]) -> dict[int, int] | None:
    """Close out forced statuses; None when the fixings are contradictory.

    Respect the closed-count quota, reject cycles and
    substation-substation paths among closed lines, force lines whose
    closure is the only way to reach some bus (bridges of the not-open
    graph), and discard lines that could only ever close a loop.
    """
    net, c, j_col = milp.net, milp.contract, milp.j_col
    k_star = milp.model.k_star
    lines = net.lines_by_id
    fixed = dict(fixed)
    changed = True
    while changed:
        changed = False
        closed = [lid for lid, col in j_col.items() if fixed.get(col) == 1]
        opened = {lid for lid, col in j_col.items() if fixed.get(col) == 0}
        undecided = [lid for lid, col in j_col.items() if col not in fixed]
        if len(closed) > k_star:
            return None
        if len(closed) + len(undecided) < k_star:
            return None

        dsu = milp.base_dsu.copy()
        for lid in closed:
            line = lines[lid]
            if not dsu.unite(c[line.from_bus], c[line.to_bus]):
                return None

        # a line whose ends are already connected could only close a loop
        still = []
        for lid in undecided:
            line = lines[lid]
            if dsu.joined(c[line.from_bus], c[line.to_bus]):
                fixed[j_col[lid]] = 0
                opened.add(lid)
                changed = True
            else:
                still.append(lid)
        undecided = still
        if len(closed) + len(undecided) < k_star:
            return None

        if len(closed) == k_star:
            for lid in undecided:
                fixed[j_col[lid]] = 0
            changed = bool(undecided) or changed
            continue
        if len(closed) + len(undecided) == k_star:
            for lid in undecided:
                line = lines[lid]
                if not dsu.unite(c[line.from_bus], c[line.to_bus]):
                    return None
                fixed[j_col[lid]] = 1
            changed = bool(undecided) or changed
            continue

        # every bus must still be reachable without the opened lines
        reach = dsu.copy()
        for lid in undecided:
            line = lines[lid]
            reach.unite(c[line.from_bus], c[line.to_bus])
        if any(not reach.joined(b, milp.root) for b in range(net.n_buses)):
            return None

        # a bridge of the not-open graph is the sole path somewhere
        und_set = set(undecided)
        edges = []
        tags: list[str | None] = []
        for line in net.lines:
            if line.flexible and (line.id in opened):
                continue
            edges.append((c[line.from_bus], c[line.to_bus]))
            tags.append(line.id if line.id in und_set else None)
        for idx in _bridges(net.n_buses + 1, edges):
            lid = tags[idx]
            if lid is not None:
                fixed[j_col[lid]] = 1
                changed = True
    return fixed


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


def _polish(milp: _Milp, closed, sol: HourSolution) -> HourSolution:
    """Greedy single-swap descent from the closed set whose physics is sol.

    Removing a closed line splits the contracted tree in two; a swap stays
    radial only when the added line joins the two sides again, so other
    swaps are skipped before their physics.
    """
    model, lines, c = milp.model, milp.net.lines_by_id, milp.contract
    flex = sorted(milp.j_col)
    closed = set(closed)
    improved = True
    while improved:
        improved = False
        for out_id in sorted(closed):
            split = milp.base_dsu.copy()
            for lid in closed - {out_id}:
                split.unite(c[lines[lid].from_bus], c[lines[lid].to_bus])
            for in_id in flex:
                if in_id in closed or split.joined(
                        c[lines[in_id].from_bus], c[lines[in_id].to_bus]):
                    continue
                cand = frozenset((closed - {out_id}) | {in_id})
                swapped = evaluate_topology(milp.net, cand, model.loads,
                                            model.prices, model.opts)
                if swapped is not None and swapped.cost < sol.cost - 1e-12:
                    closed, sol = set(cand), swapped
                    improved = True
                    break
            if improved:
                break
    return sol


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
    from .lp import OPTIMAL, BlockSolver
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
        sol = evaluate_topology(model.net, closed, model.loads, model.prices,
                                model.opts)
        if sol is None or sol.cost >= inc_cost:
            return
        if polish:
            sol = _polish(milp, closed, sol)
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

    root_fixed = _propagate(milp, {})
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
        polished = _polish(milp, incumbent.closed_flexible(), incumbent)
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
        return _propagate(milp, {**fixed, **fixes})

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
            child = _propagate(milp, child)
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


def solve_hour(model: HourModel, opts: SolverOptions | None = None,
               seeds=(), forests: _Forests | None = None) -> HourSolution:
    """Optimal statuses for one hour; seeds are candidate status dicts.

    forests is the network's forest set (built here when not given). A
    network whose radial topologies are listed (within the enumeration
    limits of forests.py) is solved by ranked enumeration; opts and seeds
    then go unused. Other networks go to the branch and
    bound.
    """
    opts = opts or SolverOptions()
    if forests is None:
        forests = _radial_forests(model.net)
    if forests.listed:
        return _solve_by_enumeration(model, forests)
    sol, stats = _solve_milp(model, opts, seeds)
    return sol._replace(stats=stats)


def _hour_result(t: int, solved: dict[int, HourSolution], call, *args):
    """call(*args) for hour t, a failure re-raised with the hour's index
    and the hours solved before it."""
    try:
        return call(*args)
    except (InfeasibleHourError, NodeLimitError) as exc:
        raise type(exc)(f"hour {t + 1}: {exc}", hour=t, partial=solved) from exc


def solve_day(problem: DayProblem, model_opts: ModelOptions | None = None,
              solver_opts: SolverOptions | None = None,
              jobs: int = 1) -> DaySolution:
    """Solve every hour of the horizon and sum the costs.

    Hours share no variables, so they are solved independently. The
    network's forest set is built once, after the first hour's model. A
    listed network's hours are short, so they are solved in sequence
    whatever jobs says. Otherwise, with jobs > 1, the hours go to the
    branch and bound on min(jobs, horizon) worker processes, which get the
    count-only forest set with each hour; in sequence, each hour's branch
    and bound is seeded with the previous hour's topology. A failing hour
    raises with its 0-based index and, as partial, the hours before it;
    the pool cancels the hours it has not started.
    """
    model_opts = model_opts or ModelOptions()
    solver_opts = solver_opts or SolverOptions()
    report = validate(problem.net)
    if not report.is_valid:
        raise StructureError(
            "; ".join(f.message for f in report.errors) or "invalid network",
            report=report)

    solved: dict[int, HourSolution] = {}
    pending = {}
    forests: _Forests | None = None
    pool = None
    try:
        for t in range(problem.horizon):
            loads_t = apply_epsilon_loads(problem.loads[t], model_opts.epsilon)
            model = build_hour_model(problem.net, loads_t, problem.prices[t],
                                     model_opts)
            if forests is None:
                forests = _radial_forests(problem.net)
                if jobs > 1 and not forests.listed:
                    from concurrent.futures import ProcessPoolExecutor
                    pool = ProcessPoolExecutor(min(jobs, problem.horizon))
            if pool is not None:
                pending[t] = pool.submit(solve_hour, model, solver_opts, (), forests)
            else:
                seeds = [solved[t - 1].statuses] if t else []
                solved[t] = _hour_result(t, solved, solve_hour, model,
                                         solver_opts, seeds, forests)
        for t, future in pending.items():
            solved[t] = _hour_result(t, solved, future.result)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return DaySolution.from_hours(solved[t] for t in range(problem.horizon))
