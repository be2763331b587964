"""Day-ahead switching optimization for radial distribution networks.

Each hour is a mixed-integer problem: choose which flexible lines to
close so that, together with the always-closed lines, every bus is served
radially within thermal limits, at minimum total substation energy cost.
The integer search is a best-bound branch and bound over line statuses
with an LP relaxation; small instances can instead be solved by
exhaustive enumeration, which doubles as an independent check. A day
driver chains the hourly solves (optionally in parallel) and a monolithic
full-horizon build exists to test that the decomposition is exact.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .dcflow import FlowSolution, check_limits, solve_flows
from .lp import OPTIMAL, BlockSolver, LinearProgram
from .model import (
    DisjointSet,
    Network,
    StructureError,
    is_spanning_forest,
    required_closed_flexible_count,
    validate,
)


class InfeasibleHourError(ValueError):
    """No radial topology can serve the hour's loads within limits.

    hour is the 0-based hour index when raised by the day driver (None for
    a standalone solve); partial maps already-solved hour indices to their
    solutions so a failed day can still be diagnosed.
    """

    def __init__(self, message: str, hour: int | None = None, partial=None):
        super().__init__(message)
        self.hour = hour
        self.partial: dict[int, HourSolution] = dict(partial or {})


class NodeLimitError(RuntimeError):
    """Branch and bound exhausted its node budget before proving optimality."""


@dataclass(frozen=True)
class ModelOptions:
    """Model parameters: angle bounds (rad), which exact physics enforces,
    and the zero-load fill-in."""

    angle_lo: float = -0.6
    angle_hi: float = 0.6
    epsilon: float = 1e-5

    def __post_init__(self):
        if not self.angle_lo < self.angle_hi:
            raise ValueError("angle_lo must be strictly below angle_hi")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")


@dataclass(frozen=True)
class SolverOptions:
    """Search parameters for the branch and bound."""

    gap: float = 1e-6
    int_tol: float = 1e-6
    max_nodes: int = 100_000
    warm_start: bool = True

    def __post_init__(self):
        if self.gap <= 0 or self.int_tol <= 0:
            raise ValueError("gap and int_tol must be positive")
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be at least 1")


@dataclass(frozen=True)
class DayProblem:
    """A horizon of per-bus loads (MW) and per-substation prices.

    loads has shape (T, n_buses) indexed by bus id; prices has shape
    (T, n_substations) ordered like net.substations (ascending bus id).
    """

    net: Network
    loads: np.ndarray
    prices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "loads", np.asarray(self.loads, dtype=float))
        object.__setattr__(self, "prices", np.asarray(self.prices, dtype=float))
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


@dataclass(frozen=True)
class SolveStats:
    """Search effort: nodes expanded, relaxations solved, proof bound."""

    nodes: int
    relaxations: int
    incumbent_updates: int
    best_bound: float


@dataclass(frozen=True)
class HourSolution:
    """One hour's optimum: line statuses, physics, and its energy cost."""

    statuses: dict[str, int]
    injections: dict[int, float]
    angles: np.ndarray
    flows: dict[str, float]
    cost: float
    stats: SolveStats | None = None

    def closed_flexible(self) -> frozenset[str]:
        return frozenset(lid for lid, on in self.statuses.items() if on)


@dataclass(frozen=True)
class DaySolution:
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


@dataclass(frozen=True)
class _HourIndex:
    """Column positions of one hour's variables inside a LinearProgram."""

    sub_col: dict[int, int]
    flow_col: dict[str, int]
    j_col: dict[str, int]


@dataclass(frozen=True)
class HourModel:
    """The LP relaxation of one hour plus everything needed to verify it."""

    lp: LinearProgram
    index: _HourIndex
    k_star: int
    net: Network
    loads: np.ndarray
    prices: np.ndarray
    opts: ModelOptions


def _add_hour(lp: LinearProgram, net: Network, loads, prices) -> _HourIndex:
    """Append one hour's variables and rows to lp; return the column map.

    The relaxation carries no angles. On a spanning forest the loads fix
    every flow, so angles matter only through their bounds, and those are
    enforced exactly by evaluate_topology at every candidate the search
    accepts; the LP only has to bound the cost from below.
    """
    price_of = dict(zip(net.substations, prices))

    sub_col = {b: lp.add_variable(cost=price_of[b]) for b in net.substations}
    flow_col = {}
    for line in net.lines:
        if line.flexible:
            flow_col[line.id] = lp.add_variable(0.0, -np.inf, np.inf)
        else:
            flow_col[line.id] = lp.add_variable(0.0, -line.rating, line.rating)
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

    return _HourIndex(sub_col, flow_col, j_col)


def build_hour_model(net: Network, loads_t, prices_t,
                     opts: ModelOptions | None = None) -> HourModel:
    """Build one hour's relaxation; J columns carry [0, 1] bounds."""
    opts = opts or ModelOptions()
    loads_t = np.asarray(loads_t, dtype=float)
    prices_t = np.asarray(prices_t, dtype=float)
    if loads_t.shape != (net.n_buses,):
        raise ValueError(f"expected {net.n_buses} loads, got {loads_t.shape}")
    if prices_t.shape != (len(net.substations),):
        raise ValueError(
            f"expected {len(net.substations)} prices, got {prices_t.shape}")
    k_star = required_closed_flexible_count(net)
    lp = LinearProgram()
    index = _add_hour(lp, net, loads_t, prices_t)
    return HourModel(lp, index, k_star, net, loads_t, prices_t, opts)


@dataclass(frozen=True)
class DayModel:
    """All hours concatenated in one LinearProgram (testing aid)."""

    lp: LinearProgram
    indexes: tuple[_HourIndex, ...]
    k_star: int
    net: Network
    loads: np.ndarray
    prices: np.ndarray
    opts: ModelOptions


def build_day_model(problem: DayProblem,
                    opts: ModelOptions | None = None) -> DayModel:
    """Build the whole horizon as one program; hours share no columns."""
    opts = opts or ModelOptions()
    k_star = required_closed_flexible_count(problem.net)
    lp = LinearProgram()
    indexes = []
    for t in range(problem.horizon):
        loads_t = apply_epsilon_loads(problem.loads[t], opts.epsilon)
        indexes.append(_add_hour(lp, problem.net, loads_t, problem.prices[t]))
    return DayModel(lp, tuple(indexes), k_star, problem.net,
                    problem.loads, problem.prices, opts)


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


def enumerate_hour(net: Network, loads_t, prices_t,
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


# ---------------------------------------------------------------------------
# branch and bound over line statuses


@dataclass(frozen=True)
class _Group:
    """One hour's binary block: its J columns, quota, and data."""

    j_col: dict[str, int]
    k_star: int
    loads: np.ndarray
    prices: np.ndarray


@dataclass
class _Milp:
    lp: LinearProgram
    net: Network
    opts: ModelOptions
    groups: list[_Group]
    base_dsu: DisjointSet = field(init=False)
    root: int = field(init=False)
    contract: list[int] = field(init=False)

    def __post_init__(self):
        n = self.net.n_buses
        self.root = n
        dsu = DisjointSet(n + 1)
        for b in self.net.substations:
            dsu.unite(b, self.root)
        for line in self.net.nonflexible_lines:
            if not dsu.unite(line.from_bus, line.to_bus):
                raise StructureError(
                    "always-closed lines already form a loop or tie substations")
        self.base_dsu = dsu
        subs = set(self.net.substations)
        self.contract = [self.root if b in subs else b for b in range(n)]
        self.contract.append(self.root)


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

    Per hour: respect the closed-count quota, reject cycles and
    substation-substation paths among closed lines, force lines whose
    closure is the only way to reach some bus (bridges of the not-open
    graph), and discard lines that could only ever close a loop.
    """
    net, c = milp.net, milp.contract
    lines = net.lines_by_id
    fixed = dict(fixed)
    changed = True
    while changed:
        changed = False
        for group in milp.groups:
            closed = [lid for lid, col in group.j_col.items() if fixed.get(col) == 1]
            opened = {lid for lid, col in group.j_col.items() if fixed.get(col) == 0}
            undecided = [lid for lid, col in group.j_col.items()
                         if col not in fixed]
            if len(closed) > group.k_star:
                return None
            if len(closed) + len(undecided) < group.k_star:
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
                    fixed[group.j_col[lid]] = 0
                    opened.add(lid)
                    changed = True
                else:
                    still.append(lid)
            undecided = still
            if len(closed) + len(undecided) < group.k_star:
                return None

            if len(closed) == group.k_star:
                for lid in undecided:
                    fixed[group.j_col[lid]] = 0
                changed = bool(undecided) or changed
                continue
            if len(closed) + len(undecided) == group.k_star:
                for lid in undecided:
                    line = lines[lid]
                    if not dsu.unite(c[line.from_bus], c[line.to_bus]):
                        return None
                    fixed[group.j_col[lid]] = 1
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
                    fixed[group.j_col[lid]] = 1
                    changed = True
    return fixed


def _greedy_closed(milp: _Milp, group: _Group, order: list[str]) -> frozenset[str] | None:
    """First spanning forest found by closing lines in the given order."""
    lines = milp.net.lines_by_id
    dsu = milp.base_dsu.copy()
    closed = set()
    for lid in order:
        if len(closed) == group.k_star:
            break
        line = lines[lid]
        if dsu.unite(milp.contract[line.from_bus], milp.contract[line.to_bus]):
            closed.add(lid)
    return frozenset(closed) if len(closed) == group.k_star else None


def _candidate_solution(milp: _Milp, closed_per_group) -> tuple[float, list[HourSolution]] | None:
    """Exact-physics evaluation of a full assignment across all hours."""
    hours = []
    total = 0.0
    for group, closed in zip(milp.groups, closed_per_group):
        if closed is None:
            return None
        sol = evaluate_topology(milp.net, closed, group.loads, group.prices, milp.opts)
        if sol is None:
            return None
        hours.append(sol)
        total += sol.cost
    return total, hours


def _polish(milp: _Milp, closed_per_group, hours):
    """Greedy single-swap descent on each group's closed set."""
    best_closed = list(closed_per_group)
    best_hours = list(hours)
    for gi, group in enumerate(milp.groups):
        flex = sorted(group.j_col)
        closed = set(best_closed[gi])
        cost = best_hours[gi].cost
        improved = True
        while improved:
            improved = False
            for out_id in sorted(closed):
                for in_id in flex:
                    if in_id in closed:
                        continue
                    cand = frozenset((closed - {out_id}) | {in_id})
                    sol = evaluate_topology(milp.net, cand, group.loads,
                                            group.prices, milp.opts)
                    if sol is not None and sol.cost < cost - 1e-12:
                        closed, cost = set(cand), sol.cost
                        best_hours[gi] = sol
                        improved = True
                        break
                if improved:
                    break
        best_closed[gi] = frozenset(closed)
    total = float(sum(h.cost for h in best_hours))
    return total, best_hours, best_closed


def _solve_milp(milp: _Milp, opts: SolverOptions,
                seeds=()) -> tuple[list[HourSolution], SolveStats]:
    """Best-bound branch and bound on the J columns of every group.

    seeds are full closed-set assignments (one frozenset per group) tried
    as incumbents before the search. Candidates found by the search are
    always re-verified with exact flow physics before acceptance. Nodes
    are evaluated lazily on pop, warm-starting each relaxation from the
    parent's basis; fully-decided assignments skip the relaxation and go
    straight to physics.
    """
    solver = BlockSolver(milp.lp)
    relaxations = 0

    def relax(fixed, warm=None):
        nonlocal relaxations
        relaxations += 1
        overrides = {col: (float(v), float(v)) for col, v in fixed.items()}
        return solver.solve_with_basis(overrides, warm)

    incumbent: list[HourSolution] | None = None
    inc_cost = np.inf
    updates = 0
    n_j_total = sum(len(g.j_col) for g in milp.groups)

    def offer(closed_per_group, polish=False) -> None:
        nonlocal incumbent, inc_cost, updates
        got = _candidate_solution(milp, closed_per_group)
        if got is None or got[0] >= inc_cost:
            return
        total, hours = got
        if polish:
            total, hours, _closed = _polish(milp, closed_per_group, hours)
        inc_cost, incumbent = total, hours
        updates += 1

    def offer_fixed(fixed) -> None:
        offer([frozenset(lid for lid, col in g.j_col.items()
                         if fixed.get(col) == 1) for g in milp.groups],
              polish=True)

    def finish(best_bound: float):
        if incumbent is None:
            raise InfeasibleHourError("no feasible radial topology")
        stats = SolveStats(nodes=nodes, relaxations=relaxations,
                           incumbent_updates=updates,
                           best_bound=float(best_bound))
        return incumbent, stats

    nodes = 0
    for seed in seeds:
        offer(seed)
    id_order = [sorted(g.j_col) for g in milp.groups]
    offer([_greedy_closed(milp, g, order)
           for g, order in zip(milp.groups, id_order)])

    root_fixed = _propagate(milp, {})
    if root_fixed is None:
        raise InfeasibleHourError("no feasible radial topology")
    if len(root_fixed) == n_j_total:
        # propagation alone settles every switch
        offer_fixed(root_fixed)
        return finish(inc_cost)

    root, root_snaps = relax(root_fixed)
    if root.status != OPTIMAL:
        raise InfeasibleHourError("no feasible radial topology")
    root_bound = root.objective

    # round the root relaxation: close lines by descending fractional value
    offer([_greedy_closed(milp, g, sorted(g.j_col,
                                          key=lambda lid: (-root.values[g.j_col[lid]], lid)))
           for g in milp.groups])
    if incumbent is not None:
        total, hours, _closed = _polish(
            milp, [frozenset(h.closed_flexible()) for h in incumbent], incumbent)
        if total < inc_cost:
            inc_cost, incumbent = total, hours
            updates += 1

    def gap_slack() -> float:
        return opts.gap * max(1.0, abs(inc_cost))

    def gap_closed(bound: float) -> bool:
        if incumbent is None:
            return False
        return inc_cost - bound <= gap_slack()

    col_of = {}
    for bi, mapping in enumerate(solver.local_index):
        for g_col, l_col in mapping.items():
            col_of[g_col] = (bi, l_col)

    def rc_fix(fixed, bound, snaps):
        """Fix switches whose flip is already priced out of the gap.

        The relaxation's reduced costs bound the objective increase of
        moving a switch off its resting bound; when bound + rate clears
        the incumbent cutoff, no improving solution flips that switch,
        so it is fixed for the entire subtree. Returns the (possibly
        augmented and propagated) assignment, or None when propagation
        proves the subtree empty of improvements.
        """
        if incumbent is None or snaps is None:
            return fixed
        rates = [snap.bound_rates() if snap is not None else None
                 for snap in snaps]
        cutoff = inc_cost - gap_slack()
        fixes = {}
        for g in milp.groups:
            for col in g.j_col.values():
                if col in fixed:
                    continue
                bi, l_col = col_of[col]
                if rates[bi] is None:
                    continue
                up, down = rates[bi]
                if up[l_col] > 0.0 and bound + up[l_col] >= cutoff:
                    fixes[col] = 0
                elif down[l_col] > 0.0 and bound + down[l_col] >= cutoff:
                    fixes[col] = 1
        if not fixes:
            return fixed
        return _propagate(milp, {**fixed, **fixes})

    tightened = rc_fix(root_fixed, root_bound, root_snaps)
    if tightened is None:
        return finish(inc_cost)  # nothing better exists
    if len(tightened) > len(root_fixed):
        root_fixed = tightened
        if len(root_fixed) == n_j_total:
            offer_fixed(root_fixed)
            return finish(inc_cost)
        root, new_snaps = relax(root_fixed, root_snaps)
        if root.status != OPTIMAL:
            return finish(inc_cost)
        root_snaps = new_snaps
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

    heap = [(root_bound, 0, root_fixed, (root.values, root_snaps, True, None))]
    seq = 1
    best_bound = root_bound
    while heap:
        key, _, fixed, (values, snaps, solved, binfo) = heapq.heappop(heap)
        best_bound = key
        if gap_closed(key):
            best_bound = inc_cost
            break
        if not solved:
            if nodes >= opts.max_nodes:
                raise NodeLimitError(
                    f"node limit {opts.max_nodes} reached with gap still open")
            nodes += 1
            out, new_snaps = relax(fixed, snaps)
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
                                      (out.values, new_snaps, True, None)))
                seq += 1
                continue
            values, snaps = out.values, new_snaps
            key = bound
            tightened = rc_fix(fixed, bound, snaps)
            if tightened is None:
                continue
            if len(tightened) == n_j_total:
                offer_fixed(tightened)
                continue
            fixed = tightened

        cells = [c for c in pc.values() if c[1]]
        avg_rate = (sum(c[0] / c[1] for c in cells) / len(cells)) if cells else 1.0
        branch_col = -1
        best_score = -1.0
        fallback_col = -1
        integral = True
        for g, order in zip(milp.groups, id_order):
            for lid in order:
                col = g.j_col[lid]
                if col in fixed:
                    continue
                if fallback_col < 0:
                    fallback_col = col
                f = float(values[col])
                if min(f, 1.0 - f) <= opts.int_tol:
                    continue
                integral = False
                score = (max(pc_rate(col, 1, avg_rate) * (1.0 - f), 1e-9)
                         * max(pc_rate(col, 0, avg_rate) * f, 1e-9))
                if score > best_score:
                    best_score = score
                    branch_col = col
            if branch_col >= 0:
                # groups are independent blocks: settling one before
                # touching the next keeps the frontier from multiplying
                break
        if integral:
            # the rounded candidate may still lose real flow to a tiny
            # status fraction on a high-rating line, or break an angle
            # bound the relaxation does not carry, so it only closes the
            # subtree when it attains the node bound within gap
            offer([frozenset(
                lid for lid, col in g.j_col.items()
                if (fixed[col] == 1 if col in fixed else values[col] > 0.5))
                for g in milp.groups], polish=True)
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
            if len(child) == n_j_total:
                offer_fixed(child)  # fully decided: physics, not another LP
                continue
            delta = 1.0 - f_branch if value == 1 else f_branch
            heapq.heappush(heap, (key, seq, child,
                                  (None, snaps, False, (branch_col, value, delta))))
            seq += 1
    else:
        best_bound = inc_cost

    return finish(best_bound)


def _milp_from_hour(model: HourModel) -> _Milp:
    group = _Group(model.index.j_col, model.k_star, model.loads, model.prices)
    return _Milp(model.lp, model.net, model.opts, [group])


def solve_hour(model: HourModel, opts: SolverOptions | None = None,
               seeds=()) -> HourSolution:
    """Optimal statuses for one hour; seeds are candidate status dicts."""
    opts = opts or SolverOptions()
    milp = _milp_from_hour(model)
    seed_sets = []
    for statuses in seeds:
        closed = frozenset(lid for lid, on in statuses.items() if on)
        if closed <= set(model.index.j_col) and len(closed) == model.k_star:
            seed_sets.append([closed])
    hours, stats = _solve_milp(milp, opts, seed_sets)
    sol = hours[0]
    return HourSolution(statuses=sol.statuses, injections=sol.injections,
                        angles=sol.angles, flows=sol.flows, cost=sol.cost,
                        stats=stats)


def _solve_hour_task(args) -> HourSolution:
    net, loads_t, prices_t, model_opts, solver_opts = args
    model = build_hour_model(net, loads_t, prices_t, model_opts)
    return solve_hour(model, solver_opts)


def solve_day(problem: DayProblem, model_opts: ModelOptions | None = None,
              solver_opts: SolverOptions | None = None, jobs: int = 1,
              monolithic: bool = False) -> DaySolution:
    """Solve every hour of the horizon and sum the costs.

    Hours share no variables, so they are solved independently: in
    sequence (warm-starting each hour from the previous topology), in
    parallel when jobs > 1, or as one concatenated program when
    monolithic is set (a testing aid; jobs is then ignored).
    """
    model_opts = model_opts or ModelOptions()
    solver_opts = solver_opts or SolverOptions()
    report = validate(problem.net)
    if not report.is_valid:
        raise StructureError(
            "; ".join(f.message for f in report.errors) or "invalid network")

    if monolithic:
        # one program for the whole horizon, then solved hour-block by
        # hour-block: hours share no columns, so each block's optimum is
        # independent, while the matrix content still comes from the
        # day-wide builder rather than the per-hour one
        dm = build_day_model(problem, model_opts)
        lp = dm.lp
        hours = []
        for t, ix in enumerate(dm.indexes):
            cols = sorted(set(ix.sub_col.values()) | set(ix.flow_col.values())
                          | set(ix.j_col.values()))
            colset = set(cols)
            remap = {g: l for l, g in enumerate(cols)}
            sub = LinearProgram(
                objective=[lp.objective[g] for g in cols],
                lower=[lp.lower[g] for g in cols],
                upper=[lp.upper[g] for g in cols])
            for i, row in enumerate(lp.rows):
                if row and row[0][0] in colset:
                    sub.add_row(lp.senses[i], lp.rhs[i],
                                [(remap[c], v) for c, v in row])
            group = _Group({lid: remap[c] for lid, c in ix.j_col.items()},
                           dm.k_star,
                           apply_epsilon_loads(problem.loads[t], model_opts.epsilon),
                           problem.prices[t])
            milp = _Milp(sub, problem.net, model_opts, [group])
            try:
                hours_t, _stats = _solve_milp(milp, solver_opts)
            except InfeasibleHourError as exc:
                raise InfeasibleHourError(f"hour {t + 1}: {exc}", hour=t) from exc
            except NodeLimitError as exc:
                raise NodeLimitError(f"hour {t + 1}: {exc}") from exc
            hours.extend(hours_t)
        return DaySolution.from_hours(hours)

    if jobs > 1:
        tasks = [(problem.net,
                  apply_epsilon_loads(problem.loads[t], model_opts.epsilon),
                  problem.prices[t], model_opts, solver_opts)
                 for t in range(problem.horizon)]
        from concurrent.futures import ProcessPoolExecutor
        solved: dict[int, HourSolution] = {}
        failure: tuple[int, Exception] | None = None
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {t: pool.submit(_solve_hour_task, task)
                       for t, task in enumerate(tasks)}
            for t in range(problem.horizon):
                try:
                    solved[t] = futures[t].result()
                except (InfeasibleHourError, NodeLimitError) as exc:
                    if failure is None:
                        failure = (t, exc)
        if failure is not None:
            t, exc = failure
            if isinstance(exc, NodeLimitError):
                raise NodeLimitError(f"hour {t + 1}: {exc}") from exc
            raise InfeasibleHourError(f"hour {t + 1}: {exc}", hour=t,
                                      partial=solved) from exc
        return DaySolution.from_hours(solved[t] for t in range(problem.horizon))

    hours: list[HourSolution] = []
    previous: HourSolution | None = None
    for t in range(problem.horizon):
        loads_t = apply_epsilon_loads(problem.loads[t], model_opts.epsilon)
        model = build_hour_model(problem.net, loads_t, problem.prices[t], model_opts)
        seeds = []
        if solver_opts.warm_start and previous is not None:
            seeds.append(previous.statuses)
        try:
            sol = solve_hour(model, solver_opts, seeds)
        except InfeasibleHourError as exc:
            raise InfeasibleHourError(
                f"hour {t + 1}: {exc}", hour=t,
                partial={i: h for i, h in enumerate(hours)}) from exc
        except NodeLimitError as exc:
            raise NodeLimitError(f"hour {t + 1}: {exc}") from exc
        hours.append(sol)
        previous = sol
    return DaySolution.from_hours(hours)
