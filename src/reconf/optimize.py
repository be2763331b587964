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
verifying every candidate with exact physics. The search lives in
bnb.py, which solve_hour imports, and with it the LP engine, only then.
Its propagation, polish and exact physics stay here: the search calls
them through this module's names, which perfbench's spans wrap.

solve_day chains the hourly solves, those of the branch and bound
optionally in parallel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .dcflow import check_limits, solve_flows
from .forests import _in_rank_order, _radial_forests, _screen
from .model import (
    Network,
    StructureError,
    _Frozen,
    is_spanning_forest,
    required_closed_flexible_count,
    validate,
)

if TYPE_CHECKING:
    from .bnb import _Milp
    from .forests import _Forests


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
# propagation and polish for the branch and bound of bnb.py


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


def solve_hour(model: HourModel, opts: SolverOptions | None = None,
               seeds=(), forests: _Forests | None = None) -> HourSolution:
    """Optimal statuses for one hour; seeds are candidate status dicts.

    forests is the network's forest set (built here when not given). A
    network whose radial topologies are listed (within the enumeration
    limits of forests.py) is solved by ranked enumeration; opts and seeds
    then go unused. Other networks go to the branch and bound of bnb.py,
    imported only here.
    """
    opts = opts or SolverOptions()
    if forests is None:
        forests = _radial_forests(model.net)
    if forests.listed:
        return _solve_by_enumeration(model, forests)
    from .bnb import _solve_milp
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
