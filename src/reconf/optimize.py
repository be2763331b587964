"""Day-ahead switching optimization for radial distribution networks.

Each hour is a mixed-integer problem: choose which flexible lines to
close so that, together with the always-closed lines, every bus is served
radially within thermal limits, at minimum total substation energy cost.

Count, then enumerate. The radial topologies are the spanning trees of
the network with its substations merged and its always-closed lines
contracted, and Kirchhoff's matrix-tree theorem counts them. When there
are at most _ENUMERATION_CAP of them and they fit in _ENUMERATION_BYTES
they are listed once per network, together with the few distinct
assignments of buses to substations they induce: in the lossless DC
model an hour's cost depends only on that assignment. Each hour prices
every assignment once, drops those that load a substation beyond what
its lines can carry, ranks the remaining forests by cost, and the
cheapest one that passes a vectorized rating and angle screen and then
exact physics is optimal; equal costs go to the lexicographically
smallest open set. Above the cap the hour is a best-bound branch and
bound over line statuses with an LP relaxation, verifying every
candidate with exact physics; the relaxation is built, and the LP
engine imported, only then.

enumerate_hour tries every closed set of the right size and serves as an
independent check on small instances. solve_day chains the hourly solves
(optionally in parallel) and a monolithic full-horizon build exists to
test that the branch and bound's decomposition is exact.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import prod
from typing import TYPE_CHECKING

import numpy as np

from .dcflow import FlowSolution, check_limits, solve_flows
from .model import (
    DisjointSet,
    Network,
    StructureError,
    is_spanning_forest,
    required_closed_flexible_count,
    validate,
)

if TYPE_CHECKING:
    from .lp import LinearProgram


class _HourError(Exception):
    """A failed hour.

    hour is the 0-based hour index when raised by the day driver (None for
    a standalone solve); partial maps already-solved hour indices to their
    solutions so a failed day can still be diagnosed.
    """

    def __init__(self, message: str, hour: int | None = None, partial=None):
        super().__init__(message)
        self.hour = hour
        self.partial: dict[int, HourSolution] = dict(partial or {})


class InfeasibleHourError(_HourError, ValueError):
    """No radial topology can serve the hour's loads within limits."""


class NodeLimitError(_HourError, RuntimeError):
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
    """One hour's data plus its LP relaxation, lp with column map index.

    Only the branch and bound reads the relaxation, so it is built on
    first access: an hour solved by ranked enumeration never builds it,
    and a process that only enumerates never imports the LP engine.
    """

    k_star: int
    net: Network
    loads: np.ndarray
    prices: np.ndarray
    opts: ModelOptions

    @cached_property
    def _relaxation(self) -> tuple[LinearProgram, _HourIndex]:
        from .lp import LinearProgram
        lp = LinearProgram()
        return lp, _add_hour(lp, self.net, self.loads, self.prices)

    @property
    def lp(self) -> LinearProgram:
        return self._relaxation[0]

    @property
    def index(self) -> _HourIndex:
        return self._relaxation[1]


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
    """One hour's model; its relaxation (J columns bounded to [0, 1]) is
    built when first read."""
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
    from .lp import LinearProgram
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
# count, then enumerate: ranked spanning forests

# A network is solved by ranked enumeration when it has at most
# _ENUMERATION_CAP radial topologies and listing and ranking them takes at
# most _ENUMERATION_BYTES (_forest_bytes); otherwise by branch and bound.
# Measured on case-4 variants (bench/cap_crossover.py, BENCH_cap.json):
# on 39 buses listing costs about 1 us and an hour 0.04-0.5 us per forest,
# and enumeration, listing included, beat the branch and bound on every
# hour up to the largest count tried, 398,545 (0.5 s + 0.07 s against
# 2.9-4.6 s); the cap stops there. Memory is the other limit: listing
# takes about 3 bytes per bus and forest (6 above 127 buses or 128
# lines; _forest_bytes), while the branch and bound's own peak grows with
# the square of the network (5 MB at 39 buses, 43 MB at 120, 262 MB at
# 300, where an hour took 47 s against 0.02-0.04 s). The budget keeps a
# forest set below that largest peak.
_ENUMERATION_CAP = 400_000
_ENUMERATION_BYTES = 256 * 2**20

# forests screened per vectorized batch while walking the ranked order
_SCREEN_CHUNK = 256

# the screen and the substation capacity pre-screen only discard forests
# that evaluate_topology would reject: these tolerances are looser than
# its 1e-6 MW rating and 1e-9 rad angle slack by far more than the
# round-off between the two flow computations
_SCREEN_RATING_TOL = 2e-6
_SCREEN_ANGLE_TOL = 1e-8


@dataclass(frozen=True)
class _Forests:
    """The radial topologies of one network, listed when there are few.

    count is Kirchhoff's count of spanning trees of the contracted graph
    (substations merged into one root, always-closed lines contracted).
    When it is at most _ENUMERATION_CAP and the forests fit in
    _ENUMERATION_BYTES they are listed, forest f being the f-th open set
    in lexicographic order of sorted line ids; otherwise the arrays are
    None. Per bus b and forest f, parent_line[b, f] is the index into
    net.lines of the line toward b's substation (-1 at substations) and
    depth[b, f] the number of lines between them. An hour's cost depends
    only on which substation feeds each bus, and many forests share that
    assignment: assignments[b, a] is the position in net.substations of
    the substation feeding b under distinct assignment a, and
    assignment[f] is forest f's. lines holds the network's line ends,
    ratings and reactances as arrays, and capacity[s] what substation s
    can send out: the ratings of its lines, each plus the screen's slack.
    """

    count: int | float          # a float only when above the cap
    assignment: np.ndarray | None = None
    assignments: np.ndarray | None = None
    parent_line: np.ndarray | None = None
    depth: np.ndarray | None = None
    lines: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    capacity: np.ndarray | None = None

    @property
    def listed(self) -> bool:
        return self.assignment is not None


def _base_contraction(net: Network) -> DisjointSet:
    """Buses 0..n-1 plus root n: substations merged into the root and
    always-closed lines contracted."""
    n = net.n_buses
    dsu = DisjointSet(n + 1)
    for b in net.substations:
        dsu.unite(b, n)
    for line in net.nonflexible_lines:
        if not dsu.unite(line.from_bus, line.to_bus):
            raise StructureError(
                "always-closed lines already form a loop or tie substations")
    return dsu


def _contracted_edges(net: Network) -> tuple[int, list[tuple[int, int, int]]]:
    """Node count and flexible edges (line index, u, v) of the contracted graph.

    Node 0 is the merged substations; buses joined by always-closed lines
    share a node. Flexible lines whose ends already share a node could
    only close a loop and are dropped; the rest come in sorted-id order.
    """
    n = net.n_buses
    dsu = _base_contraction(net)
    node = {dsu.find(n): 0}
    for b in range(n):
        node.setdefault(dsu.find(b), len(node))
    position = {line.id: i for i, line in enumerate(net.lines)}
    edges = []
    for line in sorted(net.flexible_lines, key=lambda l: l.id):
        u, v = node[dsu.find(line.from_bus)], node[dsu.find(line.to_bus)]
        if u != v:
            edges.append((position[line.id], u, v))
    return len(node), edges


def _spanning_tree_count(n_nodes: int, edges) -> int | float:
    """Kirchhoff's matrix-tree count: a cofactor of the graph Laplacian."""
    lap = np.zeros((n_nodes, n_nodes))
    for _, u, v in edges:
        lap[u, u] += 1.0
        lap[v, v] += 1.0
        lap[u, v] -= 1.0
        lap[v, u] -= 1.0
    sign, logdet = np.linalg.slogdet(lap[1:, 1:])
    if sign <= 0:
        return 0
    if logdet > np.log(_ENUMERATION_CAP) + 1.0:
        return float(np.exp(logdet))
    return round(float(np.exp(logdet)))


def _cycle_masks(n_nodes: int, edges) -> tuple[list[int], int]:
    """Each edge's fundamental cycles as a bitmask, and the cycle count.

    A reference spanning tree is grown greedily in edge order; non-tree
    edge j spans cycle j. Opening a set of edges leaves a spanning tree
    exactly when the set has one edge per cycle dimension and its masks
    are linearly independent over GF(2).
    """
    dsu = DisjointSet(n_nodes)
    tree_adj: list[list[tuple[int, int]]] = [[] for _ in range(n_nodes)]
    chords = []
    for k, (_, u, v) in enumerate(edges):
        if dsu.unite(u, v):
            tree_adj[u].append((v, k))
            tree_adj[v].append((u, k))
        else:
            chords.append(k)
    parent = [(-1, -1)] * n_nodes      # (parent node, tree edge to it)
    order, seen = [0], [False] * n_nodes
    seen[0] = True
    for u in order:
        for v, k in tree_adj[u]:
            if not seen[v]:
                seen[v] = True
                parent[v] = (u, k)
                order.append(v)
    # a tree edge lies on cycle j when exactly one end of chord j is below
    # it: XOR the chords' end bits up the tree
    masks = [0] * len(edges)
    below = [0] * n_nodes
    for j, k in enumerate(chords):
        _, u, v = edges[k]
        masks[k] = 1 << j
        below[u] ^= 1 << j
        below[v] ^= 1 << j
    for v in reversed(order[1:]):
        u, k = parent[v]
        masks[k] = below[v]
        below[u] ^= below[v]
    return masks, len(chords)


def _insert(basis: dict[int, int], vector: int) -> bool:
    """Add vector to a GF(2) basis keyed by leading bit; False if dependent."""
    while vector:
        top = vector.bit_length() - 1
        if top not in basis:
            basis[top] = vector
            return True
        vector ^= basis[top]
    return False


def _open_sets(masks: list[int], rank: int, count: int) -> np.ndarray:
    """Every independent set of `rank` edges, in lexicographic order.

    Edges with equal masks (lines in series on the same cycles) are
    interchangeable and an open set holds at most one of them, so the
    recursion runs over the distinct nonzero masks, whose number grows
    with the cycles and not with the buses; each independent set of masks
    then stands for every choice of one edge per mask. Every call of the
    recursion yields at least one set: a prefix is only extended by a
    mask when the masks after it can still complete a basis, so the work
    grows with the output, not with the subsets tried.
    """
    members: dict[int, list[int]] = {}
    for i, mask in enumerate(masks):
        if mask:
            members.setdefault(mask, []).append(i)
    distinct = list(members)
    m = len(distinct)
    suffix = [dict() for _ in range(m + 1)]   # basis of distinct[i:]
    for i in reversed(range(m)):
        suffix[i] = dict(suffix[i + 1])
        _insert(suffix[i], distinct[i])

    def completes(basis, i) -> bool:
        if len(basis) + len(suffix[i]) < rank:
            return False
        if len(suffix[i]) == rank:
            return True
        both = dict(basis)
        for vector in suffix[i].values():
            _insert(both, vector)
        return len(both) == rank

    out = np.empty((count, rank), dtype=np.min_scalar_type(-len(masks)))
    chosen: list[int] = []
    listed = 0

    def extend(start: int, basis: dict[int, int]) -> None:
        nonlocal listed
        if len(chosen) == rank:
            # every choice of one edge per chosen mask, written in place
            groups = [members[distinct[i]] for i in chosen]
            shape = [len(g) for g in groups]
            size = prod(shape)
            if listed + size <= count:
                block = out[listed:listed + size].reshape(shape + [rank])
                for j, group in enumerate(groups):
                    block[..., j] = np.reshape(group, [-1 if i == j else 1
                                                       for i in range(rank)])
            listed += size
            return
        for i in range(start, m):
            grown = dict(basis)
            if _insert(grown, distinct[i]) and completes(grown, i + 1):
                chosen.append(i)
                extend(i + 1, grown)
                chosen.pop()
            if not completes(basis, i + 1):
                break   # no later mask can complete this prefix either

    if count:
        extend(0, {})
    if listed != count:
        raise RuntimeError(
            f"listed {listed} spanning forests but Kirchhoff counts {count}")
    if rank:
        out.sort(axis=1)
        out = out[np.lexsort(out.T[::-1])]
    return out


def _layout_dtype(net: Network) -> np.dtype:
    """int8 while bus and line indices fit it below its largest value, which
    marks unreached buses during the build; int16 beyond."""
    return np.min_scalar_type(-max(net.n_buses + 1, len(net.lines)))


def _forest_bytes(net: Network, edges, count) -> float:
    """Peak bytes of listing and ranking count forests.

    Per forest, the build holds the layout's parent line, depth and
    substation label per bus, the larger of the closed mask per edge and
    the assignment packing's words, sort order and boundary flags, and 8
    bytes of temporaries. An hour holds the parent lines, depths and
    assignment ids, 48 bytes of ranking per forest and, per bus and
    screened forest, about 56 bytes of the screen's level arrays. The
    open sets, the distinct assignments and an hour's arrays over them
    (2,767 assignments for case 4's 16,017 forests) stay below these
    peaks.
    """
    n, itemsize = net.n_buses, _layout_dtype(net).itemsize
    bits = max(1, (len(net.substations) - 1).bit_length())
    words = -(-n // (64 // bits))
    build = count * (3 * n * itemsize + max(len(edges), 8 * words + 17) + 8)
    hour = count * (2 * n * itemsize + 8 + 48) + n * _SCREEN_CHUNK * 56
    return max(build, hour)


def _layout(net: Network, closed: dict, count: int):
    """Every forest's substation label, parent line and depth per bus.

    closed maps each line that can close to its per-forest closed mask
    (None: always closed). Depths start at the dtype's largest value,
    which marks a bus not yet reached, and are relaxed over closed lines,
    depth[b] = depth[a] + 1 where that is shorter, in whole rows of
    forests. In a spanning forest every bus has one path to its
    substation, so the result does not depend on the order of the
    relaxations; sweeping the lines in breadth-first order from the
    substations, alternately forward and backward, settles a chain fed
    from either end in a few sweeps.
    """
    n = net.n_buses
    small = _layout_dtype(net)
    depth = np.full((n, count), np.iinfo(small).max, dtype=small)
    label = np.zeros((n, count), dtype=small)
    parent_line = np.full((n, count), -1, dtype=small)
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, line in enumerate(net.lines):
        if k in closed:
            adjacent[line.from_bus].append((k, line.to_bus))
            adjacent[line.to_bus].append((k, line.from_bus))
    subs = set(net.substations)
    for s, b in enumerate(net.substations):
        depth[b] = 0
        label[b] = s
    # each line's two arcs side by side, lines in breadth-first order
    arcs, order, seen, taken = [], list(net.substations), set(subs), set()
    for a in order:
        for k, b in adjacent[a]:
            if k in taken:
                continue
            taken.add(k)
            arcs += [(u, v, k, closed[k]) for u, v in ((a, b), (b, a))
                     if v not in subs]
            if b not in seen:
                seen.add(b)
                order.append(b)
    # sweep forward and backward until no arc reaches a new bus; an arc
    # needs another look only once its source has gained entries since
    reached = np.empty(count, dtype=bool)
    stamp = [0] * n                        # step of each bus's last gain
    looked = [-1] * len(arcs)              # step of each arc's last look
    step, sweep, busy = 0, 0, True
    while busy:
        busy = False
        for i in (range(len(arcs)) if sweep % 2 == 0
                  else range(len(arcs) - 1, -1, -1)):
            a, b, k, shut = arcs[i]
            if stamp[a] <= looked[i]:
                continue
            busy = True
            step += 1
            looked[i] = step
            # depth[a] + 1 < depth[b], written so the unreached mark cannot overflow
            np.less(depth[a], depth[b] - 1, out=reached)
            if shut is not None:
                reached &= shut
            if reached.any():
                step += 1
                stamp[b] = step
                np.copyto(depth[b], depth[a] + 1, where=reached)
                np.copyto(label[b], label[a], where=reached)
                np.copyto(parent_line[b], k, where=reached)
        sweep += 1
    return label, parent_line, depth


def _assignments(label: np.ndarray, n_subs: int) -> tuple[np.ndarray, np.ndarray]:
    """Each column's id among the distinct columns of label, and those columns.

    Columns (forests) are packed a few bits per bus into 64-bit words and
    lexsorted, so equal columns become neighbours and share an id.
    """
    count = label.shape[1]
    bits = np.uint64(max(1, (n_subs - 1).bit_length()))
    per_word = 64 // int(bits)
    words = []
    for lo in range(0, label.shape[0], per_word):
        word = np.zeros(count, dtype=np.uint64)
        for row in label[lo:lo + per_word]:
            word <<= bits
            word |= row.astype(np.uint64)
        words.append(word)
    order = np.lexsort(words)
    first = np.zeros(count, dtype=bool)
    first[:1] = True
    while words:
        word = words.pop()[order]
        first[1:] |= word[1:] != word[:-1]
    del word
    sorted_ids = np.cumsum(first)
    sorted_ids -= 1
    ids = np.empty_like(sorted_ids)
    ids[order] = sorted_ids
    return ids, label[:, order[first]]


def _radial_forests(net: Network) -> _Forests:
    """Count the network's radial topologies and list them if few enough."""
    n_nodes, edges = _contracted_edges(net)
    count = _spanning_tree_count(n_nodes, edges)
    if (count > _ENUMERATION_CAP
            or _forest_bytes(net, edges, count) > _ENUMERATION_BYTES):
        return _Forests(count)
    masks, rank = _cycle_masks(n_nodes, edges)
    opened = _open_sets(masks, rank, count)
    shut = np.ones((len(edges), count), dtype=bool)
    shut[opened.T, np.arange(count)] = False
    del opened
    # per line that can close, its closed mask by forest (None: always)
    closed: dict[int, np.ndarray | None] = {
        k: None for k, line in enumerate(net.lines) if not line.flexible}
    for e, (k, _, _) in enumerate(edges):
        closed[k] = shut[e]
    label, parent_line, depth = _layout(net, closed, count)
    del closed, shut
    assignment, assignments = _assignments(label, len(net.substations))
    del label
    lines = (np.array([(l.from_bus, l.to_bus) for l in net.lines], dtype=np.intp),
             np.array([l.rating for l in net.lines]),
             np.array([l.reactance for l in net.lines]))
    capacity = np.array([sum(l.rating + _SCREEN_RATING_TOL for l in net.lines
                             if b in (l.from_bus, l.to_bus))
                         for b in net.substations])
    return _Forests(count, assignment, assignments, parent_line, depth,
                    lines, capacity)


def _screen(model: HourModel, forests: _Forests, chunk: np.ndarray) -> np.ndarray:
    """Which forests of chunk keep every rating and angle bound.

    Flows are subtree load sums, accumulated from the deepest level up;
    angles then drop by flow times reactance from each substation down.
    Arrays are bus-major and flattened: entry b * width + j is bus b in
    the chunk's j-th forest.
    """
    net, opts = model.net, model.opts
    ends, rating, reactance = forests.lines
    width = len(chunk)
    depth = forests.depth[:, chunk].ravel()
    by_depth = np.argsort(depth, kind="stable")
    starts = np.searchsorted(depth[by_depth], np.arange(1, int(depth.max()) + 2))
    entry = by_depth[starts[0]:]              # every non-substation entry
    bus, col = np.divmod(entry, width)
    line = forests.parent_line[:, chunk].ravel()[entry].astype(np.intp)
    up = np.where(ends[line, 0] == bus, ends[line, 1], ends[line, 0]) * width + col
    levels = [slice(a - starts[0], b - starts[0])
              for a, b in zip(starts[:-1], starts[1:])]

    flow = np.repeat(model.loads, width)
    for level in reversed(levels):
        np.add.at(flow, up[level], flow[entry[level]])
    ok = np.ones(width, dtype=bool)
    ok[col[flow[entry] > rating[line] + _SCREEN_RATING_TOL]] = False
    drop = flow[entry] * reactance[line]
    angle = np.zeros_like(flow)
    for level in levels:
        angle[entry[level]] = angle[up[level]] - drop[level]
    angle = angle.reshape(net.n_buses, width)
    ok &= np.all(angle >= opts.angle_lo - _SCREEN_ANGLE_TOL, axis=0)
    ok &= np.all(angle <= opts.angle_hi + _SCREEN_ANGLE_TOL, axis=0)
    return ok


def _solve_by_enumeration(model: HourModel, forests: _Forests) -> HourSolution:
    """The cheapest forest that passes exact physics.

    In the lossless DC model an hour's cost depends only on which
    substation feeds each bus, so each distinct assignment is priced
    once, bus by bus, and its forests take its cost. Assignments that
    load some substation beyond what its lines can carry are dropped
    whole: a substation sends out what it serves less its own bus's
    load, and no line can carry more than its rating. The remaining
    forests are ranked by (cost, forest index), screened in that order
    and confirmed with evaluate_topology; the first confirmed forest is
    optimal. Among equal costs the lexicographically smallest open set
    wins.
    """
    net, loads = model.net, model.loads
    subs = list(net.substations)
    labels = forests.assignments
    # summed bus by bus, as a single forest's cost would be: each forest
    # gets its own cost to the last bit, so ties between forests are exact
    cost = np.zeros(labels.shape[1])
    for b in range(net.n_buses):
        cost += loads[b] * model.prices[labels[b]]
    bus_loads = np.broadcast_to(loads[:, None], labels.shape)
    served = np.array([np.add.reduce(bus_loads, axis=0, where=labels == s)
                       for s in range(len(subs))])
    served -= loads[subs, None]
    fits = np.all(served <= forests.capacity[:, None], axis=0)[forests.assignment]
    keep = np.flatnonzero(fits)
    order = keep[np.argsort(cost[forests.assignment[keep]], kind="stable")]
    for start in range(0, len(order), _SCREEN_CHUNK):
        chunk = order[start:start + _SCREEN_CHUNK]
        for f in chunk[_screen(model, forests, chunk)]:
            closed = {net.lines[k].id for k in forests.parent_line[:, f]
                      if k >= 0 and net.lines[k].flexible}
            sol = evaluate_topology(net, closed, model.loads, model.prices,
                                    model.opts)
            if sol is not None:
                stats = SolveStats(nodes=0, relaxations=0, incumbent_updates=1,
                                   best_bound=sol.cost)
                return HourSolution(statuses=sol.statuses,
                                    injections=sol.injections,
                                    angles=sol.angles, flows=sol.flows,
                                    cost=sol.cost, stats=stats)
    raise InfeasibleHourError("no feasible radial topology")


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
        self.base_dsu = _base_contraction(self.net)
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
    from .lp import OPTIMAL, BlockSolver
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
               seeds=(), forests: _Forests | None = None) -> HourSolution:
    """Optimal statuses for one hour; seeds are candidate status dicts.

    forests is the network's forest set (built here when not given). A
    network whose radial topologies are listed (at most _ENUMERATION_CAP
    of them, within _ENUMERATION_BYTES) is solved by ranked enumeration;
    opts and seeds then go unused. Other networks go to the branch and
    bound.
    """
    opts = opts or SolverOptions()
    if forests is None:
        forests = _radial_forests(model.net)
    if forests.listed:
        return _solve_by_enumeration(model, forests)
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


# one pool process's network and options, and its forest set once built
_worker: dict = {}


def _start_worker(net: Network, model_opts: ModelOptions,
                  solver_opts: SolverOptions) -> None:
    _worker.clear()
    _worker.update(net=net, model_opts=model_opts, solver_opts=solver_opts,
                   forests=None)


def _solve_hour_task(loads_t, prices_t) -> HourSolution:
    model = build_hour_model(_worker["net"], loads_t, prices_t,
                             _worker["model_opts"])
    if _worker["forests"] is None:
        _worker["forests"] = _radial_forests(_worker["net"])
    return solve_hour(model, _worker["solver_opts"], forests=_worker["forests"])


def solve_day(problem: DayProblem, model_opts: ModelOptions | None = None,
              solver_opts: SolverOptions | None = None, jobs: int = 1,
              monolithic: bool = False) -> DaySolution:
    """Solve every hour of the horizon and sum the costs.

    Hours share no variables, so they are solved independently: in
    sequence (warm-starting each hour from the previous topology), in
    parallel when jobs > 1, or as one concatenated program when
    monolithic is set (a testing aid that always runs the branch and
    bound; jobs is then ignored). The network's forest set is built once,
    after the first hour's model, and once per worker process when
    parallel. A failing hour raises with its 0-based index and the
    solved hours.
    """
    model_opts = model_opts or ModelOptions()
    solver_opts = solver_opts or SolverOptions()
    report = validate(problem.net)
    if not report.is_valid:
        raise StructureError(
            "; ".join(f.message for f in report.errors) or "invalid network",
            report=report)

    if monolithic:
        # one program for the whole horizon, then solved hour-block by
        # hour-block: hours share no columns, so each block's optimum is
        # independent, while the matrix content still comes from the
        # day-wide builder rather than the per-hour one
        from .lp import LinearProgram
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
            except (InfeasibleHourError, NodeLimitError) as exc:
                raise type(exc)(f"hour {t + 1}: {exc}", hour=t,
                                partial=dict(enumerate(hours))) from exc
            hours.extend(hours_t)
        return DaySolution.from_hours(hours)

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        solved: dict[int, HourSolution] = {}
        failure: tuple[int, Exception] | None = None
        with ProcessPoolExecutor(max_workers=jobs, initializer=_start_worker,
                                 initargs=(problem.net, model_opts,
                                           solver_opts)) as pool:
            futures = {t: pool.submit(
                           _solve_hour_task,
                           apply_epsilon_loads(problem.loads[t], model_opts.epsilon),
                           problem.prices[t])
                       for t in range(problem.horizon)}
            for t in range(problem.horizon):
                try:
                    solved[t] = futures[t].result()
                except (InfeasibleHourError, NodeLimitError) as exc:
                    if failure is None:
                        failure = (t, exc)
        if failure is not None:
            t, exc = failure
            raise type(exc)(f"hour {t + 1}: {exc}", hour=t,
                            partial=solved) from exc
        return DaySolution.from_hours(solved[t] for t in range(problem.horizon))

    hours: list[HourSolution] = []
    previous: HourSolution | None = None
    forests: _Forests | None = None
    for t in range(problem.horizon):
        loads_t = apply_epsilon_loads(problem.loads[t], model_opts.epsilon)
        model = build_hour_model(problem.net, loads_t, problem.prices[t], model_opts)
        if forests is None:
            forests = _radial_forests(problem.net)
        seeds = []
        if solver_opts.warm_start and previous is not None:
            seeds.append(previous.statuses)
        try:
            sol = solve_hour(model, solver_opts, seeds, forests=forests)
        except (InfeasibleHourError, NodeLimitError) as exc:
            raise type(exc)(f"hour {t + 1}: {exc}", hour=t,
                            partial=dict(enumerate(hours))) from exc
        hours.append(sol)
        previous = sol
    return DaySolution.from_hours(hours)
