"""Independent optimum of one hour by listing every radial topology.

Test-only reference for the solver. It shares no code with
`reconf.optimize`: it takes a network's buses and lines and works on
them with plain NumPy.

- Counting: Kirchhoff's matrix-tree theorem on the graph where the
  substations merge into one root and always-closed lines are contracted.
- Listing: brute force. Every choice of k* flexible lines to close is
  tried at once, by spreading each substation's label along the closed
  lines; a choice is radial when every bus gets a label and no closed
  line joins two labels.
- Optimum: every radial topology is priced by the substation that feeds
  each bus and confirmed, cheapest first, by a batched dense solve of the
  susceptance system with the substation angles pinned at zero.
"""

from itertools import combinations

import numpy as np

EPSILON = 1e-5


def kirchhoff_count(net) -> int:
    """Spanning trees of the contracted graph, by the matrix-tree theorem."""
    n = net.n_buses
    node = list(range(n + 1))

    def find(a):
        while node[a] != a:
            a = node[a]
        return a

    for b in net.substations:
        node[find(b)] = find(n)
    for line in net.lines:
        if not line.flexible:
            node[find(line.from_bus)] = find(line.to_bus)
    roots = sorted({find(b) for b in range(n + 1)}, key=lambda r: r != find(n))
    pos = {r: i for i, r in enumerate(roots)}
    lap = np.zeros((len(roots), len(roots)))
    for line in net.lines:
        u, v = pos[find(line.from_bus)], pos[find(line.to_bus)]
        if line.flexible and u != v:
            lap[u, u] += 1
            lap[v, v] += 1
            lap[u, v] -= 1
            lap[v, u] -= 1
    return int(round(np.linalg.det(lap[1:, 1:]))) if len(roots) > 1 else 1


class RadialTopologies:
    """Every radial topology of a network, found by brute force.

    closed[f, k] says whether line k (in net.lines order) is closed in
    topology f; feeder[f, b] is the position in net.substations of the
    substation feeding bus b.
    """

    def __init__(self, net):
        self.net = net
        lines = net.lines
        flexible = [k for k, line in enumerate(lines) if line.flexible]
        k_star = net.n_buses - len(net.substations) - (len(lines) - len(flexible))
        choices = np.array(list(combinations(range(len(flexible)), k_star)),
                           dtype=np.intp).reshape(-1, k_star)
        closed = np.ones((len(choices), len(lines)), dtype=bool)
        closed[:, flexible] = False
        for j in range(k_star):
            closed[np.arange(len(choices)), np.asarray(flexible)[choices[:, j]]] = True

        feeder = np.full((len(choices), net.n_buses), -1, dtype=np.int16)
        for s, b in enumerate(net.substations):
            feeder[:, b] = s
        changed = True
        while changed:
            changed = False
            for k, line in enumerate(lines):
                for a, b in ((line.from_bus, line.to_bus),
                             (line.to_bus, line.from_bus)):
                    take = closed[:, k] & (feeder[:, a] >= 0) & (feeder[:, b] < 0)
                    if take.any():
                        feeder[take, b] = feeder[take, a]
                        changed = True
        radial = np.all(feeder >= 0, axis=1)
        for k, line in enumerate(lines):
            radial &= ~closed[:, k] | (feeder[:, line.from_bus] == feeder[:, line.to_bus])
        self.closed = closed[radial]
        self.feeder = feeder[radial]

    def __len__(self) -> int:
        return len(self.closed)

    def optimum(self, loads, prices, angle_bound, batch=512):
        """(cost, closed flexible line ids) of the cheapest feasible topology.

        Zero loads get the solver's 1e-5 MW fill-in. None when no radial
        topology keeps every rating and angle bound.
        """
        net = self.net
        loads = np.where(np.asarray(loads, dtype=float) == 0.0, EPSILON, loads)
        prices = np.asarray(prices, dtype=float)
        cost = (prices[self.feeder] * loads).sum(axis=1)
        order = np.argsort(cost, kind="stable")
        x = np.array([line.reactance for line in net.lines])
        rating = np.array([line.rating for line in net.lines])
        frm = np.array([line.from_bus for line in net.lines])
        to = np.array([line.to_bus for line in net.lines])
        subs = list(net.substations)
        rhs = -loads.copy()
        rhs[subs] = 0.0
        for start in range(0, len(order), batch):
            pick = order[start:start + batch]
            y = self.closed[pick] / x                     # susceptance or 0
            susceptance = np.zeros((len(pick), net.n_buses, net.n_buses))
            for k in range(len(net.lines)):
                a, b = frm[k], to[k]
                susceptance[:, a, a] += y[:, k]
                susceptance[:, b, b] += y[:, k]
                susceptance[:, a, b] -= y[:, k]
                susceptance[:, b, a] -= y[:, k]
            susceptance[:, subs, :] = 0.0
            susceptance[:, subs, subs] = 1.0
            theta = np.linalg.solve(susceptance, np.broadcast_to(
                rhs, (len(pick), net.n_buses))[..., None])[..., 0]
            flow = (theta[:, frm] - theta[:, to]) * y
            ok = np.all(np.abs(flow) <= rating + 1e-6, axis=1)
            ok &= np.all(np.abs(theta) <= angle_bound + 1e-9, axis=1)
            if ok.any():
                f = pick[np.argmax(ok)]
                ids = frozenset(line.id for k, line in enumerate(net.lines)
                                if line.flexible and self.closed[f, k])
                return float(cost[f]), ids
        return None
