"""The radial topologies of a network: counted, and listed when few.

The radial topologies are the spanning trees of the network with its
substations merged and its always-closed lines contracted, and
Kirchhoff's matrix-tree theorem counts them. When there are at most
_ENUMERATION_CAP of them and they fit in _ENUMERATION_BYTES they are
listed once per network: a GF(2) search over the contracted graph's
cycle space yields every open set, each forest is laid out per bus
(parent line, depth and feeding substation), and the forests are
grouped by the distinct assignments of buses to substations they
induce. _screen checks a chunk of listed forests against every rating
and angle bound at once; optimize ranks and confirms them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import TYPE_CHECKING

import numpy as np

from .model import DisjointSet, Network, StructureError

if TYPE_CHECKING:
    from .optimize import HourModel

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
