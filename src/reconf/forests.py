"""The radial topologies of a network: counted, and listed when few.

The radial topologies are the spanning trees of the network with its
substations merged and its always-closed lines contracted; Kirchhoff's
matrix-tree theorem counts them, exactly wherever they can be listed.
When listing them fits the byte budget, a GF(2) search over the cycle
space lists every open set once per network, and the forests are held as
their open sets, grouped by assignment (the substation feeding each
bus), on which an hour's cost depends. optimize
ranks the assignments and walks their forests in cost order
(_in_rank_order); a forest is laid out (parent line and depth per bus)
only when _screen first reaches it, and kept for later hours.
"""

from __future__ import annotations

from math import inf, prod
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .model import DisjointSet, Network, StructureError

if TYPE_CHECKING:
    from .optimize import HourModel

# A network is solved by ranked enumeration when listing its radial
# topologies takes at most _ENUMERATION_BYTES (_forest_bytes); otherwise by
# branch and bound. On 39 buses listing costs about 1 us and an hour
# 0.04-0.5 us per forest (bench/cap_crossover.py, BENCH_cap.json), so a
# day by enumeration beat the branch and bound at every count measured, up
# to 1,640,958 forests (4.9 s against 87 s). A listed forest takes its open
# set and 4 bytes, and listing briefly a few bits per bus more, while the
# branch and bound's own peak grows with the square of the network (5 MB
# at 39 buses, 43 MB at 120, 262 MB at 300, where an hour took 47 s
# against 0.02-0.04 s). The budget keeps a forest set below that peak.
_ENUMERATION_BYTES = 256 * 2**20

# forests screened per vectorized batch while walking the ranked order
_SCREEN_CHUNK = 256

# forests labelled per vectorized batch while listing
_LIST_CHUNK = 4096

# layouts kept for later hours, per network: beyond this many forests
# (32 screened chunks) a chunk is laid out for its screen alone; a case-4
# day reaches about 6,700 of its 16,017 forests
_KEPT_LAYOUTS = 32 * _SCREEN_CHUNK

# the screen and the substation capacity pre-screen only discard forests
# that evaluate_topology would reject: these tolerances are looser than
# its 1e-6 MW rating and 1e-9 rad angle slack by far more than the
# round-off between the two flow computations
_SCREEN_RATING_TOL = 2e-6
_SCREEN_ANGLE_TOL = 1e-8


class _Layouts:
    """The layouts of one network's listed forests, built on first use.

    Rows of parent_line and depth hold the layouts built so far, forest
    by forest; row[f] is forest f's row, or -1 when it has none. Once
    _KEPT_LAYOUTS rows are too few for a chunk's new forests, the chunk
    is laid out for its screen alone.
    """

    def __init__(self, net: Network, arcs, open_sets: np.ndarray,
                 n_edges: int):
        self.net, self.arcs = net, arcs
        self.open_sets, self.n_edges = open_sets, n_edges
        self.row = self.parent_line = self.depth = None
        self.kept = 0

    def get(self, chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.row is None:
            room = min(len(self.open_sets), _KEPT_LAYOUTS)
            self.row = np.full(len(self.open_sets), -1, dtype=np.int32)
            self.parent_line = np.empty((room, self.net.n_buses),
                                        dtype=_layout_dtype(self.net))
            self.depth = np.empty_like(self.parent_line)
        new = chunk[self.row[chunk] < 0]
        if len(new) > len(self.depth) - self.kept:
            return self.lay_out(chunk)
        if len(new):
            rows = np.arange(self.kept, self.kept + len(new))
            parent_line, depth = self.lay_out(new)
            self.parent_line[rows] = parent_line.T
            self.depth[rows] = depth.T
            self.row[new] = rows
            self.kept += len(new)
        row = self.row[chunk]
        return self.parent_line[row].T, self.depth[row].T

    def lay_out(self, forests: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        shut = _shut(self.open_sets[forests], self.n_edges)
        return _spread(self.net, self.arcs, shut, layout=True)


class _Forests(NamedTuple):
    """The radial topologies of one network, listed when they fit.

    count is Kirchhoff's count of spanning trees of the contracted graph.
    Unless listing them exceeds _ENUMERATION_BYTES (then the arrays are
    None), forest f is the f-th open set in lexicographic order of sorted
    line ids, and open_sets[f] holds its open edges as positions in
    edge_lines, the indices into net.lines of the contracted graph's
    flexible edges. assignments[b, a] is the position in net.substations of
    the substation feeding bus b under distinct assignment a, and
    grouped[starts[a]:starts[a + 1]] lists assignment a's forests in
    increasing order. lines holds the sum of each line's two end buses,
    its rating and its reactance as arrays, and capacity[s] what
    substation s can send out: the ratings of its lines, each plus the
    screen's slack. layouts builds and keeps the layouts that layout()
    reads. The field count hides tuple.count, which nothing calls.
    """

    count: int | float          # inf only past float range, never listed
    open_sets: np.ndarray | None = None
    edge_lines: np.ndarray | None = None
    assignments: np.ndarray | None = None
    grouped: np.ndarray | None = None
    starts: np.ndarray | None = None
    lines: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    capacity: np.ndarray | None = None
    layouts: _Layouts | None = None

    @property
    def listed(self) -> bool:
        return self.grouped is not None

    def closed_lines(self, f: int) -> np.ndarray:
        """Indices into net.lines of forest f's closed flexible lines."""
        return np.delete(self.edge_lines, self.open_sets[f])

    def layout(self, chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per bus b and j-th forest f of chunk: parent_line[b, j], the
        index into net.lines of the line toward b's substation (-1 at
        substations), and depth[b, j], the number of lines between them.
        Each forest is laid out once and kept (_KEPT_LAYOUTS)."""
        return self.layouts.get(np.asarray(chunk))


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
    """Kirchhoff's count: the Laplacian's determinant grounded at node 0.

    Nodes are eliminated fewest neighbours first, each with its lines to
    the others and to node 0 and, in place of its diagonal, their sum as
    pivot; eliminating k joins its neighbours i, j by w_ik w_kj / pivot.
    The determinant is the product of the pivots. With no subtraction
    (Grassmann, Taksar and Heyman, 1985) each step rounds by an ulp or two,
    so the count is an exact int far past any set the byte budget lists.
    """
    weight: list[dict[int, float]] = [{} for _ in range(n_nodes)]
    for _, u, v in edges:
        weight[u][v] = weight[u].get(v, 0.0) + 1.0
        weight[v][u] = weight[v].get(u, 0.0) + 1.0
    left, count = set(range(1, n_nodes)), 1.0
    while left:
        k = min(left, key=lambda i: len(weight[i]))
        left.remove(k)
        near = weight[k]
        pivot = sum(near.values())
        if not pivot:
            return 0                       # a part no substation reaches
        count *= pivot
        for i, w in near.items():
            row, share = weight[i], w / pivot
            del row[k]
            for j, x in near.items():
                if j != i:
                    row[j] = row.get(j, 0.0) + share * x
    return round(count) if count < inf else count


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
    """int8 while bus and line indices fit it, int16 beyond."""
    return np.min_scalar_type(-max(net.n_buses, len(net.lines)))


def _label_bits(net: Network) -> int:
    """Bits that hold the position of any substation."""
    return max(1, (len(net.substations) - 1).bit_length())


def _forest_bytes(net: Network, n_nodes: int, edges, count) -> float:
    """Peak bytes of listing count forests, as _radial_forests does.

    Each forest keeps its open set and a 4-byte place in its group.
    Listing also holds per forest the larger of: the open sets' sorted
    copy and 8-byte order; the labels packed into 64-bit words, plus one
    batch of _LIST_CHUNK forests' closed flag per edge and reached flag
    and label per bus; the words with their 8-byte order, one sorted word
    and 4 bytes of flags. 128 KiB and 256 bytes per line cover the Python
    objects. The assignments' labels, n_buses bytes each, are left out:
    their number is known only once listed, and far below the forests'
    (2,767 for case 4's 16,017; 8,491 for 398,545 on a 150-bus variant).
    An hour adds arrays over the assignments, the kept layouts
    (_KEPT_LAYOUTS forests of 2 * n_buses entries) and a screened chunk's
    arrays, about 40 bytes per bus and forest.
    """
    n = net.n_buses
    opened = (len(edges) - n_nodes + 1) * np.min_scalar_type(-len(edges)).itemsize
    words = 8 * -(-n // (64 // _label_bits(net)))
    batch = min(count, _LIST_CHUNK) * (len(edges) + 2 * n)
    return float(count * opened + 2**17 + 256 * len(net.lines)
                 + max(count * (opened + 8), count * words + batch,
                       count * (words + 20)))


def _arcs(net: Network, edges) -> list[tuple[int, int, int, int]]:
    """Each line that can close, as its two arcs (a, b, line, edge).

    edge is the line's position among the contracted graph's flexible
    edges, or -1 for an always-closed line. Lines come in breadth-first
    order from the substations, and arcs into substations are left out.
    """
    edge_of = {k: e for e, (k, _, _) in enumerate(edges)}
    edge_of.update((k, -1) for k, line in enumerate(net.lines)
                   if not line.flexible)
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(net.n_buses)]
    for k, line in enumerate(net.lines):
        if k in edge_of:
            adjacent[line.from_bus].append((k, line.to_bus))
            adjacent[line.to_bus].append((k, line.from_bus))
    subs = set(net.substations)
    arcs, order, seen, taken = [], list(net.substations), set(subs), set()
    for a in order:
        for k, b in adjacent[a]:
            if k in taken:
                continue
            taken.add(k)
            arcs += [(u, v, k, edge_of[k]) for u, v in ((a, b), (b, a))
                     if v not in subs]
            if b not in seen:
                seen.add(b)
                order.append(b)
    return arcs


def _shut(open_sets: np.ndarray, n_edges: int) -> np.ndarray:
    """Per edge and forest of a batch: whether the forest closes the edge."""
    shut = np.ones((n_edges, len(open_sets)), dtype=bool)
    shut[open_sets.T, np.arange(len(open_sets))] = False
    return shut


def _spread(net: Network, arcs, shut: np.ndarray, layout: bool):
    """Reach every bus of a batch of forests from its substation.

    shut[e, j] says whether the batch's j-th forest closes edge e. Returns
    per bus and forest the position in net.substations of the feeding
    substation or, when layout is true, the parent line (an index into
    net.lines, -1 at substations) and the depth.

    Arcs are looked at in whole rows of forests. A bus is first reached
    over a closed line from its parent, the only way to its substation,
    so each entry is written once. Sweeping the arcs in breadth-first
    order from the substations, alternately forward and backward, settles
    a chain fed from either end in a few sweeps; an arc is looked at
    again only once its source has gained entries, and not once its
    target is reached in every forest.
    """
    n, width = net.n_buses, shut.shape[1]
    reached = np.zeros((n, width), dtype=bool)
    if layout:
        small = _layout_dtype(net)
        depth = np.zeros((n, width), dtype=small)
        parent_line = np.full((n, width), -1, dtype=small)
        below = np.empty(width, dtype=small)
    else:
        label = np.zeros((n, width), dtype=np.min_scalar_type(-len(net.substations)))
    count = [0] * n                        # forests reaching each bus
    stamp = [-1] * n                       # step of each bus's last gain
    for s, b in enumerate(net.substations):
        reached[b], count[b], stamp[b] = True, width, 0
        if not layout:
            label[b] = s
    rows, shut = list(reached), list(shut)
    looked = [-1] * len(arcs)              # step of each arc's last look
    gained = np.empty(width, dtype=bool)
    step, sweep, busy = 0, 0, True
    while busy:
        busy = False
        for i in (range(len(arcs)) if sweep % 2 == 0
                  else range(len(arcs) - 1, -1, -1)):
            a, b, k, e = arcs[i]
            if stamp[a] <= looked[i] or count[b] == width:
                continue
            busy = True
            step += 1
            looked[i] = step
            np.greater(rows[a], rows[b], out=gained)
            if e >= 0:
                gained &= shut[e]
            got = np.count_nonzero(gained)
            if got:
                step += 1
                stamp[b] = step
                count[b] += got
                rows[b] |= gained
                if layout:
                    np.add(depth[a], 1, out=below)
                    np.copyto(depth[b], below, where=gained)
                    parent_line[b][gained] = k
                else:
                    np.copyto(label[b], label[a], where=gained)
        sweep += 1
    return (parent_line, depth) if layout else label


def _pack(words: np.ndarray, label: np.ndarray, bits: int) -> None:
    """Pack label's rows into words, bits per bus, each word's first bus
    highest."""
    per_word, shift = 64 // bits, np.uint64(bits)
    for w, word in enumerate(words):
        for row in label[w * per_word:(w + 1) * per_word]:
            word <<= shift
            word |= row.astype(np.uint64)


def _assignments(net: Network, arcs, open_sets: np.ndarray, n_edges: int):
    """The distinct assignments as labels per bus, and the forests grouped
    by assignment with the groups' starts.

    Forests are labelled a batch at a time and their labels packed a few
    bits per bus into 64-bit words. A stable lexsort of the words makes
    equal assignments neighbours, with their forests in increasing order,
    and the distinct words unpack to the assignments' labels.
    """
    count, n = len(open_sets), net.n_buses
    bits = _label_bits(net)
    per_word = 64 // bits
    words = np.zeros((-(-n // per_word), count), dtype=np.uint64)
    for lo in range(0, count, _LIST_CHUNK):
        batch = open_sets[lo:lo + _LIST_CHUNK]
        _pack(words[:, lo:lo + len(batch)],
              _spread(net, arcs, _shut(batch, n_edges), layout=False), bits)
    order = np.lexsort(words)
    first = np.zeros(count, dtype=bool)
    first[:1] = True
    for word in words:
        word = word[order]
        first[1:] |= word[1:] != word[:-1]
    del word
    starts = np.flatnonzero(first)
    keys = words[:, order[starts]]
    del words, first
    assignments = np.empty((n, len(starts)),
                           dtype=np.min_scalar_type(-len(net.substations)))
    mask = np.uint64((1 << bits) - 1)
    for b in range(n):
        w, j = divmod(b, per_word)
        width = min(per_word, n - w * per_word)
        assignments[b] = (keys[w] >> np.uint64((width - 1 - j) * bits)) & mask
    return assignments, order.astype(np.int32), np.append(starts, count)


def _radial_forests(net: Network) -> _Forests:
    """Count the network's radial topologies and list them if they fit."""
    n_nodes, edges = _contracted_edges(net)
    count = _spanning_tree_count(n_nodes, edges)
    if _forest_bytes(net, n_nodes, edges, count) > _ENUMERATION_BYTES:
        return _Forests(count)
    masks, rank = _cycle_masks(n_nodes, edges)
    open_sets = _open_sets(masks, rank, count)
    arcs = _arcs(net, edges)
    assignments, grouped, starts = _assignments(net, arcs, open_sets, len(edges))
    lines = (np.array([l.from_bus + l.to_bus for l in net.lines], dtype=np.intp),
             np.array([l.rating for l in net.lines]),
             np.array([l.reactance for l in net.lines]))
    capacity = np.array([sum(l.rating + _SCREEN_RATING_TOL for l in net.lines
                             if b in (l.from_bus, l.to_bus))
                         for b in net.substations])
    edge_lines = np.array([k for k, _, _ in edges], dtype=np.intp)
    return _Forests(count, open_sets, edge_lines, assignments, grouped, starts,
                    lines, capacity, _Layouts(net, arcs, open_sets, len(edges)))


def _in_rank_order(forests: _Forests, ranked: np.ndarray, cost: np.ndarray):
    """The forests of the ranked assignments, in chunks of _SCREEN_CHUNK.

    ranked lists assignments in order of their costs, cost[i] being
    ranked[i]'s. Forests come in order of their assignment's cost and,
    among equal costs, of forest index, so the smallest sorted open set
    comes first. Assignments are expanded a block at a time, each block
    ending with all the assignments that tie with its last, only as far
    as the chunks are taken.
    """
    grouped, starts = forests.grouped, forests.starts
    first = starts[ranked]
    sizes = starts[ranked + 1] - first
    ends = np.cumsum(sizes)                   # forests up to each position
    held, i = grouped[:0], 0
    while i < len(ranked):
        done = ends[i] - sizes[i]
        k = np.searchsorted(ends, done + _SCREEN_CHUNK - len(held))
        j = np.searchsorted(cost, cost[min(k, len(ranked) - 1)], side="right")
        lens = sizes[i:j]
        block = grouped[np.arange(done, ends[j - 1])
                        + np.repeat(first[i:j] - ends[i:j] + lens, lens)]
        if np.any(cost[i + 1:j] == cost[i:j - 1]):   # merge tied assignments
            block = block[np.lexsort((block, np.repeat(cost[i:j], lens)))]
        run = np.concatenate((held, block))
        cut = len(run) - len(run) % _SCREEN_CHUNK
        for lo in range(0, cut, _SCREEN_CHUNK):
            yield run[lo:lo + _SCREEN_CHUNK]
        held, i = run[cut:], j
    if len(held):
        yield held


def _screen(model: HourModel, forests: _Forests, chunk: np.ndarray) -> np.ndarray:
    """Which forests of chunk keep every rating and angle bound.

    The chunk's forests are laid out first, those not yet kept only now.
    Flows are subtree load sums, accumulated from the deepest level up;
    angles then drop by flow times reactance from each substation down.
    Arrays are bus-major and flattened: entry b * width + j is bus b in
    the chunk's j-th forest.
    """
    net, opts = model.net, model.opts
    end_sum, rating, reactance = forests.lines
    width = len(chunk)
    parent_line, depth = forests.layout(chunk)
    depth = depth.ravel()
    by_depth = np.argsort(depth, kind="stable")
    starts = np.searchsorted(depth[by_depth], np.arange(1, int(depth.max()) + 2))
    entry = by_depth[starts[0]:]              # every non-substation entry
    col = entry % width
    line = parent_line.ravel()[entry]
    # the entry of the parent line's other end, (end_sum - bus) * width + col
    up = end_sum[line] * width
    up -= entry
    up += col
    up += col
    levels = [slice(a - starts[0], b - starts[0])
              for a, b in zip(starts[:-1], starts[1:])]

    flow = np.repeat(model.loads, width)
    for level in reversed(levels):
        np.add.at(flow, up[level], flow[entry[level]])
    carried = flow[entry]
    limit = rating[line]
    limit += _SCREEN_RATING_TOL
    ok = np.ones(width, dtype=bool)
    ok[col[carried > limit]] = False
    del limit
    carried *= reactance[line]                # now each line's angle drop
    angle = flow                              # every non-substation entry is rewritten
    angle[by_depth[:starts[0]]] = 0.0
    for level in levels:
        angle[entry[level]] = angle[up[level]] - carried[level]
    angle = angle.reshape(net.n_buses, width)
    ok &= np.all(angle >= opts.angle_lo - _SCREEN_ANGLE_TOL, axis=0)
    ok &= np.all(angle <= opts.angle_hi + _SCREEN_ANGLE_TOL, axis=0)
    return ok
