"""Exact solver for unweighted graphs.

The optimum over all orientations equals the size of a maximum simple
2-matching of the undirected graph: an edge set with all degrees at most
two, which decomposes into node-disjoint paths and cycles. Orienting each
path and cycle head to tail makes every selected edge a matching arc, so
no orientation can do better and this one achieves the bound.

The 2-matching itself is found by vertex splitting: each node becomes two
copies, each edge becomes a pair of adjacent subdivision nodes, one
joined to both copies of each endpoint, and a maximum matching of that
auxiliary graph is computed by an in-package cardinality blossom
(Edmonds' algorithm). The search starts from a greedy 2-matching that
already saturates every subdivision node, and augmentation never frees a
node, so in the final matching an edge belongs to the 2-matching exactly
when its subdivision pair is not matched to each other, and its size is
the auxiliary matching size minus the edge count. The recovery is checked
against the exhaustive oracle in the test suite.

One walk over the 2-matching splits it into its paths and cycles, the
orientation directs each of them, and the optimal matching is read off
that orientation's arcs on the 2-matching edges.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractError
from .graphs import Edge, Orientation, UndirectedGraph, canonical_edge
from .matching import ControlMatching


@dataclass(frozen=True)
class TwoMatching:
    """An edge subset of a host graph with every node's degree at most two."""

    graph: UndirectedGraph
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        host = set(self.graph.edges)
        canon = tuple(sorted(canonical_edge(u, v) for u, v in self.edges))
        deg = [0] * self.graph.node_count
        seen: set[Edge] = set()
        for u, v in canon:
            if (u, v) not in host:
                raise ContractError(f"edge ({u}, {v}) is not in the host graph")
            if (u, v) in seen:
                raise ContractError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            deg[u] += 1
            deg[v] += 1
            if deg[u] > 2 or deg[v] > 2:
                raise ContractError("some node exceeds degree 2")
        object.__setattr__(self, "edges", canon)

    @property
    def size(self) -> int:
        return len(self.edges)


def max_simple_two_matching(g: UndirectedGraph) -> TwoMatching:
    """Maximum simple 2-matching through the vertex-splitting reduction."""
    if g.edge_count == 0:
        return TwoMatching(g, ())
    sub = 2 * g.node_count
    mate = _greedy_warm_start(g)
    _grow_free_copies(_split_adjacency(g), mate, sub)
    if -1 in mate[sub:]:
        raise AssertionError("a subdivision node is unmatched")
    matching_size = (len(mate) - mate.count(-1)) // 2
    chosen = [
        g.edges[k]
        for k in range(g.edge_count)
        if mate[sub + 2 * k] != sub + 2 * k + 1
    ]
    tm = TwoMatching(g, tuple(chosen))
    if tm.size != matching_size - g.edge_count:
        raise AssertionError("2-matching size disagrees with the auxiliary matching")
    return tm


def _split_adjacency(g: UndirectedGraph) -> list[list[int]]:
    """Adjacency lists of the vertex-split graph.

    Node ``u`` has copies ``2u`` and ``2u + 1``, which share one list;
    edge ``k = (u, v)`` has subdivision nodes ``2n + 2k`` (joined to both
    copies of ``u``) and ``2n + 2k + 1`` (joined to both copies of ``v``),
    which are joined to each other.
    """
    n = g.node_count
    incident: list[list[int]] = [[] for _ in range(n)]
    adj: list[list[int]] = []
    for u in range(n):
        adj.append(incident[u])
        adj.append(incident[u])
    for k, (u, v) in enumerate(g.edges):
        eu = 2 * n + 2 * k
        incident[u].append(eu)
        incident[v].append(eu + 1)
        adj.append([eu + 1, 2 * u, 2 * u + 1])
        adj.append([eu, 2 * v, 2 * v + 1])
    return adj


def _greedy_warm_start(g: UndirectedGraph) -> list[int]:
    """A split-graph matching that saturates every subdivision node.

    Edges enter a greedy 2-matching in increasing order of their smaller
    endpoint degree, ties by edge index; each taken edge matches its
    subdivision nodes to free copies of its endpoints, and every other
    edge matches its subdivision pair to each other. Returns the mate of
    each split-graph node, -1 when free.
    """
    n = g.node_count
    deg = g.degrees()
    used = [0] * n
    mate = [-1] * (2 * n + 2 * g.edge_count)
    smaller = [min(deg[u], deg[v]) for u, v in g.edges]
    for k in sorted(range(g.edge_count), key=smaller.__getitem__):
        u, v = g.edges[k]
        eu = 2 * n + 2 * k
        if used[u] < 2 and used[v] < 2:
            cu = 2 * u + used[u]
            cv = 2 * v + used[v]
            used[u] += 1
            used[v] += 1
            mate[eu], mate[cu] = cu, eu
            mate[eu + 1], mate[cv] = cv, eu + 1
        else:
            mate[eu], mate[eu + 1] = eu + 1, eu
    return mate


_FREE, _EVEN, _ODD, _DEAD = 0, 1, 2, 3


def _grow_free_copies(adj: list[list[int]], mate: list[int], copies: int) -> None:
    """Make ``mate`` a maximum matching by Edmonds' cardinality blossom.

    Every free node must lie in ``0..copies-1``. Each is grown once as
    the root of an alternating tree, searched breadth first over even
    nodes, with blossoms contracted in place by relabelling their bases
    (Edmonds 1965, "Paths, trees, and flowers"). A search that finds a
    free node augments along the tree path and resets only the nodes it
    labelled. A search that fails leaves a Hungarian tree, which no later
    augmenting path can touch, so its nodes are retired for good; failed
    searches therefore cost O(V + E) in total. Nodes that are matched
    when the call starts stay matched, since augmentation never frees a
    node.

    A blossom's nodes share ``base``; ``members`` lists the nodes of each
    nontrivial blossom by base, so a contraction relabels only the nodes
    it absorbs. For even nodes inside a blossom, ``parent`` points across
    the edge that closed it, so following ``parent`` then ``mate`` from
    any tree node walks an alternating path to the root.
    """
    size = len(mate)
    label = [_FREE] * size
    parent = [-1] * size
    base = list(range(size))
    members: dict[int, list[int]] = {}
    seen = [0] * size
    stamp = 0
    for root in range(copies):
        if mate[root] != -1 or label[root] == _DEAD:
            continue
        label[root] = _EVEN
        touched = [root]
        queue = [root]
        head = 0
        augmented = False
        while head < len(queue) and not augmented:
            v = queue[head]
            head += 1
            for w in adj[v]:
                lw = label[w]
                if lw == _ODD or lw == _DEAD or base[v] == base[w]:
                    continue
                if lw == _FREE:
                    if mate[w] == -1:
                        parent[w] = v
                        _augment(w, parent, mate)
                        augmented = True
                        break
                    x = mate[w]
                    label[w] = _ODD
                    parent[w] = v
                    label[x] = _EVEN
                    touched.append(w)
                    touched.append(x)
                    queue.append(x)
                    continue
                # Both ends even in different blossoms: contract the cycle.
                stamp += 1
                b = _common_base(v, w, base, parent, mate, seen, stamp)
                absorbed = _mark_blossom_path(v, w, b, base, parent, mate)
                absorbed += _mark_blossom_path(w, v, b, base, parent, mate)
                group = members.setdefault(b, [b])
                for c in absorbed:
                    if c == b or base[c] != c:
                        continue
                    inner = members.pop(c, None) or [c]
                    for y in inner:
                        base[y] = b
                        if label[y] == _ODD:
                            label[y] = _EVEN
                            queue.append(y)
                    group.extend(inner)
        if augmented:
            for x in touched:
                label[x] = _FREE
                parent[x] = -1
                base[x] = x
        else:
            for x in touched:
                label[x] = _DEAD
        members.clear()


def _augment(w: int, parent: list[int], mate: list[int]) -> None:
    """Flip the alternating path from free node ``w`` back to its root."""
    while w != -1:
        p = parent[w]
        nxt = mate[p]
        mate[w] = p
        mate[p] = w
        w = nxt


def _common_base(
    v: int,
    w: int,
    base: list[int],
    parent: list[int],
    mate: list[int],
    seen: list[int],
    stamp: int,
) -> int:
    """Base of the blossom closed by the edge between even nodes ``v`` and ``w``.

    That is the first blossom shared by their tree paths to the root. The
    two sides climb in turn, one blossom per step, so the cost is bounded
    by twice the longer side of the cycle being closed, not the tree depth.
    """
    a, c = base[v], base[w]
    while True:
        if a != -1:
            if seen[a] == stamp:
                return a
            seen[a] = stamp
            a = base[parent[mate[a]]] if mate[a] != -1 else -1
        a, c = c, a


def _mark_blossom_path(
    x: int, child: int, b: int, base: list[int], parent: list[int], mate: list[int]
) -> list[int]:
    """Re-point the even nodes from ``x`` up to base ``b`` for a new blossom.

    Each even node's ``parent`` is set to the node before it on the walk,
    starting with ``child`` across the closing edge. Returns the bases of
    the blossoms passed, which the new blossom absorbs.
    """
    passed = []
    while base[x] != b:
        y = mate[x]
        passed.append(base[x])
        passed.append(base[y])
        parent[x] = child
        child = y
        x = parent[y]
    return passed


def two_matching_components(tm: TwoMatching) -> list[tuple[str, tuple[int, ...]]]:
    """Decompose into ('path', nodes) and ('cycle', nodes) components.

    Paths are listed from their smaller endpoint; cycles start at their
    smallest node and step first toward that node's smaller neighbor.
    Components are returned sorted by their starting node. One walk per
    component covers them all: walks start at path ends first, so a walk
    from a node still unvisited after them goes round a cycle, which in a
    simple graph has at least three nodes.
    """
    adj: dict[int, list[int]] = {}
    for u, v in tm.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for nbrs in adj.values():
        nbrs.sort()
    visited: set[int] = set()
    components: list[tuple[str, tuple[int, ...]]] = []
    for start in sorted(adj, key=lambda u: (len(adj[u]) != 1, u)):
        if start in visited:
            continue
        seq = [start]
        visited.add(start)
        prev, cur = None, start
        while True:
            nxt = [c for c in adj[cur] if c != prev]
            if not nxt or nxt[0] == start:
                break
            prev, cur = cur, nxt[0]
            seq.append(cur)
            visited.add(cur)
        kind = "path" if len(adj[start]) == 1 else "cycle"
        components.append((kind, tuple(seq)))
    components.sort(key=lambda c: c[1][0])
    return components


def two_matching_to_orientation(tm: TwoMatching) -> Orientation:
    """Orient a 2-matching head to tail; everything else points low to high.

    Each path is directed away from its smaller endpoint and each cycle is
    directed consistently around, starting at its smallest node toward
    that node's smaller neighbor, so every 2-matching edge becomes an arc
    whose head and tail are used exactly once. The result orients the
    2-matching's host graph.
    """
    index = {e: k for k, e in enumerate(tm.graph.edges)}
    mask = 0
    for kind, seq in two_matching_components(tm):
        ring = seq + seq[:1] if kind == "cycle" else seq
        for u, v in zip(ring, ring[1:]):
            if u > v:
                mask |= 1 << index[(v, u)]
    return Orientation(tm.graph, mask)


def solve_ocm(g: UndirectedGraph) -> tuple[Orientation, ControlMatching]:
    """Optimal orientation of an unweighted graph with its maximum matching.

    The returned matching is exactly the oriented 2-matching, and its size
    is the optimum over every orientation of the graph.
    """
    tm = max_simple_two_matching(g)
    orientation = two_matching_to_orientation(tm)
    matched = set(tm.edges)
    arcs = tuple(sorted(a for e, a in zip(g.edges, orientation.arcs()) if e in matched))
    return orientation, ControlMatching(arcs, float(len(arcs)))
