"""Exhaustive reference implementations with hard size caps.

These exist to check the real solvers and the reduction constructions, so
they favor transparently correct enumeration over speed and share no
search code with the solver modules. Each oracle refuses inputs beyond a
small cap by raising ResourceLimitError.

The subset searches recurse arc by arc (or node by node) with an
include/exclude branch; the include branch is taken only while the
partial set is still feasible. Feasibility is hereditary for matchings,
degree-bounded subgraphs, and independent sets, so every feasible subset
still appears as a leaf and the enumeration remains exhaustive. The
control-matching search also drops a branch whose value plus every
remaining positive weight stays strictly below its best so far: no leaf
there can win or tie, so the answer and its tie-break are unchanged.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ContractError, ResourceLimitError
from .graphs import Arc, Digraph, Orientation, UndirectedGraph
from .matching import ControlMatching
from .reductions import CycleCover


def _exact(values: Iterable[float]) -> tuple[list[int], int]:
    """The values as integers over one power-of-two denominator, and the denominator."""
    ratios = [float(x).as_integer_ratio() for x in values]
    scale = max([q for _, q in ratios], default=1)
    return [p * (scale // q) for p, q in ratios], scale


def _oracle_arcs(d: Digraph | Orientation) -> tuple[int, list[Arc]]:
    if isinstance(d, Digraph):
        return d.node_count, sorted(d.arcs)
    if isinstance(d, Orientation):
        return d.graph.node_count, sorted(d.arcs())
    raise ContractError(f"expected Digraph or Orientation, got {type(d).__name__}")


def brute_control_matching(
    d: Digraph | Orientation,
    weights: Mapping[Arc, float] | None = None,
    *,
    max_arcs: int = 20,
) -> ControlMatching:
    """Exhaustive maximum control matching, at most ``max_arcs`` arcs.

    Without ``weights`` the value is the cardinality; with them it is the
    weight sum. Ties on value resolve to the lexicographically smallest
    arc tuple, matching the solvers' canonical answer.
    """
    n, arcs = _oracle_arcs(d)
    if len(arcs) > max_arcs:
        raise ResourceLimitError(
            f"brute_control_matching caps at {max_arcs} arcs, got {len(arcs)}"
        )
    arc_w, scale = _exact(1.0 if weights is None else weights[a] for a in arcs)
    # reach[i]: the most that arcs i.. can still add.
    reach = [0] * (len(arcs) + 1)
    for i in range(len(arcs) - 1, -1, -1):
        reach[i] = reach[i + 1] + max(arc_w[i], 0)
    best_val = 0
    best_arcs: tuple[Arc, ...] = ()
    cur: list[Arc] = []
    tails: set[int] = set()
    heads: set[int] = set()

    def consider(val: int) -> None:
        nonlocal best_val, best_arcs
        if val > best_val:
            best_val, best_arcs = val, tuple(cur)
        elif val == best_val and tuple(cur) < best_arcs:
            best_arcs = tuple(cur)

    def rec(i: int, val: int) -> None:
        if val + reach[i] < best_val:
            return
        if i == len(arcs):
            consider(val)
            return
        rec(i + 1, val)
        u, v = arcs[i]
        if u not in tails and v not in heads:
            tails.add(u)
            heads.add(v)
            cur.append((u, v))
            rec(i + 1, val + arc_w[i])
            cur.pop()
            tails.discard(u)
            heads.discard(v)

    rec(0, 0)
    return ControlMatching(best_arcs, best_val / scale)


def brute_2matching(g: UndirectedGraph, *, max_edges: int = 20) -> int:
    """Size of a maximum simple 2-matching, found by subset search.

    A simple 2-matching is an edge subset in which every node has degree
    at most two. Caps at ``max_edges`` edges.
    """
    if g.edge_count > max_edges:
        raise ResourceLimitError(
            f"brute_2matching caps at {max_edges} edges, got {g.edge_count}"
        )
    edges = g.edges
    deg = [0] * g.node_count
    best = 0

    def rec(i: int, count: int) -> None:
        nonlocal best
        if count + (len(edges) - i) <= best:
            return
        if i == len(edges):
            best = max(best, count)
            return
        u, v = edges[i]
        if deg[u] < 2 and deg[v] < 2:
            deg[u] += 1
            deg[v] += 1
            rec(i + 1, count + 1)
            deg[u] -= 1
            deg[v] -= 1
        rec(i + 1, count)

    rec(0, 0)
    return best


def brute_mwis(
    node_weights: Sequence[float],
    edges: Iterable[tuple[int, int]],
    *,
    max_nodes: int = 26,
) -> tuple[frozenset[int], float]:
    """Exhaustive maximum-weight independent set on at most ``max_nodes`` nodes.

    Returns the chosen node set and its weight. Ties on weight resolve to
    the lexicographically smallest sorted node tuple.
    """
    n = len(node_weights)
    if n > max_nodes:
        raise ResourceLimitError(f"brute_mwis caps at {max_nodes} nodes, got {n}")
    adj = [0] * n
    for u, v in edges:
        if u == v or not (0 <= u < n and 0 <= v < n):
            raise ContractError(f"bad edge ({u}, {v}) for {n} nodes")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    exact, scale = _exact(node_weights)
    best_w = 0
    best_set: tuple[int, ...] = ()
    cur: list[int] = []

    def consider(w: int) -> None:
        nonlocal best_w, best_set
        if w > best_w:
            best_w, best_set = w, tuple(cur)
        elif w == best_w and tuple(cur) < best_set:
            best_set = tuple(cur)

    def rec(i: int, chosen_mask: int, w: int) -> None:
        if i == n:
            consider(w)
            return
        rec(i + 1, chosen_mask, w)
        if not (adj[i] & chosen_mask):
            cur.append(i)
            rec(i + 1, chosen_mask | (1 << i), w + exact[i])
            cur.pop()

    rec(0, 0, 0)
    return frozenset(best_set), best_w / scale


def brute_3dcc(d: Digraph, *, max_nodes: int = 9) -> CycleCover | None:
    """Search for a partition of all nodes into directed cycles of length >= 3.

    Backtracking over cycle structures: each cycle is grown from the
    smallest uncovered node, so a found cover comes out in canonical form.
    Returns None when no cover exists. Caps at ``max_nodes`` nodes.
    """
    n = d.node_count
    if n > max_nodes:
        raise ResourceLimitError(f"brute_3dcc caps at {max_nodes} nodes, got {n}")
    out = [set() for _ in range(n)]
    for u, v in d.arcs:
        out[u].add(v)
    remaining = set(range(n))
    cycles: list[tuple[int, ...]] = []

    def close_or_extend(start: int, path: list[int]) -> bool:
        cur = path[-1]
        for nxt in sorted(out[cur]):
            if nxt == start and len(path) >= 3:
                cycles.append(tuple(path))
                if cover_rest():
                    return True
                cycles.pop()
            if nxt in remaining:
                remaining.discard(nxt)
                path.append(nxt)
                if close_or_extend(start, path):
                    return True
                path.pop()
                remaining.add(nxt)
        return False

    def cover_rest() -> bool:
        if not remaining:
            return True
        start = min(remaining)
        remaining.discard(start)
        if close_or_extend(start, [start]):
            return True
        remaining.add(start)
        return False

    if cover_rest():
        return CycleCover(n, tuple(cycles))
    return None


def enumerate_orientations(
    g: UndirectedGraph, *, max_edges: int = 24
) -> Iterator[Orientation]:
    """Yield every orientation of the graph in counter order.

    Bit k of the counter directs edge k; counter 0 is the all-canonical
    (low to high) orientation. Caps at ``max_edges`` edges, i.e. 2^24
    orientations.
    """
    m = g.edge_count
    if m > max_edges:
        raise ResourceLimitError(
            f"enumerate_orientations caps at {max_edges} edges, got {m}"
        )
    for mask in range(1 << m):
        yield Orientation(g, mask)
