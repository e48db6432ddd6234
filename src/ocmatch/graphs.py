"""Core graph types: undirected graphs, digraphs, weighted instances, orientations.

Every type is an immutable value object with a canonical layout. Undirected
edges are stored as (min, max) pairs sorted lexicographically, arcs as
ordered pairs sorted lexicographically. Equal inputs therefore produce
identical objects, which is what makes the solvers and the command line
reports reproducible byte for byte. The constructors reject self-loops,
duplicates and out-of-range endpoints; callers holding raw input collapse
its duplicates first. An orientation belongs to an undirected graph, not
to a weighted instance: it is one bit per edge, an int mask over the
canonical edge order, so the unweighted and weighted solvers share it.

Weights are 64-bit floats, hence dyadic rationals. Solvers add and compare
them exactly as integer multiples of one power-of-two unit per instance
(``AocmInstance.units``) and round a total back to a float once (``value_of``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import ContractError, InputError

Edge = tuple[int, int]
Arc = tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    """Return the endpoints of an undirected edge as a (min, max) pair."""
    return (u, v) if u <= v else (v, u)


def _check_endpoint(node: int, node_count: int, what: str) -> None:
    if not isinstance(node, int) or isinstance(node, bool):
        raise InputError(f"{what} endpoint {node!r} is not an integer")
    if node < 0 or node >= node_count:
        raise InputError(f"{what} endpoint {node} out of range for {node_count} nodes")


@dataclass(frozen=True)
class UndirectedGraph:
    """A simple undirected graph on nodes 0..node_count-1.

    Self-loops and duplicate edges (in either endpoint order) are rejected.
    """

    node_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        n = self.node_count
        if not isinstance(n, int) or n < 0:
            raise InputError(f"node_count must be a nonnegative int, got {n!r}")
        for u, v in self.edges:
            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
                _check_endpoint(u, n, "edge")
                _check_endpoint(v, n, "edge")
        canon = sorted([(u, v) if u <= v else (v, u) for u, v in self.edges])
        prev = None
        for edge in canon:
            u, v = edge
            if u == v:
                raise InputError(f"self-loop at node {u} is not allowed")
            if edge == prev:
                raise InputError(f"duplicate edge ({u}, {v})")
            prev = edge
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_edge(u, v) in set(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.node_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> list[list[int]]:
        """Neighbor lists, each sorted ascending."""
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for row in adj:
            row.sort()
        return adj


@dataclass(frozen=True)
class Digraph:
    """A directed graph on nodes 0..node_count-1 without self-loops.

    Both directions of a pair may be present (a 2-cycle); parallel copies
    of the same arc may not.
    """

    node_count: int
    arcs: tuple[Arc, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.node_count, int) or self.node_count < 0:
            raise InputError(f"node_count must be a nonnegative int, got {self.node_count!r}")
        for u, v in self.arcs:
            _check_endpoint(u, self.node_count, "arc")
            _check_endpoint(v, self.node_count, "arc")
        canon = sorted(tuple(a) for a in self.arcs)
        seen: set[Arc] = set()
        for u, v in canon:
            if u == v:
                raise InputError(f"self-loop at node {u} is not allowed")
            if (u, v) in seen:
                raise InputError(f"duplicate arc ({u}, {v})")
            seen.add((u, v))
        object.__setattr__(self, "arcs", tuple(canon))

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    def out_neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for u, v in self.arcs:
            adj[u].append(v)
        return adj


@dataclass(frozen=True)
class AocmInstance:
    """An undirected graph with a weight for each direction of each edge.

    ``weights`` must define exactly the 2 * edge_count ordered pairs that
    arise by directing each edge both ways, all values finite floats.
    """

    graph: UndirectedGraph
    weights: Mapping[Arc, float]

    def __post_init__(self) -> None:
        weights = self.weights
        edges = self.graph.edges
        try:
            clean = {arc: float(weights[arc]) for u, v in edges for arc in ((u, v), (v, u))}
        except KeyError:
            clean = None
        # Every key of clean is a key of weights, so equal sizes mean equal domains.
        if clean is None or len(clean) != len(weights):
            expected = {arc for u, v in edges for arc in ((u, v), (v, u))}
            got = set(weights)
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            raise InputError(
                f"weight domain mismatch: missing {missing[:4]}, unexpected {extra[:4]}"
            )
        if not all(map(math.isfinite, clean.values())):
            arc = min(a for a, w in clean.items() if not math.isfinite(w))
            raise InputError(f"weight for arc {arc} is not finite")
        object.__setattr__(self, "weights", clean)

    def weight(self, u: int, v: int) -> float:
        return self.weights[(u, v)]

    @cached_property
    def _lattice(self) -> tuple[int, dict[Arc, int]]:
        scale = 1
        units: dict[Arc, int] = {}
        for arc, w in self.weights.items():
            p, q = w.as_integer_ratio()
            if q > scale:
                units = {a: u * (q // scale) for a, u in units.items()}
                scale = q
            units[arc] = p * (scale // q)
        return scale, units

    @property
    def units(self) -> dict[Arc, int]:
        """Each weight times the largest weight denominator, a power of two, as an exact int."""
        return self._lattice[1]

    def value_of(self, total: int) -> float:
        """A sum of units as a weight, rounded once to the nearest float."""
        return total / self._lattice[0]

    def ordered_arcs(self) -> tuple[Arc, ...]:
        """Both directions of every edge, grouped per edge in canonical edge order.

        For edge k = (u, v) with u < v the arcs appear at positions 2k and
        2k + 1 as (u, v) then (v, u). This indexing is the canonical
        conflict-node order used by the independent-set reduction.
        """
        # __post_init__ keys the weights in this order.
        return tuple(self.weights)


def uniform_instance(g: UndirectedGraph, weight: float = 1.0) -> AocmInstance:
    """Weight both directions of every edge identically."""
    w: dict[Arc, float] = {}
    for u, v in g.edges:
        w[(u, v)] = weight
        w[(v, u)] = weight
    return AocmInstance(g, w)


@dataclass(frozen=True)
class Orientation:
    """One direction for each edge of a graph, as an edge mask.

    Bit k of ``mask`` is 1 when edge k of ``graph.edges`` points from its
    higher to its lower endpoint; mask 0 directs every edge low to high.
    The mask is range-checked on construction, so every orientation is
    total and legal.
    """

    graph: UndirectedGraph
    mask: int

    def __post_init__(self) -> None:
        m = self.graph.edge_count
        mask = self.mask
        if not isinstance(mask, int) or isinstance(mask, bool) or not 0 <= mask < 1 << m:
            raise ContractError(f"mask {mask!r} out of range for {m} edges")

    def arcs(self) -> tuple[Arc, ...]:
        """Chosen arcs in canonical edge order."""
        edges = self.graph.edges
        bits = format(self.mask, f"0{len(edges)}b")[::-1]
        return tuple((v, u) if b == "1" else (u, v) for (u, v), b in zip(edges, bits))


def orientation_from_arcs(g: UndirectedGraph, arcs: Iterable[Arc]) -> Orientation:
    """Build an orientation of ``g`` from exactly one chosen arc per edge."""
    index = {e: k for k, e in enumerate(g.edges)}
    directed: set[int] = set()
    mask = 0
    for u, v in arcs:
        k = index.get(canonical_edge(u, v))
        if k is None:
            raise ContractError(f"arc {(u, v)} is not a direction of any edge")
        if k in directed:
            raise ContractError(f"edge {canonical_edge(u, v)} directed twice")
        directed.add(k)
        if u > v:
            mask |= 1 << k
    if len(directed) != len(index):
        raise ContractError("arcs do not orient every edge of the graph")
    return Orientation(g, mask)


def is_cubic(g: UndirectedGraph) -> bool:
    """True when every node has degree exactly 3 (vacuously true when empty)."""
    return all(d == 3 for d in g.degrees())


def complete_graph(n: int) -> UndirectedGraph:
    return UndirectedGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def cycle_graph(n: int) -> UndirectedGraph:
    if n < 3:
        raise InputError("a cycle needs at least 3 nodes")
    return UndirectedGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> UndirectedGraph:
    return UndirectedGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def star_graph(leaves: int) -> UndirectedGraph:
    """A center node 0 joined to ``leaves`` leaf nodes."""
    return UndirectedGraph(leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))


def complete_bipartite(a: int, b: int) -> UndirectedGraph:
    return UndirectedGraph(
        a + b, tuple((i, a + j) for i in range(a) for j in range(b))
    )
