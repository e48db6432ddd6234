"""Seeded random instance generators for tests and verification suites.

Everything here is a pure function of the supplied random.Random state,
so a fixed seed reproduces the same instances on every run.
"""

from __future__ import annotations

import random

from .errors import InputError
from .graphs import AocmInstance, Arc, Digraph, Orientation, UndirectedGraph


def _all_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def random_graph(rng: random.Random, n: int, m: int) -> UndirectedGraph:
    """A uniform random simple graph with exactly m edges."""
    pairs = _all_pairs(n)
    if m > len(pairs):
        raise InputError(f"{m} edges do not fit in a simple graph on {n} nodes")
    return UndirectedGraph(n, tuple(rng.sample(pairs, m)))


def random_connected_graph(rng: random.Random, n: int, m: int) -> UndirectedGraph:
    """A random connected graph: a random tree plus m - n + 1 extra edges."""
    if n < 1:
        raise InputError("a connected graph needs at least one node")
    if m < n - 1 or m > n * (n - 1) // 2:
        raise InputError(f"no connected simple graph has {n} nodes and {m} edges")
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add((j, i))
    spare = [p for p in _all_pairs(n) if p not in edges]
    edges.update(rng.sample(spare, m - len(edges)))
    return UndirectedGraph(n, tuple(edges))


def random_digraph(rng: random.Random, n: int, max_support: int) -> Digraph:
    """A random digraph whose underlying support has at most max_support edges.

    Each chosen support pair carries one or both directions, so reduced
    weighted instances stay within brute-force range.
    """
    pairs = _all_pairs(n)
    k = rng.randint(0, min(max_support, len(pairs)))
    arcs: list[Arc] = []
    for u, v in rng.sample(pairs, k):
        mode = rng.randint(0, 2)
        if mode != 1:
            arcs.append((u, v))
        if mode != 0:
            arcs.append((v, u))
    return Digraph(n, tuple(arcs))


def random_weighted_instance(
    rng: random.Random,
    n: int,
    m: int,
    *,
    low: float = 0.0,
    high: float = 10.0,
    integer: bool = True,
) -> AocmInstance:
    """A random graph with independently drawn per-direction weights."""
    g = random_graph(rng, n, m)
    weights: dict[Arc, float] = {}
    for u, v in g.edges:
        for arc in ((u, v), (v, u)):
            if integer:
                weights[arc] = float(rng.randint(int(low), int(high)))
            else:
                weights[arc] = rng.uniform(low, high)
    return AocmInstance(g, weights)


def random_orientation(rng: random.Random, g: UndirectedGraph) -> Orientation:
    """A uniformly random orientation of the graph."""
    return Orientation(g, rng.randrange(1 << g.edge_count))
