import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocmatch.errors import ContractError
from ocmatch.generators import random_connected_graph, random_graph
from ocmatch.graphs import (
    UndirectedGraph,
    canonical_edge,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from ocmatch.matching import driver_count
from ocmatch.ocm import (
    TwoMatching,
    max_simple_two_matching,
    solve_ocm,
    two_matching_components,
    two_matching_to_orientation,
)
from ocmatch.oracles import (
    brute_2matching,
    brute_control_matching,
    enumerate_orientations,
)


class TestTwoMatching:
    def test_rejects_foreign_edge(self):
        with pytest.raises(ContractError):
            TwoMatching(path_graph(3), ((0, 2),))

    def test_rejects_degree_three(self):
        g = star_graph(3)
        with pytest.raises(ContractError):
            TwoMatching(g, g.edges)

    def test_rejects_duplicates(self):
        with pytest.raises(ContractError):
            TwoMatching(path_graph(2), ((0, 1), (1, 0)))

    def test_canonicalizes(self):
        tm = TwoMatching(path_graph(3), ((2, 1), (1, 0)))
        assert tm.edges == ((0, 1), (1, 2))


class TestMaxSimpleTwoMatching:
    def test_named_graphs(self):
        assert max_simple_two_matching(cycle_graph(3)).size == 3
        assert max_simple_two_matching(star_graph(3)).size == 2
        assert max_simple_two_matching(complete_graph(4)).size == 4
        assert max_simple_two_matching(path_graph(5)).size == 4
        assert max_simple_two_matching(UndirectedGraph(3, ())).size == 0

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(4)
        for _ in range(120):
            n = rng.randint(1, 7)
            m = rng.randint(0, min(10, n * (n - 1) // 2))
            g = random_graph(rng, n, m)
            assert max_simple_two_matching(g).size == brute_2matching(g)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_matches_oracle_property(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        g = random_graph(rng, n, rng.randint(0, min(9, n * (n - 1) // 2)))
        assert max_simple_two_matching(g).size == brute_2matching(g)


def _split_graph_matching_size(g):
    """Maximum matching size of the vertex-split graph, by networkx.

    The split graph is rebuilt here from its definition, not taken from the
    solver: copies 2u and 2u+1 of each node u, and subdivision nodes
    2n+2k and 2n+2k+1 for edge k = (u, v), joined to each other, to both
    copies of u and to both copies of v respectively.
    """
    nx = pytest.importorskip("networkx")
    n = g.node_count
    aux = nx.Graph()
    aux.add_nodes_from(range(2 * n))
    for k, (u, v) in enumerate(g.edges):
        eu, ev = 2 * n + 2 * k, 2 * n + 2 * k + 1
        aux.add_edges_from([(eu, ev), (eu, 2 * u), (eu, 2 * u + 1), (ev, 2 * v), (ev, 2 * v + 1)])
    return len(nx.max_weight_matching(aux, maxcardinality=True))


def _petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return UndirectedGraph(10, tuple(outer + inner + spokes))


def _odd_cycles_joined_by_path(a, b, path_edges):
    """Cycles of lengths a and b whose nodes 0 and a are joined by a path."""
    n = a + b + path_edges - 1
    edges = [(i, (i + 1) % a) for i in range(a)]
    edges += [(a + i, a + (i + 1) % b) for i in range(b)]
    route = [0, *range(a + b, n), a]
    edges += list(zip(route, route[1:]))
    return UndirectedGraph(n, tuple(edges))


class TestBlossomKernel:
    def test_matches_networkx_on_the_split_graph(self):
        rng = random.Random(11)
        for i in range(300):
            n = rng.randint(2, 40)
            m = min(rng.randint(n, 8 * n), n * (n - 1) // 2)
            g = random_graph(rng, n, m)
            size = max_simple_two_matching(g).size
            assert size == _split_graph_matching_size(g) - m, f"graph {i}: {g.edges}"

    def test_complete_graphs_have_hamiltonian_cycles(self):
        for n in range(5, 10):
            assert max_simple_two_matching(complete_graph(n)).size == n

    def test_petersen_graph_has_a_two_factor(self):
        assert max_simple_two_matching(_petersen()).size == 10

    def test_disjoint_triangles(self):
        edges = []
        for t in range(6):
            a, b, c = 3 * t, 3 * t + 1, 3 * t + 2
            edges += [(a, b), (b, c), (a, c)]
        assert max_simple_two_matching(UndirectedGraph(18, tuple(edges))).size == 18

    def test_odd_cycles_joined_by_a_path(self):
        for a, b, path_edges in ((3, 3, 1), (3, 5, 2), (5, 7, 3), (7, 9, 6)):
            g = _odd_cycles_joined_by_path(a, b, path_edges)
            # Inner path nodes have degree two, so no 2-factor exists; the
            # two cycles plus all but one path edge reach n - 1.
            expected = g.node_count if path_edges == 1 else g.node_count - 1
            assert max_simple_two_matching(g).size == expected


class TestScale:
    def test_long_path_and_cycle_solve_without_recursion(self):
        _, m = solve_ocm(path_graph(20_000))
        assert m.size == 19_999
        _, m = solve_ocm(cycle_graph(20_001))
        assert m.size == 20_001

    def test_large_star_finishes_quickly(self):
        started = time.perf_counter()
        assert max_simple_two_matching(star_graph(20_000)).size == 2
        assert time.perf_counter() - started < 10

    def test_isolated_nodes_cost_little(self):
        g = UndirectedGraph(100_010, tuple((i, i + 1) for i in range(10)))
        started = time.perf_counter()
        assert max_simple_two_matching(g).size == 10
        assert time.perf_counter() - started < 10


class TestComponents:
    def test_single_path(self):
        tm = max_simple_two_matching(path_graph(4))
        assert two_matching_components(tm) == [("path", (0, 1, 2, 3))]

    def test_single_cycle_starts_low_toward_smaller_neighbor(self):
        tm = max_simple_two_matching(cycle_graph(4))
        assert two_matching_components(tm) == [("cycle", (0, 1, 2, 3))]

    def test_mixed_components(self):
        g = UndirectedGraph(6, ((0, 1), (1, 2), (0, 2), (4, 5)))
        tm = TwoMatching(g, g.edges)
        assert two_matching_components(tm) == [
            ("cycle", (0, 1, 2)),
            ("path", (4, 5)),
        ]

    def test_components_partition_their_nodes(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, rng.randint(0, min(12, n * (n - 1) // 2)))
            tm = max_simple_two_matching(g)
            seen: set[int] = set()
            edge_total = 0
            for kind, seq in two_matching_components(tm):
                assert len(set(seq)) == len(seq)
                assert not seen & set(seq)
                seen.update(seq)
                if kind == "cycle":
                    assert len(seq) >= 3
                    edge_total += len(seq)
                else:
                    assert len(seq) >= 2
                    edge_total += len(seq) - 1
            assert edge_total == tm.size

    def test_walk_order_on_random_paths_and_cycles(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(6, 30)
            order = list(range(n))
            rng.shuffle(order)
            planted = []
            edges = set()
            while len(order) >= 2:
                size = min(rng.randint(2, 6), len(order))
                nodes, order = order[:size], order[size:]
                kind = "cycle" if size >= 3 and rng.random() < 0.5 else "path"
                planted.append((kind, tuple(sorted(nodes))))
                ring = nodes + nodes[:1] if kind == "cycle" else nodes
                edges.update(canonical_edge(u, v) for u, v in zip(ring, ring[1:]))
            extra = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.1}
            g = UndirectedGraph(n, tuple(edges | extra))
            comps = two_matching_components(TwoMatching(g, tuple(edges)))
            assert sorted((k, tuple(sorted(seq))) for k, seq in comps) == sorted(planted)
            starts = [seq[0] for _, seq in comps]
            assert starts == sorted(starts)
            for kind, seq in comps:
                if kind == "path":
                    assert seq[0] < seq[-1]
                else:
                    assert seq[0] == min(seq) and seq[1] < seq[-1]

    def test_solve_ocm_matching_follows_the_walks(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 14)
            g = random_graph(rng, n, rng.randint(1, min(22, n * (n - 1) // 2)))
            orientation, matching = solve_ocm(g)
            tm = max_simple_two_matching(g)
            walked = []
            for kind, seq in two_matching_components(tm):
                ring = seq + seq[:1] if kind == "cycle" else seq
                walked.extend(zip(ring, ring[1:]))
            on_tm = [a for a in orientation.arcs() if canonical_edge(*a) in set(tm.edges)]
            assert matching.arcs == tuple(sorted(walked)) == tuple(sorted(on_tm))


class TestOrientation:
    def test_cycle_orientation_matches_every_node(self):
        o = two_matching_to_orientation(max_simple_two_matching(cycle_graph(3)))
        assert o.arcs() == ((0, 1), (2, 0), (1, 2))

    def test_untouched_edges_point_low_to_high(self):
        o = two_matching_to_orientation(TwoMatching(star_graph(3), ()))
        assert o.arcs() == ((0, 1), (0, 2), (0, 3))


class TestSolveOcm:
    def test_named_values(self):
        for g, size, drivers in (
            (cycle_graph(3), 3, 1),
            (star_graph(3), 2, 2),
            (complete_graph(4), 4, 1),
            (complete_bipartite(3, 3), 6, 1),
            (UndirectedGraph(4, ()), 0, 4),
            (UndirectedGraph(0, ()), 0, 1),
        ):
            o, m = solve_ocm(g)
            assert m.size == size
            assert driver_count(o) == drivers

    def test_matching_lives_on_orientation(self):
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randint(1, 7)
            g = random_graph(rng, n, rng.randint(0, min(10, n * (n - 1) // 2)))
            o, m = solve_ocm(g)
            assert set(m.arcs) <= set(o.arcs())
            assert m.size == max_simple_two_matching(g).size

    def test_no_orientation_does_better_small(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 5)
            m_edges = rng.randint(n - 1, min(7, n * (n - 1) // 2))
            g = random_connected_graph(rng, n, m_edges)
            _, m = solve_ocm(g)
            sweep = max(brute_control_matching(o).size for o in enumerate_orientations(g))
            assert m.size == sweep
