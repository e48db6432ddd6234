import random

import pytest

from ocmatch.errors import ResourceLimitError
from ocmatch.graphs import (
    Digraph,
    Orientation,
    UndirectedGraph,
    complete_graph,
    cycle_graph,
)
from ocmatch.generators import random_digraph
from ocmatch.oracles import (
    brute_2matching,
    brute_3dcc,
    brute_control_matching,
    brute_mwis,
    enumerate_orientations,
)
from ocmatch.reductions import is_valid_cycle_cover


class TestBruteControlMatching:
    def test_exact_sums_decide_near_ties(self):
        # 0.1 + 0.2 is exactly above 0.3, so the pair beats the
        # lexicographically smaller single arc.
        d = Digraph(3, ((0, 1), (0, 2), (2, 1)))
        sol = brute_control_matching(d, {(0, 1): 0.3, (0, 2): 0.1, (2, 1): 0.2})
        assert sol.arcs == ((0, 2), (2, 1))
        assert sol.value == 0.1 + 0.2

    def test_directed_triangle_is_fully_matched(self):
        d = Digraph(3, ((0, 1), (1, 2), (2, 0)))
        sol = brute_control_matching(d)
        assert sol.size == 3
        assert sol.arcs == ((0, 1), (1, 2), (2, 0))

    def test_out_star_picks_lex_smallest(self):
        d = Digraph(4, ((0, 1), (0, 2), (0, 3)))
        assert brute_control_matching(d).arcs == ((0, 1),)

    def test_weighted_values_override_cardinality(self):
        d = Digraph(4, ((0, 1), (0, 2), (0, 3)))
        sol = brute_control_matching(d, {(0, 1): 1.0, (0, 2): 5.0, (0, 3): 1.0})
        assert sol.arcs == ((0, 2),)
        assert sol.value == 5.0

    def test_arc_cap(self):
        arcs = tuple((0, v) for v in range(1, 22))
        with pytest.raises(ResourceLimitError):
            brute_control_matching(Digraph(22, arcs))


class TestBrute2Matching:
    def test_named_graphs(self):
        assert brute_2matching(cycle_graph(3)) == 3
        assert brute_2matching(complete_graph(4)) == 4
        assert brute_2matching(UndirectedGraph(4, ((0, 1), (0, 2), (0, 3)))) == 2
        assert brute_2matching(UndirectedGraph(0, ())) == 0

    def test_edge_cap(self):
        with pytest.raises(ResourceLimitError):
            brute_2matching(complete_graph(7))


class TestBruteMwis:
    def test_triangle_takes_heaviest_node(self):
        chosen, weight = brute_mwis([1.0, 5.0, 2.0], [(0, 1), (1, 2), (0, 2)])
        assert chosen == frozenset({1}) and weight == 5.0

    def test_path_prefers_endpoints(self):
        chosen, weight = brute_mwis([2.0, 3.0, 2.0], [(0, 1), (1, 2)])
        assert chosen == frozenset({0, 2}) and weight == 4.0

    def test_tie_breaks_to_lex_smallest_node_set(self):
        chosen, weight = brute_mwis([1.0, 1.0], [])
        assert chosen == frozenset({0, 1}) and weight == 2.0
        chosen, weight = brute_mwis([1.0, 1.0], [(0, 1)])
        assert chosen == frozenset({0}) and weight == 1.0

    def test_empty_input(self):
        chosen, weight = brute_mwis([], [])
        assert chosen == frozenset() and weight == 0.0

    def test_node_cap(self):
        with pytest.raises(ResourceLimitError):
            brute_mwis([1.0] * 27, [])


class TestBrute3dcc:
    def test_directed_triangle_has_a_cover(self):
        d = Digraph(3, ((0, 1), (1, 2), (2, 0)))
        cover = brute_3dcc(d)
        assert cover is not None
        assert is_valid_cycle_cover(d, cover)
        assert cover.cycles == ((0, 1, 2),)

    def test_two_cycle_is_too_short(self):
        assert brute_3dcc(Digraph(2, ((0, 1), (1, 0)))) is None

    def test_isolated_node_blocks_cover(self):
        d = Digraph(4, ((0, 1), (1, 2), (2, 0)))
        assert brute_3dcc(d) is None

    def test_empty_digraph_has_the_empty_cover(self):
        cover = brute_3dcc(Digraph(0, ()))
        assert cover is not None and cover.cycles == ()

    def test_two_disjoint_triangles(self):
        d = Digraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))
        cover = brute_3dcc(d)
        assert cover is not None
        assert cover.cycles == ((0, 1, 2), (3, 4, 5))

    def test_node_cap(self):
        with pytest.raises(ResourceLimitError):
            brute_3dcc(Digraph(10, ()))


class TestEnumerateOrientations:
    def test_counter_order_and_count(self):
        g = cycle_graph(3)
        seen = list(enumerate_orientations(g))
        assert len(seen) == 8
        for mask, o in enumerate(seen):
            assert o == Orientation(g, mask)

    def test_counter_zero_points_low_to_high(self):
        first = next(enumerate_orientations(UndirectedGraph(3, ((0, 1), (1, 2)))))
        assert first.arcs() == ((0, 1), (1, 2))

    def test_edgeless_instance_has_one_orientation(self):
        assert len(list(enumerate_orientations(UndirectedGraph(2, ())))) == 1

    def test_edge_cap(self):
        with pytest.raises(ResourceLimitError):
            next(enumerate_orientations(complete_graph(8)))


class TestOracleCrossChecks:
    def test_matching_size_never_exceeds_node_count(self):
        rng = random.Random(20)
        for _ in range(30):
            d = random_digraph(rng, rng.randint(1, 6), 8)
            sol = brute_control_matching(d)
            assert 0 <= sol.size <= d.node_count
            heads = [v for _, v in sol.arcs]
            tails = [u for u, _ in sol.arcs]
            assert len(set(heads)) == len(heads)
            assert len(set(tails)) == len(tails)
