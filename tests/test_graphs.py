import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocmatch.errors import ContractError, InputError
from ocmatch.fileio import parse_instance
from ocmatch.generators import random_graph
from ocmatch.graphs import (
    AocmInstance,
    Digraph,
    Orientation,
    UndirectedGraph,
    canonical_edge,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    is_cubic,
    orientation_from_arcs,
    path_graph,
    star_graph,
    uniform_instance,
)


def test_canonical_edge_orders_endpoints():
    assert canonical_edge(3, 1) == (1, 3)
    assert canonical_edge(1, 3) == (1, 3)
    assert canonical_edge(2, 2) == (2, 2)


class TestUndirectedGraph:
    def test_edges_are_canonicalized_and_sorted(self):
        g = UndirectedGraph(4, ((3, 1), (0, 2), (1, 0)))
        assert g.edges == ((0, 1), (0, 2), (1, 3))

    def test_rejects_self_loop(self):
        with pytest.raises(InputError):
            UndirectedGraph(3, ((1, 1),))

    def test_rejects_duplicate_even_if_reversed(self):
        with pytest.raises(InputError):
            UndirectedGraph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError):
            UndirectedGraph(2, ((0, 2),))
        with pytest.raises(InputError):
            UndirectedGraph(2, ((-1, 0),))

    def test_rejects_non_integer_sizes_and_endpoints(self):
        for make in (
            lambda: UndirectedGraph(3, ((0, "1"),)),
            lambda: UndirectedGraph(3, ((0, None),)),
            lambda: UndirectedGraph("3", ((0, 1),)),
            lambda: UndirectedGraph(2.5, ()),
            lambda: Digraph(3, ((0, "1"), (0, 2))),
            lambda: Digraph(3.0, ()),
        ):
            with pytest.raises(InputError):
                make()

    def test_degrees_and_adjacency(self):
        g = star_graph(3)
        assert g.degrees() == [3, 1, 1, 1]
        assert g.adjacency() == [[1, 2, 3], [0], [0], [0]]
        assert g.has_edge(2, 0) and not g.has_edge(1, 2)

    def test_empty_graph(self):
        g = UndirectedGraph(0, ())
        assert g.edge_count == 0 and g.degrees() == []


class TestDigraph:
    def test_two_cycles_allowed_parallel_arcs_rejected(self):
        d = Digraph(2, ((0, 1), (1, 0)))
        assert d.arc_count == 2
        with pytest.raises(InputError):
            Digraph(2, ((0, 1), (0, 1)))

    def test_out_neighbors(self):
        d = Digraph(3, ((0, 1), (0, 2), (2, 1)))
        assert d.out_neighbors() == [[1, 2], [], [1]]


class TestAocmInstance:
    def test_requires_both_directions(self):
        g = path_graph(2)
        with pytest.raises(InputError):
            AocmInstance(g, {(0, 1): 1.0})
        with pytest.raises(InputError):
            AocmInstance(g, {(0, 1): 1.0, (1, 0): 2.0, (1, 2): 3.0})

    def test_rejects_nonfinite_weight(self):
        g = path_graph(2)
        with pytest.raises(InputError, match=r"weight for arc \(0, 1\) is not finite"):
            AocmInstance(g, {(0, 1): float("inf"), (1, 0): 0.0})
        with pytest.raises(InputError, match=r"weight for arc \(0, 1\) is not finite"):
            parse_instance("2 1\n0 1 inf 0\n")

    def test_weight_lookup_and_uniformity(self):
        inst = uniform_instance(cycle_graph(3), 2.5)
        assert inst.weight(1, 0) == 2.5
        lopsided = AocmInstance(path_graph(2), {(0, 1): 5.0, (1, 0): 2.0})
        assert lopsided.weight(1, 0) == 2.0

    def test_ordered_arcs_pairs_per_edge(self):
        inst = uniform_instance(path_graph(3))
        assert inst.ordered_arcs() == ((0, 1), (1, 0), (1, 2), (2, 1))


class TestOrientation:
    def test_mask_zero_is_all_low_to_high(self):
        o = Orientation(cycle_graph(3), 0)
        assert o.arcs() == ((0, 1), (0, 2), (1, 2))

    def test_mask_bits_reverse_individual_edges(self):
        o = Orientation(cycle_graph(3), 0b010)
        assert o.arcs() == ((0, 1), (2, 0), (1, 2))

    def test_mask_out_of_range(self):
        g = path_graph(2)
        with pytest.raises(ContractError):
            Orientation(g, 2)
        with pytest.raises(ContractError):
            Orientation(g, -1)

    def test_empty_instance_has_single_orientation(self):
        g = UndirectedGraph(2, ())
        assert Orientation(g, 0).arcs() == ()
        with pytest.raises(ContractError):
            Orientation(g, 1)

    def test_invalid_direction_map_detected(self):
        g = path_graph(2)
        for bad in (2, -1, 1.0, None):
            with pytest.raises(ContractError):
                Orientation(g, bad)

    def test_from_arcs_round_trip(self):
        o = orientation_from_arcs(cycle_graph(4), [(1, 0), (1, 2), (3, 2), (0, 3)])
        assert o.arcs() == ((1, 0), (0, 3), (1, 2), (3, 2))

    def test_from_arcs_rejects_double_direction(self):
        with pytest.raises(ContractError):
            orientation_from_arcs(path_graph(2), [(0, 1), (1, 0)])

    def test_from_arcs_rejects_missing_edge(self):
        g = path_graph(3)
        with pytest.raises(ContractError):
            orientation_from_arcs(g, [(0, 1)])
        with pytest.raises(ContractError):
            orientation_from_arcs(g, [(0, 2), (1, 2)])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_encoding_round_trips(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        mask = rng.randrange(1 << m)
        assert orientation_from_arcs(g, Orientation(g, mask).arcs()).mask == mask


def test_named_graph_builders():
    assert complete_graph(4).edge_count == 6
    assert cycle_graph(5).edge_count == 5
    assert path_graph(1).edge_count == 0
    assert star_graph(3).edge_count == 3
    kb = complete_bipartite(3, 3)
    assert kb.node_count == 6 and kb.edge_count == 9
    with pytest.raises(InputError):
        cycle_graph(2)


def test_is_cubic():
    assert is_cubic(complete_graph(4))
    assert is_cubic(complete_bipartite(3, 3))
    assert not is_cubic(cycle_graph(4))
    assert is_cubic(UndirectedGraph(0, ()))
