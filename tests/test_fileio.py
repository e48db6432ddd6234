import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocmatch.errors import InputError
from ocmatch.fileio import (
    format_weight,
    load_instance,
    parse_conflict_graph,
    parse_instance,
    save_instance,
    write_aocm,
    write_conflict_graph,
    write_digraph,
    write_instance,
    write_undirected,
)
from ocmatch.generators import random_digraph, random_graph, random_weighted_instance
from ocmatch.graphs import (
    AocmInstance,
    Digraph,
    UndirectedGraph,
    cycle_graph,
    path_graph,
    uniform_instance,
)
from ocmatch.reductions import aocm_to_wis


class TestFormatWeight:
    def test_integral_floats_print_as_integers(self):
        assert format_weight(3.0) == "3"
        assert format_weight(-2.0) == "-2"
        assert format_weight(0.0) == "0"

    def test_fractions_keep_full_precision(self):
        assert format_weight(2.5) == "2.5"
        assert float(format_weight(0.1)) == 0.1
        assert float(format_weight(1 / 3)) == 1 / 3


class TestRoundTrips:
    def test_undirected(self):
        g = cycle_graph(4)
        assert parse_instance(write_undirected(g)) == g

    def test_directed(self):
        d = Digraph(3, ((0, 1), (1, 0), (2, 1)))
        assert parse_instance(write_digraph(d)) == d

    def test_weighted(self):
        inst = AocmInstance(path_graph(2), {(0, 1): 2.5, (1, 0): 0.0})
        assert parse_instance(write_aocm(inst)) == inst

    def test_empty_weighted_instance_keeps_its_type(self):
        inst = uniform_instance(UndirectedGraph(3, ()))
        back = parse_instance(write_aocm(inst))
        assert isinstance(back, AocmInstance)
        assert back == inst

    def test_empty_graphs(self):
        g = UndirectedGraph(0, ())
        assert parse_instance(write_undirected(g)) == g
        d = Digraph(2, ())
        assert parse_instance(write_digraph(d)) == d

    def test_random_instances_of_every_kind(self):
        rng = random.Random(40)
        for _ in range(25):
            n = rng.randint(1, 7)
            g = random_graph(rng, n, rng.randint(0, min(9, n * (n - 1) // 2)))
            assert parse_instance(write_instance(g)) == g
            d = random_digraph(rng, n, 8)
            assert parse_instance(write_instance(d)) == d
            w = random_weighted_instance(
                rng, n, rng.randint(0, min(6, n * (n - 1) // 2)), integer=False
            )
            assert parse_instance(write_instance(w)) == w

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "instance.txt"
        inst = AocmInstance(path_graph(2), {(0, 1): 1.25, (1, 0): 3.0})
        save_instance(inst, path)
        assert load_instance(path) == inst

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError, match="cannot read"):
            load_instance(tmp_path / "missing.txt")

    def test_large_weighted_file_parses_in_linear_time(self):
        n = 10_000
        g = UndirectedGraph(n, tuple((i, (i + k) % n) for i in range(n) for k in (1, 2, 3)))
        weights = {}
        for u, v in g.edges:
            weights[(u, v)] = float((7 * u + v) % 11)
            weights[(v, u)] = (u % 5) / 4
        text = write_aocm(AocmInstance(g, weights))
        started = time.perf_counter()
        inst = parse_instance(text)
        assert time.perf_counter() - started < 10
        assert inst.graph.edge_count == 30_000
        assert write_aocm(inst) == text


class TestParsingTolerance:
    def test_comments_and_blank_lines(self):
        text = "# a graph\n\n3 2  # n m\n0 1\n\n1 2 # last edge\n"
        assert parse_instance(text) == path_graph(3)

    def test_duplicate_undirected_edges_collapse(self):
        assert parse_instance("2 2\n0 1\n1 0\n") == path_graph(2)
        g = parse_instance("3 4\n0 1\n1 0\n2 1\n0 1\n")
        assert g.edges == ((0, 1), (1, 2))

    def test_duplicate_arcs_collapse(self):
        d = parse_instance("2 2 directed\n0 1\n0 1\n")
        assert d == Digraph(2, ((0, 1),))
        d = parse_instance("2 3 directed\n0 1\n0 1\n1 0\n")
        assert d.arcs == ((0, 1), (1, 0))


class TestParseErrors:
    def test_empty_file(self):
        with pytest.raises(InputError, match="empty instance file"):
            parse_instance("")

    def test_bad_header(self):
        with pytest.raises(InputError, match="in.txt:1: header"):
            parse_instance("3 2 sideways\n0 1\n1 2\n", source="in.txt")

    def test_bad_integer_is_line_numbered(self):
        with pytest.raises(InputError, match="in.txt:2: expected an integer"):
            parse_instance("2 1\n0 x\n", source="in.txt")
        # A bad second field is reported even after an out-of-range first one.
        with pytest.raises(InputError, match="in.txt:2: expected an integer, got 'x'"):
            parse_instance("2 1\n7 x\n", source="in.txt")

    def test_out_of_range_node(self):
        with pytest.raises(InputError, match=r"in.txt:2: node 7 out of range 0\.\.1"):
            parse_instance("2 1\n0 7\n", source="in.txt")
        with pytest.raises(InputError, match=r"in.txt:2: node -1 out of range 0\.\.1"):
            parse_instance("2 1\n0 -1\n", source="in.txt")

    def test_self_loop(self):
        with pytest.raises(InputError, match="self-loop at node 1"):
            parse_instance("2 1\n1 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(InputError, match="header promises 4 edge lines, found 3"):
            parse_instance("4 4\n0 1\n1 2\n2 3\n")

    def test_mixed_field_widths(self):
        with pytest.raises(InputError, match="mixed 2-field and 4-field"):
            parse_instance("3 2\n0 1\n1 2 1 0\n")

    def test_directed_rejects_weight_fields(self):
        with pytest.raises(InputError, match="directed files take 2-field"):
            parse_instance("2 1 directed\n0 1 1 0\n")

    def test_weighted_header_rejects_bare_edges(self):
        with pytest.raises(InputError, match="weighted header but 2-field"):
            parse_instance("2 1 weighted\n0 1\n")

    def test_duplicate_weighted_edge(self):
        with pytest.raises(InputError, match=r"duplicate weighted edge \(0, 1\)"):
            parse_instance("2 2\n0 1 1 2\n1 0 3 4\n")

    def test_bad_weight(self):
        with pytest.raises(InputError, match="expected a number, got 'w'"):
            parse_instance("2 1\n0 1 w 2\n")

    def test_negative_header_sizes(self):
        with pytest.raises(InputError, match="negative sizes"):
            parse_instance("-1 0\n")


class TestConflictGraphFiles:
    def test_round_trip(self):
        cg = aocm_to_wis(uniform_instance(path_graph(3)))
        weights, edges = parse_conflict_graph(write_conflict_graph(cg))
        assert weights == cg.weights
        assert edges == cg.conflicts

    def test_header_is_checked(self):
        with pytest.raises(InputError, match="header must be 'n m conflict'"):
            parse_conflict_graph("2 1\n0 1\n1 1\n0 1\n")

    def test_line_counts_are_checked(self):
        with pytest.raises(InputError, match="expected 2 node lines and 1 edge lines"):
            parse_conflict_graph("2 1 conflict\n0 1\n1 1\n")

    def test_endpoints_are_checked(self):
        with pytest.raises(InputError, match="edge endpoint out of range"):
            parse_conflict_graph("2 1 conflict\n0 1\n1 1\n0 9\n")


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_weighted_round_trip_property(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6)) if pairs else []
    weights = {}
    for u, v in edges:
        weights[(u, v)] = data.draw(
            st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
        )
        weights[(v, u)] = data.draw(
            st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
        )
    inst = AocmInstance(UndirectedGraph(n, tuple(sorted(edges))), weights)
    assert parse_instance(write_aocm(inst)) == inst
