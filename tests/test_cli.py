import functools
import random

import pytest

import ocmatch.cli
from ocmatch.aocm import solve_aocm_exact
from ocmatch.cli import main
from ocmatch.fileio import (
    load_instance,
    parse_conflict_graph,
    write_aocm,
    write_digraph,
    write_undirected,
)
from ocmatch.generators import random_connected_graph
from ocmatch.graphs import (
    AocmInstance,
    Digraph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from ocmatch.reductions import build_gadget_f
from ocmatch.report import from_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestSolveOcm:
    def test_triangle_is_fully_matched(self, tmp_path, capsys):
        f = write(tmp_path, "c3.txt", write_undirected(cycle_graph(3)))
        code, out, err = run(capsys, "solve-ocm", f)
        assert code == 0
        rep = from_text(out)
        assert rep.get("value") == "3"
        assert rep.get("drivers") == "1"
        assert rep.get("guarantee") == "exact"
        assert dict(rep.blocks)["matching"] == ["0 -> 1", "1 -> 2", "2 -> 0"]
        assert err.startswith("# time_ms:")

    def test_star_leaves_two_drivers(self, tmp_path, capsys):
        f = write(tmp_path, "star.txt", write_undirected(star_graph(3)))
        code, out, _ = run(capsys, "solve-ocm", f)
        assert code == 0
        rep = from_text(out)
        assert rep.get("value") == "2"
        assert rep.get("drivers") == "2"

    def test_edgeless_graph_needs_a_driver_per_node(self, tmp_path, capsys):
        f = write(tmp_path, "bare.txt", "4 0\n")
        code, out, _ = run(capsys, "solve-ocm", f)
        assert code == 0
        rep = from_text(out)
        assert rep.get("matching_size") == "0"
        assert rep.get("drivers") == "4"

    def test_rejects_weighted_input(self, tmp_path, capsys):
        inst = AocmInstance(path_graph(2), {(0, 1): 1.0, (1, 0): 1.0})
        f = write(tmp_path, "w.txt", write_aocm(inst))
        code, _, err = run(capsys, "solve-ocm", f)
        assert code == 2
        assert "needs an undirected instance" in err

    def test_oversized_node_count_is_a_resource_cap(self, tmp_path, capsys):
        f = write(tmp_path, "huge.txt", "1000000000000000 1\n0 1\n")
        code, out, err = run(capsys, "solve-ocm", f)
        assert (code, out, err) == (3, "", "resource cap: out of memory\n")


class TestSolveAocm:
    def test_modes_agree_on_a_single_edge(self, tmp_path, capsys):
        inst = AocmInstance(path_graph(2), {(0, 1): 5.0, (1, 0): 2.0})
        f = write(tmp_path, "edge.txt", write_aocm(inst))
        for mode, guarantee in (("brute", "exact"), ("exact", "exact"), ("greedy", "heuristic")):
            code, out, _ = run(capsys, "solve-aocm", f, "--mode", mode)
            assert code == 0
            rep = from_text(out)
            assert rep.get("value") == "5"
            assert rep.get("guarantee") == guarantee
            assert dict(rep.blocks)["matching"] == ["0 -> 1"]
        # The parser is reused between calls, so an omitted option falls back
        # to its default rather than to the previous call's value.
        code, out, _ = run(capsys, "solve-aocm", f)
        assert code == 0
        assert from_text(out).get("mode") == "exact"

    def test_offset_weights_solve_exactly(self, tmp_path, capsys):
        rng = random.Random(0)
        g = random_connected_graph(rng, 7, 12)
        weights = {}
        for u, v in g.edges:
            weights[(u, v)] = 1e9 + rng.uniform(0, 1e3)
            weights[(v, u)] = 1e9 + rng.uniform(0, 1e3)
        f = write(tmp_path, "offset.txt", write_aocm(AocmInstance(g, weights)))
        values = []
        for mode in ("exact", "brute"):
            code, out, err = run(capsys, "solve-aocm", f, "--mode", mode)
            assert code == 0, err
            values.append(from_text(out).get("value"))
        assert values[0] == values[1]

    def test_partitions_flag_is_rejected(self, tmp_path, capsys):
        inst = AocmInstance(path_graph(2), {(0, 1): 1.0, (1, 0): 1.0})
        f = write(tmp_path, "edge.txt", write_aocm(inst))
        with pytest.raises(SystemExit) as info:
            main(["solve-aocm", f, "--mode", "brute", "--partitions", "2"])
        assert info.value.code == 2

    def test_weight_sum_beyond_float_range_is_an_input_error(self, tmp_path, capsys):
        f = write(tmp_path, "huge.txt", "4 2 weighted\n0 1 1e308 0\n2 3 1e308 0\n")
        for mode in ("exact", "brute", "greedy"):
            code, _, err = run(capsys, "solve-aocm", f, "--mode", mode)
            assert code == 2, err
            assert err.startswith("error:")

    def test_resource_cap_exit_code(self, tmp_path, capsys):
        f = write(tmp_path, "big.txt", write_aocm(
            AocmInstance(
                complete_graph(8),
                {
                    (u, v): 1.0
                    for u in range(8)
                    for v in range(8)
                    if u != v
                },
            )
        ))
        code, out, err = run(capsys, "solve-aocm", f, "--mode", "brute")
        assert code == 3
        assert out == ""
        assert err.startswith("resource cap:")

    def test_exact_cap_reports_incumbent_and_upper_bound(self, tmp_path, capsys, monkeypatch):
        g = complete_graph(4)
        rng = random.Random(2)
        weights = {}
        for u, v in g.edges:
            weights[(u, v)] = float(rng.randint(0, 5))
            weights[(v, u)] = float(rng.randint(0, 5))
        f = write(tmp_path, "k4.txt", write_aocm(AocmInstance(g, weights)))
        code, out, _ = run(capsys, "solve-aocm", f, "--mode", "exact")
        assert code == 0 and "value: 12\n" in out
        capped = functools.partial(solve_aocm_exact, node_budget=1)
        monkeypatch.setattr(ocmatch.cli, "solve_aocm_exact", capped)
        code, out, err = run(capsys, "solve-aocm", f, "--mode", "exact")
        assert code == 3
        assert out == ""
        assert err.startswith("resource cap:")
        assert "(best bound so far 11, upper bound 13)" in err

    def test_oversized_node_count_is_a_resource_cap(self, tmp_path, capsys):
        f = write(tmp_path, "huge.txt", "1000000000000000 1 weighted\n0 1 3 2\n")
        for mode in ("exact", "brute"):
            code, out, err = run(capsys, "solve-aocm", f, "--mode", mode)
            assert (code, out, err) == (3, "", "resource cap: out of memory\n")


class TestReduce:
    def test_directed_triangle_reduction_round_trips(self, tmp_path, capsys):
        d = Digraph(3, ((0, 1), (1, 2), (2, 0)))
        f = write(tmp_path, "tri.txt", write_digraph(d))
        out_path = str(tmp_path / "reduced.txt")
        code, out, _ = run(capsys, "reduce", "3dcc", f, out_path)
        assert code == 0
        rep = from_text(out)
        assert rep.get("cover_value") == "3"
        assert rep.get("out_path") == out_path
        reduced = load_instance(out_path)
        assert isinstance(reduced, AocmInstance)
        assert reduced.weights[(0, 1)] == 1.0 and reduced.weights[(1, 0)] == 0.0

    def test_conflict_graph_reduction(self, tmp_path, capsys):
        inst = AocmInstance(path_graph(2), {(0, 1): 5.0, (1, 0): 2.0})
        f = write(tmp_path, "edge.txt", write_aocm(inst))
        out_path = str(tmp_path / "conflict.txt")
        code, out, _ = run(capsys, "reduce", "wis", f, out_path)
        assert code == 0
        rep = from_text(out)
        assert rep.get("out_nodes") == "2"
        assert rep.get("out_conflicts") == "1"
        weights, edges = parse_conflict_graph((tmp_path / "conflict.txt").read_text())
        assert weights == (5.0, 2.0)
        assert edges == ((0, 1),)

    def test_gadget_reduction_solves_to_known_optimum(self, tmp_path, capsys):
        f = write(tmp_path, "k4.txt", write_undirected(complete_graph(4)))
        out_path = str(tmp_path / "gadget.txt")
        code, out, _ = run(capsys, "reduce", "is3", f, out_path)
        assert code == 0
        rep = from_text(out)
        assert rep.get("out_nodes") == "12"
        assert rep.get("out_edges") == "14"
        assert rep.get("weight_one_arcs") == "20"
        code, out, _ = run(capsys, "solve-aocm", out_path, "--mode", "exact")
        assert code == 0
        assert from_text(out).get("value") == "9"

    def test_non_cubic_source_is_an_input_error(self, tmp_path, capsys):
        f = write(tmp_path, "c4.txt", write_undirected(cycle_graph(4)))
        code, _, err = run(capsys, "reduce", "is3", f, str(tmp_path / "out.txt"))
        assert code == 2
        assert "cubic" in err

    def test_unwritable_output_is_an_input_error(self, tmp_path, capsys):
        d = Digraph(3, ((0, 1), (1, 2), (2, 0)))
        f = write(tmp_path, "tri.txt", write_digraph(d))
        code, _, err = run(capsys, "reduce", "3dcc", f, str(tmp_path / "no" / "dir.txt"))
        assert code == 2
        assert "cannot write" in err


class TestVerify:
    def test_small_suites_pass(self, capsys):
        for suite, extra in (
            ("lemma1", ["--samples", "15", "--max-n", "4"]),
            ("lemma2", ["--samples", "10", "--max-n", "5"]),
            ("lemma3", ["--samples", "20"]),
            ("lreduction", ["--samples", "20"]),
        ):
            code, out, _ = run(capsys, "verify", suite, *extra)
            assert code == 0, (suite, out)
            rep = from_text(out)
            assert rep.get("passed") == "True"
            assert dict(rep.blocks)["counterexamples"] == []

    def test_max_n_is_rejected_for_gadget_suites(self, capsys):
        code, _, err = run(capsys, "verify", "lemma3", "--max-n", "5")
        assert code == 2
        assert "--max-n applies to the lemma1 and lemma2 suites" in err

    def test_size_flags_out_of_range_are_rejected(self, capsys):
        for args in (
            ("lemma1", "--max-n", "0"),
            ("lemma2", "--max-n", "-1"),
            ("lemma1", "--samples", "-3"),
            ("lemma3", "--samples", "-1"),
            ("lreduction", "--samples", "-1"),
        ):
            code, out, err = run(capsys, "verify", *args)
            assert code == 2, (args, err)
            assert out == ""
            assert f"{args[1]} must be" in err

    def test_lemma3_reports_the_adjudicated_coefficient(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma3", "--samples", "5")
        assert code == 0
        rep = from_text(out)
        assert rep.get("v3_coefficient") == "1"
        assert rep.get("optimum") == "9"


class TestExportDot:
    def test_triangle_highlights_every_arc(self, tmp_path, capsys):
        f = write(tmp_path, "c3.txt", write_undirected(cycle_graph(3)))
        out_path = tmp_path / "c3.dot"
        code, out, _ = run(capsys, "export-dot", f, str(out_path))
        assert code == 0
        rep = from_text(out)
        assert rep.get("matched") == "3"
        dot = out_path.read_text()
        assert dot.startswith("digraph ocmatch {")
        assert dot.count('penwidth="3"') == 3
        assert dot.count('color="red"') == 3

    def test_empty_graph_renders_empty(self, tmp_path, capsys):
        f = write(tmp_path, "empty.txt", "0 0\n")
        out_path = tmp_path / "empty.dot"
        code, _, _ = run(capsys, "export-dot", f, str(out_path))
        assert code == 0
        assert out_path.read_text() == "digraph ocmatch {\n}\n"

    def test_gadget_rendering_labels_and_dashes(self, tmp_path, capsys):
        src = write(tmp_path, "k4.txt", write_undirected(complete_graph(4)))
        gi = build_gadget_f(complete_graph(4))
        host = write(tmp_path, "host.txt", write_aocm(gi.host))
        out_path = tmp_path / "gadget.dot"
        code, out, _ = run(capsys, "export-dot", host, str(out_path), "--gadget-of", src)
        assert code == 0
        rep = from_text(out)
        assert rep.get("nodes") == "12"
        assert rep.get("colored") == "True"
        dot = out_path.read_text()
        assert 'label="t(0,1)"' in dot
        assert dot.count('style="dashed"') == 8
        assert dot.count('penwidth="3"') == 9
        assert 'color="blue"' in dot

    def test_gadget_mismatch_is_an_input_error(self, tmp_path, capsys):
        src = write(tmp_path, "k4.txt", write_undirected(complete_graph(4)))
        inst = AocmInstance(path_graph(2), {(0, 1): 1.0, (1, 0): 1.0})
        other = write(tmp_path, "other.txt", write_aocm(inst))
        out_path = str(tmp_path / "x.dot")
        code, _, err = run(capsys, "export-dot", other, out_path, "--gadget-of", src)
        assert code == 2
        assert "is not the gadget built from" in err

    def test_digraph_input_uses_given_arcs(self, tmp_path, capsys):
        d = Digraph(3, ((0, 1), (1, 0), (1, 2)))
        f = write(tmp_path, "d.txt", write_digraph(d))
        out_path = tmp_path / "d.dot"
        code, out, _ = run(capsys, "export-dot", f, str(out_path))
        assert code == 0
        assert from_text(out).get("arcs") == "3"
        dot = out_path.read_text()
        assert "  0 -> 1" in dot and "  1 -> 0" in dot and "  1 -> 2" in dot

    def test_long_augmenting_path_digraph(self, tmp_path, capsys):
        # i -> H(i), i -> H(i+1) for i < k and k -> H(k), H(j) = 2k+1-j: the
        # augmenting path from tail k passes every node.
        k = 1500
        h = lambda j: 2 * k + 1 - j
        arcs = [(i, h(i)) for i in range(k)] + [(i, h(i + 1)) for i in range(k)]
        d = Digraph(2 * k + 2, tuple(sorted(arcs + [(k, h(k))])))
        f = write(tmp_path, "lp.txt", write_digraph(d))
        out_path = tmp_path / "lp.dot"
        code, out, _ = run(capsys, "export-dot", f, str(out_path))
        assert code == 0
        rep = from_text(out)
        assert rep.get("nodes") == "3002"
        assert rep.get("arcs") == "3001"
        assert rep.get("matched") == "1501"
        assert out_path.read_text().count('penwidth="3"') == 1501


class TestTopLevel:
    def test_missing_file_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "solve-ocm", "no-such-file.txt")
        assert code == 2
        assert err.startswith("error: cannot read")

    def test_malformed_file_reports_its_line(self, tmp_path, capsys):
        f = write(tmp_path, "bad.txt", "4 4\n0 1\n1 2\n2 3\n")
        code, _, err = run(capsys, "solve-ocm", f)
        assert code == 2
        assert "header promises 4 edge lines, found 3" in err

    def test_reports_parse_back_losslessly(self, tmp_path, capsys):
        f = write(tmp_path, "c3.txt", write_undirected(cycle_graph(3)))
        _, out, _ = run(capsys, "solve-ocm", f)
        assert from_text(out).to_text() == out

    def test_unknown_verb_exits_with_argparse_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
        f = write(tmp_path, "c3.txt", write_undirected(cycle_graph(3)))
        code, _, _ = run(capsys, "solve-ocm", f)
        assert code == 0

    def test_internal_error_has_its_own_exit_code(self, tmp_path, capsys, monkeypatch):
        def broken(_graph):
            raise AssertionError("auxiliary matching is not maximum")

        monkeypatch.setattr(ocmatch.cli, "solve_ocm", broken)
        f = write(tmp_path, "c3.txt", write_undirected(cycle_graph(3)))
        code, out, err = run(capsys, "solve-ocm", f)
        assert code == 4
        assert out == ""
        assert err.startswith("internal error:\n")
        assert "AssertionError: auxiliary matching is not maximum" in err
