import random

import pytest

from ocmatch.aocm import solve_aocm_brute, solve_aocm_exact
from ocmatch.errors import ContractError, InputError
from ocmatch.generators import random_digraph, random_weighted_instance
from ocmatch.graphs import (
    Digraph,
    Orientation,
    UndirectedGraph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    uniform_instance,
)
from ocmatch.oracles import brute_3dcc, brute_mwis
from ocmatch.reductions import (
    EDGE_ARC,
    NODE_ARC,
    CycleCover,
    aocm_to_wis,
    build_gadget_f,
    check_lemma3,
    check_lreduction,
    classify_vertex_cases,
    dcc3_to_aocm,
    decode_from_matching,
    decode_g,
    extract_cycle_cover,
    is_valid_cycle_cover,
    lreduction_report,
    wis_to_aocm_solution,
)

TOL = 1e-9


class TestConflictGraph:
    def test_single_edge_has_one_conflict(self):
        cg = aocm_to_wis(uniform_instance(path_graph(2)))
        assert cg.arcs == ((0, 1), (1, 0))
        assert cg.weights == (1.0, 1.0)
        assert cg.conflicts == ((0, 1),)

    def test_path_adds_shared_endpoint_conflicts(self):
        cg = aocm_to_wis(uniform_instance(path_graph(3)))
        assert cg.arcs == ((0, 1), (1, 0), (1, 2), (2, 1))
        assert cg.conflicts == ((0, 1), (0, 3), (1, 2), (2, 3))

    def test_neighbor_masks_are_symmetric(self):
        cg = aocm_to_wis(uniform_instance(cycle_graph(4)))
        masks = cg.neighbor_masks()
        for i in range(len(cg.arcs)):
            for j in range(len(cg.arcs)):
                assert bool(masks[i] >> j & 1) == bool(masks[j] >> i & 1)
            assert not masks[i] >> i & 1

    def test_independent_set_optimum_matches_direct_solve(self):
        rng = random.Random(30)
        for _ in range(30):
            n = rng.randint(1, 5)
            m = rng.randint(0, min(7, n * (n - 1) // 2))
            inst = random_weighted_instance(rng, n, m, low=0.0, high=9.0)
            cg = aocm_to_wis(inst)
            _, wis_value = brute_mwis(cg.weights, cg.conflicts)
            assert abs(wis_value - solve_aocm_brute(inst).value) <= TOL


class TestWisToAocmSolution:
    def test_round_trip_of_an_independent_set(self):
        inst = uniform_instance(path_graph(3))
        cg = aocm_to_wis(inst)
        sol = wis_to_aocm_solution(cg, [0, 2])
        assert sol.matching.arcs == ((0, 1), (1, 2))
        assert sol.value == 2.0
        assert sol.orientation.arcs() == ((0, 1), (1, 2))

    def test_untouched_edges_point_low_to_high(self):
        inst = uniform_instance(path_graph(3))
        cg = aocm_to_wis(inst)
        sol = wis_to_aocm_solution(cg, [])
        assert sol.value == 0.0
        assert sol.orientation.arcs() == ((0, 1), (1, 2))

    def test_out_of_range_node(self):
        cg = aocm_to_wis(uniform_instance(path_graph(2)))
        with pytest.raises(ContractError):
            wis_to_aocm_solution(cg, [5])

    def test_conflicting_nodes_are_rejected(self):
        cg = aocm_to_wis(uniform_instance(path_graph(2)))
        with pytest.raises(ContractError):
            wis_to_aocm_solution(cg, [0, 1])


class TestCycleCover:
    def test_canonical_rotation_and_order(self):
        cover = CycleCover(6, ((4, 5, 3), (1, 2, 0)))
        assert cover.cycles == ((0, 1, 2), (3, 4, 5))

    def test_short_cycle_rejected(self):
        with pytest.raises(ContractError):
            CycleCover(2, ((0, 1),))

    def test_repeated_node_rejected(self):
        with pytest.raises(ContractError):
            CycleCover(3, ((0, 1, 1),))

    def test_node_in_two_cycles_rejected(self):
        with pytest.raises(ContractError):
            CycleCover(6, ((0, 1, 2), (2, 3, 4)))

    def test_partial_cover_rejected(self):
        with pytest.raises(ContractError):
            CycleCover(4, ((0, 1, 2),))

    def test_out_of_range_node_rejected(self):
        with pytest.raises(ContractError):
            CycleCover(3, ((0, 1, 7),))

    def test_validity_against_digraph(self):
        d = Digraph(3, ((0, 1), (1, 2), (2, 0)))
        cover = CycleCover(3, ((0, 1, 2),))
        assert is_valid_cycle_cover(d, cover)
        assert not is_valid_cycle_cover(Digraph(3, ((0, 1), (1, 2))), cover)
        assert not is_valid_cycle_cover(Digraph(4, d.arcs), cover)


class TestCycleCoverReduction:
    def test_reduced_weights_mirror_present_arcs(self):
        d = Digraph(3, ((0, 1), (1, 2), (2, 0)))
        inst = dcc3_to_aocm(d)
        assert inst.graph.edges == ((0, 1), (0, 2), (1, 2))
        assert inst.weights == {
            (0, 1): 1.0,
            (1, 0): 0.0,
            (0, 2): 0.0,
            (2, 0): 1.0,
            (1, 2): 1.0,
            (2, 1): 0.0,
        }

    def test_cover_recovered_from_optimal_solution(self):
        d = Digraph(3, ((0, 1), (1, 2), (2, 0)))
        sol = solve_aocm_brute(dcc3_to_aocm(d))
        assert sol.value == 3.0
        cover = extract_cycle_cover(d, sol)
        assert cover is not None and cover.cycles == ((0, 1, 2),)
        assert is_valid_cycle_cover(d, cover)

    def test_two_cycle_digraph_has_no_cover(self):
        d = Digraph(2, ((0, 1), (1, 0)))
        sol = solve_aocm_brute(dcc3_to_aocm(d))
        assert sol.value < 2.0
        assert extract_cycle_cover(d, sol) is None
        assert brute_3dcc(d) is None

    def test_foreign_solution_rejected(self):
        d = Digraph(3, ((0, 1), (1, 2), (2, 0)))
        other = solve_aocm_brute(uniform_instance(path_graph(3)))
        with pytest.raises(ContractError):
            extract_cycle_cover(d, other)

    def test_agreement_with_exhaustive_search(self):
        rng = random.Random(31)
        for _ in range(40):
            d = random_digraph(rng, rng.randint(1, 5), 8)
            sol = solve_aocm_brute(dcc3_to_aocm(d))
            recovered = extract_cycle_cover(d, sol)
            oracle = brute_3dcc(d)
            assert (recovered is not None) == (oracle is not None)
            if recovered is not None:
                assert is_valid_cycle_cover(d, recovered)


class TestGadgetConstruction:
    def test_counts_for_complete_graph(self):
        gi = build_gadget_f(complete_graph(4))
        assert gi.host.graph.node_count == 12
        assert gi.host.graph.edge_count == 14
        unit = [a for a, w in gi.host.weights.items() if w == 1.0]
        assert len(unit) == 20
        assert set(unit) == set(gi.arc_role)

    def test_counts_for_complete_bipartite(self):
        gi = build_gadget_f(complete_bipartite(3, 3))
        assert gi.host.graph.node_count == 18
        assert gi.host.graph.edge_count == 21
        assert sum(w == 1.0 for w in gi.host.weights.values()) == 30

    def test_non_cubic_source_rejected(self):
        with pytest.raises(InputError):
            build_gadget_f(cycle_graph(4))

    def test_labels_invert_each_other(self):
        gi = build_gadget_f(complete_graph(4))
        assert gi.t_label[0] == (0, 1) and gi.t_label[1] == (1, 0)
        for node, (u, v) in gi.t_label.items():
            assert gi.t_node(u, v) == node

    def test_edge_arcs_follow_neighbor_order(self):
        gi = build_gadget_f(complete_graph(4))
        arcs = gi.edge_arcs_of(0)
        assert arcs == (
            (gi.t_node(0, 1), gi.t_node(1, 0)),
            (gi.t_node(0, 2), gi.t_node(2, 0)),
            (gi.t_node(0, 3), gi.t_node(3, 0)),
        )
        for arc in arcs:
            assert gi.arc_role[arc] == (EDGE_ARC, 0)

    def test_node_arcs_connect_the_chain(self):
        gi = build_gadget_f(complete_graph(4))
        first, second = gi.node_arcs_of(0)
        assert first == (gi.t_node(0, 1), gi.t_node(2, 0))
        assert second == (gi.t_node(0, 2), gi.t_node(3, 0))
        for arc in (first, second):
            assert gi.arc_role[arc] == (NODE_ARC, 0)
            assert gi.host.weights[arc] == 1.0
            assert gi.host.weights[(arc[1], arc[0])] == 0.0


class TestVertexCases:
    def test_empty_matching_is_all_case_a(self):
        gi = build_gadget_f(complete_graph(4))
        part = classify_vertex_cases(gi, ())
        assert part.v0 == frozenset(range(4))
        assert part.v1 == part.v2 == part.v3 == frozenset()
        assert set(part.cases.values()) == {"a"}

    def test_optimal_matching_has_one_saturated_vertex(self):
        gi = build_gadget_f(complete_graph(4))
        sol = solve_aocm_exact(gi.host)
        part = classify_vertex_cases(gi, sol.matching.arcs)
        assert len(part.v3) == 1
        assert part.cases[next(iter(part.v3))] == "d"
        sizes = (len(part.v0), len(part.v1), len(part.v2), len(part.v3))
        assert sum(sizes) == 4

    def test_both_directions_of_a_host_edge_rejected(self):
        gi = build_gadget_f(complete_graph(4))
        with pytest.raises(ContractError):
            classify_vertex_cases(gi, ((0, 1), (1, 0)))

    def test_foreign_arc_rejected(self):
        gi = build_gadget_f(complete_graph(4))
        with pytest.raises(ContractError):
            classify_vertex_cases(gi, ((0, 5),))


class TestDecoding:
    def test_empty_matching_decodes_empty(self):
        gi = build_gadget_f(complete_graph(4))
        assert decode_from_matching(gi, ()) == frozenset()

    def test_optimum_decodes_a_maximum_independent_set(self):
        gi = build_gadget_f(complete_graph(4))
        sol = solve_aocm_exact(gi.host)
        assert len(decode_from_matching(gi, sol.matching.arcs)) == 1
        assert len(decode_g(gi, sol.orientation)) == 1

    def test_decoded_sets_are_always_independent(self):
        gi = build_gadget_f(complete_bipartite(3, 3))
        edge_set = set(gi.source.edges)
        rng = random.Random(32)
        for _ in range(40):
            mask = rng.randrange(1 << gi.host.graph.edge_count)
            chosen = decode_g(gi, Orientation(gi.host.graph, mask))
            for u in chosen:
                for v in chosen:
                    assert (min(u, v), max(u, v)) not in edge_set or u == v


class TestBoundCheck:
    def test_equality_at_the_canonical_orientation(self):
        gi = build_gadget_f(complete_graph(4))
        chk = check_lemma3(gi, Orientation(gi.host.graph, 0), optimal=True)
        assert chk.bound_holds and chk.value == 9.0 and chk.rhs == 9.0

    def test_strict_orientation_fails_the_optimal_claim(self):
        gi = build_gadget_f(complete_graph(4))
        o = Orientation(gi.host.graph, 11)
        chk = check_lemma3(gi, o)
        assert chk.bound_holds and chk.value == 8.0 and chk.rhs == 9.0
        with pytest.raises(ContractError):
            check_lemma3(gi, o, optimal=True)

    def test_bound_holds_on_random_orientations(self):
        gi = build_gadget_f(complete_bipartite(3, 3))
        rng = random.Random(33)
        for _ in range(60):
            mask = rng.randrange(1 << gi.host.graph.edge_count)
            assert check_lemma3(gi, Orientation(gi.host.graph, mask)).bound_holds


class TestApproximationPreservation:
    def test_report_at_the_optimum(self):
        gi = build_gadget_f(complete_graph(4))
        sol = solve_aocm_exact(gi.host)
        rep = lreduction_report(gi, sol.orientation, 1, 9.0)
        assert rep.alpha == 12 and rep.beta == 1
        assert rep.alpha_holds and rep.beta_holds
        assert rep.value == 9.0 and rep.decoded_value == 1

    def test_wrong_optimum_claim_is_caught(self):
        gi = build_gadget_f(complete_graph(4))
        sol = solve_aocm_exact(gi.host)
        with pytest.raises(ContractError):
            lreduction_report(gi, sol.orientation, 2, 9.0)

    def test_full_check_on_both_gadget_sources(self):
        petersen = UndirectedGraph(
            10,
            tuple((i, (i + 1) % 5) for i in range(5))
            + tuple((i, i + 5) for i in range(5))
            + tuple((5 + i, 5 + (i + 2) % 5) for i in range(5)),
        )
        sources = ((complete_graph(4), 9.0), (complete_bipartite(3, 3), 15.0), (petersen, 24.0))
        for g, opt in sources:
            gi = build_gadget_f(g)
            rep = check_lreduction(g, Orientation(gi.host.graph, 0))
            assert rep.opt_aocm == opt
            assert rep.alpha_holds and rep.beta_holds

    def test_foreign_orientation_rejected(self):
        o = Orientation(cycle_graph(3), 0)
        with pytest.raises(ContractError):
            check_lreduction(complete_graph(4), o)
