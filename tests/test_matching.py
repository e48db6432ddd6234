import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocmatch.errors import ContractError
from ocmatch.generators import (
    random_digraph,
    random_graph,
    random_orientation,
    random_weighted_instance,
)
from ocmatch.graphs import (
    AocmInstance,
    Digraph,
    Orientation,
    path_graph,
    uniform_instance,
)
from ocmatch.matching import (
    AocmSolution,
    ControlMatching,
    _Kernel,
    driver_count,
    max_control_matching,
    max_weight_control_matching,
)
from ocmatch.oracles import brute_control_matching


class TestControlMatching:
    def test_arcs_are_sorted(self):
        m = ControlMatching(((2, 3), (0, 1)), 2.0)
        assert m.arcs == ((0, 1), (2, 3))
        assert m.size == 2

    def test_chains_are_legal(self):
        m = ControlMatching(((0, 1), (1, 2)), 2.0)
        assert m.matched_nodes() == frozenset({1, 2})

    def test_shared_tail_rejected(self):
        with pytest.raises(ContractError):
            ControlMatching(((0, 1), (0, 2)), 2.0)

    def test_shared_head_rejected(self):
        with pytest.raises(ContractError):
            ControlMatching(((0, 2), (1, 2)), 2.0)


class TestMaxControlMatching:
    def test_directed_triangle_matches_everything(self):
        d = Digraph(3, ((0, 1), (1, 2), (2, 0)))
        m = max_control_matching(d)
        assert m.size == 3 and m.matched_nodes() == frozenset({0, 1, 2})

    def test_out_star_matches_one(self):
        d = Digraph(4, ((0, 1), (0, 2), (0, 3)))
        m = max_control_matching(d)
        assert m.arcs == ((0, 1),)

    def test_lex_smallest_among_optima(self):
        d = Digraph(4, ((0, 1), (0, 3), (2, 3)))
        m = max_control_matching(d)
        assert m.arcs == ((0, 1), (2, 3))

    def test_agrees_with_oracle_on_random_digraphs(self):
        rng = random.Random(1)
        for _ in range(80):
            d = random_digraph(rng, rng.randint(1, 6), 8)
            got = max_control_matching(d)
            want = brute_control_matching(d)
            assert got.arcs == want.arcs
            assert got.value == want.value


class TestMaxWeightControlMatching:
    def test_single_edge_picks_heavier_direction_weight(self):
        inst = AocmInstance(path_graph(2), {(0, 1): 5.0, (1, 0): 2.0})
        m = max_weight_control_matching(inst, Orientation(inst.graph, 0))
        assert m.value == 5.0 and m.arcs == ((0, 1),)
        m = max_weight_control_matching(inst, Orientation(inst.graph, 1))
        assert m.value == 2.0 and m.arcs == ((1, 0),)

    def test_zero_weight_arc_joins_when_lex_smaller(self):
        inst = AocmInstance(
            path_graph(3),
            {(0, 1): 0.0, (1, 0): 0.0, (1, 2): 3.0, (2, 1): 3.0},
        )
        m = max_weight_control_matching(inst, Orientation(inst.graph, 0))
        assert m.value == 3.0
        assert m.arcs == ((0, 1), (1, 2))

    def test_nonpositive_weights_leave_value_zero(self):
        inst = AocmInstance(path_graph(2), {(0, 1): -2.0, (1, 0): -1.0})
        m = max_weight_control_matching(inst, Orientation(inst.graph, 0))
        assert m.value == 0.0

    def test_rejects_orientation_of_other_instance(self):
        inst = uniform_instance(path_graph(2))
        with pytest.raises(ContractError):
            max_weight_control_matching(inst, Orientation(path_graph(3), 0))

    def test_agrees_with_weighted_oracle(self):
        rng = random.Random(2)
        for _ in range(60):
            n = rng.randint(1, 6)
            m_edges = rng.randint(0, min(8, n * (n - 1) // 2))
            fractional = rng.random() < 0.5
            inst = random_weighted_instance(
                rng, n, m_edges, low=0.0, high=6.0, integer=not fractional
            )
            o = random_orientation(rng, inst.graph)
            got = max_weight_control_matching(inst, o)
            want = brute_control_matching(o, weights=inst.weights)
            assert abs(got.value - want.value) <= 1e-9
            assert got.arcs == want.arcs

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_matches_oracle_on_uniform_instances(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        inst = random_weighted_instance(
            rng, n, rng.randint(0, min(8, n * (n - 1) // 2)), low=2.0, high=2.0
        )
        o = random_orientation(rng, inst.graph)
        got = max_weight_control_matching(inst, o)
        want = brute_control_matching(o, weights=inst.weights)
        assert abs(got.value - want.value) <= 1e-9
        assert got.arcs == want.arcs


class TestDriverCount:
    def test_formula_on_named_digraphs(self):
        assert driver_count(Digraph(0, ())) == 1
        assert driver_count(Digraph(3, ())) == 3
        assert driver_count(Digraph(3, ((0, 1), (1, 2), (2, 0)))) == 1
        assert driver_count(Digraph(2, ((0, 1), (1, 0)))) == 1

    def test_matches_oracle_on_random_digraphs(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(1, 6)
            d = random_digraph(rng, n, 8)
            assert driver_count(d) == max(1, n - brute_control_matching(d).size)


def _long_path_digraph(k):
    """Arcs i -> H(i) and i -> H(i+1) for i < k, and k -> H(k), with H(j) = 2k+1-j.

    Its one perfect tail/head matching is i -> H(i). Taking each tail's
    first arc instead, i -> H(i+1), leaves tail k free with its only head
    taken, and the augmenting path that fixes it passes all 2k+2 nodes.
    """
    h = lambda j: 2 * k + 1 - j
    arcs = [(i, h(i)) for i in range(k)] + [(i, h(i + 1)) for i in range(k)]
    return Digraph(2 * k + 2, tuple(sorted(arcs + [(k, h(k))])))


class TestLongAugmentingPath:
    K = 1500

    def test_driver_count(self):
        d = _long_path_digraph(self.K)
        assert d.node_count == 3002 and d.arc_count == 3001
        assert driver_count(d) == self.K + 1

    def test_max_control_matching(self):
        m = max_control_matching(_long_path_digraph(self.K))
        assert m.size == self.K + 1
        assert m.arcs == tuple((i, 2 * self.K + 1 - i) for i in range(self.K + 1))


def _instance_with_weights(rng, n, m, choices):
    g = random_graph(rng, n, m)
    weights = {}
    for u, v in g.edges:
        weights[(u, v)] = rng.choice(choices)
        weights[(v, u)] = rng.choice(choices)
    return AocmInstance(g, weights)


class TestCanonicalKernel:
    """The one-solve canonical route against the exhaustive oracle."""

    @pytest.mark.parametrize(
        "seed, choices",
        [
            (21, (0.0, 1.0)),
            (22, (2.5,)),
            (23, (0.0, 0.5)),
            (24, (0.0, 1.0, -1.0)),
            (25, (-1.0, 3.0)),
        ],
    )
    def test_agrees_with_oracle(self, seed, choices):
        rng = random.Random(seed)
        for _ in range(100):
            n = rng.randint(1, 7)
            m = rng.randint(0, min(10, n * (n - 1) // 2))
            inst = _instance_with_weights(rng, n, m, choices)
            o = random_orientation(rng, inst.graph)
            got = max_weight_control_matching(inst, o)
            want = brute_control_matching(o, weights=inst.weights)
            assert got.arcs == want.arcs, (inst, o.mask)
            assert abs(got.value - want.value) <= 1e-9

    def test_rollback_restores_the_matching(self):
        rng = random.Random(26)
        for _ in range(200):
            n = rng.randint(2, 8)
            d = random_digraph(rng, n, 12)
            kernel = _Kernel(n, d.arcs, [rng.randint(1, 5) for _ in d.arcs])
            kernel.repair()
            before = _kernel_state(kernel)
            kernel.begin()
            if d.arcs:
                kernel.deactivate(rng.randrange(len(d.arcs)))
            kernel.block(rng.randrange(n), rng.randrange(n))
            kernel.repair()
            kernel.rollback()
            assert _kernel_state(kernel) == before
            assert not any(kernel.blocked_tail) and not any(kernel.blocked_head)

    def test_random_edits_keep_an_optimal_dual(self):
        rng = random.Random(27)
        for _ in range(150):
            n = rng.randint(1, 7)
            d = random_digraph(rng, n, 10)
            weights = [rng.randint(1, 6) for _ in d.arcs]
            kernel = _Kernel(n, d.arcs, weights)
            kernel.repair()
            for _ in range(12):
                op = rng.randrange(5)
                if op == 0 and d.arcs:
                    kernel.activate(rng.randrange(len(d.arcs)))
                elif op == 1 and d.arcs:
                    kernel.deactivate(rng.randrange(len(d.arcs)))
                elif op == 2:
                    kernel.block(rng.randrange(n), rng.randrange(n))
                elif op == 3:
                    # Nested trials: an inner commit is undone by the outer
                    # rollback, and an inner rollback leaves the outer trial's
                    # edits to commit.
                    before = _kernel_state(kernel)
                    kernel.begin()
                    kernel.block(rng.randrange(n), rng.randrange(n))
                    kernel.repair()
                    kernel.begin()
                    if d.arcs:
                        kernel.deactivate(rng.randrange(len(d.arcs)))
                    kernel.repair()
                    if rng.random() < 0.5:
                        kernel.commit()
                        kernel.rollback()
                        assert _kernel_state(kernel) == before
                    else:
                        kernel.rollback()
                        kernel.commit()
                    assert kernel.log is None
                else:
                    before = _kernel_state(kernel)
                    kernel.begin()
                    kernel.block(rng.randrange(n), rng.randrange(n))
                    if d.arcs:
                        kernel.activate(rng.randrange(len(d.arcs)))
                    kernel.repair()
                    if rng.random() < 0.5:
                        kernel.rollback()
                        assert _kernel_state(kernel) == before
                    else:
                        kernel.commit()
                kernel.repair()
                _check_kernel_optimum(kernel, n, weights)


def _kernel_state(kernel):
    return (
        list(kernel.tail_arc),
        list(kernel.head_arc),
        list(kernel.active),
        list(kernel.y),
        list(kernel.z),
        list(kernel.blocked_tail),
        list(kernel.blocked_head),
        kernel.value,
    )


def _check_kernel_optimum(kernel, n, weights):
    """The matching has the oracle's value over the usable arcs, with an optimal dual."""
    usable = []
    for a, (u, v) in enumerate(zip(kernel.tails, kernel.heads)):
        if kernel.active[a] and not kernel.blocked_tail[u] and not kernel.blocked_head[v]:
            usable.append(a)
            assert kernel.y[u] + kernel.z[v] >= weights[a]
    matched = [a for a in range(len(weights)) if kernel.tail_arc[kernel.tails[a]] == a]
    assert kernel.value == sum(weights[a] for a in matched)
    for a in matched:
        assert a in usable and kernel.head_arc[kernel.heads[a]] == a
        assert kernel.y[kernel.tails[a]] + kernel.z[kernel.heads[a]] == weights[a]
    for u in range(n):
        assert min(kernel.y[u], kernel.z[u]) >= 0
        if kernel.tail_arc[u] < 0 and not kernel.blocked_tail[u]:
            assert kernel.y[u] == 0
        if kernel.head_arc[u] < 0 and not kernel.blocked_head[u]:
            assert kernel.z[u] == 0
    arcs = {(kernel.tails[a], kernel.heads[a]): weights[a] for a in usable}
    want = brute_control_matching(Digraph(n, tuple(sorted(arcs))), weights=arcs)
    assert kernel.value == want.value


class TestAocmSolution:
    def test_consistent_solution_accepted(self):
        inst = AocmInstance(path_graph(2), {(0, 1): 5.0, (1, 0): 2.0})
        o = Orientation(inst.graph, 0)
        sol = AocmSolution(inst, o, ControlMatching(((0, 1),), 5.0))
        assert sol.value == 5.0

    def test_misoriented_arc_rejected(self):
        inst = AocmInstance(path_graph(2), {(0, 1): 5.0, (1, 0): 2.0})
        o = Orientation(inst.graph, 0)
        with pytest.raises(ContractError):
            AocmSolution(inst, o, ControlMatching(((1, 0),), 2.0))

    def test_wrong_value_rejected(self):
        inst = AocmInstance(path_graph(2), {(0, 1): 5.0, (1, 0): 2.0})
        o = Orientation(inst.graph, 0)
        with pytest.raises(ContractError):
            AocmSolution(inst, o, ControlMatching(((0, 1),), 4.0))

    def test_orientation_of_other_graph_rejected(self):
        inst = AocmInstance(path_graph(2), {(0, 1): 5.0, (1, 0): 2.0})
        o = Orientation(path_graph(3), 0)
        with pytest.raises(ContractError):
            AocmSolution(inst, o, ControlMatching(((0, 1),), 5.0))
