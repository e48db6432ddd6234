import inspect
import random
import sys

import pytest

from ocmatch.aocm import (
    _Directions,
    _assignment_bound,
    solve_aocm_brute,
    solve_aocm_exact,
    solve_aocm_greedy,
)
from ocmatch.errors import ContractError, ResourceLimitError
from ocmatch.graphs import (
    AocmInstance,
    Orientation,
    UndirectedGraph,
    complete_graph,
    cycle_graph,
    path_graph,
    uniform_instance,
)
from ocmatch.generators import (
    random_connected_graph,
    random_digraph,
    random_graph,
    random_weighted_instance,
)
from ocmatch.matching import max_weight_control_matching
from ocmatch.mwis import max_weight_independent_set
from ocmatch.oracles import brute_control_matching
from ocmatch.reductions import aocm_to_wis, build_gadget_f, dcc3_to_aocm

TOL = 1e-9


def _instances(seed, count, low, high, integer):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        m = rng.randint(0, min(8, n * (n - 1) // 2))
        yield random_weighted_instance(rng, n, m, low=low, high=high, integer=integer)


class TestBruteAgainstExact:
    def test_integer_weights(self):
        for inst in _instances(10, 50, 0.0, 10.0, True):
            assert abs(solve_aocm_brute(inst).value - solve_aocm_exact(inst).value) <= TOL

    def test_fractional_weights(self):
        for inst in _instances(11, 35, 0.0, 5.0, False):
            assert abs(solve_aocm_brute(inst).value - solve_aocm_exact(inst).value) <= TOL

    def test_negative_weights_allowed(self):
        for inst in _instances(12, 35, -4.0, 6.0, True):
            brute = solve_aocm_brute(inst)
            exact = solve_aocm_exact(inst)
            assert abs(brute.value - exact.value) <= TOL
            assert brute.value >= 0.0

    def test_exact_matching_is_canonical_for_its_orientation(self):
        for inst in _instances(13, 30, 0.0, 9.0, True):
            exact = solve_aocm_exact(inst)
            again = max_weight_control_matching(inst, exact.orientation)
            assert exact.matching.arcs == again.arcs


def offset_instance(seed):
    """Weights 1e9 + uniform(0, 1e3): float sums of these differ in the last bits."""
    rng = random.Random(seed)
    g = random_connected_graph(rng, 7, 12)
    weights = {}
    for u, v in g.edges:
        weights[(u, v)] = 1e9 + rng.uniform(0, 1e3)
        weights[(v, u)] = 1e9 + rng.uniform(0, 1e3)
    return AocmInstance(g, weights)


MAGNITUDES = (1e-300, 5e-324, 0.1, 0.2, 0.3, 1e9, 1e15, -1.0)


class TestExactWeights:
    def test_offset_weights_agree(self):
        for seed in range(6):
            inst = offset_instance(seed)
            assert solve_aocm_exact(inst).value == solve_aocm_brute(inst).value

    def test_mixed_magnitudes_agree_with_the_oracle(self):
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(2, 7)
            g = random_graph(rng, n, rng.randint(1, min(10, n * (n - 1) // 2)))
            weights = {}
            for u, v in g.edges:
                weights[(u, v)] = rng.choice(MAGNITUDES)
                weights[(v, u)] = rng.choice(MAGNITUDES)
            inst = AocmInstance(g, weights)
            exact = solve_aocm_exact(inst)
            brute = solve_aocm_brute(inst)
            for sol in (exact, brute):
                oracle = brute_control_matching(sol.orientation, inst.weights)
                assert sol.matching.arcs == oracle.arcs
                assert sol.value == oracle.value == brute.value


class TestBruteTieBreak:
    def test_single_edge_prefers_mask_zero(self):
        inst = uniform_instance(path_graph(2))
        assert solve_aocm_brute(inst).orientation.mask == 0

    def test_four_cycle_prefers_smallest_winning_mask(self):
        inst = uniform_instance(cycle_graph(4))
        sol = solve_aocm_brute(inst)
        assert sol.value == 4.0
        assert sol.orientation.mask == 2

    def test_first_strict_maximum_wins(self):
        rng = random.Random(14)
        for _ in range(25):
            n = rng.randint(2, 5)
            m = rng.randint(1, min(6, n * (n - 1) // 2))
            inst = random_weighted_instance(rng, n, m, low=0.0, high=4.0)
            sol = solve_aocm_brute(inst)
            first = None
            for mask in range(1 << m):
                o = Orientation(inst.graph, mask)
                val = max_weight_control_matching(inst, o).value
                if first is None or val > first[0] + TOL:
                    first = (val, mask)
            assert sol.orientation.mask == first[1]
            assert abs(sol.value - first[0]) <= TOL


def _counter_order_optimum(inst):
    """(value, counter) of the first strict maximum over counters 0, 1, 2, ..."""
    first = None
    for mask in range(1 << inst.graph.edge_count):
        val = max_weight_control_matching(inst, Orientation(inst.graph, mask)).value
        if first is None or val > first[0] + TOL:
            first = (val, mask)
    return first


def _gadget_samples(rng, count, size):
    """Sub-instances on random edge subsets of the 4-clique gadget host."""
    host = build_gadget_f(complete_graph(4)).host
    for _ in range(count):
        edges = rng.sample(host.graph.edges, size)
        weights = {}
        for u, v in edges:
            weights[(u, v)] = host.weights[(u, v)]
            weights[(v, u)] = host.weights[(v, u)]
        yield AocmInstance(UndirectedGraph(host.graph.node_count, tuple(edges)), weights)


class TestGrayScan:
    """The Gray-order scan against a plain scan in counter order."""

    def _check(self, inst):
        val, mask = _counter_order_optimum(inst)
        sol = solve_aocm_brute(inst)
        assert sol.orientation.mask == mask, inst
        assert abs(sol.value - val) <= TOL
        again = max_weight_control_matching(inst, sol.orientation)
        assert sol.matching.arcs == again.arcs

    def test_cycle_cover_instances(self):
        rng = random.Random(31)
        for _ in range(40):
            self._check(dcc3_to_aocm(random_digraph(rng, rng.randint(1, 6), 8)))

    def test_gadget_samples(self):
        rng = random.Random(32)
        for inst in _gadget_samples(rng, 12, 9):
            self._check(inst)

    def test_uniform_instances(self):
        rng = random.Random(33)
        for weight in (1.0, 2.5, 0.1):
            for _ in range(12):
                n = rng.randint(1, 7)
                g = random_graph(rng, n, rng.randint(0, min(9, n * (n - 1) // 2)))
                self._check(uniform_instance(g, weight))

    def test_weighted_instances(self):
        rng = random.Random(34)
        for choices in (range(11), range(-3, 10), (0.1, 0.2, 0.3)):
            for _ in range(12):
                n = rng.randint(1, 7)
                g = random_graph(rng, n, rng.randint(0, min(9, n * (n - 1) // 2)))
                weights = {}
                for u, v in g.edges:
                    weights[(u, v)] = float(rng.choice(choices))
                    weights[(v, u)] = float(rng.choice(choices))
                self._check(AocmInstance(g, weights))

    def test_warm_canonical_pass_matches_a_fresh_solve_on_every_mask(self):
        rng = random.Random(35)
        for _ in range(30):
            n = rng.randint(1, 6)
            g = random_graph(rng, n, rng.randint(0, min(8, n * (n - 1) // 2)))
            weights = {}
            for u, v in g.edges:
                weights[(u, v)] = float(rng.randint(-2, 4))
                weights[(v, u)] = float(rng.randint(-2, 4))
            inst = AocmInstance(g, weights)
            dirs = _Directions(inst)
            for mask in dirs.orientations():
                arcs, total = dirs.canonical()
                want = max_weight_control_matching(inst, Orientation(g, mask))
                assert arcs == want.arcs, (inst, mask)
                assert inst.value_of(total) == want.value
                assert dirs.kernel.value == total


class TestGreedy:
    def test_never_beats_exact(self):
        for inst in _instances(16, 60, 0.0, 8.0, True):
            greedy = solve_aocm_greedy(inst)
            exact = solve_aocm_exact(inst)
            assert greedy.value <= exact.value + TOL

    def test_single_edge_is_exact(self):
        inst = AocmInstance(path_graph(2), {(0, 1): 5.0, (1, 0): 2.0})
        assert solve_aocm_greedy(inst).value == 5.0

    def test_blocking_trap_shows_suboptimality(self):
        inst = AocmInstance(
            path_graph(4),
            {
                (0, 1): 0.0,
                (1, 0): 2.0,
                (1, 2): 3.0,
                (2, 1): 0.0,
                (2, 3): 0.0,
                (3, 2): 2.0,
            },
        )
        assert solve_aocm_greedy(inst).value == 3.0
        assert solve_aocm_brute(inst).value == 4.0
        assert solve_aocm_exact(inst).value == 4.0

    def test_skips_nonpositive_directions(self):
        inst = AocmInstance(path_graph(2), {(0, 1): -1.0, (1, 0): -3.0})
        sol = solve_aocm_greedy(inst)
        assert sol.value == 0.0 and sol.matching.arcs == ()


class TestResourceCaps:
    def test_brute_edge_cap(self):
        inst = uniform_instance(cycle_graph(4))
        with pytest.raises(ResourceLimitError):
            solve_aocm_brute(inst, max_edges=3)

    def test_default_cap_excludes_large_instances(self):
        inst = uniform_instance(complete_graph(8))
        with pytest.raises(ResourceLimitError):
            solve_aocm_brute(inst)

    def test_exact_budget_carries_best_bound(self):
        host = build_gadget_f(complete_graph(4)).host
        with pytest.raises(ResourceLimitError) as info:
            solve_aocm_exact(host, node_budget=1)
        assert info.value.best_bound is not None
        assert info.value.best_bound >= 9.0 - TOL

    def test_exact_budget_bound_is_in_weight_units(self):
        weights = {}
        for i, (u, v) in enumerate(complete_graph(4).edges):
            weights[(u, v)] = 0.5 + i / 8
            weights[(v, u)] = 0.25 * (i % 3)
        inst = AocmInstance(complete_graph(4), weights)
        with pytest.raises(ResourceLimitError) as info:
            solve_aocm_exact(inst, node_budget=1)
        assert isinstance(info.value.best_bound, float)
        assert info.value.best_bound == solve_aocm_greedy(inst).value


def _sparse_instance(seed, n, m):
    """A connected graph with m edges and independent weights 0..10 per direction."""
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, m)
    weights = {}
    for u, v in g.edges:
        weights[(u, v)] = float(rng.randint(0, 10))
        weights[(v, u)] = float(rng.randint(0, 10))
    return AocmInstance(g, weights)


def _search_instances():
    """The 300 small instances of the bound-equivalence test: n 2..8, three weight sets."""
    rng = random.Random(12)
    choices = [list(range(4)), list(range(-3, 6)), [0.1, 0.2, 0.25, 0.3]]
    for i in range(300):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, rng.randint(1, min(n * (n - 1) // 2, 2 * n)))
        values = choices[i % 3]
        yield AocmInstance(
            g, {arc: float(rng.choice(values)) for u, v in g.edges for arc in ((u, v), (v, u))}
        )


def _withheld(bound):
    """``bound`` with its witness withheld, as a plain bound returns it."""
    return lambda remaining, need, charge: (bound(remaining, need, charge)[0], 0)


def _counted(bound, calls):
    """``bound``, appending one entry to ``calls`` per call."""

    def counted(remaining, need, charge):
        calls.append(remaining)
        return bound(remaining, need, charge)

    return counted


class TestSearchBound:
    def test_any_valid_bound_returns_the_same_set(self):
        for inst in _search_instances():
            cg = aocm_to_wis(inst)
            weights = [inst.units[a] for a in cg.arcs]
            masks = cg.neighbor_masks()
            bound = _assignment_bound(_Directions(inst))

            def total(remaining, need, charge):
                return sum(w for v, w in enumerate(weights) if remaining >> v & 1), 0

            calls, plain_calls = [], []
            found = max_weight_independent_set(weights, masks, bound=_counted(bound, calls))
            assert found == max_weight_independent_set(weights, masks, bound=total)
            assert found == max_weight_independent_set(
                weights, masks, bound=_counted(_withheld(bound), plain_calls)
            )
            assert len(calls) <= len(plain_calls)

    def test_assignment_bound_witness_is_a_feasible_set(self):
        for inst in _search_instances():
            cg = aocm_to_wis(inst)
            weights = [inst.units[a] for a in cg.arcs]
            masks = cg.neighbor_masks()
            bound = _assignment_bound(_Directions(inst))

            def checked(remaining, need, charge):
                gain, witness = bound(remaining, need, charge)
                if gain > need:
                    assert witness & ~remaining == 0
                    members = [v for v in range(len(weights)) if witness >> v & 1]
                    assert all(masks[v] & witness == 0 for v in members)
                    assert sum(weights[v] for v in members) == gain
                else:
                    assert (gain, witness) == (need, 0)
                return gain, 0

            # The witness is withheld, so every unpruned node asks the bound.
            max_weight_independent_set(weights, masks, bound=checked)

    def test_seed_outside_the_vertex_range_is_rejected(self):
        def bound(remaining, need, charge):
            return remaining.bit_count(), 0

        for seed_mask in (0b11, 0b10, -1):
            with pytest.raises(ContractError):
                max_weight_independent_set([1], [0], bound=bound, seed_mask=seed_mask)
        assert max_weight_independent_set([1], [0], bound=bound, seed_mask=1) == (1, 1)

    def test_replay_to_the_optimum_returns_the_same_set(self):
        for inst in _search_instances():
            cg = aocm_to_wis(inst)
            weights = [inst.units[a] for a in cg.arcs]
            masks = cg.neighbor_masks()
            dirs = _Directions(inst)
            bound = _assignment_bound(dirs)
            seed = sum(1 << cg.arcs.index(a) for a in solve_aocm_greedy(inst).matching.arcs)
            greedy = sum(w for v, w in enumerate(weights) if seed >> v & 1)
            optimum, _ = bound(dirs.used, greedy, lambda: None, lambda best: None)
            for seed_mask in (0, seed):
                full = max_weight_independent_set(weights, masks, bound=bound, seed_mask=seed_mask)
                assert full[1] == optimum
                calls, plain_calls = [], []
                replay = max_weight_independent_set(
                    weights,
                    masks,
                    bound=_counted(bound, calls),
                    seed_mask=seed_mask,
                    optimum=optimum,
                )
                assert replay == full
                assert replay == max_weight_independent_set(
                    weights,
                    masks,
                    bound=_counted(_withheld(bound), plain_calls),
                    seed_mask=seed_mask,
                    optimum=optimum,
                )
                assert len(calls) <= len(plain_calls)
            with pytest.raises(ContractError):
                max_weight_independent_set(weights, masks, bound=bound, optimum=optimum + 1)
            # The brute scan doubles its cost per edge; past 12 edges the
            # full search above stands in for it.
            if inst.graph.edge_count <= 12:
                assert inst.value_of(optimum) == solve_aocm_brute(inst).value

    def test_forty_nodes_solve_within_budget(self):
        inst = _sparse_instance(0, 40, 80)
        sol = solve_aocm_exact(inst, node_budget=100_000)
        assert sol.value >= solve_aocm_greedy(inst).value
        # The search's charges are pinned: it solves on its 474th.
        with pytest.raises(ResourceLimitError) as info:
            solve_aocm_exact(inst, node_budget=473)
        assert (info.value.best_bound, info.value.upper_bound) == (256.0, 265.0)
        assert solve_aocm_exact(inst, node_budget=474).value == sol.value == 256.0

    def test_large_instance_caps_with_both_bounds(self):
        inst = _sparse_instance(1, 300, 600)
        with pytest.raises(ResourceLimitError) as info:
            solve_aocm_exact(inst, node_budget=20_000)
        exc = info.value
        assert isinstance(exc.best_bound, float) and isinstance(exc.upper_bound, float)
        assert solve_aocm_greedy(inst).value <= exc.best_bound <= exc.upper_bound

    def test_deep_search_runs_under_a_low_recursion_limit(self):
        # The 2-cycle branches nest hundreds deep on this instance; the
        # search must cap or solve, not run out of interpreter stack.
        inst = _sparse_instance(4, 600, 660)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 120)
        try:
            solve_aocm_exact(inst, node_budget=20_000)
        except ResourceLimitError:
            pass
        finally:
            sys.setrecursionlimit(limit)


class TestDegenerateInstances:
    def test_empty_graph(self):
        inst = uniform_instance(UndirectedGraph(0, ()))
        for solver in (solve_aocm_brute, solve_aocm_exact, solve_aocm_greedy):
            sol = solver(inst)
            assert sol.value == 0.0 and sol.matching.arcs == ()

    def test_edgeless_graph(self):
        inst = uniform_instance(UndirectedGraph(3, ()))
        for solver in (solve_aocm_brute, solve_aocm_exact, solve_aocm_greedy):
            assert solver(inst).value == 0.0

    def test_gadget_hosts_reach_known_optima(self):
        host4 = build_gadget_f(complete_graph(4)).host
        assert solve_aocm_exact(host4).value == 9.0
        assert solve_aocm_greedy(host4).value <= 9.0
