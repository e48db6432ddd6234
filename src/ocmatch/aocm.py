"""Solvers for weighted orientation control matching.

Three routes with different cost and guarantee profiles:

* brute force scans every orientation in reflected Gray-code order and
  takes the best matching value, usable up to 24 edges; each step flips
  one edge and repairs one maximum-weight matching instead of solving
  the orientation afresh;
* exact searches the conflict graph for a maximum-weight independent
  set, seeded with the greedy solution, and bounds each subtree by a
  tail/head assignment with 2-cycle branching on one warm kernel;
* greedy accepts ordered directions by descending weight while their
  edge, head slot, and tail slot are all still free.

Brute force and exact agree everywhere both run; greedy never exceeds
them. Results are deterministic: brute breaks value ties toward the
smallest orientation counter, brute and exact report the
lexicographically smallest optimal matching on the orientation they
return, and greedy reports exactly the arcs it accepted.
"""

from __future__ import annotations

from typing import Callable

from .errors import ResourceLimitError
from .graphs import AocmInstance, Arc, Orientation
from .matching import (
    AocmSolution,
    ControlMatching,
    _positive_kernel,
    max_weight_control_matching,
)
from .mwis import max_weight_independent_set
from .reductions import aocm_to_wis, wis_to_aocm_solution

__all__ = [
    "AocmSolution",
    "solve_aocm_brute",
    "solve_aocm_exact",
    "solve_aocm_greedy",
]


def _scan_orientations(inst: AocmInstance) -> tuple[int, int]:
    """Best (value in units, counter) over every orientation.

    Gray index i stands for the orientation counter i ^ (i >> 1) (the
    reflected Gray code), so consecutive indices differ in one edge. One
    scan visits indices 0 .. 2^m - 1; the largest value wins, ties going
    to the smallest counter. One matching kernel holds the positive arcs
    of the current orientation: each step switches the old direction of
    the flipped edge off and the new one on, then repairs the matching.
    """
    n = inst.graph.node_count
    units = inst.units
    edges = inst.graph.edges
    m = len(edges)
    kernel, ids = _positive_kernel(
        n, [(u, v, units[(u, v)]) for u, v in edges] + [(v, u, units[(v, u)]) for u, v in edges]
    )
    pairs = list(zip(ids[:m], ids[m:]))
    # Counter 0 directs every edge low to high.
    for _, rev in pairs:
        if rev >= 0:
            kernel.deactivate(rev)
    kernel.repair()
    best_val = kernel.value
    best_mask = mask = 0
    for i in range(1, 1 << m):
        k = (i & -i).bit_length() - 1
        mask ^= 1 << k
        fwd, rev = pairs[k]
        off, on = (fwd, rev) if (mask >> k) & 1 else (rev, fwd)
        if off >= 0:
            kernel.deactivate(off)
        if on >= 0:
            kernel.activate(on)
        kernel.repair()
        val = kernel.value
        if val > best_val or (val == best_val and mask < best_mask):
            best_val = val
            best_mask = mask
    return best_val, best_mask


def solve_aocm_brute(inst: AocmInstance, *, max_edges: int = 24) -> AocmSolution:
    """Scan all orientations in one pass; ties go to the smallest counter.

    Caps at ``max_edges`` edges.
    """
    m = inst.graph.edge_count
    if m > max_edges:
        raise ResourceLimitError(
            f"brute force caps at {max_edges} edges, got {m}"
        )
    best_val, best_mask = _scan_orientations(inst)
    orientation = Orientation(inst.graph, best_mask)
    matching = max_weight_control_matching(inst, orientation)
    if sum(map(inst.units.__getitem__, matching.arcs)) != best_val:
        raise AssertionError("scan value disagrees with the recovered matching")
    return AocmSolution(inst, orientation, matching)


def _assignment_bound(inst: AocmInstance) -> tuple[Callable[..., int], int]:
    """The exact search's bound, and the assignment maximum at its root.

    Without the one-direction-per-edge rule the remaining positive arcs
    form a tail/head assignment, which one warm kernel keeps at a maximum.
    A maximum that beats ``need`` with both arcs of an edge (a 2-cycle)
    branches: forbid one arc, then the other (Carpaneto & Toth 1980). It
    stops once dropping the lighter arc of each 2-cycle beats ``need``.
    The bound is at most ``need`` exactly when nothing beats it. The
    branches run on an explicit stack, so their depth is not limited by
    the interpreter's recursion limit.
    """
    units = inst.units
    kernel, ids = _positive_kernel(
        inst.graph.node_count, [(u, v, units[(u, v)]) for u, v in inst.ordered_arcs()]
    )
    kernel.repair()
    tail_arc, tails, weight = kernel.tail_arc, kernel.tails, kernel.weight
    pairs = [(a, b) for a, b in zip(ids[::2], ids[1::2]) if a >= 0 and b >= 0]
    active = sum(1 << i for i, a in enumerate(ids) if a >= 0)

    def beat(need: int, charge: Callable[[], None]) -> int:
        # One entry per open branch: the arc it forbids, and the other arc
        # of its 2-cycle while that one is still to be tried (else -1). The
        # stack is empty only while the root solves.
        stack: list[tuple[int, int]] = []
        root = 0
        while True:
            charge()
            kernel.repair()
            value = kernel.value
            if not stack:
                root = value
            beaten = value > need
            if beaten:
                cycles = [
                    (a, b) for a, b in pairs if tail_arc[tails[a]] == a and tail_arc[tails[b]] == b
                ]
                if value - sum(min(weight[a], weight[b]) for a, b in cycles) <= need:
                    a, b = cycles[0]
                    kernel.deactivate(a)
                    stack.append((a, b))
                    continue
            while stack:
                arc, other = stack.pop()
                kernel.activate(arc)
                if not beaten and other >= 0:
                    kernel.deactivate(other)
                    stack.append((other, -1))
                    break
            else:
                return root if beaten else min(root, need)

    def bound(remaining: int, need: int, charge: Callable[[], None]) -> int:
        nonlocal active
        diff, active = active ^ remaining, remaining
        while diff:
            low = diff & -diff
            diff ^= low
            (kernel.activate if remaining & low else kernel.deactivate)(ids[low.bit_length() - 1])
        return beat(need, charge)

    return bound, kernel.value


def solve_aocm_exact(
    inst: AocmInstance, *, node_budget: int = 2_000_000
) -> AocmSolution:
    """Exact solve through the conflict graph.

    Builds the conflict graph, seeds the independent-set search with the
    greedy solution, and translates the best independent set back. Raises
    ResourceLimitError with the best bound found if the search budget runs
    out.
    """
    cg = aocm_to_wis(inst)
    units = inst.units
    index_of = {arc: i for i, arc in enumerate(cg.arcs)}
    seed_mask = sum(1 << index_of[arc] for arc in solve_aocm_greedy(inst).matching.arcs)
    bound, upper = _assignment_bound(inst)
    try:
        best_mask, best_w = max_weight_independent_set(
            [units[a] for a in cg.arcs],
            cg.neighbor_masks(),
            seed_mask=seed_mask,
            node_budget=node_budget,
            bound=bound,
        )
    except ResourceLimitError as exc:
        raise ResourceLimitError(
            str(exc), inst.value_of(exc.best_bound), inst.value_of(upper)
        ) from exc
    chosen = [i for i in range(len(cg.arcs)) if (best_mask >> i) & 1]
    sol = wis_to_aocm_solution(cg, chosen)
    matching = max_weight_control_matching(inst, sol.orientation)
    if sum(units[a] for a in matching.arcs) != best_w:
        raise AssertionError("independent-set weight disagrees with the solution")
    return AocmSolution(inst, sol.orientation, matching)


def solve_aocm_greedy(inst: AocmInstance) -> AocmSolution:
    """Weight-descending greedy; never better than exact, often as good.

    Ordered directions are visited by descending weight (ties in canonical
    arc order). A direction is accepted when its edge is not yet oriented,
    its tail has no outgoing matching arc, and its head has no incoming
    one. Nonpositive directions are never accepted. Remaining edges point
    low to high.
    """
    units = inst.units
    arcs = inst.ordered_arcs()
    order = sorted(range(len(arcs)), key=lambda i: (-units[arcs[i]], arcs[i]))
    chosen: list[Arc] = []
    total = 0
    mask = 0
    oriented: set[int] = set()
    used_tails: set[int] = set()
    used_heads: set[int] = set()
    for i in order:
        u, v = arcs[i]
        w = units[(u, v)]
        if w <= 0:
            break
        if i >> 1 in oriented or u in used_tails or v in used_heads:
            continue
        oriented.add(i >> 1)
        mask |= (i & 1) << (i >> 1)
        used_tails.add(u)
        used_heads.add(v)
        chosen.append((u, v))
        total += w
    orientation = Orientation(inst.graph, mask)
    matching = ControlMatching(tuple(sorted(chosen)), inst.value_of(total))
    return AocmSolution(inst, orientation, matching)
