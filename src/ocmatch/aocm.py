"""Solvers for weighted orientation control matching.

Three routes with different cost and guarantee profiles:

* brute force scans every orientation in reflected Gray-code order and
  takes the best matching value, usable up to 24 edges; each step flips
  one edge and repairs one maximum-weight matching instead of solving
  the orientation afresh, and the canonical matching at the best
  orientation comes from the same kernel, flipped back to it;
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

from typing import Callable, Iterator

from .errors import ResourceLimitError
from .graphs import AocmInstance, Arc, Orientation
from .matching import (
    AocmSolution,
    ControlMatching,
    _canonical_pass,
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


class _OrientationWalk:
    """One warm matching kernel that follows an orientation as it changes.

    The kernel holds the positive arcs of both directions of every edge,
    with those against the current orientation ``mask`` switched off, so
    turning one edge around is two switches and a repair rather than a
    fresh solve. :meth:`masks` visits every orientation in reflected Gray
    order: Gray index i stands for the orientation counter i ^ (i >> 1),
    so consecutive indices differ in one edge. :meth:`canonical` runs the
    canonical pass at the current orientation as a trial that it rolls
    back, so the walk can go on from the same kernel.
    """

    def __init__(self, inst: AocmInstance) -> None:
        units = inst.units
        edges = inst.graph.edges
        m = len(edges)
        fwd = [(u, v, units[(u, v)]) for u, v in edges]
        rev = [(v, u, units[(v, u)]) for u, v in edges]
        self.kernel, ids = _positive_kernel(inst.graph.node_count, fwd + rev)
        self.pairs = list(zip(ids[:m], ids[m:]))
        # Every direction in canonical arc order with its kernel id, its
        # edge's mask bit, and that bit's value when it is the chosen one.
        self.directions = sorted(
            ((arc, a), 1 << k % m, (1 << k % m) * (k >= m))
            for k, (arc, a) in enumerate(zip(fwd + rev, ids))
        )
        # Mask 0 directs every edge low to high.
        self.mask = 0
        for _, b in self.pairs:
            if b >= 0:
                self.kernel.deactivate(b)
        self.kernel.repair()

    def _flip(self, k: int) -> None:
        self.mask ^= 1 << k
        fwd, rev = self.pairs[k]
        off, on = (fwd, rev) if (self.mask >> k) & 1 else (rev, fwd)
        if off >= 0:
            self.kernel.deactivate(off)
        if on >= 0:
            self.kernel.activate(on)

    def masks(self) -> Iterator[int]:
        """From a fresh walk, every orientation in Gray order, each yielded at its maximum."""
        yield self.mask
        for i in range(1, 1 << len(self.pairs)):
            self._flip((i & -i).bit_length() - 1)
            self.kernel.repair()
            yield self.mask

    def move_to(self, mask: int) -> None:
        """Turn the edges on which ``mask`` differs, then repair."""
        diff = self.mask ^ mask
        while diff:
            low = diff & -diff
            diff ^= low
            self._flip(low.bit_length() - 1)
        self.kernel.repair()

    def canonical(self) -> tuple[tuple[Arc, ...], int]:
        """The current orientation's canonical matching and its value in units."""
        mask = self.mask
        items = [item for item, bit, chosen in self.directions if mask & bit == chosen]
        self.kernel.begin()
        found = _canonical_pass(self.kernel, items)
        self.kernel.rollback()
        return found


def solve_aocm_brute(inst: AocmInstance, *, max_edges: int = 24) -> AocmSolution:
    """Scan all orientations in one pass; ties go to the smallest counter.

    Caps at ``max_edges`` edges. The largest matching value wins; the
    scan's kernel is then turned back to the winning orientation for the
    canonical pass.
    """
    m = inst.graph.edge_count
    if m > max_edges:
        raise ResourceLimitError(
            f"brute force caps at {max_edges} edges, got {m}"
        )
    walk = _OrientationWalk(inst)
    best_val, best_mask = -1, 0
    for mask in walk.masks():
        val = walk.kernel.value
        if val > best_val or (val == best_val and mask < best_mask):
            best_val, best_mask = val, mask
    walk.move_to(best_mask)
    arcs, total = walk.canonical()
    if total != best_val:
        raise AssertionError("scan value disagrees with the recovered matching")
    orientation = Orientation(inst.graph, best_mask)
    return AocmSolution(inst, orientation, ControlMatching(arcs, inst.value_of(total)))


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
