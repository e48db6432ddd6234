"""Solvers for weighted orientation control matching.

Three routes with different cost and guarantee profiles:

* brute force scans every orientation in reflected Gray-code order and
  takes the best matching value, usable up to 24 edges; each step flips
  one edge and repairs one maximum-weight matching instead of solving
  the orientation afresh, and the canonical matching at the best
  orientation comes from the same kernel, flipped back to it;
* exact first finds the optimum with a branch and bound on the
  2-cycles of a tail/head assignment, kept on one warm kernel, then
  searches the conflict graph for a maximum-weight independent set,
  seeded with the greedy solution and bounded by the same assignment,
  only until it reaches that optimum; a bound that beats the search's
  need also returns the feasible set it found, and the search skips the
  bound calls below it that this set already answers;
* greedy accepts ordered directions by descending weight while their
  edge, head slot, and tail slot are all still free.

Brute force and exact each build one warm kernel of the same kind, over
both directions of every edge in conflict-node order, and move it by
switching directions on and off.

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


class _Directions:
    """One warm matching kernel over both directions of every edge.

    Direction i is arc i of ``inst.ordered_arcs()``: edge i >> 1, reversed
    when i & 1. The kernel holds the positive arcs of the directions in
    use, and :meth:`use` switches to another set of directions, low bit
    first, leaving the repair to the caller. :meth:`orientations` visits
    every orientation in reflected Gray order: Gray index i stands for
    the orientation counter i ^ (i >> 1), so consecutive orientations
    differ in one edge, two switches and a repair apart.
    :meth:`canonical` runs the canonical pass on the directions in use as
    a trial that it rolls back, so the kernel can go on from there.
    """

    def __init__(self, inst: AocmInstance) -> None:
        units = inst.units
        self.items = [(u, v, units[(u, v)]) for u, v in inst.ordered_arcs()]
        self.kernel, self.ids = _positive_kernel(inst.graph.node_count, self.items)
        # The bit of every positive direction, with its kernel arc.
        self.arc_at = {1 << i: a for i, a in enumerate(self.ids) if a >= 0}
        self.positive = sum(self.arc_at)
        # Every direction starts in use.
        self.used = (1 << len(self.items)) - 1
        # Every direction in canonical arc order, with its kernel id and its
        # bit; sorted by the first canonical pass, as the exact search's bound
        # never runs one.
        self.order: list | None = None

    def use(self, directions: int) -> None:
        """Switch to the directions set in ``directions``, low bit first, without a repair."""
        kernel, arc_at = self.kernel, self.arc_at
        diff = (self.used ^ directions) & self.positive
        self.used = directions
        while diff:
            low = diff & -diff
            diff ^= low
            if directions & low:
                kernel.activate(arc_at[low])
            else:
                kernel.deactivate(arc_at[low])

    def orient(self, mask: int) -> None:
        """Switch to the orientation ``mask`` and repair."""
        # Every forward direction (the even bits), with edge k's pair swapped
        # where mask has bit k: mask's binary digits read in base 4 put bit k
        # at bit 2k.
        self.use(((1 << len(self.ids)) - 1) // 3 ^ int(f"{mask:b}", 4) * 3)
        self.kernel.repair()

    def orientations(self) -> Iterator[int]:
        """Every orientation mask in Gray order, each yielded with the kernel at its maximum."""
        self.orient(0)
        yield 0
        use, repair = self.use, self.kernel.repair
        for i in range(1, 1 << (len(self.ids) >> 1)):
            # Edge k's directions are bits 2k and 2k + 1: three times the
            # square of bit k.
            low = i & -i
            use(self.used ^ 3 * low * low)
            repair()
            yield i ^ i >> 1

    def canonical(self) -> tuple[tuple[Arc, ...], int]:
        """The canonical matching on the directions in use, and its value in units."""
        if self.order is None:
            self.order = sorted((item, 1 << i) for i, item in enumerate(zip(self.items, self.ids)))
        used = self.used
        items = [item for item, bit in self.order if used & bit]
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
    dirs = _Directions(inst)
    best_val, best_mask = -1, 0
    for mask in dirs.orientations():
        val = dirs.kernel.value
        if val > best_val or (val == best_val and mask < best_mask):
            best_val, best_mask = val, mask
    dirs.orient(best_mask)
    arcs, total = dirs.canonical()
    if total != best_val:
        raise AssertionError("scan value disagrees with the recovered matching")
    orientation = Orientation(inst.graph, best_mask)
    return AocmSolution(inst, orientation, ControlMatching(arcs, inst.value_of(total)))


def _assignment_bound(dirs: _Directions) -> Callable[..., tuple[int, int]]:
    """The exact search's bound on ``dirs``, whose kernel it repairs over every direction.

    Without the one-direction-per-edge rule the remaining positive arcs
    form a tail/head assignment, which the warm kernel keeps at a maximum.
    That maximum bounds every node of a branch and bound on its 2-cycles
    (both arcs of an edge matched): a node that does not beat the best
    weight so far is pruned, and dropping the lighter arc of each 2-cycle
    leaves a feasible set of directions, whose weight raises it. A node
    still above the best forbids one arc of its first 2-cycle, then the
    other (Carpaneto & Toth 1980). The branches run on an explicit stack,
    so their depth is not limited by the interpreter's recursion limit.

    ``bound(remaining, need, charge)`` starts the best at ``need`` and
    returns ``(gain, witness)``: the first feasible weight above ``need``
    and its set as a direction bitmask, or ``(need, 0)`` when nothing
    beats it. Given ``found``, it runs to the end instead, calls
    ``found(best)`` on every rise, and returns the larger of ``need`` and
    the maximum feasible weight, with no witness.
    """
    kernel, ids = dirs.kernel, dirs.ids
    kernel.repair()
    tail_arc, tails, weight = kernel.tail_arc, kernel.tails, kernel.weight
    pairs = [(a, b) for a, b in zip(ids[::2], ids[1::2]) if a >= 0 and b >= 0]
    # The direction bit of every kernel arc.
    bit = [1 << i for i, a in enumerate(ids) if a >= 0]

    def bound(
        remaining: int,
        need: int,
        charge: Callable[[], None],
        found: Callable[[int], None] | None = None,
    ) -> tuple[int, int]:
        dirs.use(remaining)
        # One entry per open branch: the arc it forbids, and the other arc
        # of its 2-cycle while that one is still to be tried (else -1).
        stack: list[tuple[int, int]] = []
        best = need
        while True:
            charge()
            kernel.repair()
            value = kernel.value
            if value > best:
                cycles = [
                    (a, b) for a, b in pairs if tail_arc[tails[a]] == a and tail_arc[tails[b]] == b
                ]
                rounded = value - sum(min(weight[a], weight[b]) for a, b in cycles)
                if rounded > best:
                    best = rounded
                    if found is None:
                        witness = sum(bit[a] for a in tail_arc if a >= 0) - sum(
                            bit[a if weight[a] <= weight[b] else b] for a, b in cycles
                        )
                        for arc, _ in reversed(stack):
                            kernel.activate(arc)
                        return best, witness
                    found(best)
                if value > best:
                    a, b = cycles[0]
                    kernel.deactivate(a)
                    stack.append((a, b))
                    continue
            while stack:
                arc, other = stack.pop()
                kernel.activate(arc)
                if other >= 0:
                    kernel.deactivate(other)
                    stack.append((other, -1))
                    break
            else:
                return best, 0

    return bound


def solve_aocm_exact(
    inst: AocmInstance, *, node_budget: int = 2_000_000
) -> AocmSolution:
    """Exact solve through the conflict graph, in two phases on one budget.

    The 2-cycle branch and bound of :func:`_assignment_bound`, started
    from the greedy value, finds the optimum V* over every direction.
    The independent-set search, seeded with the greedy solution and
    bounded the same way, then replays only until it reaches V*: that
    gives the set a full search would return. The best set is translated
    back. Search nodes and bound repairs of both phases share
    ``node_budget``; past it, ResourceLimitError carries the heaviest
    feasible weight known and the root assignment value.
    """
    cg = aocm_to_wis(inst)
    units = inst.units
    index_of = {arc: i for i, arc in enumerate(cg.arcs)}
    seed = solve_aocm_greedy(inst).matching.arcs
    best = sum(units[arc] for arc in seed)
    dirs = _Directions(inst)
    bound = _assignment_bound(dirs)
    upper = dirs.kernel.value
    spent = 0
    message = f"exact search exceeded {node_budget} nodes and bound solves"

    def charge() -> None:
        nonlocal spent
        spent += 1
        if spent > node_budget:
            raise ResourceLimitError(message)

    def found(weight: int) -> None:
        nonlocal best
        best = weight

    try:
        optimum, _ = bound(dirs.used, best, charge, found)
        best_mask, best_w = max_weight_independent_set(
            [units[a] for a in cg.arcs],
            cg.neighbor_masks(),
            seed_mask=sum(1 << index_of[arc] for arc in seed),
            node_budget=node_budget - spent,
            bound=bound,
            optimum=optimum,
        )
    except ResourceLimitError as exc:
        raise ResourceLimitError(message, inst.value_of(best), inst.value_of(upper)) from exc
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
