"""Exact maximum-weight independent set over bitmask adjacency.

Branch and bound: branch on the maximum-degree vertex of the remaining
subgraph (include it and drop its closed neighborhood, or drop it), and
start from a caller-supplied incumbent, replaced only on a strict gain.
A subtree is pruned when the caller's bound on what it can add does not
beat the incumbent. Every valid bound returns the same set: the seed if
it is optimal, else the first optimal node of the unpruned tree in
preorder, as no pruned subtree holds a set heavier than the incumbent.
The tree is walked in that preorder on an explicit stack, so its depth
is not limited by the interpreter's recursion limit.

A caller that already knows the optimum weight can replay the search to
it: any incumbent lighter than the optimum leaves that set unchanged, so
the search starts from a virtual incumbent one unit below the optimum
(or returns the seed at once if it weighs the optimum) and stops at the
first node that reaches it, without proving that nothing is heavier.

Vertices of nonpositive weight can never raise the total and are removed
from the search space up front.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .errors import ContractError, ResourceLimitError


def max_weight_independent_set(
    weights: Sequence[int],
    neighbor_masks: Sequence[int],
    *,
    bound: Callable[[int, int, Callable[[], None]], int],
    seed_mask: int = 0,
    node_budget: int = 2_000_000,
    optimum: int | None = None,
) -> tuple[int, int]:
    """Return (best set as a bitmask, its weight).

    ``bound(remaining, need, charge)`` may be at most ``need`` only when
    the positive-weight vertices of ``remaining`` cannot add more than
    ``need``, and calls ``charge()`` per unit of its own work; the search
    has no bound of its own. ``seed_mask`` must be an independent set; it
    becomes the incumbent so the search only has to beat it. ``optimum``,
    when given, is the maximum weight: the seed is returned if it weighs
    that much, else the first node in preorder that does, and a search
    that never reaches it raises ContractError. Past ``node_budget``
    charges, search nodes included, it raises ResourceLimitError carrying
    the weight of the heaviest set it holds.
    """
    n = len(weights)
    if len(neighbor_masks) != n:
        raise ContractError("weights and neighbor_masks must have equal length")
    seed = [v for v in range(n) if seed_mask >> v & 1]
    if any(neighbor_masks[v] & seed_mask for v in seed):
        raise ContractError("seed set is not independent")
    best_mask = seed_mask
    best_w = seed_w = sum(weights[v] for v in seed)
    candidates = sum(1 << v for v in range(n) if weights[v] > 0)
    explored = 0

    def charge() -> None:
        nonlocal explored
        explored += 1
        if explored > node_budget:
            message = f"independent-set search exceeded {node_budget} nodes and bound solves"
            raise ResourceLimitError(message, best_bound=seed_w if optimum is not None else best_w)

    if optimum is not None:
        if seed_w >= optimum:
            charge()
            return seed_mask, seed_w
        best_w = optimum - 1

    # Each entry is a search node (remaining, cur_mask, cur_w); the
    # include branch is pushed last, so it is explored first.
    stack = [(candidates, 0, 0)]
    while stack:
        remaining, cur_mask, cur_w = stack.pop()
        charge()
        if cur_w > best_w:
            if optimum is not None:
                return cur_mask, cur_w
            best_w = cur_w
            best_mask = cur_mask
        if not remaining:
            continue
        if cur_w + bound(remaining, best_w - cur_w, charge) <= best_w:
            continue
        pick = pick_deg = -1
        m = remaining
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            deg = (neighbor_masks[v] & remaining).bit_count()
            if deg > pick_deg:
                pick_deg = deg
                pick = v
        bit = 1 << pick
        stack.append((remaining & ~bit, cur_mask, cur_w))
        include = remaining & ~(neighbor_masks[pick] | bit)
        stack.append((include, cur_mask | bit, cur_w + weights[pick]))
    if optimum is not None:
        raise ContractError(f"no independent set weighs the optimum {optimum}")
    return best_mask, best_w
