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

A bound that beats the incumbent may hand back a witness: an independent
set within the remaining vertices that weighs what it claimed. The
search carries it down the tree. If the branch vertex is in it, the
include child inherits the rest of it, else the exclude child inherits
all of it, and a node whose inherited set still beats the incumbent
skips its bound call: every valid bound beats the incumbent there too,
so the prune decisions, and the returned set, stay the same.

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
    bound: Callable[[int, int, Callable[[], None]], tuple[int, int]],
    seed_mask: int = 0,
    node_budget: int = 2_000_000,
    optimum: int | None = None,
) -> tuple[int, int]:
    """Return (best set as a bitmask, its weight).

    ``bound(remaining, need, charge)`` returns ``(gain, witness)``.
    ``gain`` may be at most ``need`` only when the positive-weight vertices
    of ``remaining`` cannot add more than ``need``. ``witness`` is 0, or,
    when ``gain`` beats ``need``, an independent set within ``remaining``
    as a bitmask that weighs exactly ``gain``. The bound calls
    ``charge()`` per unit of its own work; the search has no bound of its
    own. ``seed_mask`` must be an independent set of vertices below
    ``len(weights)``; it becomes the incumbent so the search only has to
    beat it. ``optimum``, when given, is the maximum weight: the seed is
    returned if it weighs that much, else the first node in preorder that
    does, and a search that never reaches it raises ContractError. Past
    ``node_budget`` charges, search nodes included, it raises
    ResourceLimitError carrying the weight of the heaviest set it holds.
    """
    n = len(weights)
    if len(neighbor_masks) != n:
        raise ContractError("weights and neighbor_masks must have equal length")
    if seed_mask < 0 or seed_mask >> n:
        raise ContractError("seed set names a vertex out of range")
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

    # Each entry is a search node (remaining, cur_mask, cur_w, witness,
    # witness_w): witness is an independent set within remaining that
    # weighs witness_w, inherited from the bound of an ancestor, or 0. The
    # include branch is pushed last, so it is explored first.
    stack = [(candidates, 0, 0, 0, 0)]
    while stack:
        remaining, cur_mask, cur_w, witness, witness_w = stack.pop()
        charge()
        if cur_w > best_w:
            if optimum is not None:
                return cur_mask, cur_w
            best_w = cur_w
            best_mask = cur_mask
        if not remaining:
            continue
        # A witness that beats the incumbent settles the bound call: every
        # valid bound beats it too.
        if cur_w + witness_w <= best_w:
            gain, witness = bound(remaining, best_w - cur_w, charge)
            if cur_w + gain <= best_w:
                continue
            witness_w = gain if witness else 0
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
        bit, pick_w = 1 << pick, weights[pick]
        include = remaining & ~(neighbor_masks[pick] | bit)
        if witness & bit:
            stack.append((remaining & ~bit, cur_mask, cur_w, 0, 0))
            stack.append(
                (include, cur_mask | bit, cur_w + pick_w, witness ^ bit, witness_w - pick_w)
            )
        else:
            stack.append((remaining & ~bit, cur_mask, cur_w, witness, witness_w))
            stack.append((include, cur_mask | bit, cur_w + pick_w, 0, 0))
    if optimum is not None:
        raise ContractError(f"no independent set weighs the optimum {optimum}")
    return best_mask, best_w
