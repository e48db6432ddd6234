"""Exact maximum-weight independent set over bitmask adjacency.

Branch and bound: branch on the maximum-degree vertex of the remaining
subgraph (include it and drop its closed neighborhood, or drop it), prune
with a greedy clique-cover bound, and start from a caller-supplied
incumbent. An independent set takes at most one vertex from each clique
of a cover, so the sum of per-clique weight maxima bounds what the
remaining vertices can still add.

Vertices of nonpositive weight can never raise the total and are removed
from the search space up front.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ContractError, ResourceLimitError


def _clique_cover_bound(remaining: int, weights: Sequence[float], adj: Sequence[int]) -> float:
    cliques: list[tuple[int, float]] = []
    m = remaining
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        wv = weights[v]
        placed = False
        for idx, (members, wmax) in enumerate(cliques):
            if members & ~adj[v] == 0:
                cliques[idx] = (members | low, wv if wv > wmax else wmax)
                placed = True
                break
        if not placed:
            cliques.append((low, wv))
    return sum(wmax for _, wmax in cliques)


def max_weight_independent_set(
    weights: Sequence[float],
    neighbor_masks: Sequence[int],
    *,
    seed_mask: int = 0,
    node_budget: int = 2_000_000,
) -> tuple[int, float]:
    """Return (best set as a bitmask, its weight).

    ``seed_mask`` must be an independent set; it becomes the incumbent so
    the search only has to beat it. Exceeding ``node_budget`` explored
    search nodes raises ResourceLimitError carrying the best weight known.
    """
    n = len(weights)
    if len(neighbor_masks) != n:
        raise ContractError("weights and neighbor_masks must have equal length")
    seed_w = 0
    m = seed_mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        if neighbor_masks[v] & seed_mask:
            raise ContractError("seed set is not independent")
        seed_w += weights[v]
    best_mask = seed_mask
    best_w = seed_w
    candidates = 0
    for v in range(n):
        if weights[v] > 0.0:
            candidates |= 1 << v
    explored = 0

    def branch(remaining: int, cur_mask: int, cur_w: float) -> None:
        nonlocal best_mask, best_w, explored
        explored += 1
        if explored > node_budget:
            raise ResourceLimitError(
                f"independent-set search exceeded {node_budget} nodes",
                best_bound=best_w,
            )
        if cur_w > best_w:
            best_w = cur_w
            best_mask = cur_mask
        if not remaining:
            return
        if cur_w + _clique_cover_bound(remaining, weights, neighbor_masks) <= best_w:
            return
        pick = -1
        pick_deg = -1
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
        branch(remaining & ~(neighbor_masks[pick] | bit), cur_mask | bit, cur_w + weights[pick])
        branch(remaining & ~bit, cur_mask, cur_w)

    branch(candidates, 0, 0)
    return best_mask, best_w
