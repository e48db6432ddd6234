"""Control matchings on digraphs and orientations.

A control matching is an arc set in which every node is the head of at
most one arc and the tail of at most one arc. A node is matched when it
is the head of a matching arc; unmatched nodes each need their own
driver, except that at least one driver is always required.

The maximum matching is found on the bipartite representation: one left
copy of each node acting as a tail, one right copy acting as a head, and
one bipartite edge per arc. Cardinality uses one incremental kernel:
Hopcroft–Karp layered phases with an explicit-stack search, arcs that can
be switched off and on, tail and head copies that can be blocked, and an
undo log for trials. Weighted uses a dense assignment solve over the
nodes that touch positive arcs, with the kernel as the fast path when all
positive weights coincide.

Among equal-value matchings every operation returns the lexicographically
smallest arc set under canonical arc order, where arc sets are compared
as sorted tuples (a strict prefix compares smaller). That pins down one
canonical answer so repeated runs are reproducible. With uniform positive
weights the canonical answer comes from one solve, by trying each arc in
order as a kernel trial; other weights re-solve once per candidate arc.
Either way the arcs are tried in one forward pass, and an arc that does
not extend to an optimum is never tried again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ContractError
from .graphs import AocmInstance, Arc, Digraph, Orientation

_WeightedArc = tuple[int, int, int]


@dataclass(frozen=True)
class ControlMatching:
    """A valid control matching: arcs plus its value.

    ``value`` is the arc-weight sum for weighted problems and the
    cardinality for unweighted ones.
    """

    arcs: tuple[Arc, ...]
    value: float

    def __post_init__(self) -> None:
        canon = tuple(sorted(self.arcs))
        heads: set[int] = set()
        tails: set[int] = set()
        for u, v in canon:
            if u in tails:
                raise ContractError(f"node {u} is the tail of two matching arcs")
            if v in heads:
                raise ContractError(f"node {v} is the head of two matching arcs")
            tails.add(u)
            heads.add(v)
        object.__setattr__(self, "arcs", canon)
        object.__setattr__(self, "value", float(self.value))

    @property
    def size(self) -> int:
        return len(self.arcs)

    def matched_nodes(self) -> frozenset[int]:
        """Nodes that are the head of a matching arc."""
        return frozenset(v for _, v in self.arcs)


@dataclass(frozen=True)
class BipartiteEdge:
    left: int
    right: int
    weight: float
    arc: Arc


@dataclass(frozen=True)
class BipartiteRepresentation:
    """Tail copies on the left, head copies on the right, one edge per arc.

    Left copy i and right copy i both refer to original node i; each edge
    keeps a back-reference to the arc it came from, so matchings translate
    back and forth without loss.
    """

    node_count: int
    edges: tuple[BipartiteEdge, ...]


def _digraph_view(d: Digraph | Orientation) -> tuple[int, tuple[Arc, ...]]:
    """Common access to (node_count, sorted arcs)."""
    if isinstance(d, Digraph):
        return d.node_count, d.arcs
    if isinstance(d, Orientation):
        return d.instance.graph.node_count, tuple(sorted(d.arcs()))
    raise ContractError(f"expected Digraph or Orientation, got {type(d).__name__}")


def bipartite_representation(d: Digraph | Orientation) -> BipartiteRepresentation:
    n, arcs = _digraph_view(d)
    weights = d.instance.weights if isinstance(d, Orientation) else dict.fromkeys(arcs, 1.0)
    edges = tuple(
        BipartiteEdge(left=u, right=v, weight=weights[(u, v)], arc=(u, v))
        for u, v in arcs
    )
    return BipartiteRepresentation(n, edges)


class _Kernel:
    """Incremental maximum matching between tail copies and head copies.

    Arc ``a`` joins the tail copy of ``tails[a]`` to the head copy of
    ``heads[a]``. The matching is kept per side as the matched arc id, or
    -1 for a free copy. Arcs can be switched off and on, and a tail and a
    head copy can be blocked; each change unmatches what it touches, and
    :meth:`repair` restores a maximum matching by Hopcroft–Karp layered
    phases whose depth-first search runs on an explicit stack, so path
    length is not bounded by the recursion limit. Changes made after
    :meth:`begin` form a trial: every write is logged until
    :meth:`commit` keeps them or :meth:`rollback` undoes them.
    """

    def __init__(self, n: int, arcs: Sequence[Arc]) -> None:
        self.tails = [u for u, _ in arcs]
        self.heads = [v for _, v in arcs]
        self.out: list[list[int]] = [[] for _ in range(n)]
        for a, u in enumerate(self.tails):
            self.out[u].append(a)
        # Only tails with arcs can start a search; scanning these instead
        # of all n copies keeps isolated nodes out of every phase.
        self.sources = [u for u in range(n) if self.out[u]]
        self.active = [True] * len(arcs)
        self.tail_arc = [-1] * n
        self.head_arc = [-1] * n
        self.blocked_tail = [False] * n
        self.blocked_head = [False] * n
        self.size = 0
        self.log: list[tuple[list, int, object]] | None = None
        self.trial_size = 0

    def _set(self, values: list, i: int, value: object) -> None:
        if self.log is not None:
            self.log.append((values, i, values[i]))
        values[i] = value

    def _unmatch(self, a: int) -> None:
        self._set(self.tail_arc, self.tails[a], -1)
        self._set(self.head_arc, self.heads[a], -1)
        self.size -= 1

    def begin(self) -> None:
        self.log = []
        self.trial_size = self.size

    def commit(self) -> None:
        self.log = None

    def rollback(self) -> None:
        for values, i, old in reversed(self.log):
            values[i] = old
        self.size = self.trial_size
        self.log = None

    def activate(self, a: int) -> None:
        self._set(self.active, a, True)

    def deactivate(self, a: int) -> bool:
        """Switch arc ``a`` off; True if that unmatched it."""
        self._set(self.active, a, False)
        if self.tail_arc[self.tails[a]] == a:
            self._unmatch(a)
            return True
        return False

    def block(self, tail: int, head: int) -> None:
        """Take a tail copy and a head copy out of the graph."""
        if self.tail_arc[tail] >= 0:
            self._unmatch(self.tail_arc[tail])
        if self.head_arc[head] >= 0:
            self._unmatch(self.head_arc[head])
        self._set(self.blocked_tail, tail, True)
        self._set(self.blocked_head, head, True)

    def repair(self, bound: int | None = None) -> int:
        """Augment to a maximum matching and return its size.

        A caller that knows the maximum is at most ``bound`` saves the
        final search, the one that finds no augmenting path.
        """
        out, tails, heads, active = self.out, self.tails, self.heads, self.active
        tail_arc, head_arc = self.tail_arc, self.head_arc
        blocked_tail, blocked_head = self.blocked_tail, self.blocked_head
        n = len(out)
        if bound is None:
            bound = n
        while self.size < bound:
            roots = [u for u in self.sources if tail_arc[u] < 0 and not blocked_tail[u]]
            if not roots:
                break
            # Layer tails by alternating distance from the free tails; the
            # first layer that reaches a free head ends the layering.
            dist = [-1] * n
            for u in roots:
                dist[u] = 0
            queue = list(roots)
            limit = -1
            for u in queue:
                d = dist[u]
                if d == limit:
                    break
                for a in out[u]:
                    if not active[a] or blocked_head[heads[a]]:
                        continue
                    b = head_arc[heads[a]]
                    if b < 0:
                        limit = d + 1
                    elif dist[tails[b]] < 0:
                        dist[tails[b]] = d + 1
                        queue.append(tails[b])
            if limit < 0:
                break
            # Vertex-disjoint shortest augmenting paths along the layers;
            # next_arc lets each tail resume its scan, and a tail that runs
            # out of arcs is marked dead for the rest of the phase.
            next_arc = [0] * n
            for root in roots:
                stack = [root]
                path: list[int] = []
                while stack:
                    u = stack[-1]
                    d = dist[u]
                    arcs_u = out[u]
                    i = next_arc[u]
                    step = -1
                    while i < len(arcs_u):
                        a = arcs_u[i]
                        i += 1
                        if not active[a] or blocked_head[heads[a]]:
                            continue
                        b = head_arc[heads[a]]
                        if b < 0 or (d + 1 < limit and dist[tails[b]] == d + 1):
                            step = a
                            break
                    next_arc[u] = i
                    if step < 0:
                        dist[u] = -2
                        stack.pop()
                        if path:
                            path.pop()
                        continue
                    path.append(step)
                    b = head_arc[heads[step]]
                    if b >= 0:
                        stack.append(tails[b])
                        continue
                    for a in path:
                        self._set(tail_arc, tails[a], a)
                        self._set(head_arc, heads[a], a)
                    self.size += 1
                    break
        return self.size


def _assignment_max(items: list[_WeightedArc]) -> int:
    """Maximum total weight of a partial assignment over positive-profit arcs.

    Dense O(k^3) assignment on only the k nodes that touch an arc: tails
    and heads are relabelled in increasing order and padded to a square
    matrix. A pair costs ``top`` minus its profit (zero if absent). Costs
    in [0, top] keep the row potentials and the negated column potentials
    in [0, top], so the int sentinel ``2 * top + 1`` exceeds every reduced cost.
    """
    rows = {u: i for i, u in enumerate(sorted({u for u, _, _ in items}))}
    cols = {v: j for j, v in enumerate(sorted({v for _, v, _ in items}))}
    n = max(len(rows), len(cols))
    top = max([w for _, _, w in items], default=0)
    cost = [[top] * n for _ in range(n)]
    for u, v, w in items:
        row = cost[rows[u]]
        if top - w < row[cols[v]]:
            row[cols[v]] = top - w
    INF = 2 * top + 1
    u_pot = [0] * (n + 1)
    v_neg = [0] * (n + 1)
    assigned = [0] * (n + 1)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        assigned[0] = i
        j0 = 0
        minv = [INF] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = assigned[j0]
            delta = INF
            j1 = 0
            row = cost[i0 - 1]
            for j in range(1, n + 1):
                if not used[j]:
                    cur = row[j - 1] - u_pot[i0] + v_neg[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            for j in range(n + 1):
                if used[j]:
                    u_pot[assigned[j]] += delta
                    v_neg[j] += delta
                else:
                    minv[j] -= delta
            j0 = j1
            if assigned[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            assigned[j0] = assigned[j1]
            j0 = j1
    total = 0
    for j in range(1, n + 1):
        i = assigned[j]
        if i:
            total += cost[i - 1][j - 1]
    return n * top - total


def _uniform_weight(items: list[_WeightedArc]) -> int | None:
    """The weight shared by every positive arc; None if none is positive or they differ."""
    w0 = None
    for _, _, w in items:
        if w > 0:
            if w0 is None:
                w0 = w
            elif w != w0:
                return None
    return w0


def _best_value(n: int, items: list[_WeightedArc]) -> int:
    """Best matching value over the given weighted arcs.

    Nonpositive arcs never raise the value of a matching that may leave
    nodes unmatched, so only positive arcs are considered. When all
    positive weights coincide the answer is that weight times the maximum
    cardinality, found by the much cheaper layered augmenting search.
    """
    w0 = _uniform_weight(items)
    if w0 is not None:
        return w0 * _positive_kernel(n, items)[0].repair()
    return _assignment_max([(u, v, w) for u, v, w in items if w > 0])


def _positive_kernel(n: int, items: list[_WeightedArc]) -> tuple[_Kernel, list[int]]:
    """A kernel over the positive arcs of ``items``, and each item's arc id (-1 if none)."""
    ids: list[int] = []
    arcs: list[Arc] = []
    for u, v, w in items:
        ids.append(len(arcs) if w > 0 else -1)
        if w > 0:
            arcs.append((u, v))
    return _Kernel(n, arcs), ids


def _lex_min_uniform(
    n: int, items: list[_WeightedArc], w0: int
) -> tuple[tuple[Arc, ...], int]:
    """:func:`_lex_min_optimal` from one solve, when every positive weight is ``w0``.

    The kernel holds the positive arcs from the current position on that
    avoid the committed tails and heads, at a maximum matching. Trying arc
    j switches it off and blocks its tail and head; the arc commits when
    its weight plus ``w0`` times the repaired size still reaches the
    optimum. Otherwise the trial is rolled back and only the arc is
    switched off.
    """
    kernel, ids = _positive_kernel(n, items)
    best = w0 * kernel.repair()
    chosen: list[Arc] = []
    total = 0
    for (u, v, w), a in zip(items, ids):
        if total == best:
            break
        if kernel.blocked_tail[u] or kernel.blocked_head[v]:
            continue
        size = kernel.size
        kernel.begin()
        matched = a >= 0 and kernel.deactivate(a)
        kernel.block(u, v)
        # Without a matched arc and its two ends, the rest of a maximum
        # matching is still maximum. Otherwise the maximum cannot exceed
        # size - 1 when arc j is positive: arc j would extend it.
        if not matched:
            kernel.repair(size - 1 if a >= 0 else size)
        if total + w + w0 * kernel.size == best:
            chosen.append((u, v))
            total += w
            kernel.commit()
        else:
            kernel.rollback()
            if a >= 0 and kernel.deactivate(a):
                kernel.repair(size)
    if total != best:
        raise ContractError("internal error: optimal prefix not extendable")
    return tuple(chosen), total


def _lex_min_optimal(
    n: int, items: list[_WeightedArc]
) -> tuple[tuple[Arc, ...], int]:
    """The lexicographically smallest arc set among maximum-value matchings.

    ``items`` must be sorted by arc. The optimal arc tuple is grown in one
    pass left to right: an arc is committed when it still extends the
    committed arcs to an optimal matching, a rejected arc is never tried
    again, and the pass stops as soon as the committed arcs alone reach
    the optimum (a strict prefix beats every extension). Uniform positive
    weights take the one-solve route of :func:`_lex_min_uniform`; other
    weights re-solve the later arcs for every candidate.
    """
    w0 = _uniform_weight(items)
    if w0 is not None:
        return _lex_min_uniform(n, items, w0)
    best = _best_value(n, items)
    chosen: list[Arc] = []
    total = 0
    used_tails: set[int] = set()
    used_heads: set[int] = set()
    for j, (u, v, w) in enumerate(items):
        if total == best:
            break
        if u in used_tails or v in used_heads:
            continue
        free = [
            (a, b, wt)
            for a, b, wt in items[j + 1 :]
            if a != u and b != v and a not in used_tails and b not in used_heads
        ]
        if total + w + _best_value(n, free) == best:
            chosen.append((u, v))
            total += w
            used_tails.add(u)
            used_heads.add(v)
    if total != best:
        raise ContractError("internal error: optimal prefix not extendable")
    return tuple(chosen), total


def max_control_matching(d: Digraph | Orientation) -> ControlMatching:
    """A maximum-cardinality control matching, canonical under ties."""
    n, arcs = _digraph_view(d)
    chosen, _ = _lex_min_optimal(n, [(u, v, 1) for u, v in arcs])
    return ControlMatching(chosen, float(len(chosen)))


def max_weight_control_matching(inst: AocmInstance, o: Orientation) -> ControlMatching:
    """A maximum-weight control matching on an orientation, canonical under ties.

    Weights come from the instance. Arcs of nonpositive weight appear in
    the result only when including them is value-neutral and makes the arc
    tuple lexicographically smaller.
    """
    if o.instance is not inst and o.instance != inst:
        raise ContractError("orientation belongs to a different instance")
    units = inst.units
    items = sorted((u, v, units[(u, v)]) for u, v in o.arcs())
    arcs, total = _lex_min_optimal(inst.graph.node_count, items)
    return ControlMatching(arcs, inst.value_of(total))


def driver_count(d: Digraph | Orientation) -> int:
    """Drivers needed: max(1, unmatched node count) at a maximum matching.

    For the empty graph the formula still yields 1; that value is
    degenerate since there is nothing to drive.
    """
    n, arcs = _digraph_view(d)
    return max(1, n - _Kernel(n, arcs).repair())


@dataclass(frozen=True)
class AocmSolution:
    """An orientation together with a matching on it and the matching's value."""

    orientation: Orientation
    matching: ControlMatching
    value: float

    def __post_init__(self) -> None:
        o = self.orientation
        oriented = set(o.arcs())
        units = o.instance.units
        total = 0
        for arc in self.matching.arcs:
            if arc not in oriented:
                raise ContractError(f"matching arc {arc} is not oriented that way")
            total += units[arc]
        if o.instance.value_of(total) != self.value:
            raise ContractError(f"stated value {self.value} is not the arc-weight sum")
        if self.value < 0:
            raise ContractError("solution value must be nonnegative")
        object.__setattr__(self, "value", float(self.value))
