"""Control matchings on digraphs and orientations.

A control matching is an arc set in which every node is the head of at
most one arc and the tail of at most one arc. A node is matched when it
is the head of a matching arc; unmatched nodes each need their own
driver, except that at least one driver is always required.

Every maximum matching here is a maximum-weight matching between tail
copies and head copies, one bipartite edge per arc; cardinality is the
unit-weight case. One incremental kernel solves them all. It keeps
integer LP duals next to the matching, and after each edit (an arc
switched off or on, a tail and a head copy blocked) it runs one
Hungarian search from each copy the edit freed. Its writes are logged
while a trial is open so that the trial can be rolled back, and trials
nest: a caller can run the whole canonical pass, itself a sequence of
trials, inside one trial on a warm kernel and then undo it.

Among equal-value matchings every operation returns the lexicographically
smallest arc set under canonical arc order, where arc sets are compared
as sorted tuples (a strict prefix compares smaller). That pins down one
canonical answer so repeated runs are reproducible. The canonical answer
comes from one solve: arcs are tried in one forward pass, an arc whose
reduced cost under the optimal dual is positive is rejected outright, and
a tight arc is kept when the rest repairs without moving a dual. The
pass accepts any kernel already at a maximum with an optimal dual, fresh
or warm, since the canonical answer does not depend on which optimal
dual it starts from.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterable, Sequence

from .errors import ContractError
from .graphs import AocmInstance, Arc, Digraph, Orientation

_WeightedArc = tuple[int, int, int]
_INF = float("inf")


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


def _digraph_view(d: Digraph | Orientation) -> tuple[int, tuple[Arc, ...]]:
    """Common access to (node_count, sorted arcs)."""
    if isinstance(d, Digraph):
        return d.node_count, d.arcs
    if isinstance(d, Orientation):
        return d.graph.node_count, tuple(sorted(d.arcs()))
    raise ContractError(f"expected Digraph or Orientation, got {type(d).__name__}")


class _Kernel:
    """Incremental maximum-weight matching between tail copies and head copies.

    Arc ``a`` joins the tail copy of ``tails[a]`` to the head copy of
    ``heads[a]`` and weighs ``weight[a]``, a positive int. The matching is
    kept per side as the matched arc id, or -1 for a free copy, and
    ``value`` is its weight. Nonnegative int LP duals ``y`` (tails) and
    ``z`` (heads) keep ``y[u] + z[v] >= weight[a]`` on every usable arc,
    with equality on matched arcs, so the matching has maximum weight
    exactly when no free copy has a positive dual.

    Arcs can be switched off and on, and a tail and a head copy can be
    blocked. Each change unmatches what it touches and records the copies
    it frees, and :meth:`repair` runs one Hungarian search (Kuhn 1955)
    from each of them that still has a positive dual. Changes made after
    :meth:`begin` form a trial: every write, duals included, is logged
    until :meth:`commit` keeps them or :meth:`rollback` undoes them.
    Trials nest. A committed inner trial's writes stay in the log, so an
    enclosing rollback still undoes them; the log exists only while some
    trial is open.
    """

    def __init__(self, n: int, arcs: Sequence[Arc], weights: Sequence[int]) -> None:
        self.tails = [u for u, _ in arcs]
        self.heads = [v for _, v in arcs]
        self.weight = weight = list(weights)
        # Flat lists first: a node count too large for memory fails here at
        # once rather than after building n empty adjacency lists.
        self.y = y = [0] * n
        self.z = [0] * n
        self.out: list[list[int]] = [[] for _ in range(n)]
        self.inn: list[list[int]] = [[] for _ in range(n)]
        for a, (u, v) in enumerate(arcs):
            self.out[u].append(a)
            self.inn[v].append(a)
            if weight[a] > y[u]:
                y[u] = weight[a]
        self.active = [True] * len(arcs)
        self.tail_arc = tail_arc = [-1] * n
        self.head_arc = head_arc = [-1] * n
        self.blocked_tail = [False] * n
        self.blocked_head = [False] * n
        self.value = 0
        # Each tail starts at its heaviest arc weight, heads at zero, and
        # tight arcs are matched greedily; the tails left free with a
        # positive dual are the first search roots.
        for a, (u, v) in enumerate(arcs):
            if tail_arc[u] < 0 and head_arc[v] < 0 and weight[a] == y[u]:
                tail_arc[u] = head_arc[v] = a
                self.value += weight[a]
        # Freed copies: a tail as its node id, a head as its complement.
        self.freed = [u for u in range(n) if tail_arc[u] < 0 and y[u] > 0]
        self.log: list[tuple[list, int, object]] | None = None
        # One mark per open trial: log length, value and freed copies at begin.
        self.marks: list[tuple[int, int, list[int]]] = []
        # A tail search walks out-lists to heads, a head search in-lists to
        # tails; each side keeps distance labels and tree arcs for its far
        # copies, reset after every search.
        self.tail_side = (
            self.out, self.tails, self.heads, tail_arc, head_arc,
            self.blocked_head, y, self.z, [_INF] * n, [0] * n,
        )
        self.head_side = (
            self.inn, self.heads, self.tails, head_arc, tail_arc,
            self.blocked_tail, self.z, y, [_INF] * n, [0] * n,
        )

    def _set(self, values: list, i: int, value: object) -> None:
        if self.log is not None:
            self.log.append((values, i, values[i]))
        values[i] = value

    def _unmatch(self, a: int) -> None:
        u, v = self.tails[a], self.heads[a]
        self._set(self.tail_arc, u, -1)
        self._set(self.head_arc, v, -1)
        self.value -= self.weight[a]
        self.freed += (u, ~v)

    def begin(self) -> None:
        """Open a trial, nested inside any trial already open."""
        if self.log is None:
            self.log = []
        self.marks.append((len(self.log), self.value, list(self.freed)))

    def commit(self) -> None:
        """Keep the innermost trial's writes."""
        self.marks.pop()
        if not self.marks:
            self.log = None

    def rollback(self) -> None:
        """Undo every write since the innermost open trial began."""
        start, self.value, self.freed = self.marks.pop()
        log = self.log
        for values, i, old in reversed(log[start:]):
            values[i] = old
        del log[start:]
        if not self.marks:
            self.log = None

    def activate(self, a: int) -> None:
        """Switch arc ``a`` on; raise its tail's dual first if the arc would violate it."""
        self._set(self.active, a, True)
        u = self.tails[a]
        need = self.weight[a] - self.z[self.heads[a]]
        if self.y[u] < need:
            if self.tail_arc[u] >= 0:
                self._unmatch(self.tail_arc[u])
            self.freed.append(u)
            self._set(self.y, u, need)

    def deactivate(self, a: int) -> None:
        self._set(self.active, a, False)
        if self.tail_arc[self.tails[a]] == a:
            self._unmatch(a)

    def block(self, tail: int, head: int) -> None:
        """Take a tail copy and a head copy out of the graph."""
        if self.tail_arc[tail] >= 0:
            self._unmatch(self.tail_arc[tail])
        if self.head_arc[head] >= 0:
            self._unmatch(self.head_arc[head])
        self._set(self.blocked_tail, tail, True)
        self._set(self.blocked_head, head, True)

    def repair(self, tight_only: bool = False) -> bool:
        """Restore a maximum-weight matching; False if that failed.

        Only ``tight_only`` can fail: it forbids moving a dual, so a
        repaired matching weighs the dual sum. False means every maximum
        weighs less than that sum, and the kernel is left half repaired,
        for :meth:`rollback`.
        """
        freed = self.freed
        while freed:
            c = freed.pop()
            if c >= 0:
                if self.tail_arc[c] < 0 and self.y[c] > 0 and not self.blocked_tail[c]:
                    if not self._search(c, self.tail_side, tight_only):
                        return False
            elif self.head_arc[~c] < 0 and self.z[~c] > 0 and not self.blocked_head[~c]:
                if not self._search(~c, self.head_side, tight_only):
                    return False
        return True

    def _search(self, root: int, side: tuple, tight_only: bool) -> bool:
        """One Hungarian search from the free copy ``root``, whose dual is positive.

        ``near`` copies are on the root's side and ``far`` copies opposite;
        an arc's reduced cost is ``mine[u] + other[v] - weight[a]``. Far
        copies are settled in Dijkstra order (those reached by a tight arc
        skip the heap), a settled matched far copy brings its partner into
        the tree, and a tree copy whose dual would fall below zero bounds
        the search. It ends at the first of:

        * a free far copy: the path to it augments;
        * that bound, at the root: the root's dual becomes zero;
        * that bound, at an inner copy: its matched arc is dropped and the
          path to it flips, so the root is matched and the copy left free.

        Duals then shift by the final distance, which keeps every arc
        feasible and every tree arc tight. With ``tight_only`` the distance
        must stay zero: a search that would move a dual changes nothing and
        returns False.
        """
        adj, near, far, near_arc, far_arc, blocked, mine, other, label, via = side
        weight, active = self.weight, self.active
        dist = 0
        bound, stop = 1 if tight_only else mine[root], root
        settled: list[int] = []
        tight: list[int] = []
        heap: list[tuple[int, int]] = []
        u = root
        end = -1
        while True:
            base = dist + mine[u]
            if base < bound:
                bound, stop = base, u
                if base == dist:
                    break
            for a in adj[u]:
                if active[a]:
                    v = far[a]
                    c = base + other[v] - weight[a]
                    if c < label[v] and c < bound and not blocked[v]:
                        label[v] = c
                        via[v] = a
                        if c == dist:
                            tight.append(v)
                        else:
                            heappush(heap, (c, v))
            if tight:
                v = tight.pop()
            else:
                while heap and heap[0][0] < bound:
                    c, v = heappop(heap)
                    if label[v] == c:
                        dist = c
                        break
                else:
                    break
            # A settled copy keeps its distance as its label: no later
            # candidate can undercut it.
            settled.append(v)
            if far_arc[v] < 0:
                end = v
                break
            u = near[far_arc[v]]
        if end < 0 and not tight_only:
            dist = bound
        # Shift the duals by how long each tree copy was in the tree; a
        # matched far copy's partner joined at the far copy's distance.
        _set = self._set
        _set(mine, root, mine[root] - dist)
        for x in settled:
            d = label[x]
            label[x] = _INF
            if d < dist:
                w = near[far_arc[x]]
                _set(other, x, other[x] + dist - d)
                _set(mine, w, mine[w] - dist + d)
        for x in tight:
            label[x] = _INF
        for _, x in heap:
            label[x] = _INF
        if end >= 0:
            v = end
        elif bound > dist:
            return False
        elif stop == root:
            return True
        else:
            b = near_arc[stop]
            _set(near_arc, stop, -1)
            self.value -= weight[b]
            v = far[b]
        while True:
            a = via[v]
            u = near[a]
            b = near_arc[u]
            _set(near_arc, u, a)
            _set(far_arc, v, a)
            self.value += weight[a]
            if b < 0:
                return True
            self.value -= weight[b]
            v = far[b]


def _positive_kernel(n: int, items: list[_WeightedArc]) -> tuple[_Kernel, list[int]]:
    """A kernel over the positive arcs of ``items``, and each item's arc id (-1 if none).

    Nonpositive arcs never raise the value of a matching that may leave
    nodes unmatched, so only positive arcs are considered.
    """
    ids: list[int] = []
    arcs: list[Arc] = []
    weights: list[int] = []
    for u, v, w in items:
        ids.append(len(arcs) if w > 0 else -1)
        if w > 0:
            arcs.append((u, v))
            weights.append(w)
    return _Kernel(n, arcs, weights), ids


def _lex_min_optimal(
    n: int, items: list[_WeightedArc]
) -> tuple[tuple[Arc, ...], int]:
    """The lexicographically smallest arc set among maximum-value matchings.

    ``items`` must be sorted by arc. Builds a kernel over the positive
    arcs, repairs it to a maximum and runs :func:`_canonical_pass` on it.
    """
    kernel, ids = _positive_kernel(n, items)
    kernel.repair()
    return _canonical_pass(kernel, zip(items, ids))


def _canonical_pass(
    kernel: _Kernel, items: Iterable[tuple[_WeightedArc, int]]
) -> tuple[tuple[Arc, ...], int]:
    """The lexicographically smallest optimal arc set, from a repaired kernel.

    ``items`` pair each arc ``(u, v, w)``, in canonical order, with the
    kernel's id for it, or -1 for a nonpositive arc; the kernel must be
    at a maximum-weight matching over exactly the positive items, with an
    optimal dual. The optimal arc tuple is grown in one pass left to
    right: an arc is committed when it still extends the committed arcs
    to an optimal matching, a rejected arc is never tried again, and the
    pass stops as soon as the committed arcs alone reach the optimum (a
    strict prefix beats every extension). The kernel holds
    the positive arcs from the current position on that avoid the
    committed tails and heads, at a maximum-weight matching with an
    optimal dual. By complementary slackness an arc of positive reduced
    cost lies in no optimal matching, and a copy with a positive dual is
    matched in every one, so only a tight arc is tried: it is switched off
    with its tail and head blocked, and it commits when the rest repairs
    without moving a dual. Otherwise only the arc is switched off. Each
    try is a trial, so the pass can itself run inside a trial.
    """
    best = kernel.value
    chosen: list[Arc] = []
    total = 0
    for (u, v, w), a in items:
        if total == best:
            break
        if kernel.blocked_tail[u] or kernel.blocked_head[v]:
            continue
        if kernel.y[u] + kernel.z[v] == w:
            kernel.begin()
            if a >= 0:
                kernel.deactivate(a)
            kernel.block(u, v)
            if kernel.repair(tight_only=True):
                chosen.append((u, v))
                total += w
                kernel.commit()
                continue
            kernel.rollback()
        if a >= 0:
            kernel.deactivate(a)
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

    Weights come from the instance, whose graph the orientation must
    orient. Arcs of nonpositive weight appear in the result only when
    including them is value-neutral and makes the arc tuple
    lexicographically smaller.
    """
    if o.graph is not inst.graph and o.graph != inst.graph:
        raise ContractError("orientation belongs to a different graph")
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
    kernel = _Kernel(n, arcs, [1] * len(arcs))
    kernel.repair()
    return max(1, n - kernel.value)


@dataclass(frozen=True)
class AocmSolution:
    """An orientation of an instance's graph with a matching on it.

    The solution's value is the matching's value, which must be the
    nonnegative weight sum of its arcs under the instance.
    """

    instance: AocmInstance
    orientation: Orientation
    matching: ControlMatching

    def __post_init__(self) -> None:
        inst, o = self.instance, self.orientation
        if o.graph is not inst.graph and o.graph != inst.graph:
            raise ContractError("orientation belongs to a different graph")
        oriented = set(o.arcs())
        units = inst.units
        total = 0
        for arc in self.matching.arcs:
            if arc not in oriented:
                raise ContractError(f"matching arc {arc} is not oriented that way")
            total += units[arc]
        if inst.value_of(total) != self.value:
            raise ContractError(f"stated value {self.value} is not the arc-weight sum")
        if self.value < 0:
            raise ContractError("solution value must be nonnegative")

    @property
    def value(self) -> float:
        return self.matching.value
