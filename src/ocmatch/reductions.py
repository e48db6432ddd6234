"""Executable reductions between orientation control matching and two
classical problems: maximum-weight independent set and directed cycle cover.

Three constructions live here, each with the decoding direction and the
checkable properties that make it a working reduction rather than prose:

* conflict graph: ordered arc directions become weighted nodes, mutually
  exclusive directions become edges, and maximum-weight independent sets
  correspond exactly to optimal orientation-plus-matching solutions;
* cycle cover: a digraph becomes a 0/1-weighted instance whose optimum
  reaches the node count precisely when the digraph partitions into
  directed cycles of length at least three;
* cubic gadget: a 3-regular graph becomes a 0/1-weighted instance whose
  optimum is 2n plus the independence number, with a decoder from any
  orientation back to an independent set that loses no more value than
  the orientation itself loses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

from .errors import ContractError, InputError
from .graphs import (
    AocmInstance,
    Arc,
    Digraph,
    Edge,
    Orientation,
    UndirectedGraph,
    canonical_edge,
    is_cubic,
)
from .matching import AocmSolution, ControlMatching, max_weight_control_matching

ALPHA = 12
BETA = 1


@dataclass(frozen=True)
class ConflictGraph:
    """Node-weighted conflict graph over the ordered arc directions.

    Node i stands for ``arcs[i]`` and weighs ``weights[i]``. Conflict
    edges join the two directions of one edge, two arcs sharing a head,
    and two arcs sharing a tail. Independent sets are exactly the arc
    sets that some orientation admits as a control matching.
    """

    instance: AocmInstance
    arcs: tuple[Arc, ...]
    weights: tuple[float, ...]
    conflicts: tuple[tuple[int, int], ...]

    def neighbor_masks(self) -> list[int]:
        masks = [0] * len(self.arcs)
        for i, j in self.conflicts:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        return masks


def aocm_to_wis(inst: AocmInstance) -> ConflictGraph:
    """Build the conflict graph whose best independent set weighs the optimum."""
    arcs = inst.ordered_arcs()
    weights = tuple(inst.weights[a] for a in arcs)
    conflicts: set[tuple[int, int]] = set()
    for k in range(inst.graph.edge_count):
        conflicts.add((2 * k, 2 * k + 1))
    by_head: dict[int, list[int]] = {}
    by_tail: dict[int, list[int]] = {}
    for i, (u, v) in enumerate(arcs):
        by_tail.setdefault(u, []).append(i)
        by_head.setdefault(v, []).append(i)
    for group in list(by_head.values()) + list(by_tail.values()):
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                i, j = group[a], group[b]
                conflicts.add((i, j) if i < j else (j, i))
    return ConflictGraph(inst, arcs, weights, tuple(sorted(conflicts)))


def wis_to_aocm_solution(cg: ConflictGraph, chosen: Iterable[int]) -> AocmSolution:
    """Translate an independent set of conflict nodes into a full solution.

    The chosen arcs direct their own edges; every undirected edge left
    untouched points from its lower to its higher endpoint. The matching
    is the chosen arc set itself and its value is the set's weight.
    """
    idx = sorted(set(chosen))
    for i in idx:
        if i < 0 or i >= len(cg.arcs):
            raise ContractError(f"conflict node {i} out of range")
    conflict_set = set(cg.conflicts)
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            pair = (idx[a], idx[b])
            if pair in conflict_set:
                raise ContractError(f"nodes {pair} conflict, the set is not independent")
    units = cg.instance.units
    total = 0
    mask = 0
    chosen_arcs: list[Arc] = []
    for i in idx:
        mask |= (i & 1) << (i >> 1)
        chosen_arcs.append(cg.arcs[i])
        total += units[cg.arcs[i]]
    orientation = Orientation(cg.instance.graph, mask)
    matching = ControlMatching(tuple(sorted(chosen_arcs)), cg.instance.value_of(total))
    return AocmSolution(cg.instance, orientation, matching)


@dataclass(frozen=True)
class CycleCover:
    """A partition of all nodes into directed simple cycles of length >= 3.

    Stored canonically: each cycle rotated to start at its smallest node,
    cycles sorted by starting node.
    """

    node_count: int
    cycles: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        canon: list[tuple[int, ...]] = []
        for cyc in self.cycles:
            if len(cyc) < 3:
                raise ContractError(f"cycle {cyc} is shorter than 3")
            if len(set(cyc)) != len(cyc):
                raise ContractError(f"cycle {cyc} repeats a node")
            for node in cyc:
                if node < 0 or node >= self.node_count:
                    raise ContractError(f"node {node} out of range")
                if node in seen:
                    raise ContractError(f"node {node} appears in two cycles")
                seen.add(node)
            pivot = cyc.index(min(cyc))
            canon.append(tuple(cyc[pivot:] + cyc[:pivot]))
        if len(seen) != self.node_count:
            raise ContractError("cycles do not cover every node")
        canon.sort()
        object.__setattr__(self, "cycles", tuple(canon))


def is_valid_cycle_cover(d: Digraph, cover: CycleCover) -> bool:
    """Check that every consecutive cycle step is an arc of the digraph."""
    if cover.node_count != d.node_count:
        return False
    arcs = set(d.arcs)
    for cyc in cover.cycles:
        for i, u in enumerate(cyc):
            if (u, cyc[(i + 1) % len(cyc)]) not in arcs:
                return False
    return True


def dcc3_to_aocm(d: Digraph) -> AocmInstance:
    """Weight each direction of each adjacent pair 1 if the digraph has that arc.

    The resulting instance reaches optimum value node_count exactly when
    the digraph splits into node-disjoint directed cycles of length at
    least 3 covering every node. Two-cycles cannot fake coverage because
    an orientation keeps only one direction of each edge.
    """
    support = sorted({canonical_edge(u, v) for u, v in d.arcs})
    arcset = set(d.arcs)
    weights: dict[Arc, float] = {}
    for u, v in support:
        weights[(u, v)] = 1.0 if (u, v) in arcset else 0.0
        weights[(v, u)] = 1.0 if (v, u) in arcset else 0.0
    return AocmInstance(UndirectedGraph(d.node_count, tuple(support)), weights)


def extract_cycle_cover(d: Digraph, sol: AocmSolution) -> CycleCover | None:
    """Recover the cycle cover from an optimal solution of the reduced instance.

    Returns None unless the solution value equals the node count. At that
    value the matching has one arc into and one arc out of every node, all
    original arcs, so following successors decomposes it into disjoint
    cycles; the orientation discipline rules out 2-cycles.
    """
    if sol.instance != dcc3_to_aocm(d):
        raise ContractError("solution does not belong to the reduced instance")
    n = d.node_count
    if sol.value != n:
        return None
    arcset = set(d.arcs)
    succ: dict[int, int] = {}
    for u, v in sol.matching.arcs:
        if (u, v) not in arcset:
            raise ContractError(f"matching arc ({u}, {v}) is not an original arc")
        succ[u] = v
    if len(succ) != n:
        raise ContractError("value equals node count but matching is not a permutation")
    cycles: list[tuple[int, ...]] = []
    unvisited = set(range(n))
    while unvisited:
        start = min(unvisited)
        cyc = [start]
        unvisited.discard(start)
        cur = succ[start]
        while cur != start:
            cyc.append(cur)
            unvisited.discard(cur)
            cur = succ[cur]
        cycles.append(tuple(cyc))
    return CycleCover(n, tuple(cycles))


EDGE_ARC = "edge-arc"
NODE_ARC = "node-arc"


@dataclass(frozen=True)
class GadgetInstance:
    """The weighted instance built from a cubic graph, with its bookkeeping.

    ``t_label`` names every host node: node t(u, v) is the destination of
    the edge-arc associated with v for the original edge {u, v}. The
    u-associate edge-arc of that edge therefore runs t(u, v) -> t(v, u).
    ``arc_role`` tags every weight-1 arc with its kind and its associated
    original vertex; the weight-0 reverse arcs of node-arcs carry no tag.
    """

    source: UndirectedGraph
    host: AocmInstance
    arc_role: Mapping[Arc, tuple[str, int]]
    t_label: Mapping[int, tuple[int, int]]

    @cached_property
    def _t_index(self) -> dict[tuple[int, int], int]:
        return {pair: node for node, pair in self.t_label.items()}

    @cached_property
    def _arc_tables(self) -> list[tuple[tuple[Arc, Arc, Arc], tuple[Arc, Arc]]]:
        """Per source vertex, its edge-arcs and node-arcs, built once."""
        t = self._t_index
        tables = []
        for u, (v1, v2, v3) in enumerate(self.source.adjacency()):
            edge_arcs = tuple((t[(u, v)], t[(v, u)]) for v in (v1, v2, v3))
            node_arcs = ((t[(u, v1)], t[(v2, u)]), (t[(u, v2)], t[(v3, u)]))
            tables.append((edge_arcs, node_arcs))
        return tables

    def t_node(self, u: int, v: int) -> int:
        """The host node labeled t(u, v)."""
        return self._t_index[(u, v)]

    def edge_arcs_of(self, u: int) -> tuple[Arc, Arc, Arc]:
        """The three edge-arcs associated with u, in chain order.

        Chain order lists u's neighbors ascending; the middle entry is the
        central arc of u's conflict chain, the one sharing an endpoint
        with both of u's node-arcs.
        """
        return self._arc_tables[u][0]

    def node_arcs_of(self, u: int) -> tuple[Arc, Arc]:
        """The two node-arcs associated with u."""
        return self._arc_tables[u][1]


def build_gadget_f(g: UndirectedGraph) -> GadgetInstance:
    """Build the weighted instance encoding independent sets of a cubic graph.

    For each edge {u, v} two host nodes are created, joined by a pair of
    weight-1 edge-arcs, one associated with each endpoint. For each vertex
    u with neighbors v1 < v2 < v3 two weight-1 node-arcs are added,
    t(u, v1) -> t(v2, u) and t(u, v2) -> t(v3, u), each running from the
    source of one u-associate edge-arc to the destination of another, plus
    weight-0 reverses so every host edge carries both directions.

    The host has 3n nodes and 5n weight-1 arcs for an n-vertex cubic
    source, and every host node is the destination of exactly one
    edge-arc.
    """
    if not is_cubic(g):
        raise InputError("the gadget construction requires a cubic source graph")
    n = g.node_count
    t_label: dict[int, tuple[int, int]] = {}
    t_index: dict[tuple[int, int], int] = {}
    for k, (u, v) in enumerate(g.edges):
        t_label[2 * k] = (u, v)
        t_label[2 * k + 1] = (v, u)
        t_index[(u, v)] = 2 * k
        t_index[(v, u)] = 2 * k + 1
    host_node_count = 2 * g.edge_count
    weights: dict[Arc, float] = {}
    host_edges: list[Edge] = []
    arc_role: dict[Arc, tuple[str, int]] = {}
    for k, (u, v) in enumerate(g.edges):
        a, b = 2 * k, 2 * k + 1
        host_edges.append((a, b))
        weights[(a, b)] = 1.0
        weights[(b, a)] = 1.0
        arc_role[(a, b)] = (EDGE_ARC, u)
        arc_role[(b, a)] = (EDGE_ARC, v)
    adj = g.adjacency()
    for u in range(n):
        v1, v2, v3 = adj[u]
        for src_pair, dst_pair in (((u, v1), (v2, u)), ((u, v2), (v3, u))):
            s = t_index[src_pair]
            t = t_index[dst_pair]
            host_edges.append(canonical_edge(s, t))
            weights[(s, t)] = 1.0
            weights[(t, s)] = 0.0
            arc_role[(s, t)] = (NODE_ARC, u)
    if len(set(host_edges)) != len(host_edges):
        raise ContractError("gadget construction produced a parallel host edge")
    host_graph = UndirectedGraph(host_node_count, tuple(host_edges))
    host = AocmInstance(host_graph, weights)
    if host_node_count != 3 * n:
        raise ContractError("gadget node count is off")
    unit_arcs = [a for a, w in weights.items() if w == 1.0]
    if len(unit_arcs) != 5 * n:
        raise ContractError(
            f"expected {5 * n} weight-1 arcs, built {len(unit_arcs)}"
        )
    dest_counts = [0] * host_node_count
    for arc, (kind, _) in arc_role.items():
        if kind == EDGE_ARC:
            dest_counts[arc[1]] += 1
    if any(c != 1 for c in dest_counts):
        raise ContractError("some host node is not the destination of exactly one edge-arc")
    return GadgetInstance(g, host, arc_role, t_label)


class _HostMatching(frozenset):
    """An arc set that :func:`_check_matching_on_host` accepted on ``host``."""

    __slots__ = ("host",)


def _check_matching_on_host(inst: AocmInstance, arcs: Iterable[Arc]) -> _HostMatching:
    """Validate arcs as a control matching that some orientation admits.

    A set this returned is accepted again on the same instance without a
    second scan, so a caller that checks once can hand the result to
    several consumers that each check their input.
    """
    if isinstance(arcs, _HostMatching) and arcs.host is inst:
        return arcs
    arcset = set(arcs)
    heads: set[int] = set()
    tails: set[int] = set()
    for u, v in sorted(arcset):
        if (u, v) not in inst.weights:
            raise ContractError(f"arc ({u}, {v}) is not a direction of any edge")
        if (v, u) in arcset:
            raise ContractError(f"both directions of edge {canonical_edge(u, v)} used")
        if u in tails:
            raise ContractError(f"node {u} is the tail of two arcs")
        if v in heads:
            raise ContractError(f"node {v} is the head of two arcs")
        tails.add(u)
        heads.add(v)
    checked = _HostMatching(arcset)
    checked.host = inst
    return checked


@dataclass(frozen=True)
class VertexCasePartition:
    """Original vertices split by how many of their edge-arcs a matching uses.

    ``v0`` through ``v3`` hold the vertices with 0..3 of their three
    associated edge-arcs in the matching; ``cases`` tags each vertex with
    the finer case label: 'a' (none), 'b(i)' (only the central chain arc),
    'b(ii)' (one outer chain arc), 'c' (two), 'd' (all three).
    """

    v0: frozenset[int]
    v1: frozenset[int]
    v2: frozenset[int]
    v3: frozenset[int]
    cases: Mapping[int, str]


_CASE_TOTAL_CAP = {"a": 2, "b(i)": 2, "b(ii)": 2, "c": 2, "d": 3}


def classify_vertex_cases(gi: GadgetInstance, arcs: Iterable[Arc]) -> VertexCasePartition:
    """Partition source vertices by edge-arc usage of a host matching.

    Also asserts the per-case structural consequences: a vertex with its
    central chain arc matched admits no node-arcs, an outer arc admits at
    most one, two or three edge-arcs exclude node-arcs entirely, and no
    vertex's arc total exceeds 2 except the all-three case with exactly 3.
    """
    arcset = _check_matching_on_host(gi.host, arcs)
    buckets: list[list[int]] = [[], [], [], []]
    cases: dict[int, str] = {}
    for u in range(gi.source.node_count):
        earcs = gi.edge_arcs_of(u)
        ecount = sum(a in arcset for a in earcs)
        ncount = sum(a in arcset for a in gi.node_arcs_of(u))
        if ecount == 0:
            tag = "a"
            ok = ncount <= 2
        elif ecount == 1:
            if earcs[1] in arcset:
                tag = "b(i)"
                ok = ncount == 0
            else:
                tag = "b(ii)"
                ok = ncount <= 1
        elif ecount == 2:
            tag = "c"
            ok = ncount == 0
        else:
            tag = "d"
            ok = ncount == 0
        total = ecount + ncount
        if not ok or total > _CASE_TOTAL_CAP[tag]:
            raise ContractError(
                f"vertex {u} in case {tag} carries {ecount} edge-arcs and "
                f"{ncount} node-arcs, which a valid matching cannot"
            )
        buckets[ecount].append(u)
        cases[u] = tag
    return VertexCasePartition(
        frozenset(buckets[0]),
        frozenset(buckets[1]),
        frozenset(buckets[2]),
        frozenset(buckets[3]),
        cases,
    )


def decode_from_matching(gi: GadgetInstance, arcs: Iterable[Arc]) -> frozenset[int]:
    """Vertices whose three associated edge-arcs all appear in the matching.

    The result is always independent in the source graph: adjacent u and v
    would both need their edge-arcs for the shared edge, and those two
    arcs are the two directions of one host edge.
    """
    arcset = _check_matching_on_host(gi.host, arcs)
    chosen = frozenset(
        u
        for u in range(gi.source.node_count)
        if all(a in arcset for a in gi.edge_arcs_of(u))
    )
    edge_set = set(gi.source.edges)
    for u in sorted(chosen):
        for v in sorted(chosen):
            if u < v and (u, v) in edge_set:
                raise ContractError(
                    f"decoded set contains adjacent vertices {u} and {v}"
                )
    return chosen


def decode_g(gi: GadgetInstance, o: Orientation) -> frozenset[int]:
    """Decode an orientation of the host into an independent set of the source."""
    m = max_weight_control_matching(gi.host, o)
    return decode_from_matching(gi, m.arcs)


class Lemma3Check(NamedTuple):
    bound_holds: bool
    value: float
    rhs: float


def check_lemma3(gi: GadgetInstance, o: Orientation, *, optimal: bool = False) -> Lemma3Check:
    """Check value(o) <= 2n + |v3| for the matching the orientation admits.

    With ``optimal=True`` the bound must hold with equality, which is what
    an optimal orientation achieves; a miss raises ContractError.
    """
    m = max_weight_control_matching(gi.host, o)
    part = classify_vertex_cases(gi, m.arcs)
    n = gi.source.node_count
    rhs = float(2 * n + len(part.v3))
    holds = m.value <= rhs
    if optimal and m.value != rhs:
        raise ContractError(
            f"orientation claimed optimal has value {m.value}, bound {rhs}"
        )
    return Lemma3Check(holds, m.value, rhs)


@dataclass(frozen=True)
class LReductionReport:
    """Both approximation-preserving inequalities evaluated on one orientation."""

    opt_is: int
    opt_aocm: float
    value: float
    decoded_value: int
    alpha: int
    beta: int
    alpha_holds: bool
    beta_holds: bool


def lreduction_report(
    gi: GadgetInstance, y: Orientation, opt_is: int, opt_aocm: float
) -> LReductionReport:
    """Evaluate the two inequalities given precomputed optima.

    alpha: the host optimum is at most 12 times the source independence
    number (cubic graphs always have an independent set of n/4 or more,
    and the host optimum is below 3n). beta: decoding loses no more than
    the orientation itself loses, with factor 1. An orientation achieving
    the host optimum must decode to a maximum independent set.
    """
    matched = max_weight_control_matching(gi.host, y)
    v_y = matched.value
    decoded = len(decode_from_matching(gi, matched.arcs))
    alpha_holds = opt_aocm <= ALPHA * opt_is
    beta_holds = abs(opt_is - decoded) <= BETA * abs(opt_aocm - v_y)
    if v_y == opt_aocm and decoded != opt_is:
        raise ContractError(
            "an optimal orientation decoded to a non-maximum independent set"
        )
    return LReductionReport(
        opt_is=opt_is,
        opt_aocm=opt_aocm,
        value=v_y,
        decoded_value=decoded,
        alpha=ALPHA,
        beta=BETA,
        alpha_holds=alpha_holds,
        beta_holds=beta_holds,
    )


def check_lreduction(g: UndirectedGraph, y: Orientation) -> LReductionReport:
    """Evaluate both inequalities for an orientation of the gadget built from g.

    Computes the source independence number and the host optimum exactly,
    so this is meant for gadget-sized inputs.
    """
    gi = build_gadget_f(g)
    if y.graph != gi.host.graph:
        raise ContractError("orientation does not belong to the gadget host")
    from .aocm import solve_aocm_exact
    from .mwis import max_weight_independent_set

    adj = g.adjacency()
    masks = [0] * g.node_count
    for u in range(g.node_count):
        for v in adj[u]:
            masks[u] |= 1 << v
    _, opt_is = max_weight_independent_set(
        [1] * g.node_count, masks, bound=lambda remaining, need, charge: (remaining.bit_count(), 0)
    )
    opt_aocm = solve_aocm_exact(gi.host).value
    return lreduction_report(gi, y, opt_is, opt_aocm)
