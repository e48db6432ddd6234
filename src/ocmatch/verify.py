"""Invariant suites behind the verify subcommands.

Each suite cross-checks a construction against an independent route on
exhaustively enumerated or seeded-random inputs: the conflict-graph
equivalence against both the branch-and-bound solver and the exhaustive
set oracle, the cycle-cover criterion against the cover oracle, the
per-orientation value bound against a full orientation sweep, and the
two approximation inequalities against brute-force optima. Violations
are reported verbatim, one line each; suites are deterministic for a
fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .aocm import _assignment_bound, _Directions, solve_aocm_brute, solve_aocm_exact
from .errors import ContractError
from .generators import random_digraph, random_weighted_instance
from .graphs import (
    AocmInstance,
    Digraph,
    Orientation,
    complete_bipartite,
    complete_graph,
)
from .matching import ControlMatching, max_weight_control_matching
from .mwis import max_weight_independent_set
from .oracles import brute_3dcc, brute_mwis
from .reductions import (
    _check_matching_on_host,
    aocm_to_wis,
    build_gadget_f,
    check_lemma3,
    check_lreduction,
    classify_vertex_cases,
    dcc3_to_aocm,
    decode_from_matching,
    decode_g,
    extract_cycle_cover,
    is_valid_cycle_cover,
    lreduction_report,
    wis_to_aocm_solution,
)

__all__ = [
    "SuiteResult",
    "verify_lemma1",
    "verify_lemma2",
    "verify_lemma3",
    "verify_lreduction",
]

_MAX_REPORTED = 25


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one verification suite."""

    suite: str
    passed: bool
    stats: tuple[tuple[str, str], ...]
    counterexamples: tuple[str, ...]


def _finish(
    suite: str, stats: list[tuple[str, str]], bad: list[str]
) -> SuiteResult:
    shown = list(bad)
    if len(shown) > _MAX_REPORTED:
        extra = len(shown) - _MAX_REPORTED
        shown = shown[:_MAX_REPORTED]
        shown.append(f"... {extra} more counterexamples suppressed")
    return SuiteResult(suite, not bad, tuple(stats), tuple(shown))


def _describe_instance(inst: AocmInstance) -> str:
    g = inst.graph
    parts = [f"n={g.node_count}"]
    parts.extend(
        f"{u}-{v}:{inst.weights[(u, v)]:g}/{inst.weights[(v, u)]:g}"
        for u, v in g.edges
    )
    return " ".join(parts)


def _describe_digraph(d: Digraph) -> str:
    arcs = ",".join(f"{u}>{v}" for u, v in d.arcs)
    return f"n={d.node_count} arcs=[{arcs}]"


def verify_lemma1(
    *, seed: int = 0, samples: int = 200, max_n: int = 6, max_edges: int = 10
) -> SuiteResult:
    """Independent-set weight on the conflict graph equals the orientation optimum.

    Random instances with integer weights 0..10 are solved three ways:
    branch-and-bound on the conflict graph under the exact route's
    assignment bound, exhaustive search on the conflict graph, and brute
    force over orientations. The chosen set is also mapped back and must
    reproduce the weight.
    """
    rng = random.Random(seed)
    bad: list[str] = []
    for _ in range(samples):
        n = rng.randint(1, max_n)
        m = rng.randint(0, min(max_edges, n * (n - 1) // 2))
        inst = random_weighted_instance(rng, n, m, low=0.0, high=10.0)
        cg = aocm_to_wis(inst)
        bound = _assignment_bound(_Directions(inst))
        mask, units = max_weight_independent_set(
            [inst.units[a] for a in cg.arcs], cg.neighbor_masks(), bound=bound
        )
        weight = inst.value_of(units)
        _, oracle_weight = brute_mwis(cg.weights, cg.conflicts)
        brute = solve_aocm_brute(inst)
        desc = _describe_instance(inst)
        if weight != brute.value:
            bad.append(f"set weight {weight:g} != optimum {brute.value:g} on {desc}")
        if weight != oracle_weight:
            bad.append(f"solver {weight:g} != oracle {oracle_weight:g} on {desc}")
        chosen = [i for i in range(len(cg.arcs)) if mask >> i & 1]
        mapped = wis_to_aocm_solution(cg, chosen)
        if mapped.value != weight:
            bad.append(f"mapped value {mapped.value:g} != set weight {weight:g} on {desc}")
    stats = [
        ("samples", str(samples)),
        ("max_n", str(max_n)),
        ("max_edges", str(max_edges)),
        ("seed", str(seed)),
    ]
    return _finish("lemma1", stats, bad)


def _lemma2_check(d: Digraph) -> tuple[bool, str | None]:
    """Whether the cover oracle finds a cover, and the violation found, if any."""
    inst = dcc3_to_aocm(d)
    sol = solve_aocm_brute(inst)
    n = d.node_count
    reaches = sol.value == n
    cover = brute_3dcc(d)
    has_cover = cover is not None
    if has_cover != reaches:
        side = "cover exists" if has_cover else "no cover"
        return has_cover, f"{side} but optimum {sol.value:g}, n={n}, on {_describe_digraph(d)}"
    if has_cover and not is_valid_cycle_cover(d, cover):
        return has_cover, f"oracle cover invalid on {_describe_digraph(d)}"
    if reaches:
        extracted = extract_cycle_cover(d, sol)
        if extracted is None or not is_valid_cycle_cover(d, extracted):
            return has_cover, f"extracted cover invalid on {_describe_digraph(d)}"
    return has_cover, None


def verify_lemma2(
    *, seed: int = 0, samples: int = 300, max_n: int = 7, max_support: int = 10
) -> SuiteResult:
    """The reduced optimum reaches the node count exactly when a cover exists.

    Exhaustive over every digraph on 4 nodes, then random digraphs up to
    max_n nodes. Whenever the optimum reaches n, the extracted cycle
    cover must be valid.
    """
    pairs = [(u, v) for u in range(4) for v in range(4) if u != v]
    bad: list[str] = []
    covers = 0
    for mask in range(1 << len(pairs)):
        arcs = tuple(pairs[k] for k in range(len(pairs)) if mask >> k & 1)
        has_cover, err = _lemma2_check(Digraph(4, arcs))
        if err is not None:
            bad.append(err)
        elif has_cover:
            covers += 1
    rng = random.Random(seed)
    sampled_covers = 0
    for _ in range(samples):
        n = rng.randint(1, max_n)
        has_cover, err = _lemma2_check(random_digraph(rng, n, max_support))
        if err is not None:
            bad.append(err)
        elif has_cover:
            sampled_covers += 1
    stats = [
        ("exhaustive_digraphs", str(1 << len(pairs))),
        ("exhaustive_covers", str(covers)),
        ("samples", str(samples)),
        ("sampled_covers", str(sampled_covers)),
        ("max_n", str(max_n)),
        ("seed", str(seed)),
    ]
    return _finish("lemma2", stats, bad)


def verify_lemma3(*, seed: int = 0, samples: int = 200) -> SuiteResult:
    """Value bound against the case partition, exhaustive on one gadget.

    Every orientation of the gadget built from the 4-clique is solved;
    the optimum value, the per-orientation bound, the decoded set size,
    and its independence are all checked. The sweep walks the
    orientations in Gray order on the brute scan's warm kernel over the
    host's directions and takes each canonical matching as a trial it
    rolls back; each matching is checked on the host once, and the case
    partition and the decoder both read that checked set. Violations are
    reported in mask order and the optimum goes to the smallest mask, as
    a sweep in counter order would have them; the kernel is then turned
    back to that mask, where its matching must equal a fresh solve's.
    The gadget of the 3,3-biclique gets sampled checks through the public
    entry points.
    """
    gi = build_gadget_f(complete_graph(4))
    host = gi.host
    n = gi.source.node_count
    edge_count = host.graph.edge_count
    found: list[tuple[int, str]] = []
    best_value = -1.0
    best_mask = 0
    dirs = _Directions(host)
    for mask in dirs.orientations():
        arcs, total = dirs.canonical()
        matched = ControlMatching(arcs, host.value_of(total))
        value = matched.value
        try:
            arcset = _check_matching_on_host(host, matched.arcs)
            part = classify_vertex_cases(gi, arcset)
            chosen = decode_from_matching(gi, arcset)
        except ContractError as exc:
            found.append((mask, f"mask={mask}: {exc}"))
            continue
        rhs = 2 * n + len(part.v3)
        if value > rhs:
            found.append((mask, f"mask={mask}: value {value:g} exceeds bound {rhs}"))
        if len(chosen) != len(part.v3):
            found.append(
                (mask, f"mask={mask}: decoded {len(chosen)} vertices, |v3| is {len(part.v3)}")
            )
        if value > best_value or (value == best_value and mask < best_mask):
            best_value, best_mask = value, mask
    found.sort(key=lambda entry: entry[0])
    bad = [message for _, message in found]
    if best_value != 9.0:
        bad.append(f"exhaustive optimum {best_value:g}, expected 9")
    top = Orientation(host.graph, best_mask)
    dirs.orient(best_mask)
    if dirs.canonical()[0] != max_weight_control_matching(host, top).arcs:
        bad.append(f"optimal mask={best_mask}: warm and fresh canonical matchings differ")
    equality = False
    try:
        check = check_lemma3(gi, top, optimal=True)
        equality = check.value == check.rhs
    except ContractError as exc:
        bad.append(f"optimal mask={best_mask}: {exc}")
    decoded_top = decode_g(gi, top)
    if len(decoded_top) != 1:
        bad.append(f"optimal mask={best_mask} decoded to {len(decoded_top)} vertices, expected 1")
    rng = random.Random(seed)
    gi2 = build_gadget_f(complete_bipartite(3, 3))
    m2 = gi2.host.graph.edge_count
    for _ in range(samples):
        mask = rng.randrange(1 << m2)
        o = Orientation(gi2.host.graph, mask)
        try:
            chk = check_lemma3(gi2, o)
            decode_g(gi2, o)
        except ContractError as exc:
            bad.append(f"biclique gadget mask={mask}: {exc}")
            continue
        if not chk.bound_holds:
            bad.append(
                f"biclique gadget mask={mask}: value {chk.value:g} exceeds bound {chk.rhs:g}"
            )
    stats = [
        ("exhaustive_orientations", str(1 << edge_count)),
        ("optimum", format(best_value, "g")),
        ("equality_at_optimum", str(equality)),
        ("v3_coefficient", "1"),
        ("sampled_orientations", str(samples)),
        ("seed", str(seed)),
    ]
    return _finish("lemma3", stats, bad)


def verify_lreduction(*, seed: int = 0, samples: int = 1000) -> SuiteResult:
    """Both approximation inequalities on the two reference gadgets.

    The host optimum must equal twice the source size plus its
    independence number, stay within factor 12 of it, and decoding must
    lose no more than the orientation itself loses, checked at the
    optimum and on sampled random orientations.
    """
    bad: list[str] = []
    stats: list[tuple[str, str]] = [
        ("samples_per_gadget", str(samples)),
        ("seed", str(seed)),
    ]
    rng = random.Random(seed)
    cases = (
        ("K4", complete_graph(4), 9.0),
        ("K3,3", complete_bipartite(3, 3), 15.0),
    )
    for name, g, expected_opt in cases:
        gi = build_gadget_f(g)
        _, opt_is_weight = brute_mwis([1.0] * g.node_count, g.edges)
        opt_is = round(opt_is_weight)
        exact = solve_aocm_exact(gi.host)
        opt_aocm = exact.value
        if opt_aocm != expected_opt:
            bad.append(f"{name}: host optimum {opt_aocm:g}, expected {expected_opt:g}")
        if opt_aocm != 2 * g.node_count + opt_is:
            bad.append(
                f"{name}: host optimum {opt_aocm:g} is not 2n + "
                f"independence number {opt_is}"
            )
        try:
            top = lreduction_report(gi, exact.orientation, opt_is, opt_aocm)
            if not (top.alpha_holds and top.beta_holds):
                bad.append(f"{name}: inequalities fail at the optimum")
            if top.decoded_value != opt_is:
                bad.append(
                    f"{name}: optimum decodes to {top.decoded_value}, "
                    f"independence number {opt_is}"
                )
        except ContractError as exc:
            bad.append(f"{name}: {exc}")
        public = check_lreduction(g, Orientation(gi.host.graph, 0))
        if public.opt_aocm != opt_aocm:
            bad.append(f"{name}: public wrapper optimum {public.opt_aocm:g} disagrees")
        m = gi.host.graph.edge_count
        for _ in range(samples):
            mask = rng.randrange(1 << m)
            y = Orientation(gi.host.graph, mask)
            try:
                rep = lreduction_report(gi, y, opt_is, opt_aocm)
            except ContractError as exc:
                bad.append(f"{name} mask={mask}: {exc}")
                continue
            if not rep.alpha_holds:
                bad.append(
                    f"{name} mask={mask}: factor check fails, "
                    f"{rep.opt_aocm:g} > {rep.alpha} * {rep.opt_is}"
                )
            if not rep.beta_holds:
                bad.append(
                    f"{name} mask={mask}: loss check fails, "
                    f"|{rep.opt_is} - {rep.decoded_value}| > "
                    f"|{rep.opt_aocm:g} - {rep.value:g}|"
                )
        stats.append((f"opt_is[{name}]", str(opt_is)))
        stats.append((f"opt_aocm[{name}]", format(opt_aocm, "g")))
    return _finish("lreduction", stats, bad)
