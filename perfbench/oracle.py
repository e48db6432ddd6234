"""Independent correctness check of CLI reports.

Nothing here imports ocmatch. Optimal values come from integer programs
solved by HiGHS through ``scipy.optimize.milp``:

* OCM: a maximum simple 2-matching (each node in at most two chosen
  edges), whose size is the best control matching over all orientations;
* AOCM: one binary per arc direction, with at most one arc out of and
  one arc into each node and at most one direction per edge.

Every solve report is also checked structurally against its instance,
and verify reports against constants derived here by brute force.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_matrix

from corpus import Instance


def parse_report(text: str) -> tuple[str, dict[str, str], dict[str, list[str]]]:
    """Split a report into (command, fields, blocks); raise ValueError if malformed."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("command: ") or lines[-1] != "end":
        raise ValueError("report must run from a 'command:' line to an 'end' line")
    fields: dict[str, str] = {}
    blocks: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in lines[1:-1]:
        if line.startswith("  "):
            if current is None:
                raise ValueError(f"indented line outside a block: {line!r}")
            current.append(line[2:])
        elif line.endswith(":") and ": " not in line:
            current = blocks.setdefault(line[:-1], [])
        elif ": " in line:
            key, value = line.split(": ", 1)
            fields[key] = value
            current = None
        else:
            raise ValueError(f"malformed report line: {line!r}")
    return lines[0][len("command: "):], fields, blocks


def _solve(c: np.ndarray, rows: list[list[int]], upper: list[float], nvars: int) -> float:
    if nvars == 0:
        return 0.0
    r = [i for i, row in enumerate(rows) for _ in row]
    cols = [j for row in rows for j in row]
    a = coo_matrix((np.ones(len(cols)), (r, cols)), shape=(len(rows), nvars)).tocsr()
    res = milp(
        c,
        constraints=[LinearConstraint(a, -np.inf, np.array(upper))],
        integrality=np.ones(nvars),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0.0},
    )
    if res.status != 0:
        raise RuntimeError(f"milp failed: {res.message}")
    return -float(res.fun)


def ocm_optimum(inst: Instance) -> int:
    """Size of a maximum simple 2-matching."""
    rows: list[list[int]] = [[] for _ in range(inst.n)]
    for k, (u, v) in enumerate(inst.edges):
        rows[u].append(k)
        rows[v].append(k)
    value = _solve(-np.ones(inst.m), rows, [2.0] * inst.n, inst.m)
    return round(value)


def aocm_optimum(inst: Instance) -> int:
    """Best integer-weight control matching over all orientations."""
    tails: list[list[int]] = [[] for _ in range(inst.n)]
    heads: list[list[int]] = [[] for _ in range(inst.n)]
    edge_rows = []
    c = np.zeros(2 * inst.m)
    for k, ((u, v), (wf, wb)) in enumerate(zip(inst.edges, inst.weights)):
        fwd, bwd = 2 * k, 2 * k + 1
        c[fwd], c[bwd] = -wf, -wb
        tails[u].append(fwd)
        heads[v].append(fwd)
        tails[v].append(bwd)
        heads[u].append(bwd)
        edge_rows.append([fwd, bwd])
    rows = tails + heads + edge_rows
    value = _solve(c, rows, [1.0] * len(rows), 2 * inst.m)
    return round(value)


def _arcs(items: list[str]) -> list[tuple[int, int]]:
    arcs = []
    for item in items:
        u, arrow, v = item.split()
        if arrow != "->":
            raise ValueError(f"bad arc line {item!r}")
        arcs.append((int(u), int(v)))
    return arcs


def check_solve(text: str, inst: Instance, optimum: int, command: str) -> list[str]:
    """Problems found in a solve-ocm / solve-aocm report; empty when it is correct."""
    try:
        cmd, f, blocks = parse_report(text)
        orientation = _arcs(blocks.get("orientation", []))
        matching = _arcs(blocks.get("matching", []))
    except ValueError as exc:
        return [str(exc)]
    bad = []
    if cmd != command:
        bad.append(f"command {cmd!r}, expected {command!r}")
    if command == "solve-aocm" and f.get("mode") != "exact":
        bad.append(f"mode {f.get('mode')!r}, expected 'exact'")
    if f.get("guarantee") != "exact":
        bad.append(f"guarantee {f.get('guarantee')!r}")
    if f.get("nodes") != str(inst.n) or f.get("edges") != str(inst.m):
        bad.append(f"sizes {f.get('nodes')}/{f.get('edges')}, expected {inst.n}/{inst.m}")
    if "orientation" not in blocks or "matching" not in blocks:
        bad.append("orientation or matching block missing")
    edge_set = set(inst.edges)
    covered = [(min(u, v), max(u, v)) for u, v in orientation]
    if len(covered) != inst.m or set(covered) != edge_set:
        bad.append("orientation does not cover every edge exactly once")
    oriented = set(orientation)
    if not set(matching) <= oriented:
        bad.append("a matching arc is not oriented that way")
    tails = [u for u, _ in matching]
    heads = [v for _, v in matching]
    if len(set(tails)) != len(tails) or len(set(heads)) != len(heads):
        bad.append("a node is the tail or the head of two matching arcs")
    weight = {}
    for (u, v), (wf, wb) in zip(inst.edges, inst.weights or ()):
        weight[(u, v)] = wf
        weight[(v, u)] = wb
    total = sum(weight.get(a, 1) for a in matching)
    if f.get("value") != str(total):
        bad.append(f"value {f.get('value')} is not the matching weight {total}")
    if f.get("value") != str(optimum):
        bad.append(f"value {f.get('value')} is not the optimum {optimum}")
    if f.get("matching_size") != str(len(matching)):
        bad.append(f"matching_size {f.get('matching_size')} != {len(matching)} arcs")
    drivers = max(1, inst.n - len(set(heads)))
    if f.get("drivers") != str(drivers):
        bad.append(f"drivers {f.get('drivers')}, expected {drivers}")
    return bad


def independence_number(n: int, edges: list[tuple[int, int]]) -> int:
    best = 0
    for mask in range(1 << n):
        if all(not (mask >> u & 1 and mask >> v & 1) for u, v in edges):
            best = max(best, bin(mask).count("1"))
    return best


def hamiltonian_digraphs_on_4() -> int:
    """Digraphs on 4 labelled nodes whose nodes split into cycles of length >= 3.

    On 4 nodes that is exactly a directed 4-cycle.
    """
    pairs = [(u, v) for u in range(4) for v in range(4) if u != v]
    cycles = [
        {(p[i], p[(i + 1) % 4]) for i in range(4)}
        for p in itertools.permutations(range(4))
        if p[0] == 0
    ]
    count = 0
    for mask in range(1 << len(pairs)):
        arcs = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
        if any(cyc <= arcs for cyc in cycles):
            count += 1
    return count


@functools.cache
def _verify_expectations() -> dict[str, dict[str, str]]:
    k4 = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    k33 = [(u, v) for u in range(3) for v in range(3, 6)]
    a_k4 = independence_number(4, k4)
    a_k33 = independence_number(6, k33)
    # The gadget optimum is 2n plus the independence number of the source.
    return {
        "lemma1": {"samples": "200"},
        "lemma2": {
            "exhaustive_digraphs": "4096",
            "exhaustive_covers": str(hamiltonian_digraphs_on_4()),
            "samples": "300",
        },
        "lemma3": {
            "exhaustive_orientations": str(1 << 14),  # the K4 gadget has 14 edges
            "optimum": str(2 * 4 + a_k4),
            "equality_at_optimum": "True",
        },
        "lreduction": {
            "opt_is[K4]": str(a_k4),
            "opt_aocm[K4]": str(2 * 4 + a_k4),
            "opt_is[K3,3]": str(a_k33),
            "opt_aocm[K3,3]": str(2 * 6 + a_k33),
            "samples_per_gadget": "1000",
        },
    }


def check_verify(text: str, suite: str, seed: int) -> list[str]:
    """Problems found in a verify report; empty when it is correct."""
    try:
        cmd, f, blocks = parse_report(text)
    except ValueError as exc:
        return [str(exc)]
    bad = []
    if cmd != "verify" or f.get("suite") != suite:
        bad.append(f"report is {cmd} {f.get('suite')}, expected verify {suite}")
    if f.get("passed") != "True":
        bad.append(f"passed: {f.get('passed')}")
    if blocks.get("counterexamples") != []:
        bad.append("counterexamples block missing or not empty")
    if f.get("seed") != str(seed):
        bad.append(f"seed {f.get('seed')}, expected {seed}")
    for key, want in _verify_expectations()[suite].items():
        if f.get(key) != want:
            bad.append(f"{key}: {f.get(key)}, expected {want}")
    return bad
