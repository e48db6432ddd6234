"""Instance files: a line-oriented edge-list format.

The first significant line is a header: "n m" for an undirected or
weighted instance, "n m directed" for a digraph, and optionally
"n m weighted" to force the weighted reading (writers always emit the
token so empty weighted instances survive a round trip). The next m
significant lines each describe one edge:

    u v                undirected edge, or an arc in a directed file
    u v w_uv w_vu      weighted edge with one weight per direction

Node ids are 0-based. '#' starts a comment anywhere; blank lines are
ignored. Duplicate undirected edges or arcs are collapsed; duplicate
weighted edges are an error because their weights would be ambiguous.
Writing any instance and reading it back reproduces an equal object.
"""

from __future__ import annotations

from pathlib import Path

from .errors import InputError
from .graphs import (
    AocmInstance,
    Arc,
    Digraph,
    UndirectedGraph,
    canonical_edge,
)
from .reductions import ConflictGraph

Instance = UndirectedGraph | Digraph | AocmInstance


def format_weight(x: float) -> str:
    """Integral floats print as integers, everything else as repr."""
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return repr(float(x))


def _significant_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line))
    return out


def _parse_int(token: str, lineno: int, source: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise InputError(f"{source}:{lineno}: expected an integer, got {token!r}") from None


def _parse_float(token: str, lineno: int, source: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise InputError(f"{source}:{lineno}: expected a number, got {token!r}") from None


def parse_instance(text: str, source: str = "<string>") -> Instance:
    """Parse an instance file into the matching in-memory type."""
    lines = _significant_lines(text)
    if not lines:
        raise InputError(f"{source}: empty instance file")
    lineno, header = lines[0]
    tokens = header.split()
    directed = False
    weighted = False
    if len(tokens) == 3 and tokens[2] == "directed":
        directed = True
    elif len(tokens) == 3 and tokens[2] == "weighted":
        weighted = True
    elif len(tokens) != 2:
        raise InputError(
            f"{source}:{lineno}: header must be 'n m', 'n m directed', or 'n m weighted'"
        )
    n = _parse_int(tokens[0], lineno, source)
    m = _parse_int(tokens[1], lineno, source)
    if n < 0 or m < 0:
        raise InputError(f"{source}:{lineno}: negative sizes in header")
    body = lines[1:]
    if len(body) != m:
        raise InputError(
            f"{source}: header promises {m} edge lines, found {len(body)}"
        )
    rows: list[tuple[int, list[str]]] = [(ln, line.split()) for ln, line in body]
    widths = {len(fields) for _, fields in rows}
    if widths - {2, 4}:
        bad = next((ln for ln, f in rows if len(f) not in (2, 4)), lineno)
        raise InputError(f"{source}:{bad}: edge lines need 2 or 4 fields")
    if len(widths) > 1:
        raise InputError(f"{source}: mixed 2-field and 4-field edge lines")
    four = widths == {4}
    if four and directed:
        raise InputError(f"{source}: directed files take 2-field arc lines")
    if weighted and rows and not four:
        raise InputError(f"{source}: weighted header but 2-field edge lines")
    pairs: list[tuple[int, int]] = []
    weights: dict[Arc, float] = {}
    for ln, fields in rows:
        # One conversion and one comparison per line; a line that fails
        # either is parsed again by the helpers that word the error.
        try:
            u = int(fields[0])
            v = int(fields[1])
        except ValueError:
            u = v = -1
        if not (0 <= u < n and 0 <= v < n and u != v):
            _check_range(
                _parse_int(fields[0], ln, source), _parse_int(fields[1], ln, source), n, ln, source
            )
        if four:
            if (u, v) in weights:
                raise InputError(f"{source}:{ln}: duplicate weighted edge {canonical_edge(u, v)}")
            try:
                wf = float(fields[2])
                wb = float(fields[3])
            except ValueError:
                wf = _parse_float(fields[2], ln, source)
                wb = _parse_float(fields[3], ln, source)
            weights[(u, v)] = wf
            weights[(v, u)] = wb
        pairs.append((u, v) if directed or u < v else (v, u))
    unique = tuple(dict.fromkeys(pairs))
    if directed:
        return Digraph(n, unique)
    if four or weighted:
        return AocmInstance(UndirectedGraph(n, unique), weights)
    return UndirectedGraph(n, unique)


def _check_range(u: int, v: int, n: int, lineno: int, source: str) -> None:
    for node in (u, v):
        if node < 0 or node >= n:
            raise InputError(f"{source}:{lineno}: node {node} out of range 0..{n - 1}")
    if u == v:
        raise InputError(f"{source}:{lineno}: self-loop at node {u}")


def load_instance(path: str | Path) -> Instance:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {p}: {exc}") from None
    return parse_instance(text, source=str(p))


def write_undirected(g: UndirectedGraph) -> str:
    lines = [f"{g.node_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def write_digraph(d: Digraph) -> str:
    lines = [f"{d.node_count} {d.arc_count} directed"]
    lines.extend(f"{u} {v}" for u, v in d.arcs)
    return "\n".join(lines) + "\n"


def write_aocm(inst: AocmInstance) -> str:
    g = inst.graph
    lines = [f"{g.node_count} {g.edge_count} weighted"]
    for u, v in g.edges:
        wf = format_weight(inst.weights[(u, v)])
        wb = format_weight(inst.weights[(v, u)])
        lines.append(f"{u} {v} {wf} {wb}")
    return "\n".join(lines) + "\n"


def write_instance(obj: Instance) -> str:
    if isinstance(obj, AocmInstance):
        return write_aocm(obj)
    if isinstance(obj, Digraph):
        return write_digraph(obj)
    if isinstance(obj, UndirectedGraph):
        return write_undirected(obj)
    raise InputError(f"cannot serialize {type(obj).__name__}")


def save_instance(obj: Instance, path: str | Path) -> None:
    Path(path).write_text(write_instance(obj))


def write_conflict_graph(cg: ConflictGraph) -> str:
    """Node-weighted conflict graph: header 'n m conflict', node lines, edge lines."""
    lines = [f"{len(cg.arcs)} {len(cg.conflicts)} conflict"]
    for i, w in enumerate(cg.weights):
        lines.append(f"{i} {format_weight(w)}")
    lines.extend(f"{i} {j}" for i, j in cg.conflicts)
    return "\n".join(lines) + "\n"


def parse_conflict_graph(
    text: str, source: str = "<string>"
) -> tuple[tuple[float, ...], tuple[tuple[int, int], ...]]:
    """Read back a conflict-graph file as (node weights, conflict edges)."""
    lines = _significant_lines(text)
    if not lines:
        raise InputError(f"{source}: empty conflict-graph file")
    lineno, header = lines[0]
    tokens = header.split()
    if len(tokens) != 3 or tokens[2] != "conflict":
        raise InputError(f"{source}:{lineno}: header must be 'n m conflict'")
    n = _parse_int(tokens[0], lineno, source)
    m = _parse_int(tokens[1], lineno, source)
    body = lines[1:]
    if len(body) != n + m:
        raise InputError(f"{source}: expected {n} node lines and {m} edge lines")
    weights = [0.0] * n
    for ln, line in body[:n]:
        fields = line.split()
        if len(fields) != 2:
            raise InputError(f"{source}:{ln}: node lines need 2 fields")
        i = _parse_int(fields[0], ln, source)
        if i < 0 or i >= n:
            raise InputError(f"{source}:{ln}: node {i} out of range")
        weights[i] = _parse_float(fields[1], ln, source)
    edges = []
    for ln, line in body[n:]:
        fields = line.split()
        if len(fields) != 2:
            raise InputError(f"{source}:{ln}: edge lines need 2 fields")
        i = _parse_int(fields[0], ln, source)
        j = _parse_int(fields[1], ln, source)
        if not (0 <= i < n and 0 <= j < n):
            raise InputError(f"{source}:{ln}: edge endpoint out of range")
        edges.append((i, j))
    return tuple(weights), tuple(edges)
