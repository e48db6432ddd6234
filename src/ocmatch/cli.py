"""Command-line front end.

Verbs: solve-ocm, solve-aocm, reduce, verify, export-dot. Every verb
prints one RunReport to stdout; wall-clock timing goes to stderr as a
comment so repeated runs of the same command produce byte-identical
stdout. Exit codes: 0 success, 1 verification failure, 2 input error,
3 resource cap (a size or work budget, or out of memory), 4 internal error
(a broken internal check; the traceback goes to stderr).

``main`` builds its argument parser once per process, on first use, and
dispatches each verb through ``_COMMANDS``. The parser holds no command
functions, so rebinding a ``cmd_*`` function (or a ``_COMMANDS`` value)
takes effect on the next call.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
import traceback
from pathlib import Path

from .aocm import solve_aocm_brute, solve_aocm_exact, solve_aocm_greedy
from .errors import ContractError, InputError, ResourceLimitError
from .fileio import format_weight, load_instance, write_aocm, write_conflict_graph
from .graphs import Arc, AocmInstance, Digraph, UndirectedGraph
from .matching import max_control_matching
from .ocm import solve_ocm
from .reductions import aocm_to_wis, build_gadget_f, dcc3_to_aocm
from .report import RunReport
from .verify import verify_lemma1, verify_lemma2, verify_lemma3, verify_lreduction

_SUITES = {
    "lemma1": verify_lemma1,
    "lemma2": verify_lemma2,
    "lemma3": verify_lemma3,
    "lreduction": verify_lreduction,
}

_PALETTE = (
    "blue",
    "darkgreen",
    "orange",
    "purple",
    "brown",
    "cadetblue",
    "crimson",
    "goldenrod",
)


def _arc_line(arc: Arc) -> str:
    return f"{arc[0]} -> {arc[1]}"


def _drivers(node_count: int, matched: int) -> int:
    return max(1, node_count - matched)


def _write_output(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def cmd_solve_ocm(args: argparse.Namespace) -> tuple[RunReport, bool]:
    obj = load_instance(args.file)
    if not isinstance(obj, UndirectedGraph):
        raise InputError(f"{args.file}: solve-ocm needs an undirected instance")
    orientation, matching = solve_ocm(obj)
    rep = RunReport("solve-ocm")
    rep.add("nodes", obj.node_count)
    rep.add("edges", obj.edge_count)
    rep.add("value", matching.size)
    rep.add("matching_size", matching.size)
    rep.add("drivers", _drivers(obj.node_count, matching.size))
    rep.add("guarantee", "exact")
    rep.add_block("orientation", [_arc_line(a) for a in orientation.arcs()])
    rep.add_block("matching", [_arc_line(a) for a in matching.arcs])
    return rep, False


def cmd_solve_aocm(args: argparse.Namespace) -> tuple[RunReport, bool]:
    obj = load_instance(args.file)
    if not isinstance(obj, AocmInstance):
        raise InputError(f"{args.file}: solve-aocm needs a weighted instance")
    if args.mode == "brute":
        sol = solve_aocm_brute(obj)
    elif args.mode == "exact":
        sol = solve_aocm_exact(obj)
    else:
        sol = solve_aocm_greedy(obj)
    rep = RunReport("solve-aocm")
    rep.add("mode", args.mode)
    rep.add("nodes", obj.graph.node_count)
    rep.add("edges", obj.graph.edge_count)
    rep.add("value", format_weight(sol.value))
    rep.add("matching_size", sol.matching.size)
    rep.add("drivers", _drivers(obj.graph.node_count, sol.matching.size))
    rep.add("guarantee", "heuristic" if args.mode == "greedy" else "exact")
    rep.add_block("orientation", [_arc_line(a) for a in sol.orientation.arcs()])
    rep.add_block("matching", [_arc_line(a) for a in sol.matching.arcs])
    return rep, False


def cmd_reduce(args: argparse.Namespace) -> tuple[RunReport, bool]:
    obj = load_instance(args.input)
    rep = RunReport("reduce")
    rep.add("kind", args.kind)
    if args.kind == "3dcc":
        if not isinstance(obj, Digraph):
            raise InputError(f"{args.input}: reduce 3dcc needs a directed instance")
        inst = dcc3_to_aocm(obj)
        text = write_aocm(inst)
        rep.add("in_nodes", obj.node_count)
        rep.add("in_arcs", obj.arc_count)
        rep.add("out_nodes", inst.graph.node_count)
        rep.add("out_edges", inst.graph.edge_count)
        rep.add("cover_value", obj.node_count)
    elif args.kind == "wis":
        if not isinstance(obj, AocmInstance):
            raise InputError(f"{args.input}: reduce wis needs a weighted instance")
        cg = aocm_to_wis(obj)
        text = write_conflict_graph(cg)
        rep.add("in_nodes", obj.graph.node_count)
        rep.add("in_edges", obj.graph.edge_count)
        rep.add("out_nodes", len(cg.arcs))
        rep.add("out_conflicts", len(cg.conflicts))
    else:
        if not isinstance(obj, UndirectedGraph):
            raise InputError(f"{args.input}: reduce is3 needs an undirected instance")
        gi = build_gadget_f(obj)
        text = write_aocm(gi.host)
        rep.add("in_nodes", obj.node_count)
        rep.add("in_edges", obj.edge_count)
        rep.add("out_nodes", gi.host.graph.node_count)
        rep.add("out_edges", gi.host.graph.edge_count)
        rep.add("weight_one_arcs", 5 * obj.node_count)
    _write_output(args.output, text)
    rep.add("out_path", args.output)
    return rep, False


def cmd_verify(args: argparse.Namespace) -> tuple[RunReport, bool]:
    kwargs: dict[str, int] = {"seed": args.seed}
    if args.samples is not None:
        if args.samples < 0:
            raise InputError(f"--samples must be nonnegative, got {args.samples}")
        kwargs["samples"] = args.samples
    if args.max_n is not None:
        if args.suite not in ("lemma1", "lemma2"):
            raise InputError("--max-n applies to the lemma1 and lemma2 suites")
        if args.max_n < 1:
            raise InputError(f"--max-n must be at least 1, got {args.max_n}")
        kwargs["max_n"] = args.max_n
    result = _SUITES[args.suite](**kwargs)
    rep = RunReport("verify")
    rep.add("suite", result.suite)
    rep.add("passed", result.passed)
    for key, value in result.stats:
        rep.add(key, value)
    rep.add_block("counterexamples", list(result.counterexamples))
    return rep, not result.passed


def _dot_text(
    node_count: int,
    arcs: list[Arc],
    weights: dict[Arc, float] | None,
    matched: set[Arc],
    colors: dict[Arc, str],
    labels: dict[int, str],
) -> str:
    lines = ["digraph ocmatch {"]
    for node in range(node_count):
        label = labels.get(node)
        suffix = f' [label="{label}"]' if label else ""
        lines.append(f"  {node}{suffix};")
    for u, v in arcs:
        attrs = []
        if weights is not None:
            w = weights[(u, v)]
            attrs.append(f'label="{format_weight(w)}"')
            if w == 0:
                attrs.append('style="dashed"')
        if (u, v) in colors:
            attrs.append(f'color="{colors[(u, v)]}"')
        if (u, v) in matched:
            attrs.append('penwidth="3"')
            if (u, v) not in colors:
                attrs.append('color="red"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {u} -> {v}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_export_dot(args: argparse.Namespace) -> tuple[RunReport, bool]:
    obj = load_instance(args.input)
    colors: dict[Arc, str] = {}
    labels: dict[int, str] = {}
    if args.gadget_of is not None:
        src = load_instance(args.gadget_of)
        if not isinstance(src, UndirectedGraph):
            raise InputError(f"{args.gadget_of}: --gadget-of needs an undirected instance")
        gi = build_gadget_f(src)
        if not isinstance(obj, AocmInstance) or obj != gi.host:
            raise InputError(
                f"{args.input} is not the gadget built from {args.gadget_of}"
            )
        colors = {
            arc: _PALETTE[vertex % len(_PALETTE)]
            for arc, (_, vertex) in gi.arc_role.items()
        }
        labels = {node: f"t({u},{v})" for node, (u, v) in gi.t_label.items()}
    if isinstance(obj, UndirectedGraph):
        orientation, matching = solve_ocm(obj)
        node_count = obj.node_count
        arcs = list(orientation.arcs())
        weights = None
        matched = set(matching.arcs)
    elif isinstance(obj, Digraph):
        matching = max_control_matching(obj)
        node_count = obj.node_count
        arcs = list(obj.arcs)
        weights = None
        matched = set(matching.arcs)
    else:
        sol = solve_aocm_exact(obj)
        node_count = obj.graph.node_count
        arcs = list(obj.ordered_arcs())
        weights = dict(obj.weights)
        matched = set(sol.matching.arcs)
    text = _dot_text(node_count, arcs, weights, matched, colors, labels)
    _write_output(args.output, text)
    rep = RunReport("export-dot")
    rep.add("nodes", node_count)
    rep.add("arcs", len(arcs))
    rep.add("matched", len(matched))
    rep.add("colored", bool(colors))
    rep.add("out_path", args.output)
    return rep, False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocmatch",
        description="Solve orientation control matching problems and "
        "verify the reductions around them.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("solve-ocm", help="orient an undirected graph for a maximum control matching")
    p.add_argument("file", help="undirected edge-list file")

    p = sub.add_parser("solve-aocm", help="solve a weighted instance with chosen guarantees")
    p.add_argument("file", help="weighted edge-list file")
    p.add_argument("--mode", choices=("brute", "exact", "greedy"), default="exact")

    p = sub.add_parser("reduce", help="write the reduced instance for a source problem")
    p.add_argument("kind", choices=("3dcc", "wis", "is3"))
    p.add_argument("input")
    p.add_argument("output")

    p = sub.add_parser("verify", help="run an invariant suite against its oracles")
    p.add_argument("suite", choices=tuple(_SUITES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=None, help="random cases per phase")
    p.add_argument("--max-n", type=int, default=None, help="size cap for random cases")

    p = sub.add_parser("export-dot", help="render an instance and its solution as a DOT file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument(
        "--gadget-of",
        default=None,
        metavar="CUBIC_FILE",
        help="color arcs by associated vertex of this cubic source graph",
    )
    return parser


_COMMANDS = {
    "solve-ocm": cmd_solve_ocm,
    "solve-aocm": cmd_solve_aocm,
    "reduce": cmd_reduce,
    "verify": cmd_verify,
    "export-dot": cmd_export_dot,
}

_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        report, failed = _COMMANDS[args.verb](args)
    except (InputError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        message = f"resource cap: {exc}"
        if exc.best_bound is not None:
            message += f" (best bound so far {format_weight(exc.best_bound)}"
            if exc.upper_bound is not None:
                message += f", upper bound {format_weight(exc.upper_bound)}"
            message += ")"
        print(message, file=sys.stderr)
        return 3
    except MemoryError:
        print("resource cap: out of memory", file=sys.stderr)
        return 3
    except (ContractError, AssertionError):
        print(f"internal error:\n{traceback.format_exc()}", end="", file=sys.stderr)
        return 4
    sys.stdout.write(report.to_text())
    elapsed_ms = round((time.perf_counter() - started) * 1000)
    print(f"# time_ms: {elapsed_ms}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
