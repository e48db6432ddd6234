"""End-to-end acceptance checks against exhaustive oracles.

Each test prints one PASS line with its headline numbers so a plain
pytest -s run doubles as an acceptance report. Every equality here is
exact: the solvers under test and the independent oracles must agree to
the digit, not approximately.
"""

import ast
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import ocmatch
from ocmatch import verify
from ocmatch.errors import ContractError
from ocmatch.generators import random_connected_graph, random_digraph
from ocmatch.graphs import complete_graph
from ocmatch.matching import driver_count
from ocmatch.ocm import solve_ocm
from ocmatch.oracles import (
    brute_2matching,
    brute_control_matching,
    enumerate_orientations,
)
from ocmatch.fileio import write_aocm, write_digraph, write_undirected
from ocmatch.graphs import AocmInstance, Digraph, path_graph
from ocmatch.reductions import build_gadget_f
from ocmatch.verify import (
    verify_lemma1,
    verify_lemma2,
    verify_lemma3,
    verify_lreduction,
)


def test_orientation_solver_is_optimal_on_random_connected_graphs():
    """Criterion 1: the polynomial solver ties two independent oracles."""
    rng = random.Random(0)
    for i in range(500):
        n = rng.randint(1, 7)
        m = rng.randint(n - 1, min(12, n * (n - 1) // 2))
        g = random_connected_graph(rng, n, m)
        _, matching = solve_ocm(g)
        two_matching = brute_2matching(g)
        sweep = 0
        for o in enumerate_orientations(g):
            sweep = max(sweep, brute_control_matching(o).size)
        assert matching.size == two_matching == sweep, (
            f"graph {i} (n={n}, m={m}): solver {matching.size}, "
            f"2-matching {two_matching}, orientation sweep {sweep}"
        )
    print("PASS criterion 1: 500 random connected graphs, three routes agree exactly")


def test_conflict_graph_reduction_preserves_the_optimum():
    """Criterion 2: exact MWIS on the conflict graph equals the brute optimum."""
    result = verify_lemma1(seed=0, samples=200, max_n=6, max_edges=10)
    assert result.passed, result.counterexamples
    stats = dict(result.stats)
    assert int(stats["samples"]) >= 200
    print("PASS criterion 2: 200 instances, conflict-graph MWIS == brute optimum")


def test_cycle_cover_reduction_decides_exactly():
    """Criterion 3: value n on the reduced instance iff a length->=3 cycle cover exists."""
    result = verify_lemma2(seed=0, samples=300, max_n=7)
    assert result.passed, result.counterexamples
    stats = dict(result.stats)
    assert int(stats["exhaustive_digraphs"]) == 4096
    assert int(stats["samples"]) >= 300
    print(
        "PASS criterion 3: all 4096 digraphs on 4 nodes plus 300 random digraphs, "
        "equivalence and extracted covers verified"
    )


def test_gadget_bound_holds_on_every_orientation():
    """Criterion 4: exhaustive 2^14 sweep of the gadget host built from K4."""
    result = verify_lemma3(seed=0)
    assert result.passed, result.counterexamples
    stats = dict(result.stats)
    assert stats["optimum"] == "9"
    assert stats["equality_at_optimum"] == "True"
    assert stats["v3_coefficient"] == "1"
    print(
        "PASS criterion 4: 16384 orientations swept, optimum 9 = 2n + 1, "
        "bound tight with saturated-vertex coefficient 1"
    )


def test_gadget_sweep_reports_failures_in_mask_order(monkeypatch):
    """A failing sweep lists its masks in counter order, whatever order it visits them in."""

    def fail(gi, arcs):
        raise ContractError("x")

    monkeypatch.setattr(verify, "decode_from_matching", fail)
    result = verify_lemma3(seed=0, samples=5)
    assert not result.passed
    assert result.counterexamples == tuple(f"mask={m}: x" for m in range(25)) + (
        "... 16360 more counterexamples suppressed",
    )


def test_approximation_preserving_reduction_constants():
    """Criterion 5: both gadget optima and both inequalities at alpha=12, beta=1."""
    result = verify_lreduction(seed=0, samples=1000)
    assert result.passed, result.counterexamples
    stats = dict(result.stats)
    assert stats["opt_aocm[K4]"] == "9"
    assert stats["opt_is[K4]"] == "1"
    assert stats["opt_aocm[K3,3]"] == "15"
    assert stats["opt_is[K3,3]"] == "3"
    print(
        "PASS criterion 5: optima 9 and 15 confirmed, inequalities hold on "
        "1000 random orientations per gadget"
    )


def test_driver_formula_matches_the_oracle():
    """Criterion 6: driver count is max(1, n - maximum matching size)."""
    rng = random.Random(0)
    for i in range(100):
        n = rng.randint(1, 8)
        d = random_digraph(rng, n, 10)
        expected = max(1, n - brute_control_matching(d).size)
        assert driver_count(d) == expected, f"digraph {i} (n={n}): {d.arcs}"
    print("PASS criterion 6: 100 random digraphs, driver formula exact")


def _python(args, cwd):
    """Run ``python *args`` in a fresh interpreter that imports this ocmatch.

    The suite may find the package through a relative PYTHONPATH (such as
    ``PYTHONPATH=src``), which a child started in ``cwd`` would resolve
    elsewhere. The absolute directory holding the imported package therefore
    goes first, ahead of any existing entries.
    """
    root = str(Path(ocmatch.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        check=False,
    )


def _run_cli(argv, cwd):
    proc = _python(["-m", "ocmatch", *argv], cwd)
    assert proc.returncode == 0, (
        f"ocmatch {argv} exited with code {proc.returncode}; stderr:\n{proc.stderr}"
    )
    return proc.stdout


def test_cli_reports_are_byte_identical_across_runs(tmp_path):
    """Criterion 7: every verb, including partitioned brute force, is deterministic."""
    # The CLI children must run the code the rest of the suite tests.
    probe = _python(["-c", "import ocmatch; print(ocmatch.__file__)"], tmp_path)
    assert probe.returncode == 0, f"child cannot import ocmatch; stderr:\n{probe.stderr}"
    assert Path(probe.stdout.strip()).resolve() == Path(ocmatch.__file__).resolve(), (
        f"CLI children import {probe.stdout.strip()}, not {ocmatch.__file__}"
    )
    c3 = tmp_path / "c3.txt"
    c3.write_text("3 3\n0 1\n1 2\n0 2\n")
    weighted = tmp_path / "weighted.txt"
    weighted.write_text(
        write_aocm(
            AocmInstance(
                path_graph(3),
                {(0, 1): 2.0, (1, 0): 1.5, (1, 2): 3.0, (2, 1): 0.0},
            )
        )
    )
    triangle = tmp_path / "triangle.txt"
    triangle.write_text(write_digraph(Digraph(3, ((0, 1), (1, 2), (2, 0)))))
    k4 = tmp_path / "k4.txt"
    k4.write_text(write_undirected(complete_graph(4)))
    host = tmp_path / "host.txt"
    host.write_text(write_aocm(build_gadget_f(complete_graph(4)).host))

    commands = [
        ["solve-ocm", str(c3)],
        ["solve-aocm", str(weighted), "--mode", "brute"],
        ["solve-aocm", str(weighted), "--mode", "exact"],
        ["solve-aocm", str(weighted), "--mode", "greedy"],
        ["reduce", "3dcc", str(triangle), str(tmp_path / "r1.txt")],
        ["reduce", "wis", str(weighted), str(tmp_path / "r2.txt")],
        ["reduce", "is3", str(k4), str(tmp_path / "r3.txt")],
        ["verify", "lemma1", "--samples", "10", "--max-n", "4"],
        ["verify", "lemma2", "--samples", "8", "--max-n", "4"],
        ["verify", "lemma3", "--samples", "10"],
        ["verify", "lreduction", "--samples", "10"],
        ["export-dot", str(c3), str(tmp_path / "c3.dot")],
        ["export-dot", str(host), str(tmp_path / "host.dot"), "--gadget-of", str(k4)],
    ]
    for argv in commands:
        first = _run_cli(argv, tmp_path)
        second = _run_cli(argv, tmp_path)
        assert first == second, f"stdout differs across runs of {argv}"
    print("PASS criterion 7: 13 commands double-run byte-identical")


def test_package_imports_no_runtime_dependency(tmp_path):
    """The package and its CLI load from the standard library alone."""
    code = "import sys, ocmatch, ocmatch.cli; print(ocmatch.__file__); print(sorted(sys.modules))"
    probe = _python(["-c", code], tmp_path)
    assert probe.returncode == 0, f"child cannot import ocmatch; stderr:\n{probe.stderr}"
    where, modules = probe.stdout.splitlines()
    assert Path(where).resolve() == Path(ocmatch.__file__).resolve()
    assert "'networkx'" not in modules, "importing ocmatch pulled in networkx"


def test_package_modules_import_no_unused_names():
    """Every name a package module imports appears again in that module's text.

    A name listed in ``__all__`` appears there as a string, so a
    re-export counts as a use.
    """
    unused = []
    for path in sorted(Path(ocmatch.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        imported = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported.append((alias.asname or alias.name).split(".")[0])
                for i in range(node.lineno - 1, node.end_lineno):
                    lines[i] = ""
        rest = "\n".join(lines)
        unused += [
            f"{path.name}: {name}" for name in imported if not re.search(rf"\b{name}\b", rest)
        ]
    assert not unused, unused
