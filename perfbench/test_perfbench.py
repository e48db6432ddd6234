"""Tests of the benchmark's own code: corpus, oracle, tracer and metric list.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

import corpus
import oracle
import run
import speed

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_rounds_are_deterministic_per_seed(workload):
    first = corpus.make_round(workload, 11, 3)
    again = corpus.make_round(workload, 11, 3)
    assert first == again
    texts = [r.instance.to_text() if r.instance else " ".join(r.args) for r in first]
    other = corpus.make_round(workload, 12, 3)
    assert texts != [r.instance.to_text() if r.instance else " ".join(r.args) for r in other]


def test_ocm_instances_are_connected_with_three_edges_per_node():
    for req in corpus.make_round("ocm-large", 5, 0):
        inst = req.instance
        assert inst.m == corpus.OCM_DEGREE * inst.n
        assert len(set(inst.edges)) == inst.m and all(u < v for u, v in inst.edges)
        parent = list(range(inst.n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v in inst.edges:
            parent[find(u)] = find(v)
        assert len({find(x) for x in range(inst.n)}) == 1


def test_aocm_round_pairs_bare_and_padded_instances():
    seen = set()
    for req in corpus.make_round("aocm-exact", 5, 0):
        inst = req.instance
        n = inst.m // 2
        pad = inst.n - n
        seen.add((n, pad))
        assert len({x for e in inst.edges for x in e}) <= n
        assert all(0 <= w <= corpus.AOCM_MAX_WEIGHT for pair in inst.weights for w in pair)
    bare = {(n, 0) for n in corpus.AOCM_SIZES}
    padded = set(zip(corpus.AOCM_SIZES, corpus.AOCM_PADS))
    assert seen == bare | padded
    assert all(30 <= pad <= 60 for pad in corpus.AOCM_PADS)


def _brute_aocm(inst: corpus.Instance) -> int:
    """Best control matching over every orientation and arc subset, by enumeration."""
    best = 0
    for mask in range(1 << inst.m):
        arcs = []
        for k, ((u, v), (wf, wb)) in enumerate(zip(inst.edges, inst.weights)):
            arcs.append((v, u, wb) if mask >> k & 1 else (u, v, wf))
        for r in range(len(arcs) + 1):
            for subset in itertools.combinations(arcs, r):
                tails = [a[0] for a in subset]
                heads = [a[1] for a in subset]
                if len(set(tails)) == len(tails) and len(set(heads)) == len(heads):
                    best = max(best, sum(a[2] for a in subset))
    return best


def test_ilp_optima_match_enumeration_on_small_instances():
    import random

    rng = random.Random(3)
    for _ in range(6):
        inst = corpus.weighted_instance(rng, 5, 6, 1)
        assert oracle.aocm_optimum(inst) == _brute_aocm(inst)
        uniform = corpus.Instance(inst.n, inst.edges, tuple((1, 1) for _ in inst.edges))
        assert oracle.ocm_optimum(corpus.Instance(inst.n, inst.edges)) == _brute_aocm(uniform)


TRIANGLE = corpus.Instance(3, ((0, 1), (0, 2), (1, 2)))
TRIANGLE_REPORT = """command: solve-ocm
nodes: 3
edges: 3
value: 3
matching_size: 3
drivers: 1
guarantee: exact
orientation:
  0 -> 1
  2 -> 0
  1 -> 2
matching:
  0 -> 1
  1 -> 2
  2 -> 0
end
"""
PATH = corpus.Instance(3, ((0, 1), (1, 2)), ((2, 1), (3, 0)))
PATH_REPORT = """command: solve-aocm
mode: exact
nodes: 3
edges: 2
value: 5
matching_size: 2
drivers: 1
guarantee: exact
orientation:
  0 -> 1
  1 -> 2
matching:
  0 -> 1
  1 -> 2
end
"""


def test_check_accepts_correct_reports():
    assert oracle.check_solve(TRIANGLE_REPORT, TRIANGLE, oracle.ocm_optimum(TRIANGLE), "solve-ocm") == []
    assert oracle.check_solve(PATH_REPORT, PATH, oracle.aocm_optimum(PATH), "solve-aocm") == []


@pytest.mark.parametrize(
    "old, new",
    [
        ("matching:\n  0 -> 1\n  1 -> 2\nend", "matching:\n  1 -> 0\n  1 -> 2\nend"),  # flipped arc
        ("value: 5", "value: 4"),
        ("value: 5\nmatching_size: 2", "value: 3\nmatching_size: 1"),
        ("drivers: 1", "drivers: 2"),
        ("orientation:\n  0 -> 1\n  1 -> 2", "orientation:\n  0 -> 1"),
        ("guarantee: exact", "guarantee: heuristic"),
    ],
)
def test_check_rejects_corrupted_aocm_reports(old, new):
    corrupted = PATH_REPORT.replace(old, new)
    assert corrupted != PATH_REPORT
    assert oracle.check_solve(corrupted, PATH, oracle.aocm_optimum(PATH), "solve-aocm")


def test_check_rejects_a_suboptimal_but_consistent_report():
    report = TRIANGLE_REPORT.replace("value: 3\nmatching_size: 3\ndrivers: 1", "value: 2\nmatching_size: 2\ndrivers: 1")
    report = report.replace("matching:\n  0 -> 1\n  1 -> 2\n  2 -> 0", "matching:\n  0 -> 1\n  1 -> 2")
    problems = oracle.check_solve(report, TRIANGLE, oracle.ocm_optimum(TRIANGLE), "solve-ocm")
    assert problems == ["value 2 is not the optimum 3"]


def test_check_rejects_a_failed_verify_report():
    ok = (
        "command: verify\nsuite: lemma1\npassed: True\nsamples: 200\nmax_n: 6\n"
        "max_edges: 10\nseed: 4\ncounterexamples:\nend\n"
    )
    assert oracle.check_verify(ok, "lemma1", 4) == []
    assert oracle.check_verify(ok.replace("passed: True", "passed: False"), "lemma1", 4)
    assert oracle.check_verify(ok.replace("counterexamples:\n", "counterexamples:\n  n=2 0-1:1/2\n"), "lemma1", 4)
    assert oracle.check_verify(ok, "lemma1", 5)


def test_verify_constants_derived_by_brute_force():
    assert oracle.hamiltonian_digraphs_on_4() > 0
    assert oracle.independence_number(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]) == 1


def test_tail_uses_the_highest_percentile_with_ten_beyond_it():
    assert run.tail(list(range(39)))["samples"] == 39 and "omitted" in run.tail(list(range(39)))
    assert run.tail([float(x) for x in range(1, 41)])["percentile"] == 75.0
    assert run.tail([float(x) for x in range(1, 101)]) == {
        "percentile": 90.0, "value": 90.0, "unit": "ms", "samples": 100
    }


def test_timings_scale_to_nominal_speed():
    nominal = speed.REF_NOMINAL_S
    calls = [
        {"seconds": 0.2, "ref_before": nominal, "failed": False},
        {"seconds": 0.8, "ref_before": nominal, "failed": False},
    ]
    setup = [(0.1, nominal, nominal), (0.3, 2 * nominal, 2 * nominal), (0.5, nominal, nominal)]
    gated, reported = run.end_to_end(calls, nominal, setup, 50.0)
    assert reported["req_per_s_norm"]["value"] == pytest.approx(2.0)
    assert gated["latency_ms_gmean_norm"]["value"] == pytest.approx(400.0)
    assert gated["setup_s"]["value"] == pytest.approx(0.15)
    assert reported["setup_s_raw"]["value"] == pytest.approx(0.3)
    # A core running at half speed doubles the raw latency but not the scaled one.
    slow = [dict(c, seconds=2 * c["seconds"], ref_before=2 * nominal) for c in calls]
    gated, reported = run.end_to_end(slow, 2 * nominal, setup, 50.0)
    assert reported["req_per_s_norm"]["value"] == pytest.approx(2.0)
    assert gated["latency_ms_gmean_norm"]["value"] == pytest.approx(400.0)
    assert reported["latency_ms_gmean"]["value"] == pytest.approx(800.0)


def test_benchmark_json_lists_the_metrics_run_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in doc["workloads"]] == list(corpus.WORKLOADS)


def test_tracer_wraps_every_binding_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import ocmatch
        from ocmatch import aocm, cli, reductions, verify
        from spans import Tracer
    finally:
        sys.path.remove(str(ROOT / "src"))
    original = aocm.max_weight_control_matching
    suites = dict(cli._SUITES)
    tracer = Tracer(ocmatch)
    tracer.install()
    try:
        wrapped = aocm.max_weight_control_matching
        assert wrapped is not original
        assert reductions.max_weight_control_matching is wrapped
        assert verify.max_weight_control_matching is wrapped
        assert all(cli._SUITES[k] is not suites[k] for k in suites)
    finally:
        tracer.uninstall()
    assert aocm.max_weight_control_matching is original
    assert cli._SUITES == suites
