"""ocmatch benchmark: seeded CLI workloads, oracle-checked, optionally traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ocm-large --seed 1 --seconds 35 --trace 0

The run measures set-up time in fresh interpreters, then starts a fresh
worker process (worker.py) that drives ``ocmatch.cli.main`` as a closed
loop with one client for about ``--seconds`` seconds. Afterwards every
report is checked against the independent oracle in oracle.py, outside
the timed region. With ``--trace 0`` the last stdout line carries the
end-to-end metrics, with timings scaled to a nominal machine speed
(speed.py); with ``--trace 1`` it carries the per-layer metrics of a
traced run. The line before it is a JSON object with the details:
environment, deterministic work counts, stdout digest, the raw timings,
and the latency tail where the run has enough requests for one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import corpus
import oracle
from speed import at_nominal_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
SETUP_CODE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from speed import reference_work
before = reference_work()
start = time.perf_counter()
import ocmatch.cli
ocmatch.cli.build_parser()
elapsed = time.perf_counter() - start
print(elapsed, before, reference_work())
"""
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)
WORKER_GRACE_S = 120

END_TO_END = {"latency_ms_gmean_norm": "ms", "peak_rss_mb": "MB", "setup_s": "s"}

FUNCTION_LAYERS = (
    "ocm.max_simple_two_matching",
    "ocm.two_matching_to_orientation",
    "matching.max_weight_control_matching",
    "aocm.solve_aocm_brute",
    "aocm.solve_aocm_exact",
    "aocm.solve_aocm_greedy",
    "mwis.max_weight_independent_set",
    "reductions.aocm_to_wis",
    "reductions.dcc3_to_aocm",
    "reductions.build_gadget_f",
    "reductions.classify_vertex_cases",
    "reductions.decode_from_matching",
    "reductions.lreduction_report",
    "oracles.brute_mwis",
    "oracles.brute_3dcc",
    "verify.suite",
    "fileio.load_instance",
    "report.to_text",
)
MODULE_LAYERS = (
    "cli", "fileio", "report", "graphs", "ocm", "matching", "aocm",
    "mwis", "reductions", "oracles", "verify", "generators",
)
COUNTER_LAYERS = (
    "ocm.aux_nodes",
    "matching.canonical_nodes",
    "aocm.orientations_scanned",
    "aocm.capped",
    "mwis.conflict_vertices",
    "fileio.bytes_in",
    "report.bytes_out",
)


def per_layer_units() -> dict[str, str]:
    units = {"cli.request.s": "s", "cli.request.calls": "count"}
    for name in FUNCTION_LAYERS:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in MODULE_LAYERS:
        units[f"{name}.self_s"] = "s"
    for name in COUNTER_LAYERS:
        units[name] = "bytes" if "bytes" in name else "count"
    units["trace.spans"] = "count"
    units["trace.overhead_frac"] = "ratio"
    return units


def measure_setup() -> list[tuple[float, float, float]]:
    """Import ocmatch.cli and build the parser in fresh interpreters.

    Each sample is (seconds, reference before, reference after).
    """
    samples = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        if i:  # the first import may compile bytecode; users pay that once
            seconds, before, after = map(float, out.stdout.split())
            samples.append((seconds, before, after))
    return samples


def run_worker(args: argparse.Namespace, workdir: Path) -> dict:
    out = workdir / "worker.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--src", str(SRC), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--out", str(out),
    ]
    subprocess.run(cmd, cwd=ROOT, timeout=args.seconds + WORKER_GRACE_S, check=True)
    return json.loads(out.read_text())


class Checker:
    """Checks each report once per distinct request, caching the oracle values."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.rounds: dict[int, list[corpus.Request]] = {}
        self.optimum: dict[tuple[int, int], int] = {}
        self.first_stdout: dict[tuple[int, int], str] = {}

    def request(self, rnd: int, slot: int) -> corpus.Request:
        key = rnd % corpus.DISTINCT_ROUNDS
        if key not in self.rounds:
            self.rounds[key] = corpus.make_round(self.workload, self.seed, key)
        return self.rounds[key][slot]

    def problems(self, call: dict) -> list[str]:
        if call["error"] is not None:
            return [call["error"].strip().splitlines()[-1]]
        if call["code"] != 0:
            return [f"exit code {call['code']}: {call['stderr'].strip()[-300:]}"]
        rnd = call["round"] % corpus.DISTINCT_ROUNDS
        key = (rnd, call["slot"])
        req = self.request(rnd, call["slot"])
        if key in self.first_stdout:
            if call["stdout"] != self.first_stdout[key]:
                return ["stdout differs from an earlier run of the same request"]
            return []
        self.first_stdout[key] = call["stdout"]
        if req.kind.startswith("verify-"):
            return oracle.check_verify(call["stdout"], req.args[1], int(req.args[3]))
        if key not in self.optimum:
            solve = oracle.ocm_optimum if req.kind == "solve-ocm" else oracle.aocm_optimum
            self.optimum[key] = solve(req.instance)
        return oracle.check_solve(call["stdout"], req.instance, self.optimum[key], req.kind)


def input_counts(requests: list[corpus.Request]) -> dict[str, int]:
    insts = [r.instance for r in requests if r.instance is not None]
    ocm = [i for i in insts if i.weights is None]
    return {
        "requests": len(requests),
        "sum_n": sum(i.n for i in insts),
        "sum_m": sum(i.m for i in insts),
        "ocm.aux_nodes": sum(2 * i.n + 2 * i.m for i in ocm),
        "bytes_in": sum(len(i.to_text().encode()) for i in insts),
    }


def tail(latencies_ms: list[float]) -> dict:
    n = len(latencies_ms)
    ranked = sorted(latencies_ms)
    for q in reversed(TAIL_LADDER):
        if n * (100.0 - q) / 100.0 >= 10:
            rank = max(1, -(-n * q // 100))  # nearest-rank percentile
            return {"percentile": q, "value": ranked[int(rank) - 1], "unit": "ms", "samples": n}
    return {"omitted": f"{n} requests; p{TAIL_LADDER[0]:g} needs at least 40", "samples": n}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "ocmatch").glob("*.py")))


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return out.stdout.strip() or None


def layer_metrics(
    index: dict, calls: list[dict], round0: list[corpus.Request]
) -> tuple[dict, dict, list[str]]:
    """Per-pass self times and counts from the traced passes, plus consistency problems."""
    names = index["names"]
    spans = index["spans"]
    request_pass = {c["request"]: c["pair"] for c in calls if c["traced"]}
    n = len(spans["name"])
    dur = [spans["end"][i] - spans["start"][i] for i in range(n)]
    self_time = list(dur)
    for i in range(n):
        p = spans["parent"][i]
        if p >= 0:
            self_time[p] -= dur[i]
    passes = sorted(set(request_pass.values()))
    per_pass = {p: {} for p in passes}
    root_dur: dict[int, float] = {}
    root_self_sum: dict[int, float] = {}
    for i in range(n):
        req = spans["request"][i]
        name = names[spans["name"][i]]
        if name.startswith("verify.verify_"):
            name = "verify.suite"
        acc = per_pass[request_pass[req]]
        s, c = acc.get(name, (0.0, 0))
        acc[name] = (s + self_time[i], c + 1)
        root_self_sum[req] = root_self_sum.get(req, 0.0) + self_time[i]
        if spans["parent"][i] < 0:
            root_dur[req] = dur[i]
    problems = []
    for req, total in root_dur.items():
        if abs(root_self_sum[req] - total) > 1e-6 * max(1.0, total):
            problems.append(f"request {req}: self times sum to {root_self_sum[req]}, root lasted {total}")
    counters: dict[int, dict[str, int]] = {p: {} for p in passes}
    for cname, flat in index["counters"].items():
        for req, amount in flat:
            acc = counters[request_pass[req]]
            acc[cname] = acc.get(cname, 0) + amount

    values: dict[str, list[float]] = {}
    count_sets: dict[str, set] = {}
    for p in passes:
        acc = per_pass[p]
        row: dict[str, float] = {
            "cli.request.s": sum(dur[i] for i in range(n) if spans["parent"][i] < 0 and request_pass[spans["request"][i]] == p),
            "cli.request.calls": acc.get("cli.request", (0, 0))[1],
            "trace.spans": sum(c for _, c in acc.values()),
        }
        for name in FUNCTION_LAYERS:
            s, c = acc.get(name, (0.0, 0))
            row[f"{name}.self_s"] = s
            row[f"{name}.calls"] = c
        for module in MODULE_LAYERS:
            row[f"{module}.self_s"] = sum(s for k, (s, _) in acc.items() if k.split(".", 1)[0] == module)
        for cname in COUNTER_LAYERS:
            row[cname] = counters[p].get(cname, 0)
        for key, value in row.items():
            values.setdefault(key, []).append(value)
            if not key.endswith("_s") and not key.endswith(".s"):
                count_sets.setdefault(key, set()).add(value)
    for key, seen in count_sets.items():
        if len(seen) != 1:
            problems.append(f"{key} differs between identical traced passes: {sorted(seen)}")
    # Counts repeat exactly between passes (checked above); times take the median.
    metrics = {key: v[0] if key in count_sets else statistics.median(v) for key, v in values.items()}

    # Calls the workload definition implies, so that no span goes missing.
    kinds = [r.kind for r in round0]
    inputs = input_counts(round0)
    expected = {
        "cli.request.calls": len(kinds),
        "report.to_text.calls": len(kinds),
        "fileio.load_instance.calls": sum(r.file_name is not None for r in round0),
        "fileio.bytes_in": inputs["bytes_in"],
    }
    if "solve-ocm" in kinds:
        expected["ocm.max_simple_two_matching.calls"] = kinds.count("solve-ocm")
        expected["ocm.aux_nodes"] = inputs["ocm.aux_nodes"]
    if "solve-aocm" in kinds:
        expected["aocm.solve_aocm_exact.calls"] = kinds.count("solve-aocm")
        expected["mwis.max_weight_independent_set.calls"] = kinds.count("solve-aocm")
        expected["mwis.conflict_vertices"] = 2 * sum(r.instance.m for r in round0)
    if any(k.startswith("verify-") for k in kinds):
        expected["verify.suite.calls"] = len(kinds)
    for key, want in expected.items():
        if metrics[key] != want:
            problems.append(f"traced {key} = {metrics[key]}, the inputs imply {want}")
    counts = {k: metrics[k] for k in ("ocm.aux_nodes", "aocm.orientations_scanned", "mwis.conflict_vertices", "matching.canonical_nodes")}
    return metrics, counts, problems


def nominal_seconds(calls: list[dict], ref_after: float) -> list[float]:
    """Each request's latency at nominal speed, from the reference work on either side."""
    refs = [c["ref_before"] for c in calls] + [ref_after]
    return [at_nominal_speed(c["seconds"], refs[i], refs[i + 1]) for i, c in enumerate(calls)]


def end_to_end(
    calls: list[dict], ref_after: float, setup: list[tuple[float, float, float]], peak_rss_mb: float
) -> tuple[dict, dict]:
    """The gated metrics, and the ones printed alongside them without a bound.

    Timings are gated at nominal machine speed (speed.py): each request's
    latency, and each set-up sample, is scaled by the reference work timed
    just before and just after it.
    """
    lat = [c["seconds"] * 1000.0 for c in calls]
    refs = [c["ref_before"] for c in calls] + [ref_after]
    norm = [1000.0 * s for s in nominal_seconds(calls, ref_after)]
    values = {
        "latency_ms_gmean_norm": statistics.geometric_mean(norm),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(at_nominal_speed(*sample) for sample in setup),
    }
    gated = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    reported = {
        "req_per_s_norm": {"value": 1000.0 * len(norm) / sum(norm), "unit": "1/s"},
        "req_per_s": {"value": 1000.0 * len(lat) / sum(lat), "unit": "1/s"},
        "latency_ms_gmean": {"value": statistics.geometric_mean(lat), "unit": "ms"},
        "latency_ms_p50": {"value": statistics.median(lat), "unit": "ms"},
        "latency_ms_mean": {"value": statistics.mean(lat), "unit": "ms"},
        "latency_ms_tail": tail(lat),
        "failed_frac": {"value": sum(c["failed"] for c in calls) / len(calls), "unit": "ratio"},
        "setup_s_raw": {"value": statistics.median(s for s, _, _ in setup), "unit": "s"},
        "ref_s_median": {"value": statistics.median(refs), "unit": "s"},
    }
    return gated, reported


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "ocmatch" / "cli.py").is_file():
        print(f"perfbench: no ocmatch sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup = measure_setup()
        result = run_worker(args, workdir)
        calls = result["calls"]
        checker = Checker(args.workload, args.seed)
        failures = []
        for call in calls:
            bad = checker.problems(call)
            call["failed"] = bool(bad)
            if bad:
                failures.append(f"round {call['round']} slot {call['slot']}: {'; '.join(bad)}")
        round0 = corpus.make_round(args.workload, args.seed, 0)
        stdout0 = "".join(checker.first_stdout.get((0, s), "") for s in range(len(round0)))
        details = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "environment": {
                "ocmatch_file": result["ocmatch_file"],
                "git_commit": git_commit(),
                "python": result["python"],
                "networkx": result["networkx"],
                "nproc": os.cpu_count(),
                "src_lines": src_lines(),
            },
            "round0": {
                **input_counts(round0),
                "stdout_sha256": hashlib.sha256(stdout0.encode()).hexdigest(),
            },
            "setup_s_samples": setup,
        }
        problems: list[str] = []
        if args.trace:
            index = json.loads((workdir / "spans.json").read_text())
            metrics, counts, problems = layer_metrics(index, calls, round0)
            norm = nominal_seconds(calls, result["ref_after"])
            traced = sum(t for t, c in zip(norm, calls) if c["traced"])
            plain = sum(t for t, c in zip(norm, calls) if not c["traced"])
            metrics["trace.overhead_frac"] = traced / plain - 1.0
            details["round0"].update(counts)
            details["passes"] = len({c["pair"] for c in calls})
            details["patched_bindings"] = index["patched_bindings"]
            out = {k: {"value": metrics[k], "unit": u} for k, u in per_layer_units().items()}
        else:
            out, reported = end_to_end(calls, result["ref_after"], setup, result["peak_rss_mb"])
            details["reported"] = reported
            details["rounds"] = len({c["round"] for c in calls})
            for name, metric in reported.items():
                if "value" in metric:
                    print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
        details["problems"] = (failures + problems)[:20]
        for name, metric in out.items():
            print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
        print(json.dumps(details))
        print(json.dumps({
            "correct": not failures and not problems,
            "attempted": len(calls),
            "failed": sum(c["failed"] for c in calls),
            "metrics": out,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
