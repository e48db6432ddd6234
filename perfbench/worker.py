"""Closed-loop client: one process, one client, one request at a time.

Run by run.py as a fresh interpreter per benchmark run, so its peak RSS
is the program's. It imports ocmatch from the given source directory by
absolute path, calls ``ocmatch.cli.main(argv)`` once per request with
stdout and stderr captured, and writes what it saw to a JSON file.
Instance files are written before each round starts, outside the timed
region.

A fixed reference loop (speed.py) is timed before each request and
after the last one. Untraced mode sends rounds of distinct instances
until the next round would overrun the time budget. Traced mode repeats round 0, alternating
a traced and an untraced pass, so the untraced passes give the tracing
overhead on identical requests.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import corpus
from speed import reference_work


def _write_round(requests: list[corpus.Request], workdir: Path) -> list[list[str]]:
    argvs = []
    for req in requests:
        path = None
        if req.file_name is not None:
            path = str(workdir / req.file_name)
            Path(path).write_text(req.instance.to_text())
        argvs.append(req.argv(path))
    return argvs


def _call(main, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed request, not a failed benchmark
            code = None
            error = traceback.format_exc()
        elapsed = perf_counter() - start
    return {
        "seconds": elapsed,
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
        "error": error,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sys.path.insert(0, args.src)
    import networkx
    import ocmatch
    import ocmatch.cli

    src = Path(args.src).resolve()
    if src not in Path(ocmatch.__file__).resolve().parents:
        raise SystemExit(f"imported ocmatch from {ocmatch.__file__}, not from {src}")
    workdir = Path(args.workdir)
    calls: list[dict] = []
    started = perf_counter()
    result: dict = {
        "ocmatch_file": ocmatch.__file__,
        "python": sys.version.split()[0],
        "networkx": networkx.__version__,
    }

    if not args.trace:
        rnd = 0
        while True:
            requests = corpus.make_round(args.workload, args.seed, rnd % corpus.DISTINCT_ROUNDS)
            argvs = _write_round(requests, workdir)
            for slot, argv in enumerate(argvs):
                ref = reference_work()
                call = _call(ocmatch.cli.main, argv)
                call.update(round=rnd, slot=slot, ref_before=ref)
                calls.append(call)
            rnd += 1
            elapsed = perf_counter() - started
            if elapsed * (rnd + 1) / rnd > args.seconds:
                break
    else:
        from spans import Tracer

        tracer = Tracer(ocmatch)
        argvs = _write_round(corpus.make_round(args.workload, args.seed, 0), workdir)
        request = 0
        pair = 0
        while True:
            # Alternate which pass goes first so drift does not favour one side.
            for traced in ((True, False) if pair % 2 == 0 else (False, True)):
                if traced:
                    tracer.install()
                for slot, argv in enumerate(argvs):
                    ref = reference_work()
                    end = tracer.root(request) if traced else None
                    call = _call(ocmatch.cli.main, argv)
                    if end is not None:
                        end()
                    call.update(
                        round=0, slot=slot, ref_before=ref, pair=pair, traced=traced, request=request
                    )
                    calls.append(call)
                    request += 1
                if traced:
                    tracer.uninstall()
            pair += 1
            elapsed = perf_counter() - started
            if elapsed * (pair + 1) / pair > args.seconds:
                break
        tracer.dump(str(workdir / "spans.json"))

    result["ref_after"] = reference_work()
    result["calls"] = calls
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
