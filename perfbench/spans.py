"""Span tracing of the ocmatch modules, installed from outside the package.

``Tracer.install`` wraps every public function of every ``ocmatch``
module, plus ``RunReport.to_text``, and rebinds the wrapper under each
name that referred to the function: module globals in every ocmatch
module and the values of module-level dicts (such as the CLI's suite
table). Calls made through any of those bindings are therefore seen.
``uninstall`` restores the originals, so traced and untraced passes run
the same code.

Each span records its name, start, end, parent span and request id in
flat arrays that stay in memory until ``dump`` writes them at the end
of the run. A few spans also feed work counters derived from their
arguments.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pkgutil
import types
from array import array
from time import perf_counter

ROOT_SPAN = "cli.request"


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# Work counters: span name -> (counter name, amount taken from the call).
COUNTERS = {
    "ocm.max_simple_two_matching": (
        "ocm.aux_nodes",
        lambda a, k, r: 2 * _arg(a, k, 0, "g").node_count + 2 * _arg(a, k, 0, "g").edge_count,
    ),
    "matching.max_weight_control_matching": (
        "matching.canonical_nodes",
        lambda a, k, r: _arg(a, k, 0, "inst").graph.node_count,
    ),
    "aocm.solve_aocm_brute": (
        "aocm.orientations_scanned",
        lambda a, k, r: 1 << _arg(a, k, 0, "inst").graph.edge_count,
    ),
    "mwis.max_weight_independent_set": (
        "mwis.conflict_vertices",
        lambda a, k, r: len(_arg(a, k, 0, "weights")),
    ),
    "fileio.load_instance": (
        "fileio.bytes_in",
        lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path")),
    ),
    "report.to_text": (
        "report.bytes_out",
        lambda a, k, r: len(r.encode()),
    ),
}
# Span whose ResourceLimitError is counted as "aocm.capped".
CAPPED_SPAN = "aocm.solve_aocm_exact"


def ocmatch_modules(package: types.ModuleType) -> list[types.ModuleType]:
    names = sorted(
        info.name for info in pkgutil.iter_modules(package.__path__) if info.name != "__main__"
    )
    return [importlib.import_module(f"{package.__name__}.{name}") for name in names]


class Tracer:
    def __init__(self, package: types.ModuleType) -> None:
        self.package = package
        self.modules = ocmatch_modules(package)
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.request = -1
        self.counters: dict[str, list[tuple[int, int]]] = {}
        self.capped = importlib.import_module(f"{package.__name__}.errors").ResourceLimitError
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan_patches()

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        counter = COUNTERS.get(name)
        capped = name == CAPPED_SPAN
        names, parents, requests = self.span_name, self.span_parent, self.span_request
        starts, ends, stack = self.span_start, self.span_end, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            requests.append(self.request)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except self.capped:
                if capped:
                    self.count("aocm.capped", 1)
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if counter is not None:
                self.count(counter[0], counter[1](args, kwargs, result))
            return result

        return traced

    def _plan_patches(self) -> None:
        wrappers: dict[int, tuple[object, object]] = {}
        prefix = self.package.__name__ + "."
        for mod in self.modules:
            short = mod.__name__[len(prefix):]
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        report = importlib.import_module(prefix + "report")
        to_text = report.RunReport.to_text
        self._patches.append(
            (report.RunReport, "to_text", to_text, self._wrap("report.to_text", to_text))
        )
        for mod in [self.package, *self.modules]:
            for attr, obj in vars(mod).items():
                if isinstance(obj, types.FunctionType) and id(obj) in wrappers:
                    original, wrapper = wrappers[id(obj)]
                    if obj is original:
                        self._patches.append((mod, attr, original, wrapper))
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in obj.items():
                        if isinstance(value, types.FunctionType) and id(value) in wrappers:
                            original, wrapper = wrappers[id(value)]
                            if value is original:
                                self._patches.append((obj, key, original, wrapper))

    def _apply(self, install: bool) -> None:
        for target, key, original, wrapper in self._patches:
            value = wrapper if install else original
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)

    def install(self) -> None:
        self._apply(True)

    def uninstall(self) -> None:
        self._apply(False)

    def count(self, name: str, amount: int) -> None:
        self.counters.setdefault(name, []).append((self.request, amount))

    def root(self, request: int):
        """Start the root span of a request; call the result to end it."""
        self.request = request
        idx = len(self.span_start)
        self.span_name.append(self._id(ROOT_SPAN))
        self.span_parent.append(-1)
        self.span_request.append(request)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(perf_counter())

        def end() -> None:
            self.span_end[idx] = perf_counter()
            self.stack.pop()

        return end

    def dump(self, path: str) -> None:
        """Write the spans, the counters and the name table as one JSON file."""
        doc = {
            "names": self.names,
            "counters": self.counters,
            "patched_bindings": len(self._patches),
            "spans": {
                field: getattr(self, f"span_{field}").tolist()
                for field in ("name", "parent", "request", "start", "end")
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
