"""Seeded request corpus for the benchmark workloads.

The generators here are the benchmark's own and deliberately share no
code with ``ocmatch.generators``, so a change to the package cannot
change what is measured. Every instance is a pure function of
(workload, seed, round, slot): the same arguments always give the same
file text.

A workload is a sequence of rounds. Each round holds one request per
stratum in a seeded order, so every round has the same size mix and a
run that completes whole rounds always measures the same mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("ocm-large", "aocm-exact", "verify")

# ocm-large: random connected graphs with m = 3n.
OCM_SIZES = (50, 100, 150, 200, 250)
OCM_DEGREE = 3

# aocm-exact: m = 2n, integer weights 0..10 per direction. Each size
# appears once bare and once padded with this many isolated nodes.
AOCM_SIZES = (10, 12, 14, 16, 18)
AOCM_PADS = (60, 52, 45, 38, 30)
AOCM_MAX_WEIGHT = 10

VERIFY_SUITES = ("lemma1", "lemma2", "lemma3", "lreduction")

# Rounds past this many repeat earlier ones, which bounds the oracle's work.
DISTINCT_ROUNDS = 64


@dataclass(frozen=True)
class Instance:
    """An undirected graph, optionally with one weight per direction."""

    n: int
    edges: tuple[tuple[int, int], ...]
    weights: tuple[tuple[int, int], ...] | None = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def to_text(self) -> str:
        if self.weights is None:
            lines = [f"{self.n} {self.m}"]
            lines.extend(f"{u} {v}" for u, v in self.edges)
        else:
            lines = [f"{self.n} {self.m} weighted"]
            lines.extend(
                f"{u} {v} {wf} {wb}"
                for (u, v), (wf, wb) in zip(self.edges, self.weights)
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Request:
    """One CLI call: its argv tail, and the instance its file holds, if any."""

    kind: str
    args: tuple[str, ...]
    instance: Instance | None = None
    file_name: str | None = None

    def argv(self, file_path: str | None) -> list[str]:
        if self.file_name is None:
            return list(self.args)
        return [*self.args, file_path]


def _rng(*parts: object) -> random.Random:
    # String seeds are hashed with SHA-512, so they do not depend on
    # PYTHONHASHSEED or on the platform.
    return random.Random(":".join(str(p) for p in parts))


def connected_graph(rng: random.Random, n: int, m: int) -> tuple[tuple[int, int], ...]:
    """A random recursive tree on shuffled labels, plus random extra edges."""
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no connected simple graph with n={n}, m={m}")
    order = list(range(n))
    rng.shuffle(order)
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return tuple(sorted(edges))


def weighted_instance(rng: random.Random, n: int, m: int, pad: int) -> Instance:
    """m random edges among n nodes, hidden among ``pad`` isolated nodes."""
    total = n + pad
    label = rng.sample(range(total), n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = []
    weights = []
    for u, v in sorted(rng.sample(pairs, m)):
        a, b = label[u], label[v]
        wf = rng.randint(0, AOCM_MAX_WEIGHT)
        wb = rng.randint(0, AOCM_MAX_WEIGHT)
        if a > b:
            a, b, wf, wb = b, a, wb, wf
        edges.append((a, b))
        weights.append((wf, wb))
    order = sorted(range(m), key=lambda k: edges[k])
    return Instance(
        total, tuple(edges[k] for k in order), tuple(weights[k] for k in order)
    )


def make_round(workload: str, seed: int, rnd: int) -> list[Request]:
    """The requests of one round, in the order they are sent."""
    rng = _rng(workload, seed, rnd)
    if workload == "ocm-large":
        requests = []
        for n in OCM_SIZES:
            inst = Instance(n, connected_graph(rng, n, OCM_DEGREE * n))
            requests.append(
                Request("solve-ocm", ("solve-ocm",), inst, f"ocm-r{rnd}-n{n}.txt")
            )
    elif workload == "aocm-exact":
        requests = []
        for n, pad in zip(AOCM_SIZES, AOCM_PADS):
            for p in (0, pad):
                inst = weighted_instance(rng, n, 2 * n, p)
                requests.append(
                    Request(
                        "solve-aocm",
                        ("solve-aocm", "--mode", "exact"),
                        inst,
                        f"aocm-r{rnd}-n{n}-p{p}.txt",
                    )
                )
    elif workload == "verify":
        suite_seed = rng.randrange(1 << 31)
        requests = [
            Request(f"verify-{suite}", ("verify", suite, "--seed", str(suite_seed)))
            for suite in VERIFY_SUITES
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(requests)
    return requests
