"""The three workloads: their inputs, one timed pass each, and the correctness gate.

Inputs are graph6 lines drawn from domchrom's own labeled corpus.  The
sampled part is stratified: graphs are grouped by an isomorphism
invariant, each group gets a fixed share of the sample (proportional to
its size, so the sample looks like the labeled corpus), and the seed
only picks which labelings fill each share.  Every seed therefore
produces the same mix of graph shapes, which keeps the work per pass
nearly equal across seeds while the labels, and with them the cache keys
and the search order, change.
"""

from __future__ import annotations

import io
import json
import random
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import domchrom
from domchrom import cli, graph, harness, solver
from domchrom.graph import iter_bits

import tracing


@dataclass(frozen=True)
class Size:
    full_upto: int  # every connected graph with n <= full_upto goes in first
    sample: int  # graphs drawn from the workload's slice
    per_class: int  # at least this many from each invariant class
    samples: int  # independent samples per run; each pass runs one


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    orders: tuple[int, ...]  # the slice: connected graphs of these orders ...
    max_edges: int | None  # ... with at most this many edges
    verify_args: tuple[str, ...] | None  # None runs the solve/oracle sweep
    sizes: dict[str, Size]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-small",
            "theorems 1,2,3,4,6 with witnesses: graph, ops, witnesses and the checker"
            " dominate, most solves are cache hits",
            orders=(6,),
            max_edges=None,
            verify_args=("--theorems", "1,2,3,4,6"),
            sizes={"full": Size(5, 100, 0, 11), "smoke": Size(4, 3, 0, 2)},
        ),
        Workload(
            "verify-subdiv",
            "theorem 5 on the criterion-4 slice: search on 10-24 vertex subdivisions,"
            " labeled keys give few cache hits",
            orders=(2, 3, 4, 5, 6),
            max_edges=6,
            verify_args=("--theorems", "5", "--k-range", "2,4", "--subdivided-cap", "24"),
            sizes={"full": Size(0, 24, 1, 12), "smoke": Size(0, 2, 0, 2)},
        ),
        Workload(
            "sweep-n6",
            "parse, solve, oracle and re-check per n=6 graph: many tiny solves,"
            " the partition scan is hot, no cache involved",
            orders=(6,),
            max_edges=None,
            verify_args=None,
            sizes={"full": Size(0, 2000, 0, 17), "smoke": Size(0, 30, 0, 2)},
        ),
    )
}


# -- inputs -----------------------------------------------------------


def _invariant(g) -> tuple:
    """Degree of each vertex with its neighbours' degrees; equal for isomorphic graphs."""
    deg = [mask.bit_count() for mask in g.adj]
    return (
        g.n,
        g.m,
        tuple(sorted((deg[v], tuple(sorted(deg[u] for u in iter_bits(g.adj[v])))) for v in range(g.n))),
    )


def _allocate(class_sizes: dict, total: int, floor: int) -> dict:
    """Largest-remainder shares of ``total`` in proportion to class size."""
    corpus = sum(class_sizes.values())
    quota = {k: total * size / corpus for k, size in class_sizes.items()}
    share = {k: int(q) for k, q in quota.items()}
    by_remainder = sorted(class_sizes, key=lambda k: (share[k] - quota[k], k))
    for k in by_remainder[: total - sum(share.values())]:
        share[k] += 1
    return {k: min(class_sizes[k], max(floor, share[k])) for k in class_sizes}


def build_inputs(workload: Workload, size: str, seed: int) -> list[list[str]]:
    """The workload's samples for ``seed``, each a list of graph6 lines; same seed, same samples."""
    spec = workload.sizes[size]
    fixed = [
        graph.to_graph6(g)
        for n in range(1, spec.full_upto + 1)
        for g in graph.enumerate_connected_graphs(n)
    ]
    classes: dict[tuple, list[str]] = defaultdict(list)
    for n in workload.orders:
        for g in graph.enumerate_connected_graphs(n):
            if workload.max_edges is None or g.m <= workload.max_edges:
                classes[_invariant(g)].append(graph.to_graph6(g))
    shares = _allocate({k: len(v) for k, v in classes.items()}, spec.sample, spec.per_class)
    members = {key: sorted(classes[key]) for key in sorted(classes)}
    samples = []
    for index in range(spec.samples):
        rng = random.Random(f"{workload.name}:{seed}:{index}")
        lines = list(fixed)
        for key, graph6s in members.items():
            lines.extend(sorted(rng.sample(graph6s, shares[key])))
        samples.append(lines)
    return samples


# -- passes -----------------------------------------------------------


def reset_state() -> None:
    """Empty every cache a fresh ``domchrom verify`` process starts without."""
    for mod, attr in ((harness, "_CHI_CACHE"), (solver, "_PATH_CHI")):
        table = getattr(mod, attr, None)
        if table is not None:
            table.clear()
    for mod in tracing.domchrom_modules().values():
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()  # functools caches, e.g. the partition table


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    errors: list[str]
    fingerprint: dict  # witness-independent counts, gated against the reference
    witness: dict  # reduce cases and gaps: reported, not gated


class _PerGraphTimer:
    """Stands in for ``run_corpus`` at ``cli.run_corpus`` and times each graph.

    A graph's latency is the time from handing it to the per-graph loop to
    the loop asking for the next one.
    """

    def __init__(self, run_corpus, per_graph: list[float]):
        self.run_corpus = run_corpus
        self.per_graph = per_graph

    def __call__(self, graphs, *args, **kwargs):
        return self.run_corpus(self._timed(graphs), *args, **kwargs)

    def _timed(self, graphs):
        clock = time.perf_counter
        for g in graphs:
            start = clock()
            yield g
            self.per_graph.append(clock() - start)


def run_verify(workload: Workload, path: str, latencies: list[float], tr: tracing.Tracer | None) -> PassResult:
    """One ``domchrom verify --input FILE ... --format json``, timed and gated."""
    argv = ["verify", "--input", path, *workload.verify_args, "--format", "json"]
    out, err = io.StringIO(), io.StringIO()
    per_graph: list[float] = []
    timed_run_corpus = _PerGraphTimer(cli.run_corpus, per_graph)
    cli.run_corpus = timed_run_corpus
    try:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        code = cli.main(argv, stdout=out, stderr=err)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    finally:
        cli.run_corpus = timed_run_corpus.run_corpus
    latencies.extend(per_graph)

    errors: list[str] = []
    try:
        payload = json.loads(out.getvalue())
    except ValueError:
        errors.append(f"verify exited {code} without a JSON report: {err.getvalue().strip()}")
        return PassResult(wall, cpu, 1, 1, errors, {}, {})
    per = payload["per_theorem"]
    attempted = sum(s["instances"] + sum(s["skips"].values()) for s in per.values())
    violations = payload["summary"]["violations"]
    unknowns = payload["summary"]["unknowns"]
    extend_gaps = sum(s["witness"]["extend_gaps"] for s in per.values())
    failed = violations + unknowns + extend_gaps
    for what, count in (("violations", violations), ("unknowns", unknowns), ("extend-witness gaps", extend_gaps)):
        if count:
            errors.append(f"{count} {what}")
    if code != 0:
        errors.append(f"verify exited {code}")
        failed = failed or attempted
    if len(per_graph) != payload["graphs"]:
        errors.append(f"timed {len(per_graph)} graphs, report has {payload['graphs']}")
    if tr is not None:
        errors += tracing.reconcile_verify(tr, payload)
    fingerprint = {
        "graphs": payload["graphs"],
        "per_theorem": {
            t: {k: s[k] for k in ("instances", "holds", "skips", "tight_lower", "tight_upper")}
            for t, s in per.items()
        },
    }
    witness = {
        f"thm{t}/{case}": [c["gaps"], c["count"]]
        for t, s in per.items()
        for case, c in s["witness"]["reduce"].items()
    }
    return PassResult(wall, cpu, attempted, min(failed, attempted), errors, fingerprint, witness)


def run_sweep(lines: list[str], latencies: list[float], tr: tracing.Tracer | None) -> PassResult:
    """Per graph: parse, exact solve, oracle, compare, re-validate the witness."""
    api = domchrom  # resolved per call, so the tracer's wrappers are seen
    clock = time.perf_counter
    chi_counts: Counter = Counter()
    invalid: list[str] = []
    per_graph: list[float] = []
    cpu0 = time.process_time()
    t0 = clock()
    for line in lines:
        start = clock()
        g = api.parse_graph6(line)
        result = api.chi_dd_exact(g)
        oracle = api.chi_dd_oracle(g)
        valid = (
            result.status == "exact"
            and result.chi_dd == oracle
            and result.witness.class_count == result.chi_dd
            and api.is_domination_coloring(g, result.witness)[0]
        )
        per_graph.append(clock() - start)
        chi_counts[oracle] += 1
        if not valid:
            invalid.append(f"{line}: {result.status} chi_dd={result.chi_dd} oracle={oracle}")
    wall = clock() - t0
    cpu = time.process_time() - cpu0
    latencies.extend(per_graph)
    errors = invalid[:20]
    if tr is not None:
        errors += tracing.reconcile_sweep(tr, len(lines))
    fingerprint = {"graphs": len(lines), "chi_dd": {str(k): v for k, v in sorted(chi_counts.items())}}
    return PassResult(wall, cpu, len(lines), len(invalid), errors, fingerprint, {})


def run_pass(workload: Workload, path: str, lines: list[str], latencies: list[float], tr=None) -> PassResult:
    reset_state()
    if workload.verify_args is None:
        return run_sweep(lines, latencies, tr)
    return run_verify(workload, path, latencies, tr)
