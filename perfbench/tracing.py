"""Spans around domchrom's public functions, installed from outside the package.

A :class:`Tracer` replaces each traced function at every module attribute
that refers to it (``harness.to_graph6``, ``cli.run_corpus``, the
re-exports in ``domchrom`` itself, ...), because that attribute is what
the calling module resolves at call time.  Constructors and report
formatting are methods, so they are patched on their class.  Every
wrapper records one span: its self time is its duration minus the
durations of the spans it directly contains.

Calls are also counted per calling module (the module whose attribute
was resolved), which is how op calls made from ``witnesses`` are told
apart from op calls made from ``harness``.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

OPS = ("remove_vertex", "remove_edge", "contract_edge", "contract_vertices", "subdivide", "cycle_extend")

# (span name, defining module, attribute): functions, wrapped at every alias.
FUNCTIONS = (
    ("graph.to_graph6", "graph", "to_graph6"),
    ("graph.parse_graph6", "graph", "parse_graph6"),
    ("graph.cut_structure", "graph", "cut_vertices"),
    ("graph.cut_structure", "graph", "bridges"),
    ("graph.enumerate_cycles", "graph", "enumerate_cycles"),
    ("coloring.is_domination_coloring", "coloring", "is_domination_coloring"),
    ("solver.chi_dd_exact", "solver", "chi_dd_exact"),
    ("solver.chi_dd_oracle", "solver", "chi_dd_oracle"),
    *(("ops", "ops", op) for op in OPS),
    ("witnesses.extend", "witnesses", "extend_witness"),
    ("witnesses.reduce", "witnesses", "reduce_witness"),
    ("harness.check_theorem", "harness", "check_theorem"),
    # The harness's one entry point for "chi_dd of this graph, cached".
    ("harness.solve_request", "harness", "_solve_cached"),
    ("harness.run_corpus", "harness", "run_corpus"),
    ("cli.main", "cli", "main"),
)

# (span name, defining module, class, method): patched on the class.
METHODS = (
    ("graph.Graph", "graph", "Graph", "__init__"),
    ("coloring.Coloring", "coloring", "Coloring", "__init__"),
    ("harness.report", "harness", "CorpusReport", "to_json"),
)


class TraceError(RuntimeError):
    """A traced name is missing, or span counts disagree with the report."""


def domchrom_modules() -> dict[str, object]:
    """The loaded ``domchrom`` package and submodules, keyed by short name."""
    return {
        name.rpartition(".")[2]: mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "domchrom" or name.startswith("domchrom."))
    }


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Install with ``with Tracer() as tr:``; originals come back on exit."""

    def __init__(self, functions=FUNCTIONS, methods=METHODS):
        self._functions = functions
        self._methods = methods
        self.spans: dict[str, Span] = defaultdict(Span)
        self.by_caller: Counter = Counter()  # (span name, calling module) -> calls
        self.solve_ms: list[float] = []
        self.nodes = 0
        self.unknowns = 0
        self.reduce_gaps = 0
        self._stack: list[float] = []  # per open span: time covered by its children
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _install(self) -> None:
        modules = domchrom_modules()
        hooks = {
            "solver.chi_dd_exact": self._on_solve,
            "witnesses.reduce": self._on_reduce,
        }
        for span, home, attr in self._functions:
            original = getattr(modules[home], attr, None)
            if original is None:
                raise TraceError(f"domchrom.{home}.{attr} not found; update the tracer's target list")
            for caller, mod in modules.items():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, self._wrap(span, original, caller, hooks.get(span)))
        for span, home, cls_name, attr in self._methods:
            cls = getattr(modules[home], cls_name, None)
            if cls is None or attr not in vars(cls):
                raise TraceError(f"domchrom.{home}.{cls_name}.{attr} not found; update the tracer's target list")
            self._patch(cls, attr, self._wrap(span, vars(cls)[attr], "*", None))

    def _wrap(self, name: str, fn, caller: str, hook):
        span = self.spans[name]
        stack = self._stack
        by_caller = self.by_caller
        key = (name, caller)
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # One call, timed across every resumption of the generator.
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                span.calls += 1
                by_caller[key] += 1
                it = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        elapsed = clock() - start
                        children = stack.pop()
                        span.total_s += elapsed
                        span.self_s += elapsed - children
                        if stack:
                            stack[-1] += elapsed
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - children
                by_caller[key] += 1
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(result, elapsed)
            return result

        return traced

    def _on_solve(self, result, elapsed: float) -> None:
        self.solve_ms.append(elapsed * 1e3)
        self.nodes += result.nodes
        if result.status != "exact":
            self.unknowns += 1

    def _on_reduce(self, outcome, elapsed: float) -> None:
        self.reduce_gaps += outcome.status == "gap"

    # -- reading ------------------------------------------------------

    def calls(self, name: str, caller: str | None = None) -> int:
        if caller is None:
            return self.spans[name].calls if name in self.spans else 0
        return self.by_caller[(name, caller)]

    def self_s(self, name: str) -> float:
        return self.spans[name].self_s if name in self.spans else 0.0

    def layer_counts(self) -> dict[str, int]:
        """Every count the per-layer metrics use; equal on any two cold passes."""
        out = {f"{name}.calls": span.calls for name, span in sorted(self.spans.items())}
        out.update({f"{name}<-{caller}": n for (name, caller), n in sorted(self.by_caller.items())})
        out.update(nodes=self.nodes, unknowns=self.unknowns, reduce_gaps=self.reduce_gaps)
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of one traced pass, as name -> (value, unit)."""
        solve_total = self.spans["solver.chi_dd_exact"].total_s
        requests = self.calls("harness.solve_request")
        harness_solves = self.calls("solver.chi_dd_exact", "harness")
        reduces = self.calls("witnesses.reduce")
        out: dict[str, tuple[float, str]] = {}
        for name in (
            "graph.Graph", "graph.to_graph6", "graph.cut_structure",
            "coloring.is_domination_coloring", "coloring.Coloring",
            "solver.chi_dd_exact", "solver.chi_dd_oracle", "ops",
            "witnesses.extend", "witnesses.reduce", "harness.check_theorem",
        ):
            out[f"{name}.calls"] = (self.calls(name), "count")
            out[f"{name}.self_s"] = (self.self_s(name), "s")
        for name in ("graph.parse_graph6", "graph.enumerate_cycles", "harness.run_corpus", "harness.report", "cli.main"):
            out[f"{name}.self_s"] = (self.self_s(name), "s")
        out["solver.nodes"] = (self.nodes, "count")
        out["solver.nodes_per_s"] = (self.nodes / solve_total if solve_total else 0.0, "1/s")
        out["solver.solve_p50_ms"] = (percentile(self.solve_ms, 50), "ms")
        out["solver.solve_p99_ms"] = (percentile(self.solve_ms, 99), "ms")
        out["solver.unknowns"] = (self.unknowns, "count")
        out["ops.witness_rebuilds"] = (self.calls("ops", "witnesses"), "count")
        out["witnesses.reduce_gap_ratio"] = (self.reduce_gaps / reduces if reduces else 0.0, "ratio")
        out["harness.solve_requests"] = (requests, "count")
        out["harness.cache_hit_ratio"] = (1 - harness_solves / requests if requests else 0.0, "ratio")
        return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def reconcile_verify(tr: Tracer, payload: dict) -> list[str]:
    """Span counts that must equal counts in the ``verify`` report (witnesses on)."""
    per = payload["per_theorem"]
    instances = sum(s["instances"] for s in per.values())
    skips = sum(sum(s["skips"].values()) for s in per.values())
    witnessed = sum(s["instances"] for t, s in per.items() if t != "5")  # theorem 5 has no witnesses
    report_reduce = sum(sum(c["count"] for c in s["witness"]["reduce"].values()) for s in per.values())
    report_gaps = sum(sum(c["gaps"] for c in s["witness"]["reduce"].values()) for s in per.values())
    expected = (
        ("harness.check_theorem spans", tr.calls("harness.check_theorem"), "instances + skips", instances + skips),
        ("harness.solve_requests", tr.calls("harness.solve_request"), "2 x instances", 2 * instances),
        ("ops calls from harness", tr.calls("ops", "harness"), "instances", instances),
        ("extend_witness calls from harness", tr.calls("witnesses.extend", "harness"), "witnessed instances", witnessed),
        ("reduce_witness calls from harness", tr.calls("witnesses.reduce", "harness"), "reduce cases in report", report_reduce),
        ("reduce gaps seen", tr.reduce_gaps, "reduce gaps in report", report_gaps),
        ("parse_graph6 calls", tr.calls("graph.parse_graph6"), "graphs", payload["graphs"]),
        ("run_corpus spans", tr.calls("harness.run_corpus"), "one", 1),
        ("report spans", tr.calls("harness.report"), "one", 1),
    )
    errors = [
        f"{what} = {got}, but {base} = {want}" for what, got, base, want in expected if got != want
    ]
    if not 0 < tr.calls("solver.chi_dd_exact", "harness") <= 2 * instances:
        errors.append(
            f"chi_dd_exact calls from harness = {tr.calls('solver.chi_dd_exact', 'harness')},"
            f" outside 1..2 x instances = {2 * instances}"
        )
    return errors


def reconcile_sweep(tr: Tracer, graphs: int) -> list[str]:
    """Each graph of the sweep makes one call to each public function it uses."""
    errors = []
    for name in ("graph.parse_graph6", "solver.chi_dd_exact", "solver.chi_dd_oracle", "coloring.is_domination_coloring"):
        got = tr.calls(name, "domchrom")
        if got != graphs:
            errors.append(f"{name} calls from the sweep = {got}, but graphs = {graphs}")
    return errors
