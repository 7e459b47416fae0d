"""Exhaustive verification of the six inequalities over graph corpora.

Every applicable (graph, operation instance) pair is checked with both
chi_dd values computed exactly; instances whose hypothesis fails (cut
vertex, bridge, order caps) become skip markers, and solver budget
exhaustion is recorded as an unknown, never as a pass.  Proof-witness
constructions are run alongside theorems 1-4 and 6 and their gap rates
are aggregated per proof case.

Each theorem names its operation in ``ops.OPERATIONS``, and
:func:`check_theorem` applies it as ``globals()[name](g, instance)``, the
way ``witnesses`` and ``cli`` apply theorems' operations too (see the
``ops`` docstring).  Theorem 5 alone sets ``canonical``: it subdivides
the canonical form of G (:func:`canonical_form`),
not G itself: chi_dd(S(G,k)) depends only on G's isomorphism class and
no witness reads S(G,k)'s labels, so isomorphic instances share one
entry in the solve cache (keyed by adjacency tuple), and each theorem-5
outcome, an unknown under a tight budget included, follows (class of G,
k).  Theorems 1-4 and 6 keep labeled solves, because their witnesses
start from a labeled chi_dd-coloring.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Union

from .graph import (
    Graph,
    bridges,
    canonical_form,
    cut_vertices,
    enumerate_connected_graphs,
    enumerate_cycles,
    is_connected,
    parse_graph6,
    to_graph6,
)
from .ops import (  # the operations as well: check_theorem calls them by name
    OPERATIONS,
    contract_edge,
    contract_vertices,
    cycle_extend,
    remove_edge,
    remove_vertex,
    subdivide,
)
from .solver import (
    DEFAULT_BUDGET,
    ORACLE_MAX_ORDER,
    SolveResult,
    chi_dd_exact,
    chi_dd_oracle,
    path_chi_dd,
)
from .witnesses import WITNESS_KINDS, extend_witness, reduce_witness

GAP_EXAMPLE_CAP = 20


@dataclass(frozen=True)
class HarnessConfig:
    theorems: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    k_values: tuple[int, ...] = (2, 3, 4)  # theorem 5 subdivision lengths
    cycle_cap: int = 6  # per-graph cap is min(n, cycle_cap)
    subdivided_cap: int = 24  # skip theorem 5 instances above this order
    budget: int = DEFAULT_BUDGET
    workers: int = 1
    witnesses: bool = True

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if self.budget < 1:
            raise ValueError(f"budget must be a positive node count, got {self.budget}")
        if not self.theorems:
            raise ValueError("no theorem to check; a run would read ok vacuously")
        for theorem in self.theorems:
            _spec(theorem)
        if len(set(self.theorems)) != len(self.theorems):
            # each instance of a repeated theorem would be counted twice
            raise ValueError(f"theorem ids repeat in {','.join(map(str, self.theorems))}")
        # A k below 2 is no theorem-5 instance (check_theorem raises on it),
        # and no graph's subdivision or cycle fits a cap below 3, so theorem
        # 5 or 6 would check nothing; a repeated k would count its
        # instances twice.
        if not self.k_values:
            raise ValueError("k_values is empty; theorem 5 would check no subdivision")
        subdivide_op = OPERATIONS["subdivide"]
        for k in self.k_values:
            if subdivide_op.read(k) is None:
                raise ValueError(f"k_values: theorem 5 takes {subdivide_op.shape}, got {k!r}")
        if min(self.k_values) < 2:
            raise ValueError(f"k_values must be at least 2, got {','.join(map(str, self.k_values))}")
        if len(set(self.k_values)) != len(self.k_values):
            raise ValueError(f"k_values repeat in {','.join(map(str, self.k_values))}")
        if self.subdivided_cap < 3:
            # the smallest subdivided graph, K2 at k=2, has order 3
            raise ValueError(f"subdivided_cap must be at least 3, got {self.subdivided_cap}")
        if self.cycle_cap < 3:
            raise ValueError(f"cycle_cap must be at least 3, got {self.cycle_cap}")


class TheoremCheck(NamedTuple):
    """One verified inequality instance; holds <=> lower <= chi_after <= upper."""

    theorem: int
    graph6: str
    instance: str
    chi_before: int
    chi_after: int
    lower: int
    upper: int
    holds: bool
    witness_extend: str | None = None
    witness_reduce: str | None = None
    reduce_case: str | None = None


class SkippedCheck(NamedTuple):
    theorem: int
    graph6: str
    instance: str
    reason: str


_UNKNOWN = "solver budget exhausted"


# The solve cache of one run, keyed by adjacency tuple (``Graph.adj``), which
# fixes the graph, its order included; only exact solves are kept.
_SolveCache = dict[tuple[int, ...], SolveResult]


def _solve_cached(g: Graph, budget: int, cache: _SolveCache) -> SolveResult:
    key = g.adj
    hit = cache.get(key)
    if hit is not None:
        return hit
    result = chi_dd_exact(g, budget)
    if result.status == "exact":
        cache[key] = result
    return result


# -- the six theorems -------------------------------------------------


def _no_skip(g, instance, config):
    return None


class _Spec(NamedTuple):
    """How one theorem is checked: H = operation(G, instance), lower <= chi_dd(H) <= upper."""

    operation: str  # the ops.OPERATIONS entry that makes H and reads, labels and validates an instance
    instances: Callable[[Graph, HarnessConfig], Iterable]  # a corpus run's instance domain
    bounds: Callable[[int, Graph, Any], tuple[int, int]]  # given chi_dd(G)
    # skip reason only; the operation validates
    hypothesis: Callable[[Graph, Any, HarnessConfig], str | None] = _no_skip
    witnesses: tuple[str, str] | None = None  # (extend kind, reduce kind)
    canonical: bool = False  # apply the operation to canonical_form(G) (module docstring)


def _removable_vertex(g: Graph, v: int, config: HarnessConfig) -> str | None:
    if g.n < 2:
        return "order 1"
    return "cut vertex" if v in cut_vertices(g) else None


def _removable_edge(g: Graph, e: tuple[int, int], config: HarnessConfig) -> str | None:
    return "bridge" if e in bridges(g) else None


def _subdividable(g: Graph, k: int, config: HarnessConfig) -> str | None:
    if g.m == 0:
        return "no edges"
    if k < 2:  # whatever the cap: k = 1 leaves G as it is
        raise ValueError(f"theorem 5 subdivides each edge into a path of length k >= 2, got k={k}")
    order = g.n + g.m * (k - 1)
    return f"subdivided order {order} above cap" if order > config.subdivided_cap else None


def _cycles(g: Graph, config: HarnessConfig) -> list:
    cap = min(g.n, config.cycle_cap)
    return enumerate_cycles(g, cap) if cap >= 3 else []


_SPECS = {
    1: _Spec(
        operation="remove_vertex",
        instances=lambda g, config: range(g.n),
        hypothesis=_removable_vertex,
        bounds=lambda chi, g, v: (chi - 1, chi + g.degree(v) - 1),
        witnesses=("add_vertex", "remove_vertex"),
    ),
    2: _Spec(
        operation="remove_edge",
        instances=lambda g, config: g.edges(),
        hypothesis=_removable_edge,
        bounds=lambda chi, g, e: (chi - 1, chi + 2),
        witnesses=("add_edge", "remove_edge"),
    ),
    3: _Spec(
        operation="contract_edge",
        instances=lambda g, config: g.edges(),
        bounds=lambda chi, g, e: (chi - 2, chi + 1),
        witnesses=("contract_edge", "uncontract"),
    ),
    4: _Spec(
        operation="contract_vertices",
        instances=lambda g, config: [(u, v) for v in range(g.n) for u in range(v) if not (g.adj[u] >> v) & 1],
        bounds=lambda chi, g, e: (chi - 2, chi + 1),
        witnesses=("contract_vertices", "uncontract"),
    ),
    5: _Spec(
        operation="subdivide",
        instances=lambda g, config: config.k_values,
        hypothesis=_subdividable,
        bounds=lambda chi, g, k: (path_chi_dd(k + 1), (g.m - 1) * path_chi_dd(k) + path_chi_dd(k + 1)),
        canonical=True,
    ),
    6: _Spec(
        operation="cycle_extend",
        instances=_cycles,
        bounds=lambda chi, g, cyc: (chi - cyc.length, chi + 1),
        witnesses=("cycle_extend", "remove_hub"),
    ),
}


def _require_connected(g: Graph) -> None:
    # is_connected is memoized on g, so a corpus run traverses each graph once
    if not is_connected(g):
        raise ValueError(f"graph {to_graph6(g)} is not connected; the theorems are about connected graphs")


def _spec(theorem: int) -> _Spec:
    if type(theorem) is not int:  # True and 1.0 would find theorem 1 and be reported as "True", "1.0"
        raise ValueError(f"theorem id must be an int, got {theorem!r}")
    spec = _SPECS.get(theorem)
    if spec is None:
        raise ValueError(f"unknown theorem id {theorem}; expected 1..6")
    return spec


def check_theorem(
    theorem: int,
    g: Graph,
    instance,
    *,
    config: HarnessConfig | None = None,
    cache: _SolveCache | None = None,
) -> Union[TheoremCheck, SkippedCheck]:
    """Verify one theorem instance; hypothesis violations come back as skips.

    A disconnected ``g`` raises ValueError naming the graph, and H is
    built before either solve, so a malformed instance raises the
    operation's ValueError whatever the budget.
    ``cache`` is a solve cache keyed by adjacency tuple: it maps
    ``Graph.adj`` to exact solves and may be shared across calls; without
    one, the call solves from scratch.
    """
    spec = _spec(theorem)
    _require_connected(g)
    config = config or HarnessConfig()
    cache = {} if cache is None else cache
    g6 = to_graph6(g)
    op = OPERATIONS[spec.operation]
    shaped = op.read(instance)
    if shaped is None:
        raise ValueError(f"theorem {theorem} takes {op.shape}, got {instance!r}")
    if type(shaped) is tuple and shaped[0] > shaped[1]:
        shaped = shaped[::-1]  # a pair is checked and reported smaller vertex first
    instance = shaped
    label = op.label(instance)
    reason = spec.hypothesis(g, instance, config)
    if reason is not None:
        return SkippedCheck(theorem, g6, label, reason)
    # this module's global, looked up now: see the ops docstring
    target = globals()[spec.operation](canonical_form(g) if spec.canonical else g, instance)
    before = _solve_cached(g, config.budget, cache)
    if before.status != "exact":
        return SkippedCheck(theorem, g6, label, _UNKNOWN)
    after = _solve_cached(target, config.budget, cache)
    if after.status != "exact":
        return SkippedCheck(theorem, g6, label, _UNKNOWN)
    if theorem == 5 and target.n <= ORACLE_MAX_ORDER and after.chi_dd != chi_dd_oracle(target):
        raise RuntimeError(f"solver's chi_dd={after.chi_dd} disagrees with oracle on {to_graph6(target)}")
    lower, upper = spec.bounds(before.chi_dd, g, instance)
    ext = red = case = None
    if config.witnesses and spec.witnesses is not None:
        base = {"G": before.witness, "H": after.witness}
        ext_kind, red_kind = spec.witnesses
        ext = extend_witness(ext_kind, g, instance, base[WITNESS_KINDS[ext_kind].base], h=target).status
        red_out = reduce_witness(red_kind, g, instance, base[WITNESS_KINDS[red_kind].base], h=target)
        red, case = red_out.status, red_out.case
    return TheoremCheck(
        theorem, g6, label, before.chi_dd, after.chi_dd, lower, upper,
        lower <= after.chi_dd <= upper, ext, red, case,
    )


def theorem_instances(theorem: int, g: Graph, config: HarnessConfig) -> Iterator:
    """The combinatorial instance domain a corpus run enumerates."""
    return iter(_spec(theorem).instances(g, config))


# -- per-theorem stats ------------------------------------------------

# The per-theorem summary row: (csv column, text column, text width).
SUMMARY_COLUMNS = (
    ("instances", "instances", 9), ("holds", "holds", 9), ("violations", "viol", 5),
    ("skips", "skips", 6), ("unknowns", "unk", 4), ("tight_lower", "tight_lo", 8),
    ("tight_upper", "tight_up", 8), ("extend_validated", "ext_ok", 7), ("reduce_gaps", "red_gaps", 8),
)


def _check_order(c: TheoremCheck) -> tuple:
    return (c.graph6, c.theorem, c.instance)


@dataclass
class TheoremStats:
    """Counts and retained findings of one theorem over a corpus."""

    instances: int = 0
    holds: int = 0
    violations: list[TheoremCheck] = field(default_factory=list)
    skips: Counter = field(default_factory=Counter)
    unknowns: int = 0
    tight_lower: int = 0
    tight_upper: int = 0
    extend_validated: int = 0
    extend_gaps: int = 0
    reduce_cases: Counter = field(default_factory=Counter)
    reduce_gaps: Counter = field(default_factory=Counter)
    gap_examples: list[tuple[str, str, str]] = field(default_factory=list)

    def add(self, outcome: Union[TheoremCheck, SkippedCheck]) -> None:
        if isinstance(outcome, SkippedCheck):
            self.skips[outcome.reason] += 1
            self.unknowns += outcome.reason == _UNKNOWN
            return
        self.instances += 1
        if outcome.holds:
            self.holds += 1
        else:
            self.violations.append(outcome)
        self.tight_lower += outcome.chi_after == outcome.lower
        self.tight_upper += outcome.chi_after == outcome.upper
        if outcome.witness_extend == "validated":
            self.extend_validated += 1
        elif outcome.witness_extend is not None:
            self.extend_gaps += 1
        if outcome.witness_reduce is not None:
            self.reduce_cases[outcome.reduce_case] += 1
            if outcome.witness_reduce == "gap":
                self.reduce_gaps[outcome.reduce_case] += 1
                self.gap_examples.append((outcome.reduce_case, outcome.graph6, outcome.instance))

    def merge(self, other: TheoremStats) -> None:
        for f in fields(self):
            total = getattr(self, f.name)
            total += getattr(other, f.name)  # ints add, lists extend, Counters (all positive) sum
            setattr(self, f.name, total)

    def finalize(self) -> None:
        """Sort what is retained and cap the examples, so merge order cannot show."""
        self.violations.sort(key=_check_order)
        per_case: Counter = Counter()
        kept = []
        for item in sorted(self.gap_examples):
            if per_case[item[0]] < GAP_EXAMPLE_CAP:
                per_case[item[0]] += 1
                kept.append(item)
        self.gap_examples = kept

    def row(self) -> tuple[int, ...]:
        """The values of :data:`SUMMARY_COLUMNS`, in order."""
        return (
            self.instances, self.holds, len(self.violations), sum(self.skips.values()),
            self.unknowns, self.tight_lower, self.tight_upper, self.extend_validated,
            sum(self.reduce_gaps.values()),
        )


@dataclass
class CorpusReport:
    """Aggregated corpus run: per-theorem counts, violations, gap findings."""

    corpus: str
    config: HarnessConfig
    graphs: int
    per_theorem: dict[int, TheoremStats]
    elapsed: float = field(default=0.0)

    @property
    def violation_count(self) -> int:
        return sum(len(s.violations) for s in self.per_theorem.values())

    @property
    def unknown_count(self) -> int:
        return sum(s.unknowns for s in self.per_theorem.values())

    @property
    def ok(self) -> bool:
        return self.violation_count == 0 and self.unknown_count == 0

    def to_payload(self) -> dict:
        per_theorem = {}
        for t in sorted(self.per_theorem):
            s = self.per_theorem[t]
            reduce_stats = {
                case: {"count": s.reduce_cases[case], "gaps": s.reduce_gaps.get(case, 0)}
                for case in sorted(s.reduce_cases)
            }
            per_theorem[str(t)] = {
                "instances": s.instances,
                "holds": s.holds,
                "violations": len(s.violations),
                "skips": dict(sorted(s.skips.items())),
                "unknowns": s.unknowns,
                "tight_lower": s.tight_lower,
                "tight_upper": s.tight_upper,
                "witness": {
                    "extend_validated": s.extend_validated,
                    "extend_gaps": s.extend_gaps,
                    "reduce": reduce_stats,
                    "gap_examples": [
                        f"{case} {g6} {inst}" for case, g6, inst in s.gap_examples
                    ],
                },
            }
        return {
            "schema": 1,
            "corpus": self.corpus,
            "config": asdict(self.config),
            "graphs": self.graphs,
            "per_theorem": per_theorem,
            "violations": [v._asdict() for v in self.all_violations()],
            "summary": {
                "violations": self.violation_count,
                "unknowns": self.unknown_count,
                "ok": self.ok,
            },
        }

    def all_violations(self) -> list[TheoremCheck]:
        out = [v for s in self.per_theorem.values() for v in s.violations]
        return sorted(out, key=_check_order)

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        """The per-theorem summary rows under a header of :data:`SUMMARY_COLUMNS`."""
        lines = [",".join(["theorem", *(name for name, _, _ in SUMMARY_COLUMNS)])]
        for t in sorted(self.per_theorem):
            lines.append(",".join(str(x) for x in (t, *self.per_theorem[t].row())))
        return "\n".join(lines)

    def to_text(self) -> str:
        lines = [
            f"corpus: {self.corpus}   graphs: {self.graphs}",
            f"theorems: {','.join(str(t) for t in self.config.theorems)}"
            f"   k: {','.join(str(k) for k in self.config.k_values)}"
            f"   cycle cap: {self.config.cycle_cap}",
            "",
            " ".join([f"{'thm':>3}", *(f"{head:>{w}}" for _, head, w in SUMMARY_COLUMNS)]),
        ]
        for t in sorted(self.per_theorem):
            row = self.per_theorem[t].row()
            lines.append(
                " ".join([f"{t:>3}", *(f"{x:>{w}}" for x, (_, _, w) in zip(row, SUMMARY_COLUMNS))])
            )
        for v in self.all_violations():
            lines.append(
                f"VIOLATION thm {v.theorem} {v.graph6} {v.instance}: "
                f"chi_after={v.chi_after} outside [{v.lower},{v.upper}]"
            )
        lines.append("")
        lines.append(
            f"verdict: {'ok' if self.ok else 'FAILED'} "
            f"({self.violation_count} violations, {self.unknown_count} unknowns)"
        )
        return "\n".join(lines)


# -- corpus runs ------------------------------------------------------


def _check_graphs(graphs: Iterable[Graph], config: HarnessConfig) -> tuple[int, dict[int, TheoremStats]]:
    """The one corpus loop: each graph, pulled when its turn comes, through one solve cache."""
    cache: _SolveCache = {}
    stats = {t: TheoremStats() for t in config.theorems}
    count = 0
    for g in graphs:
        count += 1
        _require_connected(g)  # also for a graph no theorem has an instance on
        for theorem in config.theorems:
            for instance in theorem_instances(theorem, g, config):
                stats[theorem].add(check_theorem(theorem, g, instance, config=config, cache=cache))
    return count, stats


def _check_slice(task: tuple[list[str], HarnessConfig]) -> tuple[int, dict[int, TheoremStats]]:
    """One worker's task: its slice of the corpus, as graph6 lines."""
    g6s, config = task
    return _check_graphs(map(parse_graph6, g6s), config)


def run_corpus(
    graphs: Iterable[Graph],
    config: HarnessConfig | None = None,
    descriptor: str = "custom",
) -> CorpusReport:
    """Check every applicable (graph, theorem, instance) combination.

    With ``w > 1`` workers, worker ``i`` checks graphs ``i, i + w, ...``,
    sent as graph6 once the parent has found every graph connected.  The
    report does not depend on ``w``: the slices merge commutative counts,
    and all retained lists are sorted at the end by (graph6, theorem,
    instance).  Each worker solves through one cache for its slice only,
    so a report never depends on what ran before it.
    """
    config = config or HarnessConfig()
    start = time.perf_counter()
    w = config.workers
    if w == 1:
        count, stats = _check_graphs(graphs, config)
    else:
        g6s = []
        for g in graphs:
            _require_connected(g)
            g6s.append(to_graph6(g))
        with ProcessPoolExecutor(max_workers=w) as pool:
            (count, stats), *parts = pool.map(_check_slice, [(g6s[i::w], config) for i in range(w)])
        for part_count, part in parts:
            count += part_count
            for t, s in part.items():
                stats[t].merge(s)
    for s in stats.values():
        s.finalize()
    return CorpusReport(
        corpus=descriptor,
        config=config,
        graphs=count,
        per_theorem=stats,
        elapsed=time.perf_counter() - start,
    )


def corpus_up_to(n_max: int, n_min: int = 1) -> Iterator[Graph]:
    """All labeled connected graphs with n_min <= n <= n_max."""
    for n in range(n_min, n_max + 1):
        yield from enumerate_connected_graphs(n)
