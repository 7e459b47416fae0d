"""Executable recolorings extracted from the theorem proofs.

``extend_witness`` runs the airtight directions: starting from a
domination coloring of the operation's source graph, put one fresh color
on the new / merged / hub vertex (or on one endpoint of a restored edge
when the colors clash) and keep every other color.  These must always
validate; a gap outcome here is an implementation bug.

``reduce_witness`` runs the case analyses of the opposite directions,
which are *not* airtight.  The construction follows each proof literally
and the result is validated against the definition; when it fails, the
outcome is a structured ``gap`` finding, which the corpus harness counts
per case.  The numeric inequalities themselves are always verified by the
exact solver independently of these outcomes.

Every witness makes one move, keep-and-fresh: carry the base colors
across the vertex map of its operation's ``ops.OPERATIONS`` entry, give
each of a few named vertices a fresh color of its own, and check the
result against the proof's color budget.  A kind is a row of
:data:`WITNESS_KINDS`, which names its operation, the graph its base
coloring colors and that graph's name in errors, its construction (its
proof case, its fresh vertices and its budget) and, for the two kinds
whose theorem has one, its hypothesis check.

Argument convention: ``g`` is always the theorem's graph G, and ``h`` is
the graph H the kind's operation makes from G.  An operation records on
the H it makes its name, its G and its parameter as it read it
(``Graph._made``, see ``ops``).  ``h`` is trusted when that record names
the kind's operation (either contraction for ``uncontract``), this very
``g`` and this very ``params`` object: the operation has already read
``params`` and validated them against G, and H is its output.  An
operation reads an int, a plain tuple or a CycleSpec as itself, so only
an object that cannot change since can pass; the corpus harness passes
such an H.  Any other ``h``, and ``h=None``, takes the checked path:
``params`` are read by the operation's reader and H is built from ``g``
with them, which validates them against ``g``; a given ``h`` must equal
that H, else ValueError names the difference (first the order).  On
either path the theorem's hypothesis, the base coloring and the carried
coloring are checked.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from .coloring import Coloring, DominationDiagnostic, _judge, is_domination_coloring
from .graph import Graph, bridges, cut_vertices, iter_bits
from .ops import (  # the operations as well: _operated calls them by name
    OPERATIONS,
    contract_edge,
    contract_vertices,
    cycle_extend,
    remove_edge,
    remove_vertex,
)


def _classes_dominated_only_by(c: Coloring, doms: tuple[int, ...], v: int) -> int:
    """Bitset of vertices lying in classes whose sole dominator is v, given
    the dominator mask of each class of ``c``."""
    vbit = 1 << v
    flagged = 0
    for members, dom in zip(c.classes, doms):
        if dom == vbit:
            flagged |= members
    return flagged & ~vbit


# A construction gives the proof's ``(case, fresh, extra)`` for one kind
# from ``(g, param, base, doms, vmap)``: the vertices of the witness's graph
# that each take a fresh color, in order, and the color budget beyond the
# base's.  ``doms`` is the dominator mask of each class of ``base``, and
# ``vmap`` sends G's vertex ids to H's.


def _add_vertex(g, v, base, doms, vmap):
    return "main", [v], 1


def _add_edge(g, e, base, doms, vmap):
    u, v = sorted(e)
    if base.assignment[u] == base.assignment[v]:
        return "same_color", [u], 1  # the smaller endpoint takes the fresh color
    return "distinct_colors", [], 0


def _merge(g, pair, base, doms, vmap):
    return "main", [vmap[pair[0]]], 1


def _add_hub(g, cyc, base, doms, vmap):
    return "main", [g.n], 1


def _remove_vertex(g, v, base, doms, vmap):
    case = "case1" if base.classes[base.assignment[v]] != (1 << v) else "case2"
    fresh = [vmap[w] for w in iter_bits(_classes_dominated_only_by(base, doms, v))]
    return case, fresh, g.degree(v) - 1


def _remove_edge(g, e, base, doms, vmap):
    u, v = sorted(e)
    i, j = base.assignment[u], base.assignment[v]
    u_dominates_vs_class = bool((doms[j] >> u) & 1)
    v_dominates_us_class = bool((doms[i] >> v) & 1)
    if u_dominates_vs_class and v_dominates_us_class:
        return "case3", [u, v], 2
    if u_dominates_vs_class:
        return "case2", [v], 2  # the endpoint whose class the other dominates
    if v_dominates_us_class:
        return "case2", [u], 2
    return "case1", [], 2


def _uncontract(g, pair, base, doms, vmap):
    return "main", list(pair), 2


def _remove_hub(g, cyc, base, doms, vmap):
    hub = g.n
    i = base.assignment[hub]
    case = "case1" if base.classes[i] == (1 << hub) else "case2"
    flagged = _classes_dominated_only_by(base, doms, hub)
    if case == "case1":
        # vertices of G whose only dominated class is the hub's singleton
        others = 0
        for d in doms[:i] + doms[i + 1:]:
            others |= d
        flagged |= doms[i] & ~others & ~(1 << hub)
    # the proof caps the fresh colors at the cycle length
    return case, list(iter_bits(flagged))[: cyc.length], cyc.length


def _not_a_cut_vertex(g: Graph, v: int) -> None:
    if v in cut_vertices(g):
        raise ValueError(f"vertex {v} is a cut vertex; theorem hypothesis fails")


def _not_a_bridge(g: Graph, e: tuple[int, int]) -> None:
    u, v = sorted(e)
    if (u, v) in bridges(g):
        raise ValueError(f"({u},{v}) is a bridge; theorem hypothesis fails")


class WitnessKind(NamedTuple):
    operation: str  # the theorem's operation G -> H, a key of ops.OPERATIONS; its reader reads params
    base: str  # "G" or "H": the graph the base coloring colors
    extend: bool  # an airtight direction (extend_witness), else a case analysis
    role: str  # the base graph as an error names it
    # (g, param, base, doms, vmap) -> (case, fresh, extra), as the constructions above
    construction: Callable[[Graph, Any, Coloring, tuple[int, ...], Sequence], tuple[str, list[int], int]]
    hypothesis: Callable[[Graph, Any], None] | None = None  # ValueError when the theorem's hypothesis fails
    edge_operation: str | None = None  # the operation that makes H instead when params are an edge of G


WITNESS_KINDS = {
    "add_vertex": WitnessKind("remove_vertex", "H", True, "G - v", _add_vertex),
    "add_edge": WitnessKind("remove_edge", "H", True, "G - e", _add_edge),
    "contract_edge": WitnessKind("contract_edge", "G", True, "G", _merge),
    "contract_vertices": WitnessKind("contract_vertices", "G", True, "G", _merge),
    "cycle_extend": WitnessKind("cycle_extend", "G", True, "G", _add_hub),
    "remove_vertex": WitnessKind("remove_vertex", "G", False, "G", _remove_vertex, _not_a_cut_vertex),
    "remove_edge": WitnessKind("remove_edge", "G", False, "G", _remove_edge, _not_a_bridge),
    # undoes either contraction: contract_edge when the pair is an edge
    "uncontract": WitnessKind(
        "contract_vertices", "H", False, "the contracted graph", _uncontract, edge_operation="contract_edge",
    ),
    "remove_hub": WitnessKind("cycle_extend", "H", False, "the cycle-extended graph", _remove_hub),
}
EXTEND_KINDS = tuple(kind for kind, w in WITNESS_KINDS.items() if w.extend)
REDUCE_KINDS = tuple(kind for kind, w in WITNESS_KINDS.items() if not w.extend)


def _operated(kind: str, row: WitnessKind, g: Graph, params, h: Graph | None):
    """The checked path: the operation that makes H, ``params`` as it reads
    them, and H built from G with them, which a given ``h`` must equal."""
    op = OPERATIONS[row.operation]
    param = op.read(params)
    if param is None:
        raise ValueError(f"{kind} takes {op.shape}, got {params!r}")
    name = row.operation
    if row.edge_operation is not None and g.has_edge(*param):
        name = row.edge_operation
    built = globals()[name](g, param)  # this module's global: see the ops docstring
    if h is not None:
        if h.n != built.n:
            raise ValueError(f"{name} makes order {built.n} from G, but h has order {h.n}")
        if h != built:
            raise ValueError(f"h is not the graph {name} makes from G")
    return name, param, built


@dataclass(frozen=True)
class GapReport:
    """Why a constructed coloring failed: which condition, against which color budget."""

    reason: str  # "definition", "over_budget", or "definition+over_budget"
    diagnostic: DominationDiagnostic | None
    budget: int


class WitnessOutcome(NamedTuple):
    status: str  # "validated" | "gap"
    coloring: Coloring
    colors_used: int
    case: str
    gap_report: GapReport | None


def _outcome(case: str, target: Graph, coloring: Coloring, budget: int) -> WitnessOutcome:
    ok, diag = is_domination_coloring(target, coloring)
    used = coloring.class_count
    over = used > budget
    if ok and not over:
        return WitnessOutcome("validated", coloring, used, case, None)
    reason = "+".join(
        part for part, hit in (("definition", not ok), ("over_budget", over)) if hit
    )
    report = GapReport(reason, None if ok else diag, budget)
    return WitnessOutcome("gap", coloring, used, case, report)


def _witness(extend: bool, kind: str, g: Graph, params, base: Coloring, h: Graph | None) -> WitnessOutcome:
    """Both directions' one entry: check, build, and carry the base colors."""
    kinds = EXTEND_KINDS if extend else REDUCE_KINDS
    if kind not in kinds:
        raise ValueError(f"unknown {'extend' if extend else 'reduce'} kind {kind!r}; expected one of {kinds}")
    row = WITNESS_KINDS[kind]
    made = None if h is None else h._made
    if made is not None and made[1] is g and made[2] is params and (
        made[0] == row.operation or made[0] == row.edge_operation
    ):
        name, param = made[0], params  # what the operation read, validated and made (module doc)
    else:
        name, param, h = _operated(kind, row, g, params, h)
    if row.hypothesis is not None:
        row.hypothesis(g, param)
    colored, target = (g, h) if row.base == "G" else (h, g)
    doms, diag = _judge(colored, base)
    if not diag.ok:
        raise ValueError(f"base coloring of {row.role} is not a domination coloring: {diag}")
    vmap = OPERATIONS[name].vertex_map(g.n, param)  # G's vertex id -> H's
    case, fresh, extra = row.construction(g, param, base, doms, vmap)
    # Colors go forward along vmap unless its length is target's order,
    # and back otherwise (on an identity map both agree).  A vertex left
    # without a color must be fresh.
    colors = base.assignment
    if len(vmap) != target.n:
        assign = [None] * target.n
        for w, t in enumerate(vmap):
            if t is not None:
                assign[t] = colors[w]
    else:
        assign = [None if w is None else colors[w] for w in vmap]
    for color, w in enumerate(fresh, base.class_count):
        assign[w] = color
    return _outcome(case, target, Coloring(assign), base.class_count + extra)


def extend_witness(kind: str, g: Graph, params, base: Coloring, h: Graph | None = None) -> WitnessOutcome:
    """One fresh color realizes the airtight proof directions; see module doc."""
    return _witness(True, kind, g, params, base, h)


def reduce_witness(kind: str, g: Graph, params, base: Coloring, h: Graph | None = None) -> WitnessOutcome:
    """Case-by-case constructions of the non-airtight proof directions."""
    return _witness(False, kind, g, params, base, h)
