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

Every construction makes one move, keep-and-fresh: carry the base colors
across the operation's vertex correspondence (``removal_index_map``,
``contraction_index_map``, or the identity for edge operations and the
hub), give each of a few named vertices a fresh color of its own, and
check the result against the proof's color budget.  A branch only names
its map, its fresh vertices, its proof case and its budget.

Argument convention: ``g`` is always the theorem's graph G, and ``h`` is
the graph H the theorem's operation makes from G; :data:`WITNESS_KINDS`
names that operation for each kind, and which of G and H the base
coloring colors.  A caller that has built H already (the corpus harness)
passes it; otherwise it is built from ``g`` and ``params``.  Either way
``params`` are read by the operation's reader and validated against
``g``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .coloring import Coloring, DominationDiagnostic, _judge, is_domination_coloring
from .graph import Graph, bridges, cut_vertices, iter_bits
from .ops import (  # the operations as well: _operated calls them by name
    OPERATIONS,
    contract_edge,
    contract_vertices,
    contraction_index_map,
    cycle_extend,
    remove_edge,
    removal_index_map,
    remove_vertex,
)


class WitnessKind(NamedTuple):
    operation: str  # the theorem's operation G -> H, a key of ops.OPERATIONS
    base: str  # "G" or "H": the graph the base coloring colors
    extend: bool  # an airtight direction (extend_witness), else a case analysis


WITNESS_KINDS = {
    "add_vertex": WitnessKind("remove_vertex", "H", True),
    "add_edge": WitnessKind("remove_edge", "H", True),
    "contract_edge": WitnessKind("contract_edge", "G", True),
    "contract_vertices": WitnessKind("contract_vertices", "G", True),
    "cycle_extend": WitnessKind("cycle_extend", "G", True),
    "remove_vertex": WitnessKind("remove_vertex", "G", False),
    "remove_edge": WitnessKind("remove_edge", "G", False),
    # undoes either contraction: contract_edge when the pair is an edge
    "uncontract": WitnessKind("contract_vertices", "H", False),
    "remove_hub": WitnessKind("cycle_extend", "H", False),
}
EXTEND_KINDS = tuple(kind for kind, w in WITNESS_KINDS.items() if w.extend)
REDUCE_KINDS = tuple(kind for kind, w in WITNESS_KINDS.items() if not w.extend)


def _operated(kind: str, g: Graph, params, h: Graph | None):
    """``params`` read and validated against G, and H: as given, or built from G."""
    name = WITNESS_KINDS[kind].operation
    op = OPERATIONS[name]
    param = op.read(params)
    if param is None:
        raise ValueError(f"{kind} takes {op.shape}, got {params!r}")
    if kind == "uncontract" and g.has_edge(*param):
        if h is not None:
            return param, h  # has_edge is contract_edge's whole validation
        name = "contract_edge"
    if h is None:
        return param, globals()[name](g, param)  # this module's global: see the ops docstring
    OPERATIONS[name].validate(g, param)
    return param, h


@dataclass(frozen=True)
class GapReport:
    """Why a constructed coloring failed: which condition, against which color budget."""

    reason: str  # "definition", "over_budget", or "definition+over_budget"
    diagnostic: DominationDiagnostic | None
    budget: int


@dataclass(frozen=True)
class WitnessOutcome:
    status: str  # "validated" | "gap"
    coloring: Coloring
    colors_used: int
    case: str
    gap_report: GapReport | None


def _require_dom(g: Graph, c: Coloring, role: str) -> tuple[int, ...]:
    """Raise unless ``c`` is a domination coloring of ``g``; return each class's dominator mask."""
    doms, diag = _judge(g, c)
    if not diag.ok:
        raise ValueError(f"{role} is not a domination coloring: {diag}")
    return doms


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


def _recolor(case: str, target: Graph, base: Coloring, vmap, fresh, extra: int) -> WitnessOutcome:
    """Keep the base colors across ``vmap``, give each vertex of ``fresh``
    (target ids, in order) a new color of its own, and judge the result
    against a budget of ``extra`` colors beyond the base's.

    ``vmap`` maps G's vertices to H's, and the base colors whichever of G
    and H is not ``target``: colors go forward along it unless its length
    is ``target``'s order, and back otherwise (on an identity map both
    agree).  A vertex left without a color must be fresh.
    """
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
    if kind not in EXTEND_KINDS:
        raise ValueError(f"unknown extend kind {kind!r}; expected one of {EXTEND_KINDS}")
    param, h = _operated(kind, g, params, h)
    if kind == "add_vertex":
        _require_dom(h, base, "base coloring of G - v")
        return _recolor("main", g, base, removal_index_map(g.n, param), [param], 1)

    if kind == "add_edge":
        u, v = sorted(param)
        _require_dom(h, base, "base coloring of G - e")
        if base.assignment[u] == base.assignment[v]:
            # the smaller endpoint takes the fresh color
            return _recolor("same_color", g, base, range(g.n), [u], 1)
        return _recolor("distinct_colors", g, base, range(g.n), [], 0)

    _require_dom(g, base, "base coloring of G")
    if kind == "cycle_extend":
        return _recolor("main", h, base, range(g.n), [g.n], 1)
    imap = contraction_index_map(g.n, param)  # contract_edge, contract_vertices
    return _recolor("main", h, base, imap, [imap[param[0]]], 1)


def _classes_dominated_only_by(c: Coloring, doms: tuple[int, ...], v: int) -> int:
    """Bitset of vertices lying in classes whose sole dominator is v, given
    the dominator mask of each class of ``c``."""
    vbit = 1 << v
    flagged = 0
    for members, dom in zip(c.classes, doms):
        if dom == vbit:
            flagged |= members
    return flagged & ~vbit


def reduce_witness(kind: str, g: Graph, params, base: Coloring, h: Graph | None = None) -> WitnessOutcome:
    """Case-by-case constructions of the non-airtight proof directions."""
    if kind not in REDUCE_KINDS:
        raise ValueError(f"unknown reduce kind {kind!r}; expected one of {REDUCE_KINDS}")
    param, h = _operated(kind, g, params, h)
    if kind == "remove_vertex":
        v = param
        if v in cut_vertices(g):
            raise ValueError(f"vertex {v} is a cut vertex; theorem hypothesis fails")
        doms = _require_dom(g, base, "base coloring of G")
        case = "case1" if base.classes[base.assignment[v]] != (1 << v) else "case2"
        imap = removal_index_map(g.n, v)
        fresh = [imap[w] for w in iter_bits(_classes_dominated_only_by(base, doms, v))]
        return _recolor(case, h, base, imap, fresh, g.degree(v) - 1)

    if kind == "remove_edge":
        u, v = sorted(param)
        if (u, v) in bridges(g):
            raise ValueError(f"({u},{v}) is a bridge; theorem hypothesis fails")
        doms = _require_dom(g, base, "base coloring of G")
        i, j = base.assignment[u], base.assignment[v]
        u_dominates_vs_class = bool((doms[j] >> u) & 1)
        v_dominates_us_class = bool((doms[i] >> v) & 1)
        if u_dominates_vs_class and v_dominates_us_class:
            case, fresh = "case3", [u, v]
        elif u_dominates_vs_class:
            case, fresh = "case2", [v]  # the endpoint whose class the other dominates
        elif v_dominates_us_class:
            case, fresh = "case2", [u]
        else:
            case, fresh = "case1", []
        return _recolor(case, h, base, range(g.n), fresh, 2)

    if kind == "uncontract":
        _require_dom(h, base, "base coloring of the contracted graph")
        return _recolor("main", g, base, contraction_index_map(g.n, param), list(param), 2)

    cyc = param  # remove_hub
    doms = _require_dom(h, base, "base coloring of the cycle-extended graph")
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
    fresh = list(iter_bits(flagged))[: cyc.length]
    return _recolor(case, g, base, range(g.n), fresh, cyc.length)
