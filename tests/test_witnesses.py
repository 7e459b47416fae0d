import pytest

from domchrom.coloring import Coloring, is_domination_coloring
from domchrom.graph import (
    CycleSpec,
    bridges,
    cut_vertices,
    enumerate_connected_graphs,
    enumerate_cycles,
    is_connected,
    make_named,
    to_graph6,
)
from domchrom.harness import _SPECS, HarnessConfig, theorem_instances
from domchrom.ops import contract_edge, contract_vertices, cycle_extend, remove_edge, remove_vertex
from domchrom.solver import chi_dd_exact, chi_dd_oracle
from domchrom.witnesses import EXTEND_KINDS, extend_witness, reduce_witness


def test_extend_add_vertex_example():
    c4 = make_named("cycle", 4)
    base = Coloring([0, 1, 0])  # C_4 - 0 is the path 1-2-3, ends vs middle
    out = extend_witness("add_vertex", c4, 0, base)
    assert out.status == "validated"
    assert out.colors_used == 3 <= base.class_count + 1
    ok, _ = is_domination_coloring(c4, out.coloring)
    assert ok


def test_extend_add_edge_both_cases():
    c4 = make_named("cycle", 4)
    base_distinct = Coloring([0, 1, 2, 1])  # valid on C_4 - (0,1): path 1-2-3-0
    out = extend_witness("add_edge", c4, (0, 1), base_distinct)
    assert out.status == "validated"
    assert out.case == "distinct_colors"
    assert out.colors_used == base_distinct.class_count
    # same-color case: K_3 minus an edge is the path 0-2-1
    k3 = make_named("complete", 3)
    base_same = Coloring([0, 0, 1])
    out = extend_witness("add_edge", k3, (0, 1), base_same)
    assert out.status == "validated"
    assert out.case == "same_color"
    assert out.colors_used == base_same.class_count + 1


def test_extend_contract_edge_example():
    c4 = make_named("cycle", 4)
    out = extend_witness("contract_edge", c4, (0, 1), Coloring([0, 1, 0, 1]))
    assert out.status == "validated"
    assert out.colors_used == 3
    target = contract_edge(c4, (0, 1))
    ok, _ = is_domination_coloring(target, out.coloring)
    assert ok


def test_extend_contract_vertices_example():
    p3 = make_named("path", 3)
    out = extend_witness("contract_vertices", p3, (0, 2), Coloring([0, 1, 0]))
    assert out.status == "validated"
    assert out.colors_used <= 3


def test_extend_cycle_extend_example():
    c4 = make_named("cycle", 4)
    out = extend_witness("cycle_extend", c4, CycleSpec((0, 1, 2, 3)), Coloring([0, 1, 0, 1]))
    assert out.status == "validated"
    assert out.colors_used == 3
    w4 = cycle_extend(c4, CycleSpec((0, 1, 2, 3)))
    assert out.colors_used == chi_dd_oracle(w4)  # tight here


def test_extend_rejects_bad_base():
    c4 = make_named("cycle", 4)
    with pytest.raises(ValueError):
        extend_witness("add_vertex", c4, 0, Coloring([0, 0, 1]))  # improper base
    with pytest.raises(ValueError):
        extend_witness("add_edge", c4, (0, 2), Coloring([0, 1, 0, 1]))  # not an edge
    with pytest.raises(ValueError):
        extend_witness("warp", c4, 0, Coloring([0, 1, 0, 1]))


def test_reduce_remove_vertex_example():
    out = reduce_witness("remove_vertex", make_named("complete", 3), 2, Coloring([0, 1, 2]))
    assert out.status == "validated"
    assert out.case == "case2"
    assert out.colors_used == 2
    with pytest.raises(ValueError):
        reduce_witness("remove_vertex", make_named("path", 3), 1, Coloring([0, 1, 0]))


def test_reduce_remove_edge_case3_example():
    c4 = make_named("cycle", 4)
    out = reduce_witness("remove_edge", c4, (0, 1), Coloring([0, 1, 0, 1]))
    assert out.status == "validated"
    assert out.case == "case3"
    assert out.colors_used == 4 <= 2 + 2
    ok, _ = is_domination_coloring(remove_edge(c4, (0, 1)), out.coloring)
    assert ok
    with pytest.raises(ValueError):
        reduce_witness("remove_edge", make_named("path", 3), (0, 1), Coloring([0, 1, 0]))


def test_reduce_uncontract_example():
    c4 = make_named("cycle", 4)
    out = reduce_witness("uncontract", c4, (0, 1), Coloring([0, 1, 2]))
    assert out.status == "validated"
    assert out.colors_used == 4 <= 3 + 2
    ok, _ = is_domination_coloring(c4, out.coloring)
    assert ok


def test_reduce_remove_hub_cases():
    c4 = make_named("cycle", 4)
    cyc = CycleSpec((0, 1, 2, 3))
    w4 = cycle_extend(c4, cyc)
    hub_solo = Coloring([0, 1, 0, 1, 2])
    out = reduce_witness("remove_hub", c4, cyc, hub_solo)
    assert out.case == "case1"
    assert out.status == "validated"
    assert out.colors_used <= hub_solo.class_count + 4
    ok, _ = is_domination_coloring(w4, hub_solo)
    assert ok


def test_witness_outcomes_stay_within_budget_when_validated():
    # every validated outcome respects its color budget by construction;
    # spot-check the arithmetic over a small corpus
    for g in enumerate_connected_graphs(4):
        base = chi_dd_exact(g).witness
        k = base.class_count
        cuts = cut_vertices(g)
        for v in range(g.n):
            if v in cuts:
                continue
            out = reduce_witness("remove_vertex", g, v, base)
            if out.status == "validated":
                assert out.colors_used <= k + g.degree(v) - 1
        brs = bridges(g)
        for e in g.edges():
            if e in brs:
                continue
            out = reduce_witness("remove_edge", g, e, base)
            if out.status == "validated":
                assert out.colors_used <= k + 2


def test_extend_witness_validates_everywhere_n4():
    # the airtight directions really are airtight on the n <= 4 corpus
    for n in range(2, 5):
        for g in enumerate_connected_graphs(n):
            base = chi_dd_exact(g).witness
            cuts = cut_vertices(g)
            for v in range(g.n):
                if v in cuts:
                    continue
                smaller = chi_dd_exact(remove_vertex(g, v)).witness
                assert extend_witness("add_vertex", g, v, smaller).status == "validated"
            brs = bridges(g)
            for e in g.edges():
                if e not in brs:
                    smaller = chi_dd_exact(remove_edge(g, e)).witness
                    assert extend_witness("add_edge", g, e, smaller).status == "validated"
                assert extend_witness("contract_edge", g, e, base).status == "validated"
            for v in range(g.n):
                for u in range(v):
                    if not g.has_edge(u, v):
                        out = extend_witness("contract_vertices", g, (u, v), base)
                        assert out.status == "validated"
            if g.n >= 3:
                for cyc in enumerate_cycles(g, g.n):
                    assert extend_witness("cycle_extend", g, cyc, base).status == "validated"


def test_validated_witnesses_never_beat_the_solver():
    # colors_used of any validated outcome is >= chi_dd of the target graph
    for g in enumerate_connected_graphs(4):
        base = chi_dd_exact(g).witness
        for u, v in g.edges():
            out = extend_witness("contract_edge", g, (u, v), base)
            target = contract_edge(g, (u, v))
            assert out.colors_used >= chi_dd_exact(target).chi_dd
        for cyc in enumerate_cycles(g, 4) if g.n >= 3 else []:
            out = extend_witness("cycle_extend", g, cyc, base)
            target = cycle_extend(g, cyc)
            assert out.colors_used >= chi_dd_exact(target).chi_dd


def test_reduce_gap_is_a_finding_not_an_error():
    # Known proof gap (theorem on contractions, lower direction): after
    # uncontracting, a class previously dominated only by the merged vertex
    # may lose its dominator.  Scan a corpus and require every gap outcome
    # to be justified by the definition checker; the witness never lies.
    # Two fresh colors never exceed the k + 2 budget, so every gap here is
    # a definition failure.
    gaps = 0
    for g in enumerate_connected_graphs(5):
        for u, v in g.edges():
            base = chi_dd_exact(contract_edge(g, (u, v))).witness
            out = reduce_witness("uncontract", g, (u, v), base)
            if out.status == "gap":
                gaps += 1
                assert out.gap_report.reason == "definition"
                assert not out.gap_report.diagnostic.ok
    # the inequality itself always holds; gaps are recorded, not fatal
    assert gaps > 0


@pytest.mark.parametrize("v", [9, -1])
def test_reduce_remove_vertex_rejects_vertex_out_of_range(v):
    with pytest.raises(ValueError, match=f"vertex {v} out of range for order 3"):
        reduce_witness("remove_vertex", make_named("complete", 3), v, Coloring([0, 1, 2]))


def _result(witness, *args, **kwargs):
    """The witness outcome, or the message of the ValueError it raised."""
    try:
        return witness(*args, **kwargs)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _malformed(g):
    """(kind, params) pairs every witness must reject for ``g``."""
    n = g.n
    pairs = [(0, 0), (0, n), (-1, 0)]
    non_edges = [(u, v) for v in range(n) for u in range(v) if not g.has_edge(u, v)]
    cycles = [CycleSpec((n, n + 1, n + 2))]
    if n >= 3 and not all(g.has_edge(a, b) for a, b in ((0, 1), (1, 2), (0, 2))):
        cycles.append(CycleSpec((0, 1, 2)))
    cases = [(kind, v) for kind in ("add_vertex", "remove_vertex") for v in (n, -1)]
    cases += [
        (kind, e) for kind in ("add_edge", "remove_edge", "contract_edge") for e in pairs + non_edges[:1]
    ]
    cases += [("contract_vertices", e) for e in pairs + g.edges()[:1]]
    cases += [("uncontract", e) for e in pairs]
    cases += [(kind, cyc) for kind in ("cycle_extend", "remove_hub") for cyc in cycles]
    return cases


def test_witnesses_given_h_match_witnesses_that_build_it():
    # The harness hands each witness the H it built; a witness that builds
    # H itself must give the same outcome, and reject the same params.
    config = HarnessConfig()
    solved = {}

    def base_of(graph):
        if not is_connected(graph):
            return Coloring(range(graph.n))  # all classes singletons: a domination coloring
        key = to_graph6(graph)
        if key not in solved:
            solved[key] = chi_dd_exact(graph).witness
        return solved[key]

    compared = 0
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            for theorem in (1, 2, 3, 4, 6):
                spec = _SPECS[theorem]
                (ext_kind, ext_side), (red_kind, red_side) = spec.witnesses
                for instance in theorem_instances(theorem, g, config):
                    try:
                        h = spec.apply(g, instance)
                    except ValueError:
                        h = g  # no H exists; the params must be rejected before h is used
                    base = {"G": base_of(g), "H": base_of(h)}
                    for witness, kind, side in (
                        (extend_witness, ext_kind, ext_side),
                        (reduce_witness, red_kind, red_side),
                    ):
                        built = _result(witness, kind, g, instance, base[side])
                        given = _result(witness, kind, g, instance, base[side], h=h)
                        assert given == built, (to_graph6(g), theorem, instance, kind)
                        compared += 1
            base = Coloring(range(g.n))
            for kind, params in _malformed(g):
                witness = extend_witness if kind in EXTEND_KINDS else reduce_witness
                built = _result(witness, kind, g, params, base)
                assert isinstance(built, str), (to_graph6(g), kind, params)
                assert _result(witness, kind, g, params, base, h=g) == built
    assert compared > 30000
