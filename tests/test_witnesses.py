import hashlib

import pytest

from domchrom import ops, witnesses
from domchrom.coloring import Coloring, is_domination_coloring
from domchrom.graph import (
    CycleSpec,
    Graph,
    bridges,
    cut_vertices,
    enumerate_connected_graphs,
    enumerate_cycles,
    from_edges,
    is_connected,
    make_named,
    parse_graph6,
    to_graph6,
)
from domchrom.harness import _SPECS, HarnessConfig, TheoremCheck, check_theorem, corpus_up_to, theorem_instances
from domchrom.ops import contract_edge, contract_vertices, cycle_extend, remove_edge, remove_vertex
from domchrom.solver import chi_dd_exact, chi_dd_oracle
from domchrom.witnesses import EXTEND_KINDS, WITNESS_KINDS, extend_witness, reduce_witness


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


@pytest.mark.parametrize(
    "witness, kind, params, message",
    [
        (extend_witness, "add_vertex", (0, 1), r"^add_vertex takes a vertex \(an int\), got \(0, 1\)$"),
        (extend_witness, "add_vertex", True, r"^add_vertex takes a vertex \(an int\), got True$"),
        (reduce_witness, "remove_vertex", 1.0, r"^remove_vertex takes a vertex \(an int\), got 1.0$"),
        (extend_witness, "add_edge", (0, 1, 2), r"^add_edge takes an edge \(two vertex ints\), got \(0, 1, 2\)$"),
        (reduce_witness, "uncontract", 0, r"^uncontract takes a vertex pair \(two vertex ints\), got 0$"),
        (extend_witness, "cycle_extend", 5, r"^cycle_extend takes a cycle \(a CycleSpec or a sequence of vertex ints\), got 5$"),
        # a vertex list is a cycle, as check_theorem takes it, and is validated as one
        (reduce_witness, "remove_hub", [0, 1, 3, 2], "^consecutive cycle vertices 1 and 3 are not adjacent$"),
    ],
    ids=["vertex-pair", "vertex-bool", "vertex-float", "edge-triple", "pair-int", "cycle-int", "cycle-list"],
)
def test_witnesses_reject_misshapen_params_naming_the_shape(witness, kind, params, message):
    with pytest.raises(ValueError, match=message):
        witness(kind, make_named("cycle", 4), params, Coloring([0, 1, 0, 1, 2]))


def test_remove_hub_takes_a_vertex_list_as_a_cycle():
    c4 = make_named("cycle", 4)
    base = Coloring([0, 1, 0, 1, 2])
    assert reduce_witness("remove_hub", c4, [0, 1, 2, 3], base) == reduce_witness(
        "remove_hub", c4, CycleSpec((0, 1, 2, 3)), base
    )


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


def _base_colorings():
    """A function giving each graph a domination coloring: a minimum one,
    solved once per graph, or all singletons when the graph is disconnected."""
    solved = {}

    def base_of(graph):
        if not is_connected(graph):
            return Coloring(range(graph.n))  # all classes singletons: a domination coloring
        key = to_graph6(graph)
        if key not in solved:
            solved[key] = chi_dd_exact(graph).witness
        return solved[key]

    return base_of


def test_witnesses_given_h_match_witnesses_that_build_it():
    # The harness hands each witness the H it built, which the witness
    # trusts; the same H without its record (rebuilt through the checked
    # constructor) is checked, and a witness without h builds H itself.
    # All three must give the same outcome, and reject the same params.
    config = HarnessConfig()
    base_of = _base_colorings()

    compared = 0
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            for theorem in (1, 2, 3, 4, 6):
                spec = _SPECS[theorem]
                for instance in theorem_instances(theorem, g, config):
                    try:
                        h = getattr(ops, spec.operation)(g, instance)
                    except ValueError:
                        h = g  # no H exists; the params must be rejected before h is used
                    bare = Graph(h.n, list(h.adj))
                    base = {"G": base_of(g), "H": base_of(h)}
                    for witness, kind in zip((extend_witness, reduce_witness), spec.witnesses):
                        side = WITNESS_KINDS[kind].base
                        built = _result(witness, kind, g, instance, base[side])
                        given = _result(witness, kind, g, instance, base[side], h=h)
                        unrecorded = _result(witness, kind, g, instance, base[side], h=bare)
                        assert given == built == unrecorded, (to_graph6(g), theorem, instance, kind)
                        compared += 1
            base = Coloring(range(g.n))
            for kind, params in _malformed(g):
                witness = extend_witness if kind in EXTEND_KINDS else reduce_witness
                built = _result(witness, kind, g, params, base)
                assert isinstance(built, str), (to_graph6(g), kind, params)
                assert _result(witness, kind, g, params, base, h=g) == built
                assert _result(witness, kind, g, params, base, h=Graph(g.n, list(g.adj))) == built
    assert compared > 30000


def _outcome_line(g6, theorem, kind, label, result):
    """One text line per witness outcome, or the message of its ValueError."""
    if isinstance(result, str):
        return f"{g6} {theorem} {kind} {label} {result}"
    gap = result.gap_report
    tail = "- -" if gap is None else f"{gap.reason} {gap.budget}"
    return (
        f"{g6} {theorem} {kind} {label} {result.status} {result.case} "
        f"{result.colors_used} {result.coloring.to_text()} {tail}"
    )


def test_witness_outcomes_digest_n5():
    # Every witness outcome or error over theorems 1-4 and 6 on n <= 5,
    # given the H the harness builds, hashed into one digest: a change to
    # the witnesses that keeps behaviour keeps both the count and the hash.
    config = HarnessConfig()
    base_of = _base_colorings()

    digest = hashlib.sha256()
    lines = outcomes = 0
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            g6 = to_graph6(g)
            for theorem in (1, 2, 3, 4, 6):
                spec = _SPECS[theorem]
                op = ops.OPERATIONS[spec.operation]
                for instance in theorem_instances(theorem, g, config):
                    try:
                        h = getattr(ops, spec.operation)(g, instance)
                    except ValueError:
                        h = g
                    base = {"G": base_of(g), "H": base_of(h)}
                    for witness, kind in zip((extend_witness, reduce_witness), spec.witnesses):
                        result = _result(witness, kind, g, instance, base[WITNESS_KINDS[kind].base], h=h)
                        line = _outcome_line(g6, theorem, kind, op.label(instance), result)
                        digest.update(line.encode() + b"\n")
                        lines += 1
                        outcomes += not isinstance(result, str)
    assert (lines, outcomes) == (36134, 34232)  # 1,902 lines are errors
    assert digest.hexdigest() == "c14700f5784b5e183c8ef78e6d1e134a925723d91fb2dbcf600010a89d833beb"


@pytest.mark.parametrize(
    "witness, kind, params, h, message",
    [
        (extend_witness, "add_vertex", 0, make_named("path", 3), "remove_vertex makes order 4 from G, but h has order 3"),
        (reduce_witness, "remove_vertex", 0, make_named("path", 6), "remove_vertex makes order 4 from G, but h has order 6"),
        (extend_witness, "cycle_extend", (0, 1, 2, 3, 4), make_named("cycle", 5), "cycle_extend makes order 6 from G, but h has order 5"),
    ],
    ids=["add_vertex", "remove_vertex", "cycle_extend"],
)
def test_a_given_h_of_the_wrong_order_is_refused_before_any_color_is_carried(witness, kind, params, h, message):
    c5 = make_named("cycle", 5)
    base = chi_dd_exact(c5 if WITNESS_KINDS[kind].base == "G" else remove_vertex(c5, 0)).witness
    with pytest.raises(ValueError, match=f"^{message}$"):
        witness(kind, c5, params, base, h=h)


@pytest.mark.parametrize(
    "witness, kind, params, h, message",
    [
        # C5 - 0 is the path P4, not C4
        (extend_witness, "add_vertex", 0, from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), "remove_vertex"),
        (reduce_witness, "remove_edge", (0, 1), make_named("star", 4), "remove_edge"),
        # (0, 2) is no edge of C5, so uncontract compares h with that contraction
        (reduce_witness, "uncontract", (0, 2), contract_edge(make_named("cycle", 5), (0, 1)), "contract_vertices"),
    ],
    ids=["add_vertex", "remove_edge", "uncontract"],
)
def test_a_given_h_that_is_not_the_operations_graph_is_refused(witness, kind, params, h, message):
    c5 = make_named("cycle", 5)
    base = chi_dd_exact(h if WITNESS_KINDS[kind].base == "H" else c5).witness
    with pytest.raises(ValueError, match=f"^h is not the graph {message} makes from G$"):
        witness(kind, c5, params, base, h=h)


def _counted_reads(monkeypatch) -> list[str]:
    """The name of each operation whose parameter reader runs from now on:
    the checked path reads the parameter, a trusted H does not."""
    reads = []
    for name, op in ops.OPERATIONS.items():
        def read(x, _read=op.read, _name=name):
            reads.append(_name)
            return _read(x)
        monkeypatch.setitem(ops.OPERATIONS, name, op._replace(read=read))
    return reads


def test_only_the_operations_own_record_skips_the_checked_path(monkeypatch):
    c5 = make_named("cycle", 5)
    twin = parse_graph6(to_graph6(c5))  # equal to c5, but another G
    base_g = chi_dd_exact(c5).witness
    reads = _counted_reads(monkeypatch)
    for theorem, instance in ((1, 1), (2, (0, 1)), (3, (1, 2)), (4, (0, 2)), (6, CycleSpec((0, 1, 2, 3, 4)))):
        spec = _SPECS[theorem]
        h = getattr(ops, spec.operation)(c5, instance)
        if theorem == 1:
            equal_params = [True]  # reads as vertex 1 unless refused
        elif theorem == 6:
            equal_params = [CycleSpec(instance.vertices), list(instance.vertices)]
        else:
            equal_params = [tuple(list(instance)), list(instance)]
        # another operation that takes the very same params on this G
        make_other = {1: ops.subdivide, 2: ops.contract_edge, 3: ops.remove_edge}.get(theorem)
        base = {"G": base_g, "H": chi_dd_exact(h).witness}
        for witness, kind in zip((extend_witness, reduce_witness), spec.witnesses):
            b = base[WITNESS_KINDS[kind].base]
            reads.clear()
            trusted = witness(kind, c5, instance, b, h=h)
            assert reads == [], (theorem, kind)
            assert trusted == witness(kind, c5, instance, b)
            planted = [(twin, instance, h)] + [(c5, p, h) for p in equal_params]
            for g, params, given in planted:
                reads.clear()
                result = _result(witness, kind, g, params, b, h=given)
                assert reads[:1] == [WITNESS_KINDS[kind].operation], (theorem, kind, params)
                assert result == _result(witness, kind, g, params, b), (theorem, kind, params)
            if make_other is not None:
                other = make_other(c5, instance)
                reads.clear()
                with pytest.raises(ValueError, match=f"makes order {h.n} from G, but h has order {other.n}$"):
                    witness(kind, c5, instance, b, h=other)
                assert reads, (theorem, kind)


def test_the_harness_hands_each_witness_an_h_it_trusts(monkeypatch):
    # each H check_theorem builds carries its record: no witness rebuilds it
    rebuilt = []
    for name in ("remove_vertex", "remove_edge", "contract_edge", "contract_vertices", "cycle_extend"):
        def spy(g, param, _op=getattr(witnesses, name)):
            rebuilt.append(_op.__name__)
            return _op(g, param)
        monkeypatch.setattr(witnesses, name, spy)
    config = HarnessConfig()
    checks = 0
    for g in corpus_up_to(4):
        for theorem in (1, 2, 3, 4, 6):
            for instance in theorem_instances(theorem, g, config):
                checks += isinstance(check_theorem(theorem, g, instance, config=config), TheoremCheck)
    assert checks > 100 and rebuilt == []
    reduce_witness("remove_vertex", make_named("cycle", 4), 0, Coloring([0, 1, 0, 1]))
    assert rebuilt == ["remove_vertex"]  # without h, the witness builds H through the spied global


def test_hypothesis_errors_come_before_base_errors():
    p3 = make_named("path", 3)
    improper = Coloring([0, 0, 0])
    with pytest.raises(ValueError, match=r"^vertex 1 is a cut vertex; theorem hypothesis fails$"):
        reduce_witness("remove_vertex", p3, 1, improper)
    with pytest.raises(ValueError, match=r"^\(0,1\) is a bridge; theorem hypothesis fails$"):
        reduce_witness("remove_edge", p3, (1, 0), improper)
