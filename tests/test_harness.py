import pickle
import random
from dataclasses import replace

import pytest

from domchrom import harness
from domchrom.coloring import Coloring, is_domination_coloring
from domchrom.graph import (
    CycleSpec,
    Graph,
    canonical_form,
    enumerate_connected_graphs,
    from_edges,
    is_connected,
    make_named,
    parse_graph6,
    to_graph6,
)
from domchrom.harness import (
    GAP_EXAMPLE_CAP,
    CorpusReport,
    HarnessConfig,
    SkippedCheck,
    TheoremCheck,
    TheoremStats,
    check_theorem,
    corpus_up_to,
    run_corpus,
    theorem_instances,
)
from domchrom.ops import contract_edge, contract_vertices, subdivide
from domchrom.solver import DEFAULT_BUDGET, SolveResult, _search_order, chi_dd_exact, chi_dd_oracle, search_form
from domchrom.witnesses import GapReport, WitnessOutcome, extend_witness


def test_check_theorem_1_example():
    chk = check_theorem(1, make_named("cycle", 4), 0)
    assert isinstance(chk, TheoremCheck)
    assert (chk.chi_before, chk.chi_after) == (2, 2)
    assert (chk.lower, chk.upper) == (1, 3)
    assert chk.holds
    assert chk.witness_extend == "validated"


def test_check_theorem_1_skips_cut_vertex():
    chk = check_theorem(1, make_named("path", 3), 1)
    assert isinstance(chk, SkippedCheck)
    assert chk.reason == "cut vertex"


def test_check_theorem_2_skips_bridge():
    chk = check_theorem(2, make_named("path", 2), (0, 1))
    assert isinstance(chk, SkippedCheck)
    assert chk.reason == "bridge"


def test_check_theorem_5_example():
    chk = check_theorem(5, make_named("cycle", 3), 2)
    assert isinstance(chk, TheoremCheck)
    assert chk.chi_after == 4  # S_2(C_3) = C_6
    assert (chk.lower, chk.upper) == (2, 6)
    assert chk.holds


def test_check_theorem_5_order_cap_skip():
    cfg = HarnessConfig(subdivided_cap=5)
    chk = check_theorem(5, make_named("cycle", 3), 4, config=cfg)
    assert isinstance(chk, SkippedCheck)
    assert "cap" in chk.reason


def test_check_theorem_6_example():
    chk = check_theorem(6, make_named("cycle", 4), CycleSpec((0, 1, 2, 3)))
    assert isinstance(chk, TheoremCheck)
    assert chk.chi_after == 3  # the 5-vertex wheel
    assert (chk.lower, chk.upper) == (-2, 3)
    assert chk.holds and chk.chi_after == chk.upper


@pytest.mark.parametrize(
    "theorem,graph6,contract",
    [(3, "G@?I\\c", lambda g: contract_edge(g, (6, 7))), (4, "GGE?~?", lambda g: contract_vertices(g, (6, 7)))],
    ids=["thm3", "thm4"],
)
def test_known_violations_at_n8(theorem, graph6, contract):
    # contracting the pair 6-7 takes chi_dd from 6 to 3, below the lower
    # bound chi_dd(G) - 2 = 4 that theorems 3 and 4 state; the oracle agrees
    g = parse_graph6(graph6)
    chk = check_theorem(theorem, g, (6, 7))
    assert isinstance(chk, TheoremCheck)
    assert (chk.chi_before, chk.chi_after) == (6, 3)
    assert (chk.lower, chk.upper) == (4, 7)
    assert not chk.holds
    assert (chi_dd_oracle(g), chi_dd_oracle(contract(g))) == (6, 3)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_blade_family_breaks_the_contraction_lower_bounds(blade_graph, s):
    # contracting the hub edge of B(s) (theorem 3), or merging hubs that
    # share one neighbour (theorem 4), takes chi_dd from 2s + 2 to s + 1:
    # below the lower bound chi_dd(G) - 2 = 2s from s = 2 on
    if s == 2:
        assert to_graph6(blade_graph(2)) == "ItaIAD?OG"
    if s == 3:
        assert to_graph6(blade_graph(3)) == "MtmCKL?OI@g?O@O@_"
    for theorem, g in ((3, blade_graph(s)), (4, blade_graph(s, shared=True))):
        chk = check_theorem(theorem, g, (0, 1))
        assert isinstance(chk, TheoremCheck)
        assert (g.n, chk.chi_before, chk.chi_after) == (4 * s + 2 + (theorem == 4), 2 * s + 2, s + 1)
        assert (chk.lower, chk.upper) == (2 * s, 2 * s + 3)
        assert chk.holds == (s == 1)


def test_check_theorem_rejects_bad_instance():
    with pytest.raises(ValueError):
        check_theorem(2, make_named("path", 3), (0, 2))
    with pytest.raises(ValueError):
        check_theorem(7, make_named("path", 3), 0)


def test_solve_cache_solves_each_distinct_graph_once(monkeypatch):
    # a labeled graph is solved through its search form, theorem 5's
    # canonical H as it is: each such graph is solved once however many
    # labelings and instances meet it; the count is pinned
    solves = []

    def counting(g, budget):
        solves.append(g.adj)
        return chi_dd_exact(g, budget)

    monkeypatch.setattr(harness, "chi_dd_exact", counting)
    report = run_corpus(corpus_up_to(5), HarnessConfig())
    assert sum(s.counts()["instances"] for s in report.per_theorem.values()) == 18302
    assert len(solves) == len(set(solves)) == 256


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _search_form_sets(blade_graph):
    """The graphs on which search-form solves are checked against direct ones;
    the named families come with one seeded relabeling each, since B(s) and
    C_n are their own search forms."""
    small = list(corpus_up_to(6))
    classes = {}
    for g in small:
        if 2 <= g.n and g.m <= 6:
            c = canonical_form(g)
            classes.setdefault(c.adj, c)
    rng = random.Random(5)
    randoms = []
    while len(randoms) < 400:
        n = rng.randint(7, 12)
        p = rng.uniform(0.2, 0.7)
        g = from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])
        if is_connected(g):
            randoms.append(g)
    blades = [blade_graph(s, shared) for s in (2, 3, 4) for shared in (False, True)]
    lines = [make_named(family, n) for family in ("path", "cycle") for n in range(9, 31)]
    return {
        "n<=6": small,
        "criterion-4 subdivisions": [subdivide(c, k) for c in classes.values() for k in (2, 3, 4)],
        "random 7<=n<=12": randoms,
        "blades": blades + [_shuffled(g, rng) for g in blades],
        "paths and cycles": lines + [_shuffled(g, rng) for g in lines],
    }


def test_search_form_solves_match_direct_solves(blade_graph):
    # the search on g and on its search form finds the same first coloring
    # at each k (solver.search_form): through the harness's cache, carried
    # back, chi_dd and the witness are g's own on every graph of every set;
    # the carry-back check raises, so this holds under python -O as well
    sizes = {}
    for name, graphs in _search_form_sets(blade_graph).items():
        cache = {}
        relabeled = 0
        for g in graphs:
            order, masks = search_form(g)
            form = Graph(g.n, masks)
            assert _search_order(form) == list(range(g.n))
            assert search_form(form)[1] is form.adj
            relabeled += masks != g.adj
            via = harness._solve_cached(g, DEFAULT_BUDGET, cache)
            direct = chi_dd_exact(g)
            assert (via.status, via.chi_dd, via.witness) == ("exact", direct.chi_dd, direct.witness), (name, to_graph6(g))
        assert relabeled > 0, name
        sizes[name] = len(graphs)
    assert sizes == {
        "n<=6": 27476, "criterion-4 subdivisions": 123, "random 7<=n<=12": 400, "blades": 12, "paths and cycles": 88,
    }


def test_carried_back_witness_is_checked(monkeypatch):
    # a form's witness that fails on g raises, never passes as g's
    g = from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)])  # not its own search form
    assert search_form(g)[1] != g.adj

    def wrong(form, budget):
        return SolveResult(2, Coloring([0, 0, 1, 1]), "exact", 2, 2, 1)

    monkeypatch.setattr(harness, "chi_dd_exact", wrong)
    with pytest.raises(RuntimeError, match="carried back"):
        harness._solve_cached(g, DEFAULT_BUDGET, {})


def test_tight_budget_outcomes_follow_the_search_form():
    # a labeled graph's outcome is its search form's, so under a budget that
    # leaves some instances unknown the payload is the same for any worker
    # count and corpus order
    config = HarnessConfig(theorems=(1, 2, 3, 4, 6), budget=8)
    graphs = list(corpus_up_to(5))
    serial = run_corpus(graphs, config).to_payload()
    assert 0 < serial["summary"]["unknowns"] < sum(t["instances"] + t["unknowns"] for t in serial["per_theorem"].values())
    assert run_corpus(graphs[::-1], config).to_payload() == serial
    parallel = run_corpus(graphs, replace(config, workers=2)).to_payload()
    assert parallel["config"].pop("workers") == 2
    serial["config"].pop("workers")
    assert parallel == serial


def test_malformed_instance_raises_before_any_solve(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a malformed instance")

    monkeypatch.setattr(harness, "chi_dd_exact", no_solve)
    c4 = make_named("cycle", 4)
    for theorem, instance, message in [
        (1, 9, "vertex 9 out of range for order 4"),
        (2, (0, 2), r"\(0,2\) is not an edge"),
        (3, (2, 0), r"\(0,2\) is not an edge; use contract_vertices"),
        (4, (1, 1), "cannot contract a vertex with itself"),
        (4, (0, 1), r"\(0,1\) is an edge; use contract_edge"),
        (5, 0, "path of length k >= 2, got k=0"),
        (5, 1, "path of length k >= 2, got k=1"),
        (6, CycleSpec((0, 2, 1)), "consecutive cycle vertices 0 and 2 are not adjacent"),
        (6, (0, 2, 1), "consecutive cycle vertices 0 and 2 are not adjacent"),
        (6, (0, 1), "cycle length must be at least 3"),
        # a wrong-shaped instance, named by its theorem and the shape it takes
        (1, (0, 1), r"^theorem 1 takes a vertex \(an int\), got \(0, 1\)$"),
        (1, True, r"^theorem 1 takes a vertex \(an int\), got True$"),
        (2, (0, 1, 2), r"^theorem 2 takes an edge \(two vertex ints\), got \(0, 1, 2\)$"),
        (2, (0, True), r"^theorem 2 takes an edge \(two vertex ints\), got \(0, True\)$"),
        (3, (0, 1, 2), r"^theorem 3 takes an edge \(two vertex ints\), got \(0, 1, 2\)$"),
        (4, (0,), r"^theorem 4 takes a vertex pair \(two vertex ints\), got \(0,\)$"),
        (5, 2.0, r"^theorem 5 takes a path length k \(an int\), got 2.0$"),
        (6, 5, r"^theorem 6 takes a cycle \(a CycleSpec or a sequence of vertex ints\), got 5$"),
    ]:
        with pytest.raises(ValueError, match=message):
            check_theorem(theorem, c4, instance, config=HarnessConfig(budget=1))
    # theorem 5's k rule holds whatever the cap, though S(C4,1) = C4 is above this one
    with pytest.raises(ValueError, match="path of length k >= 2, got k=1"):
        check_theorem(5, c4, 1, config=HarnessConfig(budget=1, subdivided_cap=3))
    with pytest.raises(ValueError, match="path of length k >= 2, got k=1"):
        check_theorem(5, make_named("path", 30), 1)
    # with no edge there is nothing to subdivide, so no k is checked
    k1 = check_theorem(5, make_named("path", 1), 1)
    assert isinstance(k1, SkippedCheck) and k1.reason == "no edges"


def test_only_theorem5_applies_its_operation_to_the_canonical_form():
    assert [t for t, spec in harness._SPECS.items() if spec.canonical] == [5]


def test_theorem6_takes_a_vertex_sequence_as_a_cycle():
    c4 = make_named("cycle", 4)
    assert check_theorem(6, c4, (0, 1, 2, 3)) == check_theorem(6, c4, CycleSpec((0, 1, 2, 3)))


@pytest.mark.parametrize(
    "theorem, instance",
    [(1, 0), (2, (0, 1)), (3, (0, 1)), (4, (0, 3)), (5, 2), (6, CycleSpec((0, 1, 2)))],
)
def test_check_theorem_rejects_disconnected_graph_before_any_work(monkeypatch, theorem, instance):
    def no_work(*args, **kwargs):
        raise AssertionError("worked on a disconnected graph")

    for name in ("chi_dd_exact", "remove_vertex", "remove_edge", "contract_edge", "contract_vertices",
                 "subdivide", "cycle_extend"):
        monkeypatch.setattr(harness, name, no_work)
    split = from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])  # a triangle and an edge
    with pytest.raises(ValueError, match=r"^graph DwC is not connected; the theorems are about connected graphs$"):
        check_theorem(theorem, split, instance)


def test_theorem_instance_domains():
    g = make_named("path", 3)
    assert list(theorem_instances(1, g, HarnessConfig())) == [0, 1, 2]
    assert list(theorem_instances(2, g, HarnessConfig())) == [(0, 1), (1, 2)]
    assert list(theorem_instances(4, g, HarnessConfig())) == [(0, 2)]
    assert list(theorem_instances(5, g, HarnessConfig(k_values=(2, 3)))) == [2, 3]
    assert list(theorem_instances(6, g, HarnessConfig())) == []


def test_run_corpus_n3_theorem3_all_hold():
    # 4 labeled graphs on 3 vertices; every edge contraction respects the bounds
    report = run_corpus(
        enumerate_connected_graphs(3), HarnessConfig(theorems=(3,)), "n=3"
    )
    stats = report.per_theorem[3]
    counts = stats.counts()
    assert report.graphs == 4
    assert counts["instances"] == 3 * 2 + 3  # three paths with 2 edges, K_3 with 3
    assert counts["holds"] == counts["instances"]
    assert not stats.violations


def test_run_corpus_small_all_theorems():
    report = run_corpus(
        corpus_up_to(4), HarnessConfig(theorems=(1, 2, 3, 4, 6)), "n<=4"
    )
    assert report.violation_count == 0
    assert report.unknown_count == 0
    assert report.ok
    # skip accounting: instances + skips = combinatorial domain size
    cfg = HarnessConfig(theorems=(1, 2, 3, 4, 6))
    for t in (1, 2, 3, 4, 6):
        domain = sum(
            len(list(theorem_instances(t, g, cfg))) for g in corpus_up_to(4)
        )
        s = report.per_theorem[t]
        assert s.counts()["instances"] + sum(s.skips.values()) == domain


def test_run_corpus_empty_theorem_set():
    # a run that checks no theorem would read ok, so the config is refused
    with pytest.raises(ValueError, match="no theorem to check"):
        run_corpus(enumerate_connected_graphs(3), HarnessConfig(theorems=()), "n=3")


def test_run_corpus_rejects_repeated_theorem_ids():
    with pytest.raises(ValueError, match="repeat"):
        run_corpus(enumerate_connected_graphs(3), HarnessConfig(theorems=(1, 2, 1)), "n=3")


def test_harness_config_rejects_bad_values():
    for kwargs, message in [
        ({"workers": -4}, "workers must be at least 1"),
        ({"workers": 0}, "workers must be at least 1"),
        ({"budget": 0}, "budget must be a positive node count"),
        ({"theorems": (3, 1, 3)}, "theorem ids repeat in 3,1,3"),
        ({"theorems": ()}, "no theorem to check"),
        ({"theorems": (9,)}, "unknown theorem id 9; expected 1..6"),
        ({"theorems": (1, 0)}, "unknown theorem id 0; expected 1..6"),
        ({"k_values": ()}, "k_values is empty"),
        ({"k_values": (1, 2)}, "k_values must be at least 2, got 1,2"),
        ({"k_values": (3, 0)}, "k_values must be at least 2, got 3,0"),
        ({"k_values": (2, 3, 2)}, "k_values repeat in 2,3,2"),
        ({"subdivided_cap": 2}, "subdivided_cap must be at least 3, got 2"),
        ({"cycle_cap": 2}, "cycle_cap must be at least 3, got 2"),
        ({"cycle_cap": -1}, "cycle_cap must be at least 3, got -1"),
    ]:
        with pytest.raises(ValueError, match=message):
            HarnessConfig(**kwargs)
    # the solve cache keys graphs by adjacency, so graph6's one-byte header (n <= 62) is no cap
    for cap in (62, 63, 100):
        assert HarnessConfig(subdivided_cap=cap).subdivided_cap == cap


def test_theorem_ids_and_k_values_must_be_ints():
    # True == 1 and 1.0 == 1, so either would otherwise run theorem 1 and
    # report it under another name
    for theorem in (True, 1.0):
        with pytest.raises(ValueError, match=f"^theorem id must be an int, got {theorem!r}$"):
            HarnessConfig(theorems=(theorem,))
        with pytest.raises(ValueError, match=f"^theorem id must be an int, got {theorem!r}$"):
            check_theorem(theorem, make_named("cycle", 4), 0)
    # refused before any theorem runs, not when theorem 5 reaches the k
    for k in (2.5, True, "3"):
        with pytest.raises(ValueError, match=rf"^k_values: theorem 5 takes a path length k \(an int\), got {k!r}$"):
            HarnessConfig(k_values=(3, k))


def test_harness_config_int_fields_and_witnesses_must_have_their_types():
    # a bool or a float would otherwise run and be reported as given, and
    # workers=2.0 would pass here and fail in run_corpus
    for name in ("cycle_cap", "subdivided_cap", "budget", "workers"):
        for value in (True, 4.5, 10.5, 2.5, 2.0, "6"):
            with pytest.raises(ValueError, match=f"^{name} must be an int, got {value!r}$"):
                HarnessConfig(**{name: value})
    for value in ("no", 0, 1, None):
        with pytest.raises(ValueError, match=f"^witnesses must be a bool, got {value!r}$"):
            HarnessConfig(witnesses=value)
    assert HarnessConfig(witnesses=False, workers=2, budget=5).budget == 5


def test_harness_config_holds_theorems_and_k_values_as_tuples():
    # a range would not serialize into the payload, and a list would make the
    # frozen config unhashable
    expected = HarnessConfig(theorems=(1, 5), k_values=(2, 3))
    graphs = [make_named("cycle", 4)]
    payload = run_corpus(graphs, expected).to_json()
    for theorems, k_values in (([1, 5], range(2, 4)), (range(1, 6, 4), [2, 3]), (iter((1, 5)), (k for k in (2, 3)))):
        config = HarnessConfig(theorems=theorems, k_values=k_values)
        assert (config.theorems, config.k_values) == ((1, 5), (2, 3))
        assert config == expected and hash(config) == hash(expected)
        assert run_corpus(graphs, config).to_json() == payload


def test_corpus_up_to_checks_n_max_when_called():
    # a generator would find a bad n_max only after yielding every graph below it
    for n_max in (0, -1, 8):
        with pytest.raises(ValueError, match=rf"^corpus generator supports 1 <= n <= 7, got {n_max}$"):
            corpus_up_to(n_max)
    for n_max in (True, 3.0, "3"):
        with pytest.raises(ValueError, match=f"^n_max must be an int, got {n_max!r}$"):
            corpus_up_to(n_max)
    expected = [g for n in (1, 2, 3, 4) for g in enumerate_connected_graphs(n)]
    assert list(corpus_up_to(4)) == expected and len(expected) == 1 + 1 + 4 + 38


def test_report_determinism():
    cfg = HarnessConfig(theorems=(1, 2, 3))
    first = run_corpus(enumerate_connected_graphs(4), cfg, "n=4")
    second = run_corpus(enumerate_connected_graphs(4), cfg, "n=4")
    assert first.to_json() == second.to_json()
    assert first.to_text() == second.to_text()


def test_report_payload_shape():
    report = run_corpus(enumerate_connected_graphs(3), HarnessConfig(theorems=(1,)), "n=3")
    payload = report.to_payload()
    assert payload["schema"] == 1
    assert payload["graphs"] == 4
    assert "1" in payload["per_theorem"]
    assert payload["summary"]["ok"] is True


def test_extend_gap_count_is_not_capped():
    # extend gaps are counted, not kept as examples, so no cap applies
    total = GAP_EXAMPLE_CAP + 5
    halves = [TheoremStats(), TheoremStats()]
    for v in range(total):
        halves[v % 2].add(TheoremCheck(1, "C~", f"v={v}", 4, 3, 3, 6, True, witness_extend="gap"))
    halves[0].merge(halves[1])
    halves[0].finalize()
    report = CorpusReport("synthetic", HarnessConfig(theorems=(1,)), 1, {1: halves[0]})
    assert report.to_payload()["per_theorem"]["1"]["witness"]["extend_gaps"] == total


def test_unknowns_recorded_as_skips_not_holds():
    cfg = HarnessConfig(theorems=(1,), budget=1)
    report = run_corpus(enumerate_connected_graphs(4), cfg, "n=4 starved")
    stats = report.per_theorem[1]
    counts = stats.counts()
    assert counts["unknowns"] > 0
    assert report.unknown_count == counts["unknowns"]
    assert not report.ok
    assert counts["holds"] == counts["instances"] - len(stats.violations)


def test_budget_starved_solver_never_reports_holds():
    chk = check_theorem(1, make_named("cycle", 6), 0, config=HarnessConfig(budget=1))
    assert isinstance(chk, SkippedCheck)
    assert "budget" in chk.reason


def test_theorem5_oracle_cross_check_runs():
    # S_2(K_2) = P_3 has order 3 <= oracle guard; the assertion inside
    # check_theorem compares solver and oracle on it
    chk = check_theorem(5, make_named("complete", 2), 2)
    assert isinstance(chk, TheoremCheck)
    assert chk.chi_after == chi_dd_oracle(make_named("path", 3))


def _n5_m6_slice():
    return [g for g in corpus_up_to(5) if g.m <= 6]


def test_theorem5_solves_of_canonical_forms_match_the_labeled_sweep():
    # theorem 5 solves S(canonical_form(G), k); its chi_dd must be the labeled S(G, k)'s
    config = HarnessConfig(theorems=(5,))
    cache = {}
    checked = 0
    for g in _n5_m6_slice():
        for k in (2, 3, 4):
            chk = check_theorem(5, g, k, config=config, cache=cache)
            if g.m == 0:
                assert chk.reason == "no edges"
                continue
            assert chk.chi_after == chi_dd_exact(subdivide(g, k)).chi_dd
            checked += 1
    assert checked == 1785


def test_theorem5_outcomes_follow_the_isomorphism_class_under_a_tight_budget():
    # S(G,k) is solved on G's canonical form, so an "unknown" belongs to the
    # class: the payload does not depend on the worker count, and a
    # relabeled corpus gives the same counts
    graphs = _n5_m6_slice()
    serial = run_corpus(graphs, HarnessConfig(theorems=(5,), budget=1000))
    parallel = run_corpus(graphs, HarnessConfig(theorems=(5,), budget=1000, workers=2))
    assert serial.per_theorem[5].counts()["unknowns"] > 0
    a, b = serial.to_payload(), parallel.to_payload()
    for key in ("per_theorem", "violations", "summary"):
        assert a[key] == b[key]
    rng = random.Random(1909)
    relabeled = []
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled.append(from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
    again = run_corpus(relabeled, HarnessConfig(theorems=(5,), budget=1000)).per_theorem[5]
    assert again.row() == serial.per_theorem[5].row()
    assert again.skips == serial.per_theorem[5].skips


def test_workers_match_serial():
    cfg_serial = HarnessConfig(theorems=(1, 3), witnesses=False)
    cfg_workers = HarnessConfig(theorems=(1, 3), witnesses=False, workers=2)
    serial = run_corpus(enumerate_connected_graphs(4), cfg_serial, "n=4")
    parallel = run_corpus(enumerate_connected_graphs(4), cfg_workers, "n=4")
    a = serial.to_payload()
    b = parallel.to_payload()
    a["config"].pop("workers")
    b["config"].pop("workers")
    assert a == b


def test_more_workers_than_graphs_match_serial():
    # a worker may get no graph at all, and a run may have no graph to check
    cfg = HarnessConfig(theorems=(1, 2, 3, 4, 6))
    for graphs, workers in (([make_named("cycle", 4), make_named("complete", 4)], 3), ([], 2)):
        serial = run_corpus(graphs, cfg, "few").to_payload()
        parallel = run_corpus(graphs, replace(cfg, workers=workers), "few").to_payload()
        assert (serial["config"].pop("workers"), parallel["config"].pop("workers")) == (1, workers)
        assert parallel == serial
        assert serial["graphs"] == len(graphs)


def test_tightness_recorded():
    report = run_corpus(
        [make_named("cycle", 4)], HarnessConfig(theorems=(6,)), "C4"
    )
    counts = report.per_theorem[6].counts()
    assert counts["instances"] == 1
    assert counts["tight_upper"] == 1  # chi_dd(W_4) = chi_dd(C_4) + 1


def test_report_does_not_depend_on_earlier_runs():
    starved = HarnessConfig(theorems=(1,), budget=1)
    first = run_corpus(enumerate_connected_graphs(4), starved, "n=4 starved")
    run_corpus(enumerate_connected_graphs(4), HarnessConfig(theorems=(1,)), "n=4")
    second = run_corpus(enumerate_connected_graphs(4), starved, "n=4 starved")
    assert first.unknown_count == 112
    assert second.to_json() == first.to_json()
    c6 = make_named("cycle", 6)
    assert isinstance(check_theorem(1, c6, 0), TheoremCheck)
    assert isinstance(check_theorem(1, c6, 0, config=HarnessConfig(budget=1)), SkippedCheck)


def _records():
    c4 = make_named("cycle", 4)
    bad = Coloring([0, 0, 1, 1])
    gap = GapReport("definition", is_domination_coloring(c4, bad)[1], 2)
    return {
        "TheoremCheck": (check_theorem(1, c4, 0), "holds"),
        "SkippedCheck": (check_theorem(1, make_named("path", 3), 1), "reason"),
        "WitnessOutcome": (WitnessOutcome("gap", bad, 2, "case1", gap), "status"),
        "WitnessOutcome validated": (extend_witness("cycle_extend", c4, (0, 1, 2, 3), chi_dd_exact(c4).witness), "coloring"),
        "SolveResult": (chi_dd_exact(c4), "chi_dd"),
        "SolveResult unknown": (chi_dd_exact(c4, budget=1), "status"),
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_result_records_are_frozen_and_pickle(name):
    record, field_name = _records()[name]
    assert type(record).__name__ == name.split()[0]
    with pytest.raises(AttributeError):
        setattr(record, field_name, None)
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is type(record)

