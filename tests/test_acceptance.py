"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line each (run with ``pytest -s`` to see the lines live).

Each corpus run solves through a chi_dd cache of its own, so the
criteria are independent of the order they run in.
"""

import time

import pytest

from domchrom.graph import (
    CycleSpec,
    enumerate_connected_graphs,
    make_named,
    parse_graph6,
    to_graph6,
)
from domchrom.harness import HarnessConfig, run_corpus
from domchrom.ops import contract_edge, cycle_extend, subdivide
from domchrom.solver import chi_dd_exact, chi_dd_oracle
from domchrom.witnesses import extend_witness

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}


def _verdict(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def corpus_by_n():
    return {n: list(enumerate_connected_graphs(n)) for n in range(1, 7)}


def _gap_summary(report) -> str:
    parts = []
    for t in sorted(report.per_theorem):
        s = report.per_theorem[t]
        for case in sorted(s.reduce_cases):
            total = s.reduce_cases[case]
            gaps = s.reduce_gaps.get(case, 0)
            if total:
                parts.append(f"thm{t}/{case}: {gaps}/{total}")
    return "reduce gaps " + ", ".join(parts) if parts else "no reduce runs"


def test_criterion_1_oracle_equivalence(corpus_by_n):
    start = time.perf_counter()
    count = 0
    mismatches = []
    for n in range(1, 7):
        assert len(corpus_by_n[n]) == CONNECTED_COUNTS[n]
        for g in corpus_by_n[n]:
            count += 1
            result = chi_dd_exact(g)
            if result.chi_dd != chi_dd_oracle(g):
                mismatches.append(to_graph6(g))
    elapsed = time.perf_counter() - start
    _verdict(
        "1 oracle equivalence",
        count == 27476 and not mismatches and elapsed < 300,
        f"{count} graphs, {len(mismatches)} mismatches, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_2_removal_theorems(corpus_by_n):
    graphs = [g for n in range(2, 7) for g in corpus_by_n[n]]
    report = run_corpus(graphs, HarnessConfig(theorems=(1, 2)), "connected 2<=n<=6")
    checked = sum(report.per_theorem[t].instances for t in (1, 2))
    _verdict(
        "2 vertex/edge removal bounds",
        report.violation_count == 0 and report.unknown_count == 0,
        f"{checked} instances, {report.violation_count} violations; {_gap_summary(report)}",
    )


def test_criterion_3_contraction_theorems(corpus_by_n):
    graphs = [g for n in range(2, 7) for g in corpus_by_n[n]]
    report = run_corpus(graphs, HarnessConfig(theorems=(3, 4)), "connected 2<=n<=6")
    checked = sum(report.per_theorem[t].instances for t in (3, 4))
    _verdict(
        "3 contraction bounds",
        report.violation_count == 0 and report.unknown_count == 0,
        f"{checked} instances, {report.violation_count} violations; {_gap_summary(report)}",
    )


def test_criterion_4_subdivision_theorem(corpus_by_n):
    start = time.perf_counter()
    graphs = [g for n in range(2, 7) for g in corpus_by_n[n] if g.m <= 6]
    report = run_corpus(
        graphs,
        HarnessConfig(theorems=(5,), k_values=(2, 3, 4), subdivided_cap=24),
        "connected n<=6, m<=6",
    )
    elapsed = time.perf_counter() - start
    stats = report.per_theorem[5]
    _verdict(
        "4 subdivision bounds",
        report.violation_count == 0 and report.unknown_count == 0 and elapsed < 600,
        f"{stats.instances} instances over {len(graphs)} graphs, "
        f"{report.violation_count} violations, {elapsed:.1f}s (< 600s)",
    )


def test_criterion_5_cycle_extension_theorem(corpus_by_n):
    graphs = [g for n in range(3, 7) for g in corpus_by_n[n]]
    report = run_corpus(graphs, HarnessConfig(theorems=(6,), cycle_cap=6), "connected n<=6")
    stats = report.per_theorem[6]
    _verdict(
        "5 cycle-extension bounds",
        report.violation_count == 0 and report.unknown_count == 0,
        f"{stats.instances} cycles, {report.violation_count} violations; "
        f"{_gap_summary(report)}",
    )


def test_criterion_6_witnesses(corpus_by_n):
    graphs = [g for n in range(2, 6) for g in corpus_by_n[n]]
    report = run_corpus(
        graphs, HarnessConfig(theorems=(1, 2, 3, 4, 6)), "connected 2<=n<=5"
    )
    extend_total = 0
    extend_gaps = 0
    budget_breaches = 0
    for t in (1, 2, 3, 4, 6):
        s = report.per_theorem[t]
        extend_total += s.extend_validated + s.extend_gaps
        extend_gaps += s.extend_gaps
    # validated reduce outcomes respect their budgets by construction;
    # re-verify the arithmetic on one theorem directly
    for g in corpus_by_n[4]:
        base = chi_dd_exact(g).witness
        for u, v in g.edges():
            out = extend_witness("contract_edge", g, (u, v), base)
            if out.status == "validated" and out.colors_used > base.class_count + 1:
                budget_breaches += 1
    _verdict(
        "6 constructive witnesses",
        extend_gaps == 0 and extend_total > 0 and budget_breaches == 0
        and report.violation_count == 0,
        f"extend validated {extend_total - extend_gaps}/{extend_total}; "
        f"{_gap_summary(report)}",
    )


def test_criterion_7_fixed_values():
    expectations = [
        (make_named("path", 2), 2),
        (make_named("path", 3), 2),
        (make_named("path", 4), 3),
        (make_named("cycle", 4), 2),
        (make_named("cycle", 6), 4),
        (cycle_extend(make_named("cycle", 4), CycleSpec((0, 1, 2, 3))), 3),  # W_4
        (make_named("star", 3), 2),
    ]
    bad = []
    for g, want in expectations:
        if chi_dd_exact(g).chi_dd != want or chi_dd_oracle(g) != want:
            bad.append((to_graph6(g), want))
    for n in range(1, 9):
        kn = make_named("complete", n)
        if chi_dd_exact(kn).chi_dd != n:
            bad.append((f"K_{n}", n))
    _verdict("7 fixed values", not bad, f"15 values checked exactly, {len(bad)} wrong")


def test_criterion_8_structural_identities(corpus_by_n):
    failures = []
    for n in range(1, 7):
        for g in corpus_by_n[n]:
            if subdivide(g, 1) != g:
                failures.append(("subdivide1", to_graph6(g)))
            s = to_graph6(g)
            if parse_graph6(s) != g or to_graph6(parse_graph6(s)) != s:
                failures.append(("graph6", s))
    for n in range(2, 7):
        kn = make_named("complete", n)
        for e in kn.edges():
            if contract_edge(kn, e) != make_named("complete", n - 1):
                failures.append(("contract", f"K_{n} {e}"))
    if cycle_extend(make_named("cycle", 3), CycleSpec((0, 1, 2))) != make_named("complete", 4):
        failures.append(("cycle_extend", "C_3"))
    _verdict(
        "8 structural identities",
        not failures,
        f"subdivide/contract/extend/graph6 identities over the n<=6 corpus, "
        f"{len(failures)} failures",
    )
