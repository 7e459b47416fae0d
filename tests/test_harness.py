import pytest

from domchrom.graph import CycleSpec, enumerate_connected_graphs, make_named
from domchrom.harness import (
    HarnessConfig,
    SkippedCheck,
    TheoremCheck,
    check_theorem,
    corpus_up_to,
    run_corpus,
    theorem_instances,
)
from domchrom.solver import chi_dd_oracle


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


def test_check_theorem_rejects_bad_instance():
    with pytest.raises(ValueError):
        check_theorem(2, make_named("path", 3), (0, 2))
    with pytest.raises(ValueError):
        check_theorem(7, make_named("path", 3), 0)


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
    assert report.graphs == 4
    assert stats.instances == 3 * 2 + 3  # three paths with 2 edges, K_3 with 3
    assert stats.holds == stats.instances
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
        assert s.instances + sum(s.skips.values()) == domain


def test_run_corpus_empty_theorem_set():
    report = run_corpus(enumerate_connected_graphs(3), HarnessConfig(theorems=()), "n=3")
    assert report.per_theorem == {}
    assert report.graphs == 4
    assert report.ok


def test_run_corpus_rejects_repeated_theorem_ids():
    with pytest.raises(ValueError, match="repeat"):
        run_corpus(enumerate_connected_graphs(3), HarnessConfig(theorems=(1, 2, 1)), "n=3")


def test_harness_config_rejects_bad_values():
    for kwargs, message in [
        ({"workers": -4}, "workers must be at least 1"),
        ({"workers": 0}, "workers must be at least 1"),
        ({"budget": 0}, "budget must be a positive node count"),
        ({"theorems": (3, 1, 3)}, "theorem ids repeat in 3,1,3"),
    ]:
        with pytest.raises(ValueError, match=message):
            HarnessConfig(**kwargs)


def test_report_determinism():
    cfg = HarnessConfig(theorems=(1, 2, 3))
    first = run_corpus(enumerate_connected_graphs(4), cfg, "n=4")
    second = run_corpus(enumerate_connected_graphs(4), cfg, "n=4")
    assert first.to_json(include_timing=False) == second.to_json(include_timing=False)
    assert first.to_text(include_timing=False) == second.to_text(include_timing=False)


def test_report_payload_shape():
    report = run_corpus(enumerate_connected_graphs(3), HarnessConfig(theorems=(1,)), "n=3")
    payload = report.to_payload()
    assert payload["schema"] == 1
    assert payload["graphs"] == 4
    assert "1" in payload["per_theorem"]
    assert payload["summary"]["ok"] is True
    timed = report.to_payload(include_timing=True)
    assert "timing" in timed and "timing" not in payload


def test_unknowns_recorded_as_skips_not_holds():
    cfg = HarnessConfig(theorems=(1,), budget=1)
    report = run_corpus(enumerate_connected_graphs(4), cfg, "n=4 starved")
    stats = report.per_theorem[1]
    assert stats.unknowns > 0
    assert report.unknown_count == stats.unknowns
    assert not report.ok
    assert stats.holds == stats.instances - len(stats.violations)


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


def test_tightness_recorded():
    report = run_corpus(
        [make_named("cycle", 4)], HarnessConfig(theorems=(6,)), "C4"
    )
    stats = report.per_theorem[6]
    assert stats.instances == 1
    assert stats.tight_upper == 1  # chi_dd(W_4) = chi_dd(C_4) + 1


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
