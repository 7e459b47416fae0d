"""Smoke runs of every workload, and checks that the benchmark's own checks fire."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import worker
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _smoke(trace: int) -> dict:
    proc = _run("--workload", "all", "--seed", "0", "--seconds", "0.1", "--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_smoke_untraced_reports_every_end_to_end_metric():
    result = _smoke(0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for name in run.WORKLOAD_NAMES:
        for metric in SPEC["end_to_end"]:
            got = result["metrics"][f"{name}.{metric['name']}"]
            assert got["unit"] == metric["unit"] and got["value"] > 0


def test_smoke_traced_reports_every_per_layer_metric_and_repeats_node_counts():
    first, second = _smoke(1), _smoke(1)
    assert first["correct"]
    for name in run.WORKLOAD_NAMES:
        for metric in SPEC["per_layer"]:
            assert first["metrics"][f"{name}.{metric['name']}"]["unit"] == metric["unit"]
        nodes = f"{name}.solver.nodes"
        assert first["metrics"][nodes]["value"] > 0
        assert first["metrics"][nodes] == second["metrics"][nodes]


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run("--workload", "sweep-n6", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_same_seed_same_samples_and_stratified_shares():
    spec = workloads.WORKLOADS["verify-subdiv"]
    first = workloads.build_inputs(spec, "full", 3)
    assert first == workloads.build_inputs(spec, "full", 3)
    assert first != workloads.build_inputs(spec, "full", 4)
    shapes = [sorted(workloads._invariant(workloads.graph.parse_graph6(s)) for s in sample) for sample in first]
    assert all(shape == shapes[0] for shape in shapes)  # same mix of shapes, other labellings
    assert len({k for k in shapes[0]}) == 41  # every isomorphism class of the slice


def test_cold_check_catches_a_cache_leaking_between_passes(monkeypatch, tmp_path):
    spec = workloads.WORKLOADS["verify-small"]
    path = tmp_path / "sample.g6"
    lines = workloads.build_inputs(spec, "smoke", 0)[0]
    path.write_text("\n".join(lines) + "\n")

    def counts() -> list[tuple[int, dict]]:
        out = []
        for _ in range(2):
            with tracing.Tracer(worker.SOLVES, ()) as tr:
                result = workloads.run_pass(spec, str(path), lines, [], None)
            assert not result.errors
            out.append((0, {"chi_dd_exact": tr.calls("solver.chi_dd_exact"), "nodes": tr.nodes}))
        return out

    assert worker._cold_check("solves", counts()) == []
    reset = workloads.reset_state
    monkeypatch.setattr(workloads, "reset_state", lambda: None)
    reset()  # cold before the first pass only, as in a fresh process
    assert worker._cold_check("solves", counts())


def test_reconciliation_fails_when_a_call_site_is_missed(monkeypatch, tmp_path):
    spec = workloads.WORKLOADS["verify-small"]
    path = tmp_path / "sample.g6"
    lines = workloads.build_inputs(spec, "smoke", 0)[0]
    path.write_text("\n".join(lines) + "\n")
    with tracing.Tracer() as tr:
        assert workloads.run_pass(spec, str(path), lines, [], tr).errors == []
    # A call through a name the tracer does not know, as a table of ops would make.
    harness = workloads.harness
    hidden = harness.remove_vertex
    monkeypatch.setattr(harness, "remove_vertex", lambda g, v: hidden(g, v))
    with tracing.Tracer() as tr:
        errors = workloads.run_pass(spec, str(path), lines, [], tr).errors
    assert any("ops calls from harness" in e for e in errors)


def test_reference_mismatch_is_an_error(monkeypatch, tmp_path):
    reference = tmp_path / "reference.json"
    monkeypatch.setattr(run, "REFERENCE", reference)
    answers = [{"graphs": 3, "chi_dd": {"2": 3}}]
    run._record_reference("sweep-n6/smoke/0", "abc", answers)
    assert run._compare_reference("sweep-n6/smoke/0", "abc", answers) == []
    assert run._compare_reference("sweep-n6/smoke/0", "abc", [{"graphs": 3, "chi_dd": {"3": 3}}])
    assert run._compare_reference("sweep-n6/smoke/0", "abd", answers)


@pytest.mark.parametrize("values, expected", [([1.0, 2.0, 3.0, 4.0], 2.0), ([5.0], 5.0), ([], 0.0)])
def test_percentile_is_nearest_rank(values, expected):
    assert tracing.percentile(values, 50) == expected
