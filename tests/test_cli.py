import io
import json

from domchrom import cli
from domchrom.cli import main
from domchrom.graph import enumerate_connected_graphs, make_named, parse_graph6, to_graph6
from domchrom.solver import chi_dd_oracle

C4 = to_graph6(make_named("cycle", 4))
K4 = to_graph6(make_named("complete", 4))


def run_cli(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_solve_k4():
    code, out, _ = run_cli(["solve", K4])
    assert code == 0
    assert out.strip() == f"{K4} chi_dd=4 witness=0,1,2,3"


def test_solve_json_has_schema():
    code, out, _ = run_cli(["solve", K4, "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["results"][0]["chi_dd"] == 4


def test_solve_reads_stdin_lines():
    code, out, _ = run_cli(["solve", "-i", "-"], stdin_text=f"{C4}\n\n{K4}\n")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(C4) and "chi_dd=2" in lines[0]


def test_solve_budget_exhaustion_exit_3():
    code, out, _ = run_cli(["solve", C4, "--budget", "1"])
    assert code == 3
    assert "status=unknown" in out


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("DOMCHROM_BUDGET", "1")
    code, out, _ = run_cli(["solve", C4])
    assert code == 3
    code, _, _ = run_cli(["solve", C4, "--budget", "100000"])
    assert code == 0  # flag beats env
    monkeypatch.setenv("DOMCHROM_BUDGET", "junk")
    code, _, err = run_cli(["solve", C4])
    assert code == 2
    assert "DOMCHROM_BUDGET" in err


def test_non_positive_budget_is_a_usage_error(monkeypatch):
    for budget in ("0", "-5"):
        for argv in (["solve", C4], ["verify", "--n-max", "3", "--theorems", "1"]):
            code, out, err = run_cli(argv + ["--budget", budget])
            assert code == 2 and out == ""
            assert "--budget must be a positive node count" in err
    monkeypatch.setenv("DOMCHROM_BUDGET", "-3")
    code, out, err = run_cli(["solve", C4])
    assert code == 2 and out == ""
    assert "DOMCHROM_BUDGET must be a positive node count" in err


def test_verify_rejects_non_positive_workers():
    for workers in ("0", "-1"):
        code, out, err = run_cli(["verify", "--n-max", "3", "--theorems", "1", "--workers", workers])
        assert code == 2 and out == ""
        assert err == f"domchrom: error: workers must be at least 1, got {workers}\n"


def test_check_valid_and_invalid():
    code, out, _ = run_cli(["check", C4, "0,1,0,1"])
    assert code == 0 and "valid" in out
    code, out, _ = run_cli(["check", C4, "0,0,1,1"])
    assert code == 1
    assert "improper_edges=[(0, 1), (2, 3)]" in out
    p4 = to_graph6(make_named("path", 4))
    code, out, _ = run_cli(["check", p4, "0,1,0,1"])
    assert code == 1
    assert "undominating_vertices=[0, 3]" in out


def test_check_rejects_malformed_coloring():
    code, _, err = run_cli(["check", C4, "0,1,x,1"])
    assert code == 2
    assert "byte offset" in err


def test_malformed_graph6_names_offset():
    code, _, err = run_cli(["solve", "C!"])
    assert code == 2
    assert "byte offset 1" in err


def test_apply_subdivide():
    k2 = to_graph6(make_named("complete", 2))
    code, out, _ = run_cli(["apply", "--op", "subdivide", "--params", "3", k2])
    assert code == 0
    lines = out.strip().splitlines()
    result = parse_graph6(lines[0])
    assert result.n == 4 and result.m == 3
    assert "superedge 0-1: 0,2,3,1" in out


def test_apply_contract_edge_mapping():
    code, out, _ = run_cli(["apply", "--op", "contract-edge", "--params", "0,1", C4])
    assert code == 0
    lines = out.strip().splitlines()
    assert parse_graph6(lines[0]).n == 3
    assert "map 1 -> 0" in out


def test_apply_remove_vertex_json():
    code, out, _ = run_cli(
        ["apply", "--op", "remove-vertex", "--params", "0", C4, "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"][0]["vertex_map"]["0"] is None


def test_apply_rejects_non_edge():
    code, _, err = run_cli(["apply", "--op", "remove-edge", "--params", "0,2", C4])
    assert code == 2
    assert "not an edge" in err


def test_witness_validated_and_gap_exit_codes():
    code, out, _ = run_cli(
        ["witness", "--kind", "add-vertex", "--params", "0", "--base", "0,1,0", C4]
    )
    assert code == 0
    assert "validated" in out
    # base that is not a domination coloring of the source -> usage error
    code, _, err = run_cli(
        ["witness", "--kind", "add-vertex", "--params", "0", "--base", "0,1,1", C4]
    )
    assert code == 2
    assert "not a domination coloring" in err


def test_witness_remove_vertex_out_of_range_is_a_usage_error():
    k3 = to_graph6(make_named("complete", 3))
    for v in ("9", "-1"):
        code, out, err = run_cli(
            ["witness", "--kind", "remove-vertex", f"--params={v}", "--base", "0,1,2", k3]
        )
        assert code == 2
        assert out == ""
        assert f"vertex {v} out of range for order 3" in err


def test_gen_counts_and_determinism():
    code, out, _ = run_cli(["gen", "2"])
    assert code == 0
    assert out.strip() == "A_"
    code, out, _ = run_cli(["gen", "4"])
    assert out.strip().splitlines() == [to_graph6(g) for g in enumerate_connected_graphs(4)]
    assert len(out.strip().splitlines()) == 38


def test_gen_guard():
    code, _, err = run_cli(["gen", "9"])
    assert code == 2
    assert "generator" in err


def test_oracle_matches_solver():
    code, out, _ = run_cli(["oracle", K4])
    assert code == 0
    assert out.strip() == f"{K4} chi_dd=4"
    code, _, err = run_cli(["oracle", to_graph6(make_named("path", 9))])
    assert code == 2


def test_verify_small_corpus():
    code, out, err = run_cli(
        ["verify", "--n-max", "4", "--theorems", "1,2,3,4,6", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["summary"]["violations"] == 0
    assert payload["graphs"] == 44
    assert "timing" not in payload  # stdout payload is clock-free
    assert "graphs in" in err


def test_verify_corpus_from_file(tmp_path):
    corpus = tmp_path / "graphs.g6"
    corpus.write_text(f"{C4}\n{K4}\n")
    code, out, _ = run_cli(
        ["verify", "-i", str(corpus), "--theorems", "3", "--format", "csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("theorem,")
    assert lines[1].startswith("3,")


def test_verify_reports_a_violation_and_exits_1(tmp_path):
    # G@?I\c is a known theorem-3 counterexample (see test_harness)
    corpus = tmp_path / "viol.g6"
    corpus.write_text("G@?I\\c\n")
    argv = ["verify", "--input", str(corpus), "--theorems", "3"]
    code, out, _ = run_cli(argv)
    assert code == 1
    assert "VIOLATION thm 3 G@?I\\c e=6-7: chi_after=3 outside [4,7]\n" in out
    assert out.endswith("verdict: FAILED (1 violations, 0 unknowns)\n")
    code, out, _ = run_cli([*argv, "--format", "json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["summary"]["ok"] is False
    assert [(v["graph6"], v["instance"]) for v in payload["violations"]] == [("G@?I\\c", "e=6-7")]


def test_verify_payload_with_violations_is_the_same_for_one_or_two_workers(tmp_path):
    # the two n=8 counterexamples to theorems 3 and 4 (see test_harness); with
    # two workers their violations come back from the pool pickled
    corpus = tmp_path / "viol.g6"
    corpus.write_text("G@?I\\c\nGGE?~?\n")
    payloads = []
    for workers in ("1", "2"):
        argv = ["verify", "--input", str(corpus), "--theorems", "3,4", "--format", "json", "--workers", workers]
        code, out, _ = run_cli(argv)
        assert code == 1
        payload = json.loads(out)
        assert payload["config"].pop("workers") == int(workers)
        payloads.append(payload)
    assert payloads[0] == payloads[1]
    assert payloads[0]["summary"]["violations"] == len(payloads[0]["violations"]) > 0
    assert {v["graph6"] for v in payloads[0]["violations"]} == {"G@?I\\c", "GGE?~?"}


def test_verify_usage_errors():
    code, _, err = run_cli(["verify", "--theorems", "1"])
    assert code == 2  # no corpus source
    code, _, err = run_cli(["verify", "--n-max", "3", "--theorems", "9"])
    assert code == 2
    code, _, err = run_cli(["verify", "--n-max", "3", "--k-range", "4,2"])
    assert code == 2


def test_verify_rejects_repeated_theorem_ids():
    code, out, err = run_cli(["verify", "--n-max", "3", "--theorems", "1,1"])
    assert code == 2
    assert out == ""
    assert "theorem ids repeat" in err


def test_verify_rejects_n_max_out_of_range_before_any_work(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("run_corpus called for an out-of-range --n-max")

    monkeypatch.setattr(cli, "run_corpus", no_run)
    for n_max in ("0", "-1", "8"):
        code, out, err = run_cli(["verify", "--n-max", n_max, "--theorems", "1"])
        assert code == 2 and out == ""
        assert err == f"domchrom: error: --n-max must be in 1..7, got {n_max}\n"


def test_verify_rejects_configs_that_check_nothing(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("corpus built for a configuration that checks nothing")

    monkeypatch.setattr(cli, "corpus_up_to", no_work)
    monkeypatch.setattr(cli, "run_corpus", no_work)
    for flags, message in (
        (["--theorems", ""], "no theorem to check; a run would read ok vacuously"),
        (["--theorems", "5", "--k-range", "0,1"], "k_values must be at least 2, got 0,1"),
        (["--theorems", "6", "--cycle-cap", "-1"], "cycle_cap must be at least 3, got -1"),
        (["--theorems", "6", "--cycle-cap", "2"], "cycle_cap must be at least 3, got 2"),
        (["--theorems", "5", "--subdivided-cap", "2"], "subdivided_cap must be at least 3, got 2"),
    ):
        code, out, err = run_cli(["verify", "--n-max", "3", *flags])
        assert (code, out) == (2, "")
        assert err == f"domchrom: error: {message}\n"
    # graph6's one-byte header (n <= 62) is no cap: the solve cache keys graphs by adjacency
    monkeypatch.undo()
    for cap in ("63", "100"):
        code, out, err = run_cli(["verify", "--n-max", "3", "--theorems", "5", "--subdivided-cap", cap, "--format", "json"])
        assert code == 0 and "error" not in err
        assert json.loads(out)["per_theorem"]["5"]["instances"] > 0


def test_apply_prints_graph6_above_order_62():
    # C5 with each edge a path of length 14 has order 70: a 4-byte graph6 header
    code, out, err = run_cli(["apply", "--op", "subdivide", "--params", "14", "Dhc"])
    assert (code, err) == (0, "")
    line = out.splitlines()[0]
    assert line.startswith("~?@E")
    h = parse_graph6(line)
    assert (h.n, h.m) == (70, 70) and to_graph6(h) == line


def test_wrong_params_count_is_a_plain_usage_error():
    cases = [
        (["apply", "--op", "remove-vertex", "--params", "0,1", C4], "remove-vertex takes 1 parameter, got 2"),
        (["apply", "--op", "contract-edge", "--params", "0", C4], "contract-edge takes 2 parameters, got 1"),
        (["apply", "--op", "subdivide", "--params", "", C4], "subdivide takes 1 parameter, got 0"),
        (
            ["witness", "--kind", "add-edge", "--params", "0", "--base", "0,1,0,2", C4],
            "add-edge takes 2 parameters, got 1",
        ),
        (
            ["witness", "--kind", "add-vertex", "--params", "0,1", "--base", "0,1,0", C4],
            "add-vertex takes 1 parameter, got 2",
        ),
    ]
    for argv, message in cases:
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert err == f"domchrom: error: {message}\n"


def test_verify_budget_exhaustion_exit_3():
    code, _, _ = run_cli(
        ["verify", "--n-max", "3", "--theorems", "1", "--budget", "1"]
    )
    assert code == 3


def test_usage_error_on_unknown_flag():
    code, _, _ = run_cli(["solve", C4, "--mystery"])
    assert code == 2



def test_solve_deeper_than_the_recursion_limit_is_an_error_line():
    code, out, err = run_cli(["solve", to_graph6(make_named("complete", 1100))])
    assert code == 2
    assert out == ""
    assert err.startswith("domchrom: error: search on a graph of order 1100 ")
    assert err.count("\n") == 1

def test_gen_solve_pipeline_matches_oracle_n5():
    code, gen_out, _ = run_cli(["gen", "5"])
    assert code == 0
    code, solve_out, _ = run_cli(["solve", "-i", "-", "--format", "csv"], stdin_text=gen_out)
    assert code == 0
    rows = solve_out.strip().splitlines()[1:]
    assert len(rows) == 728
    for row in rows:
        g6, status, chi, _ = row.split(",", 3)
        assert status == "exact"
        assert int(chi) == chi_dd_oracle(parse_graph6(g6))


def test_solve_rejects_disconnected_graph():
    code, _, err = run_cli(["solve", "B?"])  # empty graph on 3 vertices
    assert code == 2
    assert "connected" in err


def test_verify_rejects_disconnected_input_graph():
    # every theorem set, serial or in workers, refuses the first disconnected
    # graph in input order by name (B_ and A? land in different workers' shares)
    for stdin_text, first in ((f"{C4}\nB?\n", "B?"), (f"{C4}\nB_\nA?\n", "B_")):
        for theorems in ("5", "1"):
            for workers in ("1", "2", "3"):
                argv = ["verify", "-i", "-", "--theorems", theorems, "--workers", workers]
                code, out, err = run_cli(argv, stdin_text=stdin_text)
                assert (code, out) == (2, "")
                assert err == f"domchrom: error: graph {first} is not connected; the theorems are about connected graphs\n"


def test_outputs_are_pure_functions_of_argv():
    a = run_cli(["verify", "--n-max", "3", "--theorems", "1,2", "--format", "json"])
    b = run_cli(["verify", "--n-max", "3", "--theorems", "1,2", "--format", "json"])
    assert a[0] == b[0] and a[1] == b[1]
