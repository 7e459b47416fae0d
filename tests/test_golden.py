"""CLI output, byte for byte, against the captures in ``tests/golden``.

The ``verify`` captures are the stdout of ``domchrom verify <args>``.  Every
other capture, in ``tests/golden/cli``, holds the exit code, stdout and
stderr of one ``domchrom`` invocation (see :func:`capture`); ``verify``
appears there only with usage errors, since its stderr carries a timing.
Regenerate a capture only when a change of output is intended: run this
file as a script (``PYTHONPATH=src python tests/test_golden.py``) to
rewrite every capture in ``tests/golden/cli``.
"""

import io
from pathlib import Path

import pytest

from domchrom.cli import main

GOLDEN = Path(__file__).parent / "golden"
CLI_GOLDEN = GOLDEN / "cli"

CASES = [
    ("verify_n5_t12346.json", ["--n-max", "5", "--theorems", "1,2,3,4,6", "--format", "json"]),
    ("verify_n4.text", ["--n-max", "4", "--format", "text"]),
    ("verify_n4.json", ["--n-max", "4", "--format", "json"]),
    ("verify_n4.csv", ["--n-max", "4", "--format", "csv"]),
    # two workers print the serial captures (the json one records the worker count)
    ("verify_n4.text", ["--n-max", "4", "--workers", "2", "--format", "text"]),
    ("verify_n4.csv", ["--n-max", "4", "--workers", "2", "--format", "csv"]),
]

C4, K4, P4, K2 = "Cl", "C~", "Ch", "A_"
FORMATS = ("text", "json", "csv")


def _in_formats(name, argv, stdin=""):
    return [(f"{name}.{fmt}", [*argv, "--format", fmt], stdin) for fmt in FORMATS]


# (capture name, argv, stdin)
CLI_CASES = [
    *_in_formats("solve_k4", ["solve", K4]),
    *_in_formats("solve_stdin", ["solve", "-i", "-"], f"{C4}\n\n{K4}\nDLo\n"),
    *_in_formats("solve_budget_1", ["solve", C4, "--budget", "1"]),
    ("solve_bad_graph6", ["solve", "C!"], ""),
    ("solve_bad_graph6_stdin", ["solve", "-i", "-"], f"{C4}\nC!\n"),
    ("solve_disconnected", ["solve", "B?"], ""),
    ("solve_no_graph", ["solve"], ""),
    ("solve_two_sources", ["solve", C4, "-i", "-"], f"{K4}\n"),
    ("solve_empty_stdin", ["solve", "-i", "-"], "\n\n"),
    ("solve_missing_file", ["solve", "-i", "no-such-file.g6"], ""),
    ("solve_budget_0", ["solve", C4, "--budget", "0"], ""),
    *_in_formats("check_valid", ["check", C4, "0,1,0,1"]),
    *_in_formats("check_stdin", ["check", "-i", "-", "0,1,0,1"], f"{C4}\n{P4}\n"),
    *_in_formats("check_improper", ["check", C4, "0,0,1,1"]),
    ("check_bad_coloring", ["check", C4, "0,1,x,1"], ""),
    ("check_wrong_length", ["check", C4, "0,1"], ""),
    *_in_formats("apply_remove_vertex", ["apply", "--op", "remove-vertex", "--params", "1", "DLo"]),
    *_in_formats("apply_remove_edge", ["apply", "--op", "remove-edge", "--params", "0,1", C4]),
    *_in_formats("apply_contract_edge", ["apply", "--op", "contract-edge", "--params", "0,1", C4]),
    *_in_formats("apply_contract_vertices", ["apply", "--op", "contract-vertices", "--params", "2,0", C4]),
    *_in_formats("apply_subdivide", ["apply", "--op", "subdivide", "--params", "2", C4]),
    *_in_formats("apply_cycle_extend", ["apply", "--op", "cycle-extend", "--params", "0,1,2,3", C4]),
    *_in_formats("apply_stdin", ["apply", "--op", "contract-edge", "--params", "0,1", "-i", "-"], f"{C4}\n{K2}\n{K4}\n"),
    ("apply_non_edge", ["apply", "--op", "remove-edge", "--params", "0,2", C4], ""),
    ("apply_bad_params", ["apply", "--op", "remove-edge", "--params", "0,x", C4], ""),
    ("apply_short_cycle", ["apply", "--op", "cycle-extend", "--params", "0,1", C4], ""),
    ("apply_not_a_cycle", ["apply", "--op", "cycle-extend", "--params", "0,1,3,2", C4], ""),
    *_in_formats("witness_validated", ["witness", "--kind", "add-vertex", "--params", "0", "--base", "0,1,0", C4]),
    *_in_formats("witness_gap", ["witness", "--kind", "remove-vertex", "--params", "3", "--base", "0,0,1,2,1", "DLo"]),
    *_in_formats("witness_stdin", ["witness", "--kind", "contract-edge", "--params", "0,1", "--base", "0,1,2,3", "-i", "-"], f"{C4}\n{K4}\n"),
    ("witness_add_edge", ["witness", "--kind", "add-edge", "--params", "0,1", "--base", "0,1,0,2", C4], ""),
    ("witness_remove_edge", ["witness", "--kind", "remove-edge", "--params", "0,1", "--base", "0,1,0,1", C4], ""),
    ("witness_contract_vertices", ["witness", "--kind", "contract-vertices", "--params", "0,2", "--base", "0,1,0,1", C4], ""),
    ("witness_uncontract", ["witness", "--kind", "uncontract", "--params", "0,1", "--base", "0,1,2", K4], ""),
    ("witness_cycle_extend", ["witness", "--kind", "cycle-extend", "--params", "0,1,2,3", "--base", "0,1,0,1", C4], ""),
    ("witness_remove_hub", ["witness", "--kind", "remove-hub", "--params", "0,1,2,3", "--base", "0,1,0,1,2", C4], ""),
    ("witness_short_cycle", ["witness", "--kind", "cycle-extend", "--params", "0,1", "--base", "0,1,0,1", C4], ""),
    ("witness_bad_base", ["witness", "--kind", "add-vertex", "--params", "0", "--base", "0,1,1", C4], ""),
    ("witness_bad_base_text", ["witness", "--kind", "add-vertex", "--params", "0", "--base", "0,y", C4], ""),
    ("witness_vertex_out_of_range", ["witness", "--kind", "remove-vertex", "--params", "9", "--base", "0,1,2", "Bw"], ""),
    *_in_formats("oracle_k4", ["oracle", K4]),
    *_in_formats("oracle_stdin", ["oracle", "-i", "-"], f"{C4}\n{P4}\nDLo\n"),
    ("oracle_too_large", ["oracle", "HhCGGC@"], ""),
    ("gen_1", ["gen", "1"], ""),
    ("gen_3", ["gen", "3"], ""),
    ("gen_4", ["gen", "4"], ""),
    ("gen_0", ["gen", "0"], ""),
    ("gen_9", ["gen", "9"], ""),
    ("verify_no_source", ["verify", "--theorems", "1"], ""),
    ("verify_two_sources", ["verify", "--n-max", "3", "-i", "-"], f"{C4}\n"),
    ("verify_bad_theorem", ["verify", "--n-max", "3", "--theorems", "9"], ""),
    ("verify_bad_k_range", ["verify", "--n-max", "3", "--k-range", "4,2"], ""),
    ("verify_repeated_theorems", ["verify", "--n-max", "3", "--theorems", "1,1"], ""),
    ("verify_workers_0", ["verify", "--n-max", "3", "--workers", "0"], ""),
    ("verify_budget_0", ["verify", "--n-max", "3", "--budget", "0"], ""),
]


def capture(argv, stdin_text) -> bytes:
    """Exit code, stdout and stderr of one invocation, as one byte string."""
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}".encode("ascii")


@pytest.mark.parametrize(
    "name,args", CASES, ids=[name + "-workers2" * ("--workers" in args) for name, args in CASES]
)
def test_verify_output_matches_golden(name, args):
    out = io.StringIO()
    code = main(["verify", *args], stdout=out, stderr=io.StringIO())
    assert code == 0
    assert out.getvalue().encode("ascii") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name,argv,stdin_text", CLI_CASES, ids=[name for name, _, _ in CLI_CASES])
def test_cli_output_matches_golden(name, argv, stdin_text):
    assert capture(argv, stdin_text) == (CLI_GOLDEN / name).read_bytes()


if __name__ == "__main__":
    CLI_GOLDEN.mkdir(exist_ok=True)
    for name, argv, stdin_text in CLI_CASES:
        (CLI_GOLDEN / name).write_bytes(capture(argv, stdin_text))
