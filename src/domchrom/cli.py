"""Command-line front end: solving, checking, operations, witnesses,
corpus verification, graph generation.

Graphs travel as graph6, one per line; blank lines are ignored and ``-``
means stdin.  Payloads on stdout are pure functions of argv and the input
files; timing goes to stderr.  Exit codes: 0 success/holds, 1 violation or
invalid coloring or witness gap, 2 usage or parse error, 3 budget
exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .coloring import Coloring, is_domination_coloring
from .graph import (
    CycleSpec,
    Graph,
    Graph6Error,
    enumerate_connected_graphs,
    parse_graph6,
    to_graph6,
)
from .harness import SUMMARY_COLUMNS, HarnessConfig, corpus_up_to, run_corpus
from .ops import (
    contract_edge,
    contract_vertices,
    contraction_index_map,
    cycle_extend,
    removal_index_map,
    remove_edge,
    remove_vertex,
    subdivide,
)
from .solver import DEFAULT_BUDGET, chi_dd_exact, chi_dd_oracle
from .witnesses import EXTEND_KINDS, REDUCE_KINDS, extend_witness, reduce_witness

_OPS = (
    "remove-vertex",
    "remove-edge",
    "contract-edge",
    "contract-vertices",
    "subdivide",
    "cycle-extend",
)
_WITNESS_KINDS = tuple(kind.replace("_", "-") for kind in EXTEND_KINDS + REDUCE_KINDS)


class _UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="domchrom",
        description="domination chromatic number toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, graph_arg=True):
        if graph_arg:
            p.add_argument("graph6", nargs="?", help="inline graph6 string")
        p.add_argument("-i", "--input", help="graph6 file, one per line; - for stdin")
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text"
        )

    p = sub.add_parser("solve", help="compute chi_dd with a witness coloring")
    add_common(p)
    p.add_argument("--budget", type=int, help="search node budget")

    p = sub.add_parser("check", help="validate a coloring against the definition")
    add_common(p)
    p.add_argument("coloring", help="comma-separated colors, e.g. 0,1,0,1")

    p = sub.add_parser("apply", help="apply a graph operation")
    add_common(p)
    p.add_argument("--op", choices=_OPS, required=True)
    p.add_argument("--params", required=True, help="operation parameters, comma-separated")

    p = sub.add_parser("witness", help="run a proof recoloring")
    add_common(p)
    p.add_argument("--kind", choices=_WITNESS_KINDS, required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--base", required=True, help="base coloring, e.g. 0,1,0,1")

    p = sub.add_parser("verify", help="verify theorem inequalities over a corpus")
    add_common(p, graph_arg=False)
    p.add_argument("--n-max", type=int, help="use all connected graphs up to this order")
    p.add_argument("--theorems", default="1,2,3,4,5,6")
    p.add_argument("--k-range", default="2,4", help="theorem 5 subdivision lengths LO,HI")
    p.add_argument("--cycle-cap", type=int, default=6)
    p.add_argument("--subdivided-cap", type=int, default=24)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--budget", type=int)
    p.add_argument("--no-witnesses", action="store_true")

    p = sub.add_parser("gen", help="stream all connected graphs of one order")
    p.add_argument("n", type=int)

    p = sub.add_parser("oracle", help="brute-force chi_dd over all set partitions")
    add_common(p)
    return parser


def _resolve_budget(args) -> int:
    budget, source = getattr(args, "budget", None), "--budget"
    if budget is None:
        env = os.environ.get("DOMCHROM_BUDGET")
        if env is None:
            return DEFAULT_BUDGET
        source = "DOMCHROM_BUDGET"
        try:
            budget = int(env)
        except ValueError:
            raise _UsageError(f"DOMCHROM_BUDGET is not an integer: {env!r}") from None
    if budget < 1:
        raise _UsageError(f"{source} must be a positive node count, got {budget}")
    return budget


def _read_graphs(args, stdin) -> list[tuple[str, Graph]]:
    inline = getattr(args, "graph6", None)
    if inline is not None and args.input is not None:
        raise _UsageError("give either an inline graph6 or --input, not both")
    lines: list[tuple[str, str]] = []
    if inline is not None:
        lines.append(("arg", inline))
    elif args.input is not None:
        stream = stdin if args.input == "-" else open(args.input, "r", encoding="ascii")
        try:
            for no, raw in enumerate(stream, start=1):
                if raw.strip():
                    lines.append((f"line {no}", raw.strip()))
        finally:
            if args.input != "-":
                stream.close()
    else:
        raise _UsageError("no graph given; pass a graph6 string or --input")
    out = []
    for where, text in lines:
        try:
            out.append((text, parse_graph6(text)))
        except Graph6Error as exc:
            raise _UsageError(f"bad graph6 at {where}: {exc}") from None
    if not out:
        raise _UsageError("input contained no graphs")
    return out


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise _UsageError(f"bad {what}: {text!r} (expected comma-separated integers)") from None


def _emit_json(payload: dict, stdout) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True), file=stdout)


def _cmd_solve(args, stdin, stdout) -> int:
    budget = _resolve_budget(args)
    rows = []
    exit_code = 0
    for g6, g in _read_graphs(args, stdin):
        result = chi_dd_exact(g, budget)
        if result.status != "exact":
            exit_code = 3
        rows.append(
            {
                "graph6": g6,
                "status": result.status,
                "chi_dd": result.chi_dd,
                "witness": result.witness.to_text() if result.witness else None,
                "lower": result.lower,
                "upper": result.upper,
                "nodes": result.nodes,
            }
        )
    if args.format == "json":
        _emit_json({"schema": 1, "results": rows}, stdout)
    elif args.format == "csv":
        print("graph6,status,chi_dd,witness", file=stdout)
        for r in rows:
            chi = "" if r["chi_dd"] is None else r["chi_dd"]
            wit = r["witness"] or ""
            print(f"{r['graph6']},{r['status']},{chi},\"{wit}\"", file=stdout)
    else:
        for r in rows:
            if r["status"] == "exact":
                print(f"{r['graph6']} chi_dd={r['chi_dd']} witness={r['witness']}", file=stdout)
            else:
                print(
                    f"{r['graph6']} status=unknown lower={r['lower']} upper={r['upper']}",
                    file=stdout,
                )
    return exit_code


def _cmd_check(args, stdin, stdout) -> int:
    graphs = _read_graphs(args, stdin)
    try:
        coloring = Coloring.from_text(args.coloring)
    except ValueError as exc:
        raise _UsageError(f"bad coloring: {exc}") from None
    exit_code = 0
    rows = []
    for g6, g in graphs:
        try:
            ok, diag = is_domination_coloring(g, coloring)
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        if not ok:
            exit_code = 1
        rows.append((g6, ok, diag))
    if args.format == "json":
        _emit_json(
            {
                "schema": 1,
                "results": [
                    {
                        "graph6": g6,
                        "valid": ok,
                        "undominating_vertices": list(d.undominating_vertices),
                        "undominated_classes": list(d.undominated_classes),
                        "improper_edges": [list(e) for e in d.improper_edges],
                    }
                    for g6, ok, d in rows
                ],
            },
            stdout,
        )
    elif args.format == "csv":
        print("graph6,valid", file=stdout)
        for g6, ok, _ in rows:
            print(f"{g6},{str(ok).lower()}", file=stdout)
    else:
        for g6, ok, d in rows:
            if ok:
                print(f"{g6} valid", file=stdout)
            else:
                print(
                    f"{g6} invalid"
                    f" undominating_vertices={list(d.undominating_vertices)}"
                    f" undominated_classes={list(d.undominated_classes)}"
                    f" improper_edges={list(d.improper_edges)}",
                    file=stdout,
                )
    return exit_code


def _apply_one(g: Graph, op: str, params: list[int]):
    """Returns (result graph, mapping payload dict)."""
    if op == "remove-vertex":
        (v,) = params
        h = remove_vertex(g, v)
        vmap = removal_index_map(g.n, v)
        return h, {"vertex_map": {str(w): vmap[w] for w in range(g.n)}}
    if op == "remove-edge":
        u, v = params
        h = remove_edge(g, (u, v))
        return h, {"vertex_map": {str(w): w for w in range(g.n)}}
    if op == "contract-edge":
        u, v = params
        h = contract_edge(g, (u, v))
        cmap = contraction_index_map(g.n, u, v)
        return h, {"vertex_map": {str(w): cmap[w] for w in range(g.n)}}
    if op == "contract-vertices":
        u, v = params
        h = contract_vertices(g, u, v)
        cmap = contraction_index_map(g.n, u, v)
        return h, {"vertex_map": {str(w): cmap[w] for w in range(g.n)}}
    if op == "subdivide":
        (k,) = params
        h, smap = subdivide(g, k)
        return h, {
            "vertex_map": {str(w): w for w in range(g.n)},
            "superedges": {
                f"{u}-{v}": list(path) for (u, v), path in smap.superedges.items()
            },
        }
    if op == "cycle-extend":
        h = cycle_extend(g, CycleSpec(tuple(params)))
        payload = {"vertex_map": {str(w): w for w in range(g.n)}, "hub": g.n}
        return h, payload
    raise _UsageError(f"unknown op {op}")


def _cmd_apply(args, stdin, stdout) -> int:
    params = _parse_ints(args.params, "--params")
    rows = []
    for g6, g in _read_graphs(args, stdin):
        try:
            h, mapping = _apply_one(g, args.op, params)
        except (ValueError, TypeError) as exc:
            raise _UsageError(f"cannot apply {args.op} to {g6}: {exc}") from None
        rows.append((g6, to_graph6(h), mapping))
    if args.format == "json":
        _emit_json(
            {
                "schema": 1,
                "op": args.op,
                "results": [
                    {"graph6": g6, "result": h6, **mapping} for g6, h6, mapping in rows
                ],
            },
            stdout,
        )
    elif args.format == "csv":
        print("graph6,result", file=stdout)
        for g6, h6, _ in rows:
            print(f"{g6},{h6}", file=stdout)
    else:
        for g6, h6, mapping in rows:
            print(h6, file=stdout)
            for old, new in mapping["vertex_map"].items():
                print(f"map {old} -> {'-' if new is None else new}", file=stdout)
            for key in ("superedges",):
                if key in mapping:
                    for edge, path in mapping[key].items():
                        print(f"superedge {edge}: {','.join(str(x) for x in path)}", file=stdout)
            if "hub" in mapping:
                print(f"hub {mapping['hub']}", file=stdout)
    return 0


def _witness_params(kind: str, params: list[int]):
    if kind in ("add-vertex", "remove-vertex"):
        (v,) = params
        return v
    if kind in ("add-edge", "remove-edge", "contract-edge", "contract-vertices", "uncontract"):
        u, v = params
        return (u, v)
    return CycleSpec(tuple(params))  # cycle-extend / remove-hub


def _cmd_witness(args, stdin, stdout) -> int:
    try:
        base = Coloring.from_text(args.base)
    except ValueError as exc:
        raise _UsageError(f"bad base coloring: {exc}") from None
    try:
        params = _witness_params(args.kind, _parse_ints(args.params, "--params"))
    except ValueError as exc:
        raise _UsageError(f"bad --params for {args.kind}: {exc}") from None
    kind = args.kind.replace("-", "_")
    runner = extend_witness if kind in EXTEND_KINDS else reduce_witness
    exit_code = 0
    rows = []
    for g6, g in _read_graphs(args, stdin):
        try:
            outcome = runner(kind, g, params, base)
        except ValueError as exc:
            raise _UsageError(f"witness rejected on {g6}: {exc}") from None
        if outcome.status != "validated":
            exit_code = 1
        rows.append((g6, outcome))
    if args.format == "json":
        _emit_json(
            {
                "schema": 1,
                "kind": args.kind,
                "results": [
                    {
                        "graph6": g6,
                        "status": o.status,
                        "case": o.case,
                        "colors_used": o.colors_used,
                        "coloring": o.coloring.to_text(),
                        "gap": None
                        if o.gap_report is None
                        else {
                            "reason": o.gap_report.reason,
                            "budget": o.gap_report.budget,
                            "diagnostic": None
                            if o.gap_report.diagnostic is None
                            else {
                                "undominating_vertices": list(
                                    o.gap_report.diagnostic.undominating_vertices
                                ),
                                "undominated_classes": list(
                                    o.gap_report.diagnostic.undominated_classes
                                ),
                                "improper_edges": [
                                    list(e) for e in o.gap_report.diagnostic.improper_edges
                                ],
                            },
                        },
                    }
                    for g6, o in rows
                ],
            },
            stdout,
        )
    elif args.format == "csv":
        print("graph6,status,case,colors_used,coloring", file=stdout)
        for g6, o in rows:
            print(
                f"{g6},{o.status},{o.case},{o.colors_used},\"{o.coloring.to_text()}\"",
                file=stdout,
            )
    else:
        for g6, o in rows:
            line = f"{g6} {o.status} case={o.case} colors_used={o.colors_used} coloring={o.coloring.to_text()}"
            if o.gap_report is not None:
                line += f" gap_reason={o.gap_report.reason} budget={o.gap_report.budget}"
            print(line, file=stdout)
    return exit_code


def _cmd_verify(args, stdin, stdout, stderr) -> int:
    theorems = tuple(_parse_ints(args.theorems, "--theorems"))
    if not all(1 <= t <= 6 for t in theorems):
        raise _UsageError(f"--theorems must name theorems 1..6, got {args.theorems!r}")
    krange = _parse_ints(args.k_range, "--k-range")
    if len(krange) != 2 or krange[0] > krange[1]:
        raise _UsageError(f"--k-range expects LO,HI with LO <= HI, got {args.k_range!r}")
    if args.workers < 1:
        raise _UsageError(f"--workers must be at least 1, got {args.workers}")
    config = HarnessConfig(
        theorems=theorems,
        k_values=tuple(range(krange[0], krange[1] + 1)),
        cycle_cap=args.cycle_cap,
        subdivided_cap=args.subdivided_cap,
        budget=_resolve_budget(args),
        workers=args.workers,
        witnesses=not args.no_witnesses,
    )
    if (args.n_max is None) == (args.input is None):
        raise _UsageError("verify needs exactly one corpus source: --n-max or --input")
    if args.n_max is not None:
        graphs = corpus_up_to(args.n_max)
        descriptor = f"connected graphs n<={args.n_max}"
    else:
        graphs = (g for _, g in _read_graphs(args, stdin))
        descriptor = f"file:{args.input}"
    report = run_corpus(graphs, config, descriptor)
    if args.format == "json":
        print(report.to_json(include_timing=False), file=stdout)
    elif args.format == "csv":
        print(",".join(["theorem", *(name for name, _, _ in SUMMARY_COLUMNS)]), file=stdout)
        for t in sorted(report.per_theorem):
            print(",".join(str(x) for x in (t, *report.per_theorem[t].row())), file=stdout)
    else:
        print(report.to_text(include_timing=False), file=stdout)
    print(f"verify: {report.graphs} graphs in {report.elapsed:.2f}s", file=stderr)
    if report.violation_count > 0:
        return 1
    if report.unknown_count > 0:
        return 3
    return 0


def _cmd_gen(args, stdout) -> int:
    for g in enumerate_connected_graphs(args.n):
        print(to_graph6(g), file=stdout)
    return 0


def _cmd_oracle(args, stdin, stdout) -> int:
    rows = []
    for g6, g in _read_graphs(args, stdin):
        try:
            rows.append((g6, chi_dd_oracle(g)))
        except ValueError as exc:
            raise _UsageError(f"oracle rejected {g6}: {exc}") from None
    if args.format == "json":
        _emit_json(
            {"schema": 1, "results": [{"graph6": g6, "chi_dd": chi} for g6, chi in rows]},
            stdout,
        )
    elif args.format == "csv":
        print("graph6,chi_dd", file=stdout)
        for g6, chi in rows:
            print(f"{g6},{chi}", file=stdout)
    else:
        for g6, chi in rows:
            print(f"{g6} chi_dd={chi}", file=stdout)
    return 0


def main(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    stderr = sys.stderr if stderr is None else stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        if args.command == "solve":
            return _cmd_solve(args, stdin, stdout)
        if args.command == "check":
            return _cmd_check(args, stdin, stdout)
        if args.command == "apply":
            return _cmd_apply(args, stdin, stdout)
        if args.command == "witness":
            return _cmd_witness(args, stdin, stdout)
        if args.command == "verify":
            return _cmd_verify(args, stdin, stdout, stderr)
        if args.command == "gen":
            return _cmd_gen(args, stdout)
        if args.command == "oracle":
            return _cmd_oracle(args, stdin, stdout)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"domchrom: error: {exc}", file=stderr)
        return 2
    except ValueError as exc:
        print(f"domchrom: error: {exc}", file=stderr)
        return 2
    except OSError as exc:
        print(f"domchrom: error: {exc}", file=stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
