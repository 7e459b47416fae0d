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
import sys
from contextlib import nullcontext
from dataclasses import asdict

from .coloring import _COLOR, Coloring, is_domination_coloring
from .graph import (
    GENERATOR_MAX_ORDER,
    Graph,
    Graph6Error,
    enumerate_connected_graphs,
    parse_graph6,
    to_graph6,
)
from .harness import HarnessConfig, corpus_up_to, run_corpus
from .ops import (  # the operations as well: apply calls them by name
    OPERATIONS,
    contract_edge,
    contract_vertices,
    cycle_extend,
    remove_edge,
    remove_vertex,
    subdivide,
    superedges,
)
from .solver import DEFAULT_BUDGET, chi_dd_exact, chi_dd_oracle
from .witnesses import EXTEND_KINDS, WITNESS_KINDS, extend_witness, reduce_witness

_WITNESS_KINDS = tuple(kind.replace("_", "-") for kind in WITNESS_KINDS)


class _UsageError(Exception):
    pass


def _int(text: str) -> int:
    """A command-line integer: ASCII digits after an optional ``-``, with
    surrounding whitespace allowed, as a color reads; ``int`` alone would also
    read ``1_0``, ``+2`` and other scripts' digits."""
    number = _COLOR.fullmatch(text.strip())
    if number is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(number[0])


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
    p.add_argument("--budget", type=_int, default=DEFAULT_BUDGET, help="search node budget")

    p = sub.add_parser("check", help="validate a coloring against the definition")
    add_common(p)
    p.add_argument("coloring", help="comma-separated colors, e.g. 0,1,0,1")

    p = sub.add_parser("apply", help="apply a graph operation")
    add_common(p)
    p.add_argument("--op", choices=tuple(name.replace("_", "-") for name in OPERATIONS), required=True)
    p.add_argument("--params", required=True, help="operation parameters, comma-separated")

    p = sub.add_parser("witness", help="run a proof recoloring")
    add_common(p)
    p.add_argument("--kind", choices=_WITNESS_KINDS, required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--base", required=True, help="base coloring, e.g. 0,1,0,1")

    p = sub.add_parser("verify", help="verify theorem inequalities over a corpus")
    add_common(p, graph_arg=False)
    defaults = HarnessConfig()
    p.add_argument("--n-max", type=_int, help="use all connected graphs up to this order")
    p.add_argument("--theorems", default=",".join(map(str, defaults.theorems)))
    p.add_argument(
        "--k-range", default=f"{min(defaults.k_values)},{max(defaults.k_values)}",
        help="theorem 5 subdivision lengths LO,HI",
    )
    p.add_argument("--cycle-cap", type=_int, default=defaults.cycle_cap)
    p.add_argument("--subdivided-cap", type=_int, default=defaults.subdivided_cap)
    p.add_argument("--workers", type=_int, default=defaults.workers)
    p.add_argument("--budget", type=_int, default=defaults.budget)
    p.add_argument("--no-witnesses", action="store_true")

    p = sub.add_parser("gen", help="stream all connected graphs of one order")
    p.add_argument("n", type=_int)

    p = sub.add_parser("oracle", help="brute-force chi_dd over all set partitions")
    add_common(p)
    return parser


def _resolve_budget(args) -> int:
    if args.budget < 1:
        raise _UsageError(f"--budget must be a positive node count, got {args.budget}")
    return args.budget


def _read_graphs(args, stdin) -> list[tuple[str, Graph]]:
    inline = getattr(args, "graph6", None)
    if inline is not None and args.input is not None:
        raise _UsageError("give either an inline graph6 or --input, not both")
    if inline is not None:
        lines = [("arg", inline)]
    elif args.input is not None:
        # a file decodes as stdin does in the C locale, so a non-ASCII byte reaches parse_graph6
        with (nullcontext(stdin) if args.input == "-"
              else open(args.input, encoding="ascii", errors="surrogateescape")) as stream:
            lines = [(f"line {no}", raw.strip()) for no, raw in enumerate(stream, start=1) if raw.strip()]
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
        return [_int(x) for x in text.split(",") if x != ""]
    except argparse.ArgumentTypeError:
        raise _UsageError(f"bad {what}: {text!r} (expected comma-separated integers)") from None


def _op_params(name: str, arity: int | None, text: str):
    """``--params`` for the op or witness kind ``name``: one int, or a tuple of them."""
    params = _parse_ints(text, "--params")
    if arity is not None and len(params) != arity:
        raise _UsageError(f"{name} takes {arity} parameter{'s' * (arity > 1)}, got {len(params)}")
    return params[0] if arity == 1 else tuple(params)


# Columns quoted in csv, since their values hold commas.
_QUOTED_COLUMNS = ("witness", "coloring")


def _csv_cell(column: str, value) -> str:
    if value is None:
        value = ""
    elif isinstance(value, bool):
        value = str(value).lower()
    return f'"{value}"' if column in _QUOTED_COLUMNS else str(value)


def _emit(args, stdout, rows: list[dict], csv_columns: tuple[str, ...], text_line, **header):
    """Print a command's rows in ``args.format``.

    json carries ``header`` and every field of every row, csv the
    ``csv_columns`` of each row, and text one ``text_line(row)`` per row.
    """
    if args.format == "json":
        payload = {"schema": 1, **header, "results": rows}
        print(json.dumps(payload, indent=2, sort_keys=True), file=stdout)
    elif args.format == "csv":
        print(",".join(csv_columns), file=stdout)
        for row in rows:
            print(",".join(_csv_cell(c, row[c]) for c in csv_columns), file=stdout)
    else:
        for row in rows:
            print(text_line(row), file=stdout)


def _solve_line(r: dict) -> str:
    if r["status"] == "exact":
        return f"{r['graph6']} chi_dd={r['chi_dd']} witness={r['witness']}"
    return f"{r['graph6']} status=unknown lower={r['lower']} upper={r['upper']}"


def _cmd_solve(args, stdin, stdout, stderr) -> int:
    budget = _resolve_budget(args)
    rows = []
    for g6, g in _read_graphs(args, stdin):
        result = chi_dd_exact(g, budget)
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
    _emit(args, stdout, rows, ("graph6", "status", "chi_dd", "witness"), _solve_line)
    return 0 if all(r["status"] == "exact" for r in rows) else 3


def _check_line(r: dict) -> str:
    if r["valid"]:
        return f"{r['graph6']} valid"
    return (
        f"{r['graph6']} invalid"
        f" undominating_vertices={list(r['undominating_vertices'])}"
        f" undominated_classes={list(r['undominated_classes'])}"
        f" improper_edges={list(r['improper_edges'])}"
    )


def _cmd_check(args, stdin, stdout, stderr) -> int:
    graphs = _read_graphs(args, stdin)
    try:
        coloring = Coloring.from_text(args.coloring)
    except ValueError as exc:
        raise _UsageError(f"bad coloring: {exc}") from None
    rows = []
    for g6, g in graphs:
        ok, diag = is_domination_coloring(g, coloring)
        rows.append({"graph6": g6, "valid": ok, **asdict(diag)})
    _emit(args, stdout, rows, ("graph6", "valid"), _check_line)
    return 0 if all(r["valid"] for r in rows) else 1


def _apply_line(r: dict) -> str:
    lines = [r["result"]]
    lines += [f"map {old} -> {'-' if new is None else new}" for old, new in r["vertex_map"].items()]
    for edge, path in r.get("superedges", {}).items():
        lines.append(f"superedge {edge}: {','.join(str(x) for x in path)}")
    if "hub" in r:
        lines.append(f"hub {r['hub']}")
    return "\n".join(lines)


def _cmd_apply(args, stdin, stdout, stderr) -> int:
    name = args.op.replace("-", "_")
    op = OPERATIONS[name]
    params = _op_params(args.op, op.arity, args.params)
    rows = []
    for g6, g in _read_graphs(args, stdin):
        try:
            param = op.read(params)
            h = globals()[name](g, param)  # this module's global: see the ops docstring
        except ValueError as exc:
            raise _UsageError(f"cannot apply {args.op} to {g6}: {exc}") from None
        vmap = op.vertex_map(g.n, param)
        row = {"graph6": g6, "vertex_map": {str(w): vmap[w] for w in range(g.n)}}
        if name == "subdivide":
            row["superedges"] = {f"{u}-{v}": path for (u, v), path in superedges(g, param).items()}
        elif name == "cycle_extend":
            row["hub"] = g.n
        rows.append({**row, "result": to_graph6(h)})
    _emit(args, stdout, rows, ("graph6", "result"), _apply_line, op=args.op)
    return 0


def _witness_line(r: dict) -> str:
    line = (
        f"{r['graph6']} {r['status']} case={r['case']}"
        f" colors_used={r['colors_used']} coloring={r['coloring']}"
    )
    if r["gap"] is not None:
        line += f" gap_reason={r['gap']['reason']} budget={r['gap']['budget']}"
    return line


def _cmd_witness(args, stdin, stdout, stderr) -> int:
    try:
        base = Coloring.from_text(args.base)
    except ValueError as exc:
        raise _UsageError(f"bad base coloring: {exc}") from None
    kind = args.kind.replace("-", "_")
    op = OPERATIONS[WITNESS_KINDS[kind].operation]
    try:
        params = op.read(_op_params(args.kind, op.arity, args.params))
    except ValueError as exc:
        raise _UsageError(f"bad --params for {args.kind}: {exc}") from None
    runner = extend_witness if kind in EXTEND_KINDS else reduce_witness
    rows = []
    for g6, g in _read_graphs(args, stdin):
        try:
            o = runner(kind, g, params, base)
        except ValueError as exc:
            raise _UsageError(f"witness rejected on {g6}: {exc}") from None
        rows.append(
            {
                "graph6": g6,
                "status": o.status,
                "case": o.case,
                "colors_used": o.colors_used,
                "coloring": o.coloring.to_text(),
                "gap": None if o.gap_report is None else asdict(o.gap_report),
            }
        )
    columns = ("graph6", "status", "case", "colors_used", "coloring")
    _emit(args, stdout, rows, columns, _witness_line, kind=args.kind)
    return 0 if all(r["status"] == "validated" for r in rows) else 1


def _cmd_verify(args, stdin, stdout, stderr) -> int:
    krange = _parse_ints(args.k_range, "--k-range")
    if len(krange) != 2 or krange[0] > krange[1]:
        raise _UsageError(f"--k-range expects LO,HI with LO <= HI, got {args.k_range!r}")
    # HarnessConfig rejects a configuration that would check nothing
    config = HarnessConfig(
        theorems=_parse_ints(args.theorems, "--theorems"),
        k_values=range(krange[0], krange[1] + 1),
        cycle_cap=args.cycle_cap,
        subdivided_cap=args.subdivided_cap,
        budget=_resolve_budget(args),
        workers=args.workers,
        witnesses=not args.no_witnesses,
    )
    if (args.n_max is None) == (args.input is None):
        raise _UsageError("verify needs exactly one corpus source: --n-max or --input")
    if args.n_max is not None:
        if not 1 <= args.n_max <= GENERATOR_MAX_ORDER:
            raise _UsageError(f"--n-max must be in 1..{GENERATOR_MAX_ORDER}, got {args.n_max}")
        graphs = corpus_up_to(args.n_max)
        descriptor = f"connected graphs n<={args.n_max}"
    else:
        graphs = (g for _, g in _read_graphs(args, stdin))
        descriptor = f"file:{args.input}"
    report = run_corpus(graphs, config, descriptor)
    render = {"json": report.to_json, "csv": report.to_csv, "text": report.to_text}[args.format]
    print(render(), file=stdout)
    print(f"verify: {report.graphs} graphs in {report.elapsed:.2f}s", file=stderr)
    if report.violation_count > 0:
        return 1
    if report.unknown_count > 0:
        return 3
    return 0


def _cmd_gen(args, stdin, stdout, stderr) -> int:
    for g in enumerate_connected_graphs(args.n):
        print(to_graph6(g), file=stdout)
    return 0


def _cmd_oracle(args, stdin, stdout, stderr) -> int:
    rows = []
    for g6, g in _read_graphs(args, stdin):
        try:
            rows.append({"graph6": g6, "chi_dd": chi_dd_oracle(g)})
        except ValueError as exc:
            raise _UsageError(f"oracle rejected {g6}: {exc}") from None
    _emit(args, stdout, rows, ("graph6", "chi_dd"), lambda r: f"{r['graph6']} chi_dd={r['chi_dd']}")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "check": _cmd_check,
    "apply": _cmd_apply,
    "witness": _cmd_witness,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
    "oracle": _cmd_oracle,
}


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
        return _COMMANDS[args.command](args, stdin, stdout, stderr)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"domchrom: error: {exc}", file=stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
