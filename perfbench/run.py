"""domchrom benchmark: build a workload's input, time cold passes, check the answers.

    python3 perfbench/run.py --workload verify-small --seed 1 --seconds 30 --trace 0

Run from anywhere; the package under test is always the ``src/`` next to
this directory.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones.  ``--workload all`` runs the three workloads in turn,
``--smoke`` shrinks every input to a few graphs, and ``--record`` stores
the run's answers as the reference for its seed.  Human-readable lines
come first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status: 0 correct,
1 a check failed, 2 the package or an argument is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 3
TIME_LIMIT_S = 175  # the whole run, including set-up, stays under this

WORKLOAD_NAMES = ("verify-small", "verify-subdiv", "sweep-n6")


def _import_domchrom() -> float:
    """Import the package from ``src/`` and return the import time."""
    if not (SRC / "domchrom" / "__init__.py").is_file():
        raise ImportError(f"no domchrom package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import domchrom

    elapsed = time.perf_counter() - start
    if Path(domchrom.__file__).resolve().parent != SRC / "domchrom":
        raise ImportError(f"imported domchrom from {domchrom.__file__}, not from {SRC}")
    return elapsed


def _compare_reference(key: str, digest: str, fingerprints: list[dict]) -> list[str]:
    """Answers must match the recorded ones; a traced run answers for its first sample only."""
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    entry = reference.get(key)
    if entry is None:
        return []
    if entry["input_sha256"] != digest:
        return [f"{key}: input differs from the recorded input for this seed"]
    recorded = entry["fingerprints"][: len(fingerprints)]
    if recorded != fingerprints:
        return [f"{key}: answers differ from the reference: got {fingerprints}, recorded {recorded}"]
    return []


def _record_reference(key: str, digest: str, fingerprints: list[dict]) -> None:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference[key] = {"input_sha256": digest, "fingerprints": fingerprints}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def run_workload(name: str, size: str, seed: int, seconds: float, trace: bool, import_s: float, record: bool, deadline: float) -> dict:
    import calibrate
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    errors: list[str] = []
    workdir = BENCH / ".work"
    workdir.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=workdir)
    try:
        # Times are scaled by the machine speed measured on either side, as in worker.py.
        speeds = [calibrate.speed_factor()]
        import_s /= speeds[0]
        setups, digests = [], set()
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            samples = workloads.build_inputs(workload, size, seed)
            paths = []
            for index, lines in enumerate(samples):
                paths.append(os.path.join(tmp, f"sample{index}.g6"))
                with open(paths[-1], "w", encoding="ascii") as fh:
                    fh.write("\n".join(lines) + "\n")
            elapsed = time.perf_counter() - start
            speeds.append(calibrate.speed_factor())
            setups.append(elapsed / ((speeds[-2] + speeds[-1]) / 2))
            digests.add(hashlib.sha256(json.dumps(samples).encode()).hexdigest())
        if len(digests) != 1:
            errors.append("set-ups with one seed produced different inputs")
        digest = min(digests)
        enumerate_s = None
        if trace:
            target = (("graph.enumerate_connected_graphs", "graph", "enumerate_connected_graphs"),)
            with tracing.Tracer(target, ()) as tr:
                workloads.build_inputs(workload, size, seed)
            speeds.append(calibrate.speed_factor())
            enumerate_s = tr.spans["graph.enumerate_connected_graphs"].total_s / ((speeds[-2] + speeds[-1]) / 2)

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name,
               "--seconds", str(seconds), "--trace", str(int(trace)), *paths]
        timeout = max(5.0, deadline - time.perf_counter())
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout, cwd=ROOT)
        except subprocess.TimeoutExpired:
            proc = None
            errors.append(f"passes did not finish within {timeout:.0f} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if proc is not None and proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        errors.append(f"worker exited {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1]) if proc is not None and proc.returncode == 0 else None
    out = {"name": name, "seed": seed, "size": size, "graphs": sum(map(len, samples)), "digest": digest,
           "samples": len(samples)}
    if result is None:
        return {**out, "errors": errors, "attempted": 1, "failed": 1, "metrics": {}}

    key = f"{name}/{size}/{seed}"
    errors += result["errors"]
    errors += _compare_reference(key, digest, result["fingerprints"])
    if record and not trace and not errors and result["failed"] == 0:
        _record_reference(key, digest, result["fingerprints"])
    metrics = dict(result["metrics"])
    if trace:
        metrics["graph.enumerate_connected_graphs.s"] = (enumerate_s, "s")
    else:
        metrics["setup_s"] = (import_s + statistics.median(setups), "s")
    return {**out, **result, "errors": errors, "metrics": metrics, "setups": setups}


def _report(r: dict, trace: bool) -> None:
    """Human-readable lines for one workload."""
    print(f"== {r['name']} seed {r['seed']} ({r['size']}): {r['samples']} samples, {r['graphs']} graphs,"
          f" input sha256 {r['digest'][:12]}")
    if "passes" in r:
        print(f"   {r['passes']} untraced + {r['traced_passes']} traced cold passes;"
              f" raw wall quartiles {', '.join(f'{q:.4f}' for q in r['raw_wall_quartiles'])} s"
              f" at speed factor {r['speed_factor']:.3f}")
    for name, (value, unit) in sorted(r["metrics"].items()):
        note = ""
        if name == "setup_s":
            note = f"import + median of {len(r['setups'])} set-ups"
        elif name.startswith("graph_p"):
            note = f"over {r['latency_samples']} per-graph samples"
        elif name in ("wall_s", "cpu_s"):
            note = f"median of {r['passes']} passes"
        print(f"   {name:<40} {value:>14.6g} {unit:<6} {note}")
    frac = r["failed"] / r["attempted"] if r["attempted"] else 1.0
    print(f"   {'failed_frac':<40} {frac:>14.6g} {'ratio':<6} {r['failed']} of {r['attempted']}"
          f" {'instances' if r['name'].startswith('verify') else 'graphs'} over all passes")
    if not trace and r.get("witness"):
        gaps = ", ".join(f"{case} {g}/{n}" for case, (g, n) in sorted(r["witness"].items()))
        print(f"   reduce-witness gaps per pass (reported, not gated): {gaps}")
    for e in r["errors"]:
        print(f"   FAILED: {e}")


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--record", action="store_true", help="store this seed's answers as reference")
    args = parser.parse_args(argv)
    try:
        import_s = _import_domchrom()
    except ImportError as exc:
        print(f"perfbench: cannot import the package under test: {exc}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    size = "smoke" if args.smoke else "full"
    results = []
    for name in names:
        deadline = (time.perf_counter() if args.workload == "all" else started) + TIME_LIMIT_S
        r = run_workload(name, size, args.seed, args.seconds, bool(args.trace), import_s, args.record, deadline)
        _report(r, bool(args.trace))
        results.append(r)

    prefix = len(results) > 1
    summary = {
        "correct": all(not r["errors"] and r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['name']}.{name}" if prefix else name): {"value": value, "unit": unit}
            for r in results
            for name, (value, unit) in sorted(r["metrics"].items())
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
