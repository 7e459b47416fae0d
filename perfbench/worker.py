"""Timed passes of one workload, in a process of their own.

``run.py`` builds the samples and starts this script, so that the passes
begin in a fresh interpreter and the peak resident set size is that of
the passes, not of corpus generation.  Prints one JSON object.

Untraced (``--trace 0``): one cold pass per sample, the first sample
twice in a row, then round again until ``--seconds`` have elapsed.
Traced (``--trace 1``): pairs of one untraced and one traced pass over
the first sample, at least ``MIN_PAIRS``; the untraced ones give the
tracing overhead.  The machine's speed is measured before the first
pass and after every pass (see ``calibrate.py``), and the times of each
pass are divided by the mean of the two speed factors either side of it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import time

import calibrate
import tracing
import workloads

MIN_PAIRS = 2
SOLVES = (("solver.chi_dd_exact", "solver", "chi_dd_exact"),)


def _cold_check(label: str, passes: list[tuple[int, object]]) -> list[str]:
    """Every pass starts cold, so passes over one sample must do the same work."""
    first: dict[int, object] = {}
    errors = []
    for sample, counted in passes:
        seen = first.setdefault(sample, counted)
        if counted != seen:
            errors.append(f"{label} of sample {sample}: {counted} on a later pass, {seen} on its first")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("inputs", nargs="+", help="one graph6 file per sample")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    samples = []
    for path in args.inputs:
        with open(path, encoding="ascii") as fh:
            samples.append((path, fh.read().split()))
    deadline = time.perf_counter() + args.seconds
    latencies: list[float] = []
    untraced: list[workloads.PassResult] = []
    traced: list[workloads.PassResult] = []
    solve_counts: list[tuple[int, dict]] = []
    fingerprints: list[tuple[int, dict]] = []
    layer_counts: list[tuple[int, dict]] = []
    layers: list[dict] = []
    raw_walls: list[float] = []
    speeds = [calibrate.speed_factor()]

    def run_pass(sample: int, tr=None) -> workloads.PassResult:
        """One cold pass, its times scaled by the machine speed measured on either side of it."""
        path, lines = samples[sample]
        times: list[float] = []
        result = workloads.run_pass(workload, path, lines, times, tr)
        speeds.append(calibrate.speed_factor())
        factor = (speeds[-2] + speeds[-1]) / 2
        raw_walls.append(result.wall_s)
        result.wall_s /= factor
        result.cpu_s /= factor
        fingerprints.append((sample, result.fingerprint))
        if tr is None:
            latencies.extend(t / factor for t in times)
        else:
            scale = {"s": 1 / factor, "ms": 1 / factor, "1/s": factor}
            layers.append({
                name: (value * scale.get(unit, 1), unit) for name, (value, unit) in tr.layer_metrics().items()
            })
            layer_counts.append((sample, tr.layer_counts()))
        return result

    def untraced_pass(sample: int) -> None:
        # Only chi_dd_exact is counted here: one wrapper, a few thousand calls.
        with tracing.Tracer(SOLVES, ()) as tr:
            untraced.append(run_pass(sample))
        solve_counts.append((sample, {"chi_dd_exact": tr.calls("solver.chi_dd_exact"), "nodes": tr.nodes}))

    if not args.trace:
        schedule = itertools.chain([0], itertools.cycle(range(len(samples))))
        for count, sample in enumerate(schedule):
            if count > len(samples) and time.perf_counter() >= deadline:
                break
            untraced_pass(sample)
    else:
        while len(traced) < MIN_PAIRS or time.perf_counter() < deadline:
            untraced_pass(0)
            with tracing.Tracer() as tr:
                traced.append(run_pass(0, tr))

    passes = untraced + traced
    errors = [e for p in passes for e in p.errors]
    errors += _cold_check("chi_dd_exact calls and nodes", solve_counts)
    errors += _cold_check("span counts", layer_counts)
    errors += _cold_check("answers", fingerprints)

    med = statistics.median
    wall = med([p.wall_s for p in untraced])
    if args.trace:
        # median_low keeps counts whole: they are equal on every pass anyway
        metrics = {
            name: (statistics.median_low([m[name][0] for m in layers]), unit)
            for name, (_, unit) in layers[0].items()
        }
        metrics["trace.overhead_s"] = (med([p.wall_s for p in traced]) - wall, "s")
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "cpu_s": (med([p.cpu_s for p in untraced]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "graph_p50_ms": (tracing.percentile(latencies, 50) * 1e3, "ms"),
            "graph_p99_ms": (tracing.percentile(latencies, 99) * 1e3, "ms"),
        }
    first_pass = {}
    for sample, fingerprint in fingerprints:
        first_pass.setdefault(sample, fingerprint)
    print(json.dumps({
        "passes": len(untraced),
        "traced_passes": len(traced),
        "raw_wall_quartiles": statistics.quantiles(raw_walls, n=4),
        "speed_factor": med(speeds),
        "latency_samples": len(latencies),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "errors": errors,
        "fingerprints": [first_pass[i] for i in sorted(first_pass)],
        "witness": passes[0].witness,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
