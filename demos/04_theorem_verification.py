#!/usr/bin/env python3
"""Exhaustive verification of all six bound theorems over a small corpus.

Every labeled connected graph up to the chosen order is hit with every
applicable operation instance; both chi_dd values are computed exactly
and the inequality is checked.  Violations would be reportable events;
the expected count is zero.  Proof-witness gap rates ride along.
"""

import sys

from domchrom import HarnessConfig, corpus_up_to, run_corpus

n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 4

config = HarnessConfig(
    theorems=(1, 2, 3, 4, 5, 6),
    k_values=(2, 3, 4),
    cycle_cap=6,
    subdivided_cap=24,
)
report = run_corpus(corpus_up_to(n_max), config, f"connected graphs n<={n_max}")
print(report.to_text())
print(f"elapsed: {report.elapsed:.3f}s")

print()
print("Reduce-witness gap findings per theorem case:")
for t in sorted(report.per_theorem):
    for case, runs in report.per_theorem[t].counts()["reduce"].items():
        print(f"  theorem {t} {case}: {runs['gaps']}/{runs['count']} constructions needed repair")
for t in sorted(report.per_theorem):
    for example in report.per_theorem[t].gap_examples[:3]:
        print(f"  e.g. theorem {t}: {example}")

sys.exit(0 if report.ok else 1)
