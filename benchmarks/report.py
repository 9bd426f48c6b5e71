"""Regenerate every figure/table of the paper in one run.

Usage::

    python -m benchmarks.report

Prints, in order: the central baselines, the Fig 16 and Fig 17 grids, the
tree-shape comparison, the Fig 21 adaptive sweep, the threshold sweep, the
adaptation timeline, the ablations and the benches behind the call-cache,
micro-batching and fault-tolerance knobs — checking every bench's claims
and writing its ``BENCH_<name>.json`` record.  EXPERIMENTS.md records a
snapshot of this output.
"""

from __future__ import annotations

from benchmarks import (
    bench_ablations,
    bench_adaptation_trace,
    bench_batching,
    bench_call_cache,
    bench_central_plans,
    bench_fault_tolerance,
    bench_fig16_query1_grid,
    bench_fig17_query2_grid,
    bench_fig21_adaptive,
    bench_threshold_sweep,
    bench_tree_shapes,
    harness,
)

SECTIONS = (
    ("Central baselines (Secs. I/II/V)", bench_central_plans),
    ("Fig 16", bench_fig16_query1_grid),
    ("Fig 17", bench_fig17_query2_grid),
    ("Tree shapes (Figs 14/15)", bench_tree_shapes),
    ("Fig 21", bench_fig21_adaptive),
    ("Threshold sweep (Sec. V.A)", bench_threshold_sweep),
    ("Adaptation timeline (Figs 18-20)", bench_adaptation_trace),
    ("Ablations (incl. prefetch depth)", bench_ablations),
    ("Call cache (skewed keys)", bench_call_cache),
    ("Micro-batching (batch size x fanout)", bench_batching),
    ("Fault tolerance (injected failures/crashes)", bench_fault_tolerance),
)


def main() -> None:
    for title, bench in SECTIONS:
        print("=" * 72)
        print(title)
        print("=" * 72)
        harness.finish(bench, bench.run(), smoke=False)
        print()


if __name__ == "__main__":
    main()
