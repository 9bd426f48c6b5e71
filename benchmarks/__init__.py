"""Benchmark harness reproducing every table and figure of the paper.

Each ``bench_*.py`` module regenerates one artefact of the evaluation
section (Sec. V) or measures one knob, and checks its claims from every
entry point (see :mod:`benchmarks.harness`)::

    pytest benchmarks/ --benchmark-only      # run everything (smoke size), timed
    python -m benchmarks.bench_<name> [--smoke]
    python -m benchmarks.report              # print all paper tables + paper-vs-measured

Modules:

* ``bench_central_plans``   — the naive sequential baselines (Sec. I/II claims)
* ``bench_fig16_query1_grid`` — Fig 16: Query1 time over fanout vectors
* ``bench_fig17_query2_grid`` — Fig 17: Query2 time over fanout vectors
* ``bench_tree_shapes``     — Figs 14/15: flat vs unbalanced vs balanced trees
* ``bench_fig21_adaptive``  — Fig 21: AFF_APPLYP vs best manual trees
* ``bench_threshold_sweep`` — Sec. V.A: AFF_APPLYP across change thresholds
* ``bench_adaptation_trace``— Figs 18-20: the add/drop dynamics of one run
* ``bench_ablations``       — design-choice ablations (contention model,
  dispatch policy, shipping cost, materialized levels, prefetch depth)
  called out in DESIGN.md
* ``bench_call_cache``      — the call cache on skewed keys (``BENCH_call_cache.json``)
* ``bench_batching``        — micro-batched messaging (``BENCH_batching.json``)
* ``bench_fault_tolerance`` — ``on_error`` under injected faults (``BENCH_fault_tolerance.json``)
* ``bench_capacity``        — admission concurrency sweep, adaptive vs static
  (``BENCH_capacity.json``)
* ``bench_multiquery``      — cross-query sharing, clients x overlap (``BENCH_multiquery.json``)
* ``bench_optimizer``       — cost-based plans: adversarial order, rewrite,
  drift (``BENCH_optimizer.json``)
* ``bench_mp_scaling``      — ``ProcessKernel`` on blocking providers, wall clock
  (``BENCH_mp_scaling.json``)

``worlds`` declares every synthetic service and computes every reference
answer; ``e2e/`` is the repository benchmark (``BENCHMARK.json``), kept
self-contained.
"""
