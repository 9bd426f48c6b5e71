"""Every metric the benchmark prints, declared once.

``BENCHMARK.json`` carries name, unit and direction (and the bound of each
end-to-end metric); its schema has no room for the prediction the
choosing-metrics method asks for — which end-to-end metric a layer metric
should move, on which workload — so that lives here, and
:mod:`benchmarks.e2e.check_manifest` holds the two in agreement.
"""

from __future__ import annotations

#: (name, unit, better, bound): what a caller of the system sees.  The bound
#: is the share of the parent's median by which the metric may get worse.
#: The issue asked for 10 % on the timings; on this shared two-core machine
#: identical runs spread 7-24 % (README, "A/A spread"), so they carry the
#: widest bound the manifest allows.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("query_ms_p50", "ms", "lower", 0.25),
    ("first_row_ms_p50", "ms", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.25),
    ("cpu_ms_per_query", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

_Q = "query_ms_p50"
_SERVICE_PATH = f"{_Q}+cpu_ms_per_query@oneshot_paper,process_wire"
_WARM = f"{_Q}@engine_warm,http_serve"
_SIM = f"{_Q}@engine_warm,engine_chain_mix,oneshot_paper"
_WIRE = f"{_Q}@process_wire"
_SERVE = f"{_Q}+queries_per_s@http_serve"
_NONE = "none: fidelity or bookkeeping, must not move with a wall-clock change"

#: Layers a profile's self time is summed into (module under ``src/repro``;
#: ``idle`` is time blocked waiting for another process).
LAYERS = (
    "sql",
    "calculus",
    "algebra",
    "parallel",
    "runtime",
    "services.broker",
    "services.soap",
    "services.providers",
    "cache",
    "engine",
    "serve",
    "wsmed",
    "fdb",
    "obs",
    "runtime.wire",
    "idle",
    "other",
)

_LAYER_MOVES = {
    "sql": f"{_Q}@oneshot_paper",
    "calculus": f"{_Q}@oneshot_paper",
    "algebra": f"{_Q}@engine_chain_mix,engine_warm",
    "parallel": f"{_Q}@engine_warm,engine_chain_mix,process_wire",
    "runtime": _SIM,
    "services.broker": _SERVICE_PATH + ",engine_chain_mix",
    "services.soap": _SERVICE_PATH + ",engine_chain_mix",
    "services.providers": _SERVICE_PATH,
    "cache": _WARM,
    "engine": _WARM + ",engine_chain_mix",
    "serve": _SERVE,
    "wsmed": f"{_Q}@oneshot_paper,engine_warm",
    "fdb": f"{_Q}@engine_chain_mix",
    "obs": _NONE,
    "runtime.wire": _WIRE,
    "idle": f"{_Q}@process_wire,http_serve",
    "other": _NONE,
}

#: (name, unit, better, moves): one layer each.  ``moves`` names the
#: end-to-end metric(s) and workload(s) the layer metric should move;
#: everything else is predicted flat.
PER_LAYER = (
    # Probes: direct timed calls, median of five batches.
    ("sql.parse_us", "us", "lower", f"{_Q}@oneshot_paper (barely)"),
    ("wsmed.compile_us", "us", "lower", f"{_Q}@oneshot_paper (barely)"),
    ("algebra.optimizer.compile_us", "us", "lower", f"{_Q}@oneshot_paper (barely)"),
    ("services.soap.request_codec_us", "us", "lower", _SERVICE_PATH + ",engine_chain_mix"),
    ("services.soap.response_codec_us", "us", "lower", _SERVICE_PATH + ",engine_chain_mix"),
    ("services.soap.bytes_per_call", "bytes", "lower", _SERVICE_PATH),
    ("services.providers.invoke_us", "us", "lower", _SERVICE_PATH),
    ("services.broker.call_us", "us", "lower", _SERVICE_PATH + ",engine_chain_mix"),
    ("services.broker.self_us", "us", "lower", _SERVICE_PATH + ",engine_chain_mix"),
    ("cache.hit_us", "us", "lower", _WARM),
    ("engine.plan_cache.hit_us", "us", "lower", _WARM),
    ("runtime.simulated.msg_us", "us", "lower", _SIM),
    ("runtime.simulated.timer_us", "us", "lower", _SIM),
    ("runtime.realtime.msg_us", "us", "lower", f"{_Q}@http_serve,process_wire"),
    ("runtime.wire.envelope_us", "us", "lower", _WIRE),
    ("runtime.wire.envelope_bytes", "bytes", "lower", _WIRE),
    # Counts per query, exact on the SimKernel workloads.
    ("services.broker.calls_per_query", "count", "lower", _SERVICE_PATH + ",engine_chain_mix"),
    ("services.broker.bytes_per_query", "bytes", "lower", _SERVICE_PATH + ",engine_chain_mix"),
    ("parallel.messages_per_query", "count", "lower", f"{_Q}@process_wire,engine_warm"),
    ("parallel.processes_per_query", "count", "lower", f"{_Q}@oneshot_paper"),
    ("cache.hit_rate", "ratio", "higher", _WARM),
    ("engine.plan_cache.hit_rate", "ratio", "higher", _WARM + ",engine_chain_mix"),
    ("engine.pools.warm_lease_rate", "ratio", "higher", _WARM + ",engine_chain_mix"),
    ("engine.admission.peak_concurrency", "count", "higher", "queries_per_s@http_serve"),
    ("runtime.simulated.model_s_per_query", "s", "lower", _NONE),
    ("wsmed.rows_per_query", "count", "higher", _NONE),
    ("serve.bytes_per_row", "bytes", "lower", _SERVE),
    # Per entry point.
    ("wsmed.central_ms_p50", "ms", "lower", f"{_Q}@oneshot_paper"),
    ("wsmed.parallel_ms_p50", "ms", "lower", f"{_Q}@oneshot_paper"),
    ("wsmed.adaptive_ms_p50", "ms", "lower", f"{_Q}@oneshot_paper"),
    ("engine.chain_ms_p50", "ms", "lower", f"{_Q}@engine_chain_mix"),
    ("engine.join_ms_p50", "ms", "lower", f"{_Q}@engine_chain_mix"),
    ("engine.aggregate_ms_p50", "ms", "lower", f"{_Q}@engine_chain_mix"),
    ("engine.or_ms_p50", "ms", "lower", f"{_Q}@engine_chain_mix"),
    ("engine.limit_ms_p50", "ms", "lower", f"{_Q}@engine_chain_mix"),
    ("serve.q1_request_ms_p50", "ms", "lower", _SERVE),
    ("serve.small_request_ms_p50", "ms", "lower", _SERVE),
    ("serve.request_ms_p95", "ms", "lower", _SERVE),
    ("runtime.wire.tax_ratio", "ratio", "lower", _WIRE),
    ("runtime.workers.cpu_ms_per_query", "ms", "lower", "cpu_ms_per_query@process_wire"),
    ("bench.query_ms_p95", "ms", "lower", "tail of query_ms on the same workload"),
    # The traced pass.
    *(
        (f"{layer}.self_ms_per_query", "ms", "lower", _LAYER_MOVES[layer])
        for layer in LAYERS
    ),
    ("bench.profile_coverage_ratio", "ratio", "higher", _NONE),
    ("bench.trace_overhead_ratio", "ratio", "lower", _NONE),
)
