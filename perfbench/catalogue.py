"""The benchmark's workloads and metric catalogue.

Every end-to-end and per-layer metric the benchmark reports, with its unit,
direction, the workloads whose layers produce it (`on`) and, per layer, the
end-to-end metric it should move. BENCHMARK.json declares exactly these
(test_perfbench.py compares).
"""

SAT, SCALE, FLOWS, OPT = "fig10-sat-256", "fig10-scale-2046", "flows-256", "graph-opt-1020"
WORKLOADS = [SAT, SCALE, FLOWS, OPT]
SIM = [SAT, SCALE, FLOWS]
FIG10 = [SAT, SCALE]


def metric(name, unit, better, on, moves):
    return {"name": name, "unit": unit, "better": better, "on": on, "moves": moves}


# Measured with tracing off, on every workload.
END_TO_END = [
    metric("setup_s", "s", "lower", WORKLOADS,
           "median host s: topology, routing build, table compile, simulator construction "
           "(search: start point and budget scoring)"),
    metric("run_s", "s", "lower", WORKLOADS,
           "median host s: the simulated or search work after set-up"),
    metric("peak_rss_mb", "MB", "lower", WORKLOADS,
           "mean over repetitions of one repetition's process VmHWM"),
]

# From the traced run. On a workload outside `on` the layer does no work and
# the value is 0.
PER_LAYER = [
    metric("dsn-core.build_s", "s", "lower", WORKLOADS,
           "setup_s on fig10-scale-2046 and graph-opt-1020"),
    metric("dsn-sim.routing.build_s", "s", "lower", SIM, "setup_s on fig10-scale-2046"),
    metric("dsn-sim.routing.compile_s", "s", "lower", SIM, "setup_s on fig10-scale-2046"),
    metric("dsn-sim.routing.table_bytes", "bytes", "lower", FIG10,
           "peak_rss_mb on fig10-scale-2046"),
    metric("dsn-sim.engine.construct_s", "s", "lower", SIM, "setup_s on fig10-scale-2046"),
    metric("dsn-sim.engine.warmup_s", "s", "lower", FIG10, "run_s on fig10-sat-256"),
    metric("dsn-sim.engine.measure_s", "s", "lower", FIG10, "run_s on fig10-sat-256"),
    metric("dsn-sim.engine.drain_s", "s", "lower", FIG10, "run_s on fig10-sat-256"),
    metric("dsn-sim.engine.run_s.dsn", "s", "lower", FIG10,
           "run_s on fig10-sat-256 and fig10-scale-2046"),
    metric("dsn-sim.engine.run_s.torus", "s", "lower", [SAT], "run_s on fig10-sat-256"),
    metric("dsn-sim.engine.run_s.dln", "s", "lower", FIG10,
           "run_s on fig10-sat-256 and fig10-scale-2046"),
    metric("dsn-sim.engine.host_ns_per_delivered_pkt", "ns", "lower", FIG10,
           "run_s on fig10-sat-256 and fig10-scale-2046"),
    metric("dsn-sim.engine.peak_in_flight_packets", "count", "lower", FIG10,
           "peak_rss_mb on fig10-sat-256"),
    metric("dsn-sim.engine.peak_buffered_flits", "count", "lower", FIG10,
           "peak_rss_mb on fig10-sat-256"),
    metric("dsn-sim.engine.mean_channel_util", "ratio", "higher", FIG10,
           "dsn_accepted_gbps on fig10-sat-256"),
    metric("dsn-sim.cache.hit_ratio", "ratio", "higher", [FLOWS], "setup_s on flows-256"),
    metric("dsn-sim.flow.completed_ratio", "ratio", "higher", [FLOWS],
           "dsn_fct_p99_cycles on flows-256"),
    metric("dsn-sim.fault.retried_packets", "count", "lower", [FLOWS],
           "none: traced-only row (see README)"),
    metric("dsn-sim.fault.dropped_packets", "count", "lower", [FLOWS],
           "none: traced-only row (see README)"),
    metric("dsn-sim.fault.flap_overhead_s", "s", "lower", [FLOWS],
           "none: traced-only row (see README)"),
    metric("dsn-telemetry.overhead_s", "s", "lower", [FLOWS],
           "none: traced-only row (see README)"),
    metric("dsn-telemetry.export_s", "s", "lower", [FLOWS],
           "none: traced-only row (see README)"),
    metric("dsn-telemetry.report_bytes", "bytes", "lower", [FLOWS],
           "none: traced-only row (see README)"),
    metric("dsn-metrics.path_stats_s", "s", "lower", [OPT], "run_s on graph-opt-1020"),
    metric("dsn-layout.cable_stats_s", "s", "lower", [OPT], "run_s on graph-opt-1020"),
    metric("dsn-opt.anneal_s", "s", "lower", [OPT], "run_s on graph-opt-1020"),
    metric("dsn-opt.evaluations", "count", "lower", [OPT], "run_s on graph-opt-1020"),
    metric("dsn-opt.eval_ms", "ms", "lower", [OPT], "run_s on graph-opt-1020"),
    metric("dsn-opt.score_ms", "ms", "lower", [OPT],
           "run_s on graph-opt-1020 (the APSP floor under eval_ms)"),
    metric("dsn-opt.kept_ratio", "ratio", "higher", [OPT], "opt_best_aspl on graph-opt-1020"),
    metric("trace.overhead_s", "s", "lower", WORKLOADS, "none: traced minus untraced run_s"),
    metric("dsn-core.self_s", "s", "lower", WORKLOADS, "setup_s on every workload"),
    metric("dsn-metrics.self_s", "s", "lower", [OPT], "run_s on graph-opt-1020"),
    metric("dsn-layout.self_s", "s", "lower", [OPT], "run_s on graph-opt-1020"),
    metric("dsn-opt.self_s", "s", "lower", [OPT], "run_s and setup_s on graph-opt-1020"),
    metric("dsn-sim.routing.self_s", "s", "lower", SIM, "setup_s on fig10-* and flows-256"),
    metric("dsn-sim.cache.self_s", "s", "lower", [FLOWS], "setup_s on flows-256"),
    metric("dsn-sim.engine.self_s", "s", "lower", SIM,
           "run_s on fig10-*, setup_s on flows-256"),
    metric("dsn-sim.flow.self_s", "s", "lower", [FLOWS], "run_s on flows-256"),
    metric("dsn-telemetry.self_s", "s", "lower", [FLOWS],
           "none: export of the traced-only row"),
    metric("perfbench.self_s", "s", "lower", WORKLOADS,
           "none: the harness's own time (checks, bookkeeping)"),
]
