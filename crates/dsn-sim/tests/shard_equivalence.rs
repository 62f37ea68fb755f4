//! Bit-equivalence gate for the sharded parallel driver: for every worker
//! count the sharded engine must reproduce the single-thread event
//! engine's `RunStats` *exactly* — every counter and every float — across
//! topologies, routings, traffic patterns, open and closed workloads, and
//! with telemetry on it must additionally export byte-identical artifacts
//! (JSON, CSV, heatmap). The partition depends only on `cfg.workers`,
//! never on the machine's thread count, so these gates hold under any
//! `RAYON_NUM_THREADS`.

use dsn_core::dln::Dln;
use dsn_core::dsn::Dsn;
use dsn_core::graph::Graph;
use dsn_core::torus::Torus;
use dsn_sim::{
    AdaptiveEscape, EngineKind, FaultPlan, RetryPolicy, RunStats, SimConfig, SimRouting, Simulator,
    SourceRouted, TrafficPattern, UpDownRouting, Workload,
};
use std::sync::Arc;

/// Worker counts every scenario is checked under: the degenerate one-shard
/// case (fallback path), an even cut, and more shards than the container
/// has cores (shards are a partition, not threads, so this must not matter).
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];

/// Short-horizon config so the whole matrix stays fast in debug builds.
fn cfg() -> SimConfig {
    SimConfig {
        warmup_cycles: 300,
        measure_cycles: 2_500,
        drain_cycles: 2_500,
        ..SimConfig::test_small()
    }
}

/// Run the identical scenario on the event oracle and on the sharded
/// engine at every worker count, demanding bit-identical stats.
fn assert_sharded_agrees(
    g: Arc<Graph>,
    cfg: SimConfig,
    routing: Arc<dyn SimRouting>,
    workload: Workload,
    seed: u64,
    label: &str,
) -> RunStats {
    let oracle = Simulator::with_workload(
        g.clone(),
        SimConfig {
            engine: EngineKind::Event,
            ..cfg.clone()
        },
        routing.clone(),
        workload.clone(),
        seed,
    )
    .run();
    assert!(
        oracle.total_packets_all_time > 0,
        "{label}: vacuous scenario"
    );
    for workers in WORKER_COUNTS {
        let sharded = Simulator::with_workload(
            g.clone(),
            SimConfig {
                engine: EngineKind::Sharded,
                workers,
                ..cfg.clone()
            },
            routing.clone(),
            workload.clone(),
            seed,
        )
        .run();
        assert_eq!(
            oracle, sharded,
            "{label}: sharded ({workers} workers) diverged from event oracle"
        );
    }
    oracle
}

fn open(pattern: TrafficPattern, rate: f64) -> Workload {
    Workload::Open {
        pattern,
        packets_per_cycle_per_host: rate,
    }
}

#[test]
fn dsn_adaptive_uniform_low_and_high_load() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg = cfg();
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    for (rate, label) in [(0.002, "low"), (0.04, "near-saturation")] {
        let stats = assert_sharded_agrees(
            g.clone(),
            cfg.clone(),
            routing.clone(),
            open(TrafficPattern::Uniform, rate),
            42,
            &format!("dsn64 adaptive uniform {label}"),
        );
        assert!(stats.delivered_packets > 0);
    }
}

#[test]
fn dsn_updown_transpose() {
    let g = Arc::new(Dsn::new(128, 6).unwrap().into_graph());
    let cfg = cfg();
    let routing = Arc::new(UpDownRouting::new(g.clone(), cfg.vcs));
    assert_sharded_agrees(
        g,
        cfg,
        routing,
        open(TrafficPattern::Transpose, 0.004),
        7,
        "dsn128-x6 up*/down* transpose",
    );
}

#[test]
fn dsn_custom_routing_uniform() {
    let dsn = Arc::new(Dsn::new(64, 5).unwrap());
    let g = Arc::new(dsn.graph().clone());
    let routing = Arc::new(SourceRouted::dsn_custom(dsn));
    // DSN-V levels need the paper's 4 VCs; keep the short test horizon.
    let cfg = SimConfig { vcs: 4, ..cfg() };
    assert_sharded_agrees(
        g,
        cfg,
        routing,
        open(TrafficPattern::Uniform, 0.004),
        11,
        "dsn64 DSN-V custom uniform",
    );
}

#[test]
fn torus_dor_uniform_and_transpose() {
    let torus = Arc::new(Torus::new(&[4, 4]).unwrap());
    let g = Arc::new(torus.graph().clone());
    for (pattern, label) in [
        (TrafficPattern::Uniform, "uniform"),
        (TrafficPattern::Transpose, "transpose"),
    ] {
        let routing = Arc::new(SourceRouted::torus_dor(torus.clone()));
        assert_sharded_agrees(
            g.clone(),
            cfg(),
            routing,
            open(pattern, 0.006),
            13,
            &format!("torus4x4 DOR {label}"),
        );
    }
}

#[test]
fn dln_adaptive_uniform() {
    let g = Arc::new(Dln::new(64, 2).unwrap().into_graph());
    let cfg = cfg();
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    assert_sharded_agrees(
        g,
        cfg,
        routing,
        open(TrafficPattern::Uniform, 0.004),
        17,
        "dln64 adaptive uniform",
    );
}

#[test]
fn closed_all_to_all_batch() {
    let g = Arc::new(Dsn::new(16, 3).unwrap().into_graph());
    let mut cfg = cfg();
    cfg.drain_cycles = 60_000; // room for the batch to finish
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let hosts = 16 * cfg.hosts_per_switch;
    let stats = assert_sharded_agrees(
        g,
        cfg,
        routing,
        Workload::all_to_all(hosts),
        3,
        "dsn16 all-to-all batch",
    );
    assert!(stats.completion_cycle.is_some(), "batch must complete");
}

/// Fault plans fall back to the single-thread event path (their global
/// zero-lag drop refunds have no lookahead), so a faulted sharded run must
/// still match the event oracle bit for bit at every worker count.
#[test]
fn faulted_run_falls_back_and_matches() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let mut cfg = cfg();
    cfg.fault_plan = FaultPlan::single_link(5, 900).with_retry(RetryPolicy::new(2, 150, 50));
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    assert_sharded_agrees(
        g,
        cfg,
        routing,
        open(TrafficPattern::Uniform, 0.004),
        23,
        "dsn64 adaptive uniform with link fault",
    );
}

/// With telemetry on, the sharded engine must export byte-identical
/// artifacts (it records on the single-thread event path).
#[test]
fn telemetry_byte_identical() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg = cfg();
    let tc = cfg.standard_telemetry(512);
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let workload = open(TrafficPattern::Uniform, 0.01);

    let (oracle_stats, oracle_rep) = Simulator::with_workload(
        g.clone(),
        SimConfig {
            engine: EngineKind::Event,
            ..cfg.clone()
        },
        routing.clone(),
        workload.clone(),
        31,
    )
    .with_telemetry(tc.clone())
    .run_with_telemetry();
    let oracle_rep = oracle_rep.expect("telemetry was configured");
    for workers in WORKER_COUNTS {
        let (stats, rep) = Simulator::with_workload(
            g.clone(),
            SimConfig {
                engine: EngineKind::Sharded,
                workers,
                ..cfg.clone()
            },
            routing.clone(),
            workload.clone(),
            31,
        )
        .with_telemetry(tc.clone())
        .run_with_telemetry();
        let rep = rep.expect("telemetry was configured");
        assert_eq!(oracle_stats, stats, "{workers} workers: stats diverged");
        assert_eq!(
            oracle_rep.to_json(),
            rep.to_json(),
            "{workers} workers: JSON diverged"
        );
        assert_eq!(
            oracle_rep.to_csv(),
            rep.to_csv(),
            "{workers} workers: CSV diverged"
        );
        assert_eq!(
            oracle_rep.heatmap(),
            rep.heatmap(),
            "{workers} workers: heatmap diverged"
        );
    }
}

/// CI smoke: a 30k-cycle event-vs-sharded check on a paper-sized DSN with
/// the paper's full-size delays (8-cycle lookahead window), kept as one
/// named test so the workflow can run exactly this gate.
#[test]
fn smoke_30k_sharded_vs_event() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg = SimConfig {
        warmup_cycles: 5_000,
        measure_cycles: 15_000,
        drain_cycles: 10_000,
        ..SimConfig::default()
    };
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let rate = cfg.packets_per_cycle_for_gbps(1.0);
    let stats = assert_sharded_agrees(
        g,
        cfg,
        routing,
        open(TrafficPattern::Uniform, rate),
        2024,
        "smoke dsn64-x5 30k cycles",
    );
    assert!(stats.delivered_packets > 0);
    assert!(!stats.deadlock_suspected);
}

/// CI smoke: the saturated steady state at scale — a 256-switch DSN at
/// 11 Gbit/s/host (the BENCH near-saturation point) on flat tables, the
/// exact regime the cache-conscious layout, word-parallel scans, batch
/// draining and zero-alloc presizing all target. Event oracle vs every
/// worker count, bit-identical, with the run actually saturated so the
/// hot paths being gated are the ones that executed.
#[test]
fn smoke_saturated_256_sharded_vs_event() {
    let g = Arc::new(Dsn::new(256, 7).unwrap().into_graph());
    let cfg = SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 4_000,
        drain_cycles: 2_000,
        routing_tables: dsn_sim::RoutingTables::Flat,
        ..SimConfig::default()
    };
    let routing: Arc<dyn SimRouting> = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    routing.compiled_flat();
    let rate = cfg.packets_per_cycle_for_gbps(11.0);
    let stats = assert_sharded_agrees(
        g,
        cfg,
        routing,
        open(TrafficPattern::Uniform, rate),
        2024,
        "smoke dsn256-x7 saturated 11G",
    );
    assert!(stats.delivered_packets > 0);
    assert!(
        stats.saturated(),
        "11G on DSN-7-256 must exercise the saturated path"
    );
}
