//! Drive the cycle-level simulator on a small network: compare DSN, torus
//! and RANDOM under one traffic pattern and a few load points, and compare
//! the topology-agnostic adaptive routing against DSN's custom routing
//! (the Section VII.B discussion).
//!
//! Run: `cargo run --release --example simulate_traffic [uniform|bitrev|neighbor]`

use dsn::core::dsn::Dsn;
use dsn::core::parallel::Parallelism;
use dsn::core::topology::TopologySpec;
use dsn::sim::sweep::{format_sweep, load_sweep};
use dsn::sim::{AdaptiveEscape, SimConfig, SourceRouted, TrafficPattern};
use dsn_bench::{Args, UsageError};
use std::sync::Arc;

fn main() {
    let usage = "simulate_traffic [uniform|bitrev|neighbor]";
    let pattern = match Args::from_env()
        .finish_or_exit(1, usage)
        .first()
        .map(String::as_str)
    {
        None | Some("uniform") => TrafficPattern::Uniform,
        Some("bitrev") => TrafficPattern::BitReversal,
        Some("neighbor") => TrafficPattern::neighboring_paper(),
        Some(other) => UsageError(format!(
            "pattern must be uniform, bitrev or neighbor, got `{other}`"
        ))
        .exit(usage),
    };

    // Shortened windows keep this example interactive (~seconds).
    let cfg = SimConfig {
        warmup_cycles: 5_000,
        measure_cycles: 15_000,
        drain_cycles: 15_000,
        ..SimConfig::default()
    };
    let loads = [1.0, 4.0, 8.0, 11.0];

    println!(
        "=== topology comparison, {} traffic, adaptive + up*/down* escape ===\n",
        pattern.name()
    );
    for spec in TopologySpec::paper_trio(64, 0xD5B0_2013) {
        let built = spec.build().expect("topology");
        let graph = Arc::new(built.graph);
        let routing = Arc::new(AdaptiveEscape::new(graph.clone(), cfg.vcs));
        let sweep = load_sweep(
            built.name,
            graph,
            &cfg,
            routing,
            &pattern,
            &loads,
            1,
            &Parallelism::auto(),
        );
        println!("{}", format_sweep(&sweep));
    }

    println!("=== routing comparison on DSN-5-64: agnostic vs custom ===\n");
    let dsn = Arc::new(Dsn::new(64, 5).expect("dsn"));
    let graph = Arc::new(dsn.graph().clone());
    let agnostic = load_sweep(
        "DSN-5-64 / adaptive",
        graph.clone(),
        &cfg,
        Arc::new(AdaptiveEscape::new(graph.clone(), cfg.vcs)),
        &pattern,
        &loads,
        2,
        &Parallelism::auto(),
    );
    println!("{}", format_sweep(&agnostic));
    let custom = load_sweep(
        "DSN-5-64 / custom (3-phase, DSN-V VCs)",
        graph,
        &cfg,
        Arc::new(SourceRouted::dsn_custom(dsn.clone())),
        &pattern,
        &loads,
        2,
        &Parallelism::auto(),
    );
    println!("{}", format_sweep(&custom));
}
