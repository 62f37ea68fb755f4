//! Fault-tolerance study: path diversity, edge connectivity, bisection
//! width, and behavior under random link failures — the resilience angle
//! the paper's related work (Jellyfish, small-world datacenters) leads
//! with.
//!
//! Run: `cargo run --release --example fault_tolerance [n]`

use dsn::core::topology::TopologySpec;
use dsn::metrics::{edge_connectivity, estimate_bisection, path_diversity_histogram, path_stats};
use dsn_bench::{positional_or, Args};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let usage = "fault_tolerance [n]";
    let pos = Args::from_env().finish_or_exit(1, usage);
    let n: usize = positional_or(&pos, 0, "a switch count n", 128, usage);

    println!("Fault tolerance at N = {n}\n");
    println!(
        "  {:<18} {:>8} {:>10} {:>22}",
        "topology", "edge-conn", "bisection", "disjoint-path histogram"
    );
    let mut graphs = Vec::new();
    for spec in TopologySpec::paper_trio(n, 0xD5B0_2013) {
        let built = spec.build().expect("topology");
        let conn = edge_connectivity(&built.graph);
        let bis = estimate_bisection(&built.graph, 3, 7).width;
        let hist = path_diversity_histogram(&built.graph, 64);
        println!(
            "  {:<18} {:>8} {:>10} {:>22}",
            built.name,
            conn,
            bis,
            format!("{hist:?}")
        );
        graphs.push(built);
    }

    // Degrade each topology by failing random links and watch ASPL /
    // connectivity. DSN and RANDOM keep functioning; the torus fragments
    // its performance more gracefully in hops but loses its regularity.
    println!("\nRandom link failures (fractions of links removed; '—' = disconnected):");
    println!(
        "  {:<18} {:>10} {:>10} {:>10} {:>10}",
        "topology", "0%", "2%", "5%", "10%"
    );
    let mut rng = SmallRng::seed_from_u64(99);
    for built in &graphs {
        let m = built.graph.edge_count();
        let mut row = format!("  {:<18}", built.name);
        for frac in [0.0f64, 0.02, 0.05, 0.10] {
            let kill = (m as f64 * frac) as usize;
            let mut ids: Vec<usize> = (0..m).collect();
            ids.shuffle(&mut rng);
            let g = built.graph.without_edges(&ids[..kill]);
            if g.is_connected() {
                let s = path_stats(&g);
                row.push_str(&format!(" {:>10.3}", s.aspl));
            } else {
                row.push_str(&format!(" {:>10}", "—"));
            }
        }
        println!("{row}");
    }
    println!("\n(values are ASPL after failing that fraction of links)");
}
