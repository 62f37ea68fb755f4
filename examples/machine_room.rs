//! Machine-room deployment study: lay a topology out on the cabinet grid of
//! Section VI.B and break the cable bill down per link class — the analysis
//! a datacenter planner would run before committing to a topology.
//!
//! Run: `cargo run --release --example machine_room [n]`

use dsn::core::topology::TopologySpec;
use dsn::layout::{cable_stats, CableModel, FloorPlan, LinearPlacement};
use dsn_bench::{positional_or, Args};

fn main() {
    let usage = "machine_room [n]";
    let pos = Args::from_env().finish_or_exit(1, usage);
    let n: usize = positional_or(&pos, 0, "a switch count n", 1024, usage);
    let p = dsn::core::util::ceil_log2(n);

    let model = CableModel::default();
    let placement = LinearPlacement::new(n, model.switches_per_cabinet);
    let cabinets = n.div_ceil(model.switches_per_cabinet);
    let plan = FloorPlan::new(cabinets);
    let (w, d) = plan.extent_m();
    println!(
        "floorplan for {n} switches: {cabinets} cabinets in a {} x {} grid, {w:.1} m x {d:.1} m floor\n",
        plan.rows(),
        plan.cols()
    );

    for spec in [
        TopologySpec::Dsn { n, x: p - 1 },
        TopologySpec::Torus2D { n },
        TopologySpec::DlnRandom {
            n,
            x: 2,
            y: 2,
            seed: 0xD5B0_2013,
        },
    ] {
        let built = spec.build().expect("topology");
        let stats = cable_stats(&built.graph, &placement, &model);
        println!(
            "{}: {} links, total {:.0} m, avg {:.2} m, max {:.1} m ({} intra-cabinet, {} inter)",
            built.name,
            stats.links,
            stats.total_m,
            stats.avg_m,
            stats.max_m,
            stats.intra_cabinet_links,
            stats.inter_cabinet_links
        );
        for (kind, ks) in &stats.by_kind {
            println!(
                "    {:<18} {:>6} links, avg {:>6.2} m, total {:>8.0} m",
                kind.to_string(),
                ks.links,
                ks.avg_m,
                ks.total_m
            );
        }
        println!();
    }

    println!("(cable model: 2 m intra-cabinet, Manhattan + 2 m overhead inter-cabinet,\n 16 switches per 0.6 m x 2.1 m cabinet — Section VI.B of the paper)");
}
