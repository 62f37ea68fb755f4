//! Regenerates **Figure 9**: average cable length (m) vs network size under
//! the machine-room cabinet layout (16 switches/cabinet, 0.6 m x 2.1 m
//! cabinets, Manhattan routing, 2 m intra-cabinet cables, 2 m inter-cabinet
//! overhead), plus the in-text claim T2 ("DSN reduces average cable length
//! vs RANDOM by up to 38% and is near the same-degree torus") and the
//! 3-D-torus comparison from Section VI.B.
//!
//! Run: `cargo run --release -p dsn-bench --bin fig9_cable`

use dsn_bench::{block_header, paper_sizes, trio, RANDOM_SEED};
use dsn_core::topology::TopologySpec;
use dsn_layout::{cable_stats, CableModel, LinearPlacement};

fn avg_cable(spec: &TopologySpec) -> f64 {
    let built = spec.build().expect("topology");
    let n = built.graph.node_count();
    let model = CableModel::default();
    let placement = LinearPlacement::new(n, model.switches_per_cabinet);
    cable_stats(&built.graph, &placement, &model).avg_m
}

fn main() {
    dsn_bench::Args::from_env().finish_or_exit(0, "fig9_cable");
    println!("Figure 9: average cable length vs network size (lower is better)");
    print!(
        "{}",
        block_header(
            "columns: log2(N)  torus  random  dsn  dsn-vs-random-reduction",
            &["log2N", "torus[m]", "random[m]", "dsn[m]", "reduc%"]
        )
    );
    let mut best_reduction = 0.0f64;
    for n in paper_sizes() {
        let [dsn, torus, random] = trio(n);
        let c_dsn = avg_cable(&dsn);
        let c_torus = avg_cable(&torus);
        let c_rand = avg_cable(&random);
        let reduction = 100.0 * (c_rand - c_dsn) / c_rand;
        best_reduction = best_reduction.max(reduction);
        println!(
            "  {:>12} {:>12.2} {:>12.2} {:>12.2} {:>11.1}%",
            (n as f64).log2() as u32,
            c_torus,
            c_rand,
            c_dsn,
            reduction
        );
    }
    println!();
    println!(
        "T2: DSN reduces average cable length vs RANDOM by up to {best_reduction:.0}% \
         (paper: up to 38%), while staying near the same-degree torus."
    );

    // Section VI.B side note: degree-6 DSN vs 3-D torus.
    println!();
    println!("Section VI.B extra: degree-6 comparison (DSN-E vs 3-D torus)");
    for n in [512usize, 2048] {
        let dsn_e = avg_cable(&TopologySpec::DsnE { n });
        let t3 = avg_cable(&TopologySpec::Torus3D { n });
        let rnd6 = avg_cable(&TopologySpec::RandomRegular {
            n,
            d: 6,
            seed: RANDOM_SEED,
        });
        println!(
            "  N={n}: DSN-E {:.2} m vs 3-D torus {:.2} m vs 6-regular random {:.2} m",
            dsn_e, t3, rnd6
        );
    }
}
