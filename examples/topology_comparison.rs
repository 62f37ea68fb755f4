//! Compare DSN against the paper's baselines — and the wider related-work
//! families — on hop metrics, degree, and small-world structure.
//!
//! Run: `cargo run --release --example topology_comparison [n]`

use dsn::core::topology::TopologySpec;
use dsn::metrics::clustering::{avg_clustering, small_world_sigma};
use dsn::metrics::{path_stats, TopologyReport};
use dsn_bench::{positional_or, Args};

fn main() {
    let usage = "topology_comparison [n]";
    let pos = Args::from_env().finish_or_exit(1, usage);
    let n: usize = positional_or(&pos, 0, "a switch count n", 256, usage);
    let p = dsn::core::util::ceil_log2(n);

    println!("Topology comparison at N = {n}\n");
    println!("{}", TopologyReport::header());
    let specs = vec![
        TopologySpec::Dsn { n, x: p - 1 },
        TopologySpec::DsnE { n },
        TopologySpec::DsnD { n, x: 2 },
        TopologySpec::Torus2D { n },
        TopologySpec::DlnRandom {
            n,
            x: 2,
            y: 2,
            seed: 0xD5B0_2013,
        },
        TopologySpec::RandomRegular {
            n,
            d: 4,
            seed: 0xD5B0_2013,
        },
        TopologySpec::Dln { n, x: p + 1 },
        TopologySpec::Ring { n },
    ];
    let mut reports = Vec::new();
    for spec in specs {
        match spec.build() {
            Ok(built) => {
                let r = TopologyReport::new(built.name, &built.graph);
                println!("{}", r.row());
                reports.push((r, built.graph));
            }
            Err(e) => println!("  (skipped {spec:?}: {e})"),
        }
    }

    println!("\nSmall-world structure (Watts–Strogatz):");
    println!("  {:<24} {:>10} {:>10}", "topology", "clustering", "sigma");
    for (r, g) in &reports {
        let c = avg_clustering(g);
        let sigma = small_world_sigma(g, r.paths.aspl);
        println!("  {:<24} {:>10.4} {:>10.2}", r.name, c, sigma);
    }

    // Distance distribution of DSN vs torus: the small-world effect shows
    // up as probability mass at low hop counts.
    println!("\nHop-distance CDF (fraction of pairs within d hops):");
    let dsn = TopologySpec::Dsn { n, x: p - 1 }.build().unwrap();
    let torus = TopologySpec::Torus2D { n }.build().unwrap();
    let sd = path_stats(&dsn.graph);
    let st = path_stats(&torus.graph);
    println!("  {:>4} {:>8} {:>8}", "d", "dsn", "torus");
    for d in 1..=st.diameter.max(sd.diameter) {
        println!("  {:>4} {:>8.3} {:>8.3}", d, sd.cdf_at(d), st.cdf_at(d));
    }
}
