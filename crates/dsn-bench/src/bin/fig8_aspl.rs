//! Regenerates **Figure 8**: average shortest path length (hops) vs network
//! size for the 2-D torus, RANDOM (DLN-2-2) and DSN, plus the in-text claims
//! T1 ("ASPL improved by up to 55% vs torus") and T3 ("64-switch ASPL is
//! 3.2 / 3.2 / 4.1 for DSN / RANDOM / torus").
//!
//! Run: `cargo run --release -p dsn-bench --bin fig8_aspl [--threads N | --serial]`

use dsn_bench::{block_header, paper_sizes, trio, Args};
use dsn_metrics::aspl_with;

fn main() {
    let mut args = Args::from_env();
    let par = args.parallelism();
    args.finish_or_exit(0, "fig8_aspl [--threads N | --serial]");
    par.install();
    println!("Figure 8: average shortest path length vs network size (lower is better)");
    println!("# parallelism: {par}");
    print!(
        "{}",
        block_header(
            "columns: log2(N)  torus  random  dsn  dsn-vs-torus-improvement",
            &["log2N", "torus", "random", "dsn", "improv%"]
        )
    );
    let mut best_improvement = 0.0f64;
    let mut at64 = (0.0, 0.0, 0.0);
    for n in paper_sizes() {
        let [dsn, torus, random] = trio(n);
        let a_dsn = aspl_with(&dsn.build().expect("dsn").graph, &par);
        let a_torus = aspl_with(&torus.build().expect("torus").graph, &par);
        let a_rand = aspl_with(&random.build().expect("random").graph, &par);
        let improvement = 100.0 * (a_torus - a_dsn) / a_torus;
        best_improvement = best_improvement.max(improvement);
        if n == 64 {
            at64 = (a_dsn, a_rand, a_torus);
        }
        println!(
            "  {:>12} {:>12.3} {:>12.3} {:>12.3} {:>11.1}%",
            (n as f64).log2() as u32,
            a_torus,
            a_rand,
            a_dsn,
            improvement
        );
    }
    println!();
    println!(
        "T1 (ASPL): DSN improves ASPL vs torus by up to {best_improvement:.0}% (paper: up to 55%)"
    );
    println!(
        "T3 (64 switches): ASPL = {:.1} / {:.1} / {:.1} for DSN / RANDOM / torus \
         (paper: 3.2 / 3.2 / 4.1)",
        at64.0, at64.1, at64.2
    );
}
