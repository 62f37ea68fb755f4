//! Regenerates **Figure 7**: diameter (hops) vs network size
//! (`log2 N = 5..11`) for the 2-D torus, RANDOM (DLN-2-2) and DSN, plus the
//! in-text claim T1 ("DSN improves the diameter by up to 67% compared to
//! torus").
//!
//! Run: `cargo run --release -p dsn-bench --bin fig7_diameter [--threads N | --serial]`

use dsn_bench::{block_header, paper_sizes, trio, Args};
use dsn_metrics::diameter_with;

fn main() {
    let mut args = Args::from_env();
    let par = args.parallelism();
    args.finish_or_exit(0, "fig7_diameter [--threads N | --serial]");
    par.install();
    println!("Figure 7: diameter vs network size (lower is better)");
    println!("# parallelism: {par}");
    print!(
        "{}",
        block_header(
            "columns: log2(N)  torus  random  dsn  dsn-vs-torus-improvement",
            &["log2N", "torus", "random", "dsn", "improv%"]
        )
    );
    let mut best_improvement = 0.0f64;
    for n in paper_sizes() {
        let [dsn, torus, random] = trio(n);
        let d_dsn = diameter_with(&dsn.build().expect("dsn").graph, &par);
        let d_torus = diameter_with(&torus.build().expect("torus").graph, &par);
        let d_rand = diameter_with(&random.build().expect("random").graph, &par);
        let improvement = 100.0 * (d_torus as f64 - d_dsn as f64) / d_torus as f64;
        best_improvement = best_improvement.max(improvement);
        println!(
            "  {:>12} {:>12} {:>12} {:>12} {:>11.1}%",
            (n as f64).log2() as u32,
            d_torus,
            d_rand,
            d_dsn,
            improvement
        );
    }
    println!();
    println!(
        "T1 (diameter): DSN improves diameter vs torus by up to {best_improvement:.0}% \
         (paper: up to 67%)"
    );
}
