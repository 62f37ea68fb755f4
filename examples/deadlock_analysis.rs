//! Deadlock analysis walkthrough (Section V.A / Theorem 3): build channel
//! dependency graphs for the basic, DSN-V, and DSN-E routing schemes and
//! show where cycles live and how virtual channels remove them.
//!
//! Run: `cargo run --release --example deadlock_analysis [n]`

use dsn::core::dsn::Dsn;
use dsn::core::dsn_ext::DsnE;
use dsn::route::deadlock::{basic_cdg, dsne_cdg, dsne_group_dependencies, dsnv_cdg};
use dsn_bench::{positional_or, Args};

fn main() {
    let usage = "deadlock_analysis [n]";
    let pos = Args::from_env().finish_or_exit(1, usage);
    let n: usize = positional_or(&pos, 0, "a switch count n", 60, usage);
    let p = dsn::core::util::ceil_log2(n);
    if !n.is_multiple_of(p as usize) {
        eprintln!(
            "note: n = {n} is not a multiple of p = {p}; deadlock freedom is \
             only guaranteed for complete super nodes"
        );
    }
    let dsn = Dsn::new(n, p - 1).expect("dsn");

    println!("1. Basic three-phase routing on a single virtual channel:");
    let cdg = basic_cdg(&dsn);
    match cdg.find_cycle() {
        Some(cycle) => println!(
            "   CYCLIC — {} channels, {} dependencies; one cycle of length {}: {:?}",
            cdg.channel_count(),
            cdg.dependency_count(),
            cycle.len(),
            &cycle[..cycle.len().min(8)]
        ),
        None => println!("   acyclic (unexpected!)"),
    }

    println!("\n2. DSN-V: same paths, 4-VC discipline (PRE-WORK / MAIN / FINISH / dateline):");
    let cdg = dsnv_cdg(&dsn);
    println!(
        "   {} channels, {} dependencies, acyclic = {} (Theorem 3)",
        cdg.channel_count(),
        cdg.dependency_count(),
        cdg.is_acyclic()
    );

    println!("\n3. DSN-E: physical Up/Extra links, single VC:");
    let dsne = DsnE::new(n).expect("dsne");
    let deps = dsne_group_dependencies(&dsne);
    println!("   group-level dependencies (0=Up, 1=Succ+Shortcut, 2=Pred+Extra): {deps:?}");
    println!(
        "   all inter-group dependencies point forward: {} (the paper's Figure 6 argument)",
        deps.iter().all(|&(a, b)| a < b)
    );
    let fine = dsne_cdg(&dsne);
    match fine.find_cycle() {
        Some(cycle) => println!(
            "   fine-grained channel CDG: CYCLIC (length {}) — reproduction finding:\n   \
             the group argument does not extend to channel granularity; a cycle\n   \
             closes through position-wrapping shortcuts bridged by forward-FINISH\n   \
             hops. Use DSN-V (virtual channels) for a machine-checked guarantee.",
            cycle.len()
        ),
        None => println!("   fine-grained channel CDG: acyclic"),
    }
}
