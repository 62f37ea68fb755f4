//! Text-mode visualization of a small DSN: the ring with per-node levels,
//! each node's shortcut span, and a traced route — the content of the
//! paper's Figures 1 and 2 on the terminal.
//!
//! Run: `cargo run --release --example visualize_dsn [n] [x]`

use dsn::core::dsn::Dsn;
use dsn::route::dsn_routing::{route, RoutePhase, RouteStep};
use dsn_bench::{positional_or, Args};

fn main() {
    let usage = "visualize_dsn [n] [x]";
    let pos = Args::from_env().finish_or_exit(2, usage);
    let n: usize = positional_or(&pos, 0, "a switch count n", 32, usage);
    let p_default = dsn::core::util::ceil_log2(n).saturating_sub(1).max(1);
    let x: u32 = positional_or(&pos, 1, "a shortcut parameter x", p_default, usage);
    let dsn = match Dsn::new(n, x) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot build DSN-{x}-{n}: {e}");
            std::process::exit(2);
        }
    };

    println!(
        "DSN-{x}-{n}: p = {}, r = {} (Figure 1 structure)\n",
        dsn.p(),
        dsn.r()
    );

    // Level strip: one row per level, '#' marks nodes of that level,
    // annotated with the shortcut span from the first such node.
    println!("levels (one column per node id 0..{}):", n - 1);
    for level in 1..=dsn.p() {
        let mut row = String::with_capacity(n);
        for v in 0..n {
            row.push(if dsn.level(v) == level { '#' } else { '.' });
        }
        let owner = (0..n).find(|&v| dsn.level(v) == level && dsn.shortcut(v).is_some());
        let note = match owner {
            Some(v) => format!(
                "level {level}: shortcut span >= {} (e.g. {v} -> {})",
                n.div_ceil(1 << level),
                dsn.shortcut(v).unwrap()
            ),
            None => format!("level {level}: no shortcut (level > x)"),
        };
        println!("  {row}  {note}");
    }

    // Shortcut arc diagram for the first super node.
    println!("\nshortcut arcs out of super node 0:");
    for v in 0..dsn.p() as usize {
        if let Some(t) = dsn.shortcut(v) {
            let span = dsn.cw_dist(v, t);
            let bar = "-".repeat((span * 40 / n).max(1));
            println!(
                "  {v:>3} ({:>2}) {bar}> {t:<3} span {span}",
                format!("l{}", dsn.level(v))
            );
        }
    }

    // Trace one route end to end.
    let (s, t) = (1usize, n * 5 / 8);
    let tr = route(&dsn, s, t).expect("route");
    println!(
        "\nroute {s} -> {t} ({} hops, Figure 2 algorithm):",
        tr.hops()
    );
    for (i, &step) in tr.steps.iter().enumerate() {
        let phase = match tr.phases[i] {
            RoutePhase::PreWork => "PRE-WORK",
            RoutePhase::Main => "MAIN    ",
            RoutePhase::Finish => "FINISH  ",
        };
        let arrow = match step {
            RouteStep::Succ => "succ",
            RouteStep::Pred => "pred",
            RouteStep::Shortcut => "SHORTCUT",
        };
        println!(
            "  {phase}  {:>4} --{arrow:>8}--> {:<4} (level {} -> {}, dist to t: {})",
            tr.path[i],
            tr.path[i + 1],
            dsn.level(tr.path[i]),
            dsn.level(tr.path[i + 1]),
            dsn.cw_dist(tr.path[i + 1], t)
        );
    }
}
