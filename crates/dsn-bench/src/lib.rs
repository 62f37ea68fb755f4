//! # dsn-bench — figure/table regenerators for the DSN reproduction
//!
//! One binary per figure of the paper's evaluation (see `src/bin/`):
//!
//! * `fig7_diameter` — diameter vs network size (Figure 7)
//! * `fig8_aspl` — average shortest path length vs network size (Figure 8)
//! * `fig9_cable` — average cable length vs network size (Figure 9)
//! * `fig10_simulation` — latency vs accepted traffic (Figure 10 a/b/c)
//! * `theory_validation` — Facts 1–3 and Theorems 1–2 measured vs bounds
//! * `ablation_extensions` — DSN-D-x / DSN-E / flexible-DSN ablations
//! * `related_work` — Section III diameter-and-degree table
//!
//! plus Criterion micro-benchmarks under `benches/`.
//!
//! Every binary parses its command line with [`Args`] (and the shared
//! simulator flags with [`SimArgs`]): a flag that takes a value accepts
//! `--flag V` and `--flag=V`, the last occurrence wins, and a missing value
//! or an unknown flag exits with status 2 and the binary's usage line.
//! The one optional value, the `--telemetry[=WINDOW]` window, is given
//! only in the `=` form.

#![warn(missing_docs)]

pub mod degraded;
pub mod flows;
pub mod opt;

use dsn_core::parallel::Parallelism;
use dsn_core::topology::TopologySpec;
use dsn_sim::{EngineKind, RoutingTables, SimConfig};

/// The network sizes of Figures 7–9: `log2 N = 5 .. 11`.
pub fn paper_sizes() -> Vec<usize> {
    (5..=11).map(|k| 1usize << k).collect()
}

/// Fixed seed for the RANDOM (DLN-2-2) baseline so every figure binary and
/// test sees the same instance.
pub const RANDOM_SEED: u64 = 0xD5B0_2013;

/// The paper's three degree-4 contenders at size `n`.
pub fn trio(n: usize) -> [TopologySpec; 3] {
    TopologySpec::paper_trio(n, RANDOM_SEED)
}

/// Format a gnuplot-style data block header.
pub fn block_header(title: &str, columns: &[&str]) -> String {
    let mut s = format!("# {title}\n#");
    for c in columns {
        s.push_str(&format!(" {c:>12}"));
    }
    s.push('\n');
    s
}

/// A malformed command line: a flag without a valid value, a flag the
/// binary does not know, or a stray argument. Binaries report it with
/// their usage text and exit status 2 ([`Args::finish_or_exit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl UsageError {
    /// Print this error and `usage` to stderr and end the process with
    /// exit status 2.
    pub fn exit(&self, usage: &str) -> ! {
        eprintln!("{self}\nusage: {usage}");
        std::process::exit(2)
    }
}

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Remove every `--NAME VALUE` / `--NAME=VALUE` occurrence from `args` and
/// return the last value. A `--NAME` with no value after it (end of the
/// line, or another `--flag` next) is an error.
fn take_value_arg(args: &mut Vec<String>, name: &str) -> Result<Option<String>, UsageError> {
    let flag = format!("--{name}");
    let eq_prefix = format!("--{name}=");
    let mut value = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            if args.get(i + 1).is_none_or(|v| v.starts_with("--")) {
                return Err(UsageError(format!("{flag} needs a value")));
            }
            value = Some(args.remove(i + 1));
            args.remove(i);
        } else if let Some(v) = args[i].strip_prefix(&eq_prefix) {
            value = Some(v.to_string());
            args.remove(i);
        } else {
            i += 1;
        }
    }
    Ok(value)
}

/// The command line of one binary, consumed flag by flag. The first error
/// is kept and reported by [`Args::finish`], so a binary takes all its
/// flags and then checks once, before it does any work.
#[derive(Debug, Clone)]
pub struct Args {
    rest: Vec<String>,
    error: Option<UsageError>,
}

impl Args {
    /// Arguments from a list (the program name excluded).
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Args {
            rest: args.into_iter().collect(),
            error: None,
        }
    }

    /// This process's arguments.
    pub fn from_env() -> Self {
        Self::new(std::env::args().skip(1))
    }

    /// Record a usage error for [`Args::finish`] to report (the first
    /// one recorded wins).
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.error.get_or_insert(UsageError(msg.into()));
    }

    /// Remove every bare `--NAME`; true when there was one.
    pub fn flag(&mut self, name: &str) -> bool {
        let flag = format!("--{name}");
        let before = self.rest.len();
        self.rest.retain(|a| *a != flag);
        self.rest.len() != before
    }

    /// The last value of `--NAME V` / `--NAME=V`, converted by `parse`;
    /// `expected` describes a valid value for the error message.
    pub fn value_with<T>(
        &mut self,
        name: &str,
        expected: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Option<T> {
        let raw = match take_value_arg(&mut self.rest, name) {
            Ok(raw) => raw?,
            Err(e) => {
                self.fail(format!("{e} ({expected})"));
                return None;
            }
        };
        let value = parse(&raw);
        if value.is_none() {
            self.fail(format!("--{name} needs {expected}, got `{raw}`"));
        }
        value
    }

    /// [`Args::value_with`] for any type that implements `FromStr`.
    pub fn value<T: std::str::FromStr>(&mut self, name: &str, expected: &str) -> Option<T> {
        self.value_with(name, expected, |v| v.parse().ok())
    }

    /// A comma-separated list value, `--NAME A,B,...`.
    pub fn list<T: std::str::FromStr>(&mut self, name: &str, expected: &str) -> Option<Vec<T>> {
        self.value_with(name, expected, |v| {
            v.split(',').map(|t| t.trim().parse().ok()).collect()
        })
    }

    /// `--threads N` / `--serial`, parsed by [`Parallelism::from_args`].
    pub fn parallelism(&mut self) -> Parallelism {
        let (par, rest) = Parallelism::from_args(std::mem::take(&mut self.rest));
        self.rest = rest;
        if self.rest.iter().any(|a| a.starts_with("--threads")) {
            self.fail("--threads needs a worker count (0 = automatic)");
        }
        par
    }

    /// Check the command line once every flag is taken: no error so far,
    /// no unknown `--flag`, and at most `positionals` other arguments,
    /// which are returned in order.
    pub fn finish(self, positionals: usize) -> Result<Vec<String>, UsageError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if let Some(flag) = self.rest.iter().find(|a| a.starts_with("--")) {
            return Err(UsageError(format!("unknown flag `{flag}`")));
        }
        if let Some(extra) = self.rest.get(positionals) {
            return Err(UsageError(format!("unexpected argument `{extra}`")));
        }
        Ok(self.rest)
    }

    /// [`Args::finish`], ending the process with `usage` and exit status 2
    /// on an error.
    pub fn finish_or_exit(self, positionals: usize, usage: &str) -> Vec<String> {
        self.finish(positionals).unwrap_or_else(|e| e.exit(usage))
    }
}

/// Positional argument `i` of `positionals` (as returned by
/// [`Args::finish_or_exit`]) parsed as `T`, or `default` when it is
/// absent. A value that does not parse ends the process with `usage` and
/// exit status 2; `expected` describes a valid value for the message.
pub fn positional_or<T: std::str::FromStr>(
    positionals: &[String],
    i: usize,
    expected: &str,
    default: T,
    usage: &str,
) -> T {
    match positionals.get(i) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| UsageError(format!("expected {expected}, got `{v}`")).exit(usage)),
    }
}

/// Window width (cycles) used when `--telemetry` is given with no value.
pub const DEFAULT_TELEMETRY_WINDOW: u64 = 1_000;

/// The simulator flags every simulation binary shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimArgs {
    /// `--engine dense|event|sharded` (default: event).
    pub engine: EngineKind,
    /// `--workers N`: shard count for the sharded engine (`0` = one shard
    /// per rayon worker). Giving it selects the sharded engine.
    pub workers: usize,
    /// `--routing-tables flat|dyn|algorithmic`; `None` = not given (the
    /// config's own mode, flat by default).
    pub routing_tables: Option<RoutingTables>,
    /// `--telemetry` (window [`DEFAULT_TELEMETRY_WINDOW`]) or
    /// `--telemetry=W`: telemetry window in cycles; `None` = off.
    pub telemetry: Option<u64>,
}

impl SimArgs {
    /// Take the simulator flags from `args`.
    pub fn take(args: &mut Args) -> Self {
        let mut sim = SimArgs {
            engine: args
                .value_with("engine", "dense | event | sharded", EngineKind::parse)
                .unwrap_or_default(),
            routing_tables: args.value_with(
                "routing-tables",
                "flat | dyn | algorithmic",
                RoutingTables::parse,
            ),
            ..SimArgs::default()
        };
        if let Some(w) = args.value("workers", "a shard count (0 = one per rayon worker)") {
            sim.engine = EngineKind::Sharded;
            sim.workers = w;
        }
        // The window is optional, so it only comes in the `=` form; a
        // bare `--telemetry` means the default window.
        let bare = args.flag("telemetry");
        sim.telemetry = args
            .value_with("telemetry", "a window of >= 1 cycles", |v| {
                v.parse().ok().filter(|&w| w >= 1)
            })
            .or(bare.then_some(DEFAULT_TELEMETRY_WINDOW));
        sim
    }

    /// `cfg` with this command line's engine, worker count and table mode.
    pub fn apply(&self, cfg: SimConfig) -> SimConfig {
        SimConfig {
            engine: self.engine,
            workers: self.workers,
            routing_tables: self.routing_tables.unwrap_or(cfg.routing_tables),
            ..cfg
        }
    }
}

/// Standard terminal + file rendering of a telemetry report: per-phase
/// latency decomposition table, the ring-position link-utilization
/// heatmap, and `telemetry_<tag>.json` / `telemetry_<tag>.csv` exports in
/// the working directory.
pub fn emit_telemetry(tag: &str, report: &dsn_sim::TelemetryReport) {
    println!(
        "\n--- telemetry [{tag}] (window = {} cycles) ---",
        report.window_cycles
    );
    println!(
        "  {:<12} {:>9} {:>9} {:>8} {:>9} {:>7} {:>7} {:>7} {:>7} {:>8}",
        "phase",
        "created",
        "delivered",
        "dropped",
        "avg-lat",
        "queue%",
        "stall%",
        "wire%",
        "eject%",
        "p99-max"
    );
    for p in &report.phases {
        let lat = p.latency_sum_cycles as f64;
        let pct = |part: u64| {
            if p.latency_sum_cycles == 0 {
                0.0
            } else {
                100.0 * part as f64 / lat
            }
        };
        let avg = if p.delivered == 0 {
            0.0
        } else {
            lat / p.delivered as f64
        };
        let p99_worst = p.classes.iter().map(|c| c.p99).max().unwrap_or(0);
        println!(
            "  {:<12} {:>9} {:>9} {:>8} {:>7.1}cy {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6}cy",
            p.name,
            p.created,
            p.delivered,
            p.dropped,
            avg,
            pct(p.queueing_cycles),
            pct(p.credit_stall_cycles),
            pct(p.wire_cycles),
            pct(p.ejection_cycles),
            p99_worst,
        );
    }
    println!(
        "  flits sent {} / ejected {}; alloc conflicts {}; mean/max measured util {:.3}/{:.3}",
        report.flits_sent_total,
        report.flits_ejected_total,
        report.alloc_conflicts_total,
        report.mean_measured_utilization(),
        report.max_measured_utilization(),
    );
    print!("{}", report.heatmap());
    let json_path = format!("telemetry_{tag}.json");
    let csv_path = format!("telemetry_{tag}.csv");
    std::fs::write(&json_path, report.to_json()).expect("write telemetry JSON");
    std::fs::write(&csv_path, report.to_csv()).expect("write telemetry CSV");
    println!("# wrote {json_path}, {csv_path}");
}

/// Peak resident set size of this process in kilobytes (`VmHWM` from
/// `/proc/self/status`); `None` on platforms without procfs.
///
/// `VmHWM` is a process-lifetime high-water mark: without a
/// [`reset_peak_rss`] call before each measured region, every reading is
/// the max over *all* work the process has done so far, and per-row
/// figures come out monotonically inherited from earlier rows.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Reset the kernel's peak-RSS high-water mark (`VmHWM`) to the current
/// RSS by writing `5` to `/proc/self/clear_refs`, so the next
/// [`peak_rss_kb`] reading covers only the work done after this call.
/// Returns `false` where that isn't possible (no procfs, insufficient
/// privilege) — callers should then flag the figure as cumulative rather
/// than report a stale per-row number as fresh.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    fn sim_args(tokens: &[&str]) -> (SimArgs, Args) {
        let mut args = Args::new(argv(tokens));
        let sim = SimArgs::take(&mut args);
        (sim, args)
    }

    #[test]
    fn engine_arg_defaults_and_parses_both_forms() {
        let (sim, args) = sim_args(&["--load", "1.0"]);
        assert_eq!(sim, SimArgs::default());
        assert_eq!(sim.engine, EngineKind::Event);
        assert_eq!(
            args.rest,
            argv(&["--load", "1.0"]),
            "unrelated args untouched"
        );

        let (sim, args) = sim_args(&["--engine", "dense", "--load", "1.0"]);
        assert_eq!(sim.engine, EngineKind::Dense);
        assert_eq!(
            args.rest,
            argv(&["--load", "1.0"]),
            "consumed tokens removed"
        );

        let (sim, args) = sim_args(&["--engine=sharded"]);
        assert_eq!(sim.engine, EngineKind::Sharded);
        assert_eq!(args.finish(0), Ok(vec![]));

        let (_, args) = sim_args(&["--engine", "warp"]);
        assert!(args
            .finish(0)
            .unwrap_err()
            .0
            .contains("dense | event | sharded"));
    }

    #[test]
    fn engine_arg_last_occurrence_wins() {
        let (sim, args) = sim_args(&["--engine=dense", "--engine", "sharded"]);
        assert_eq!(sim.engine, EngineKind::Sharded);
        assert!(args.rest.is_empty());
    }

    #[test]
    fn routing_tables_arg_defaults_and_parses() {
        let (sim, _) = sim_args(&[]);
        assert_eq!(sim.routing_tables, None);
        assert_eq!(
            sim.apply(SimConfig::default()).routing_tables,
            RoutingTables::Flat
        );
        let (sim, args) = sim_args(&["--routing-tables", "dyn", "-n", "64"]);
        assert_eq!(sim.routing_tables, Some(RoutingTables::Dyn));
        assert_eq!(args.rest, argv(&["-n", "64"]));
        let (sim, args) = sim_args(&["--routing-tables=flat"]);
        assert_eq!(sim.routing_tables, Some(RoutingTables::Flat));
        assert!(args.rest.is_empty());

        let cfg = sim_args(&["--routing-tables=dyn", "--workers=2"])
            .0
            .apply(SimConfig::default());
        assert_eq!(cfg.routing_tables, RoutingTables::Dyn);
        assert_eq!((cfg.engine, cfg.workers), (EngineKind::Sharded, 2));
    }

    #[test]
    fn workers_arg_absent_space_and_eq_forms() {
        let (sim, _) = sim_args(&["--load", "1.0"]);
        assert_eq!((sim.engine, sim.workers), (EngineKind::Event, 0));

        let (sim, args) = sim_args(&["--workers", "4", "--load", "1.0"]);
        assert_eq!((sim.engine, sim.workers), (EngineKind::Sharded, 4));
        assert_eq!(args.rest, argv(&["--load", "1.0"]));

        let (sim, args) = sim_args(&["--engine", "dense", "--workers=0"]);
        assert_eq!((sim.engine, sim.workers), (EngineKind::Sharded, 0));
        assert!(args.rest.is_empty());
    }

    #[test]
    fn telemetry_arg_bare_and_windowed() {
        let (sim, args) = sim_args(&["--telemetry", "-n", "64"]);
        assert_eq!(sim.telemetry, Some(DEFAULT_TELEMETRY_WINDOW));
        assert_eq!(args.rest, argv(&["-n", "64"]));

        let (sim, args) = sim_args(&["--telemetry=250"]);
        assert_eq!(sim.telemetry, Some(250));
        assert!(args.rest.is_empty());

        // The window is optional, so a following word is never taken as
        // one: `--telemetry 250` is the default window and a stray `250`.
        let (sim, args) = sim_args(&["--telemetry", "250"]);
        assert_eq!(sim.telemetry, Some(DEFAULT_TELEMETRY_WINDOW));
        assert_eq!(args.finish(0).unwrap_err().0, "unexpected argument `250`");

        let (sim, _) = sim_args(&["--telemetry=250", "--telemetry=40"]);
        assert_eq!(sim.telemetry, Some(40));
        let (sim, _) = sim_args(&["--telemetry", "--telemetry=250"]);
        assert_eq!(sim.telemetry, Some(250));

        let (sim, _) = sim_args(&[]);
        assert_eq!(sim.telemetry, None);

        let (_, args) = sim_args(&["--telemetry=0"]);
        assert!(args.finish(0).unwrap_err().0.contains(">= 1 cycles"));
    }

    #[test]
    fn value_args_take_both_forms_and_the_last_occurrence() {
        // `fig10_simulation --sizes=1024` once fell through to the full
        // figure sweep: only the space form was matched.
        let mut args = Args::new(argv(&["--quick", "--sizes=1024"]));
        assert_eq!(args.list::<usize>("sizes", "N,M,..."), Some(vec![1024]));
        assert!(args.flag("quick"));
        assert_eq!(args.finish(0), Ok(vec![]));

        let mut args = Args::new(argv(&["--sizes", "64, 256", "--sizes=1020", "all"]));
        assert_eq!(args.list::<usize>("sizes", "N,M,..."), Some(vec![1020]));
        assert_eq!(args.finish(1), Ok(argv(&["all"])));

        let mut args = Args::new(argv(&["--faults", "2", "--faults=5"]));
        assert_eq!(args.value::<usize>("faults", "a link count"), Some(5));
        assert_eq!(args.value::<usize>("faults", "a link count"), None);
        assert!(!args.flag("json"));
        assert_eq!(args.finish(0), Ok(vec![]));
    }

    #[test]
    fn missing_or_malformed_values_are_usage_errors() {
        // A bare trailing `--sizes` / `--bench-row` once panicked on an
        // out-of-range `Vec::remove`.
        for (tokens, name) in [
            (&["--sizes"][..], "sizes"),
            (&["--sizes", "--json"][..], "sizes"),
            (&["--bench-row"][..], "bench-row"),
        ] {
            let mut args = Args::new(argv(tokens));
            assert_eq!(args.list::<usize>(name, "N,M,..."), None);
            let err = args.finish(0).unwrap_err();
            assert_eq!(err.0, format!("--{name} needs a value (N,M,...)"));
        }
        let mut args = Args::new(argv(&["--sizes=64,x"]));
        assert_eq!(args.list::<usize>("sizes", "N,M,..."), None);
        assert_eq!(
            args.finish(0).unwrap_err().0,
            "--sizes needs N,M,..., got `64,x`"
        );

        let mut args = Args::new(argv(&["--threads"]));
        args.parallelism();
        assert!(args.finish(0).unwrap_err().0.starts_with("--threads needs"));
        let mut args = Args::new(argv(&["--threads=2", "--quick"]));
        assert_eq!(args.parallelism(), Parallelism::threads(2));
        assert!(args.flag("quick"));
        assert_eq!(args.finish(0), Ok(vec![]));
    }

    #[test]
    fn unknown_flags_and_stray_arguments_are_usage_errors() {
        // `flow_suite --quik` once ran the full suite.
        let mut args = Args::new(argv(&["--quik"]));
        assert!(!args.flag("quick"));
        assert_eq!(
            args.finish(0).unwrap_err(),
            UsageError("unknown flag `--quik`".into())
        );
        let args = Args::new(argv(&["--quick=yes"]));
        assert!(args.finish(0).is_err());
        let args = Args::new(argv(&["uniform", "bitrev"]));
        assert_eq!(
            args.finish(1).unwrap_err().0,
            "unexpected argument `bitrev`"
        );
        // The first error is the one reported.
        let mut args = Args::new(argv(&["--workers", "x", "--engine=warp"]));
        SimArgs::take(&mut args);
        assert!(args.finish(0).unwrap_err().0.starts_with("--engine needs"));
    }

    #[test]
    fn peak_rss_resets_between_regions() {
        // Only meaningful where clear_refs is writable (Linux, enough
        // privilege) — the reset contract is "high-water mark restarts
        // from the current RSS", which a fresh big allocation must exceed.
        if !reset_peak_rss() {
            return;
        }
        let before = peak_rss_kb().expect("procfs available if clear_refs is");
        let ballast = vec![1u8; 64 << 20];
        std::hint::black_box(&ballast);
        let inflated = peak_rss_kb().expect("procfs available");
        assert!(
            inflated >= before,
            "high-water mark moved backwards: {inflated} < {before}"
        );
        drop(ballast);
        assert!(reset_peak_rss());
        let after_reset = peak_rss_kb().expect("procfs available");
        assert!(
            after_reset < inflated,
            "reset did not drop the high-water mark: {after_reset} >= {inflated}"
        );
    }
}
