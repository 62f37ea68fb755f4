//! The four workloads. One call to [`run_rep`] is one repetition: set up,
//! run, check every operation's output, and (when the tracer is on) turn
//! the repetition's spans into per-layer values.
//!
//! Engine, routing-table mode and the other simulator knobs come from
//! `SimConfig::default()`; only run lengths, loads and seeds are set here,
//! so a change to a crate default shows up in these numbers unedited.

use crate::check::{Checker, Digest};
use crate::probe::Stopwatch;
use crate::trace::{total_secs, Span, Tracer};
use dsn_bench::flows::{flap_plan, flow_config, FlowWorkloadKind, WEBSEARCH_RATE};
use dsn_core::dsn::Dsn;
use dsn_core::graph::Graph;
use dsn_core::topology::TopologySpec;
use dsn_core::Parallelism;
use dsn_layout::{cable_stats, CableModel, LinearPlacement};
use dsn_metrics::apsp::path_stats_with;
use dsn_opt::{anneal_shortcuts, mix_seed, Candidate, Objective, SaConfig};
use dsn_sim::{
    AdaptiveEscape, DsnAlgorithmic, EngineKind, RoutingCache, RoutingTables, RunStats, SimConfig,
    SimRouting, Simulator, TrafficPattern, ALGORITHMIC_AUTO_THRESHOLD,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// The seed whose outputs are pinned in `pins.txt`. Every benchmark run
/// checks one repetition at this seed before it measures.
pub const REFERENCE_SEED: u64 = 1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 10(a) trio at 256 switches, uniform, past saturation.
    Fig10Sat256,
    /// Fig. 10 low-load point at 2046 switches: DSN-V table-free vs DLN on
    /// flat tables.
    Fig10Scale2046,
    /// Flow suite on DSN-7-256 sharing one routing cache.
    Flows256,
    /// Fig. 7–9 trio at N = 32..2048, then shortcut annealing at 1020.
    GraphOpt1020,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig10Sat256,
        Workload::Fig10Scale2046,
        Workload::Flows256,
        Workload::GraphOpt1020,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig10Sat256 => "fig10-sat-256",
            Workload::Fig10Scale2046 => "fig10-scale-2046",
            Workload::Flows256 => "flows-256",
            Workload::GraphOpt1020 => "graph-opt-1020",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Run length: `Full` is the benchmark, `Quick` the self-tests' short
/// version (same calls, smaller inputs, its own pins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// The measured lengths.
    Full,
    /// Short lengths for the benchmark's own tests.
    Quick,
}

impl Profile {
    /// Name used in `pins.txt` and the manifest.
    pub fn name(self) -> &'static str {
        match self {
            Profile::Full => "full",
            Profile::Quick => "quick",
        }
    }
}

/// What one repetition hands back.
#[derive(Debug, Default)]
pub struct RepOut {
    /// Host seconds of set-up: topology, routing build, table compile and
    /// simulator construction (search: start point and budget scoring).
    pub setup_s: f64,
    /// Host seconds of the simulated or search work after set-up.
    pub run_s: f64,
    /// Workload-specific outputs of the modelled system: `(name, unit,
    /// value)`.
    pub outputs: Vec<(&'static str, &'static str, f64)>,
    /// Per-layer values (filled only when tracing).
    pub layer: BTreeMap<&'static str, f64>,
    /// Resolved workload spec for the manifest (a JSON object).
    pub spec: String,
    /// `(operation, digest)` in order, to compare traced with untraced
    /// repetitions.
    pub digests: Vec<(String, u64)>,
}

/// Everything a repetition needs besides its seed.
pub struct Ctx<'a> {
    /// Span recorder (a pass-through when tracing is off).
    pub tr: &'a mut Tracer,
    /// Output checks.
    pub check: &'a mut Checker,
    /// Compare digests with the pins (reference seed).
    pub pinned: bool,
    /// Run length.
    pub profile: Profile,
    /// Worker threads for the parallel analysis kernels.
    pub threads: usize,
}

impl Ctx<'_> {
    fn op(&mut self, out: &mut RepOut, op: &str, digest: u64, invariants: &[(bool, &str)]) {
        let check = &mut *self.check;
        self.tr.span("perfbench.check", || {
            check.op(op, self.pinned, digest, invariants);
        });
        out.digests.push((op.to_string(), digest));
    }
}

/// One repetition of `w` at `seed`.
pub fn run_rep(w: Workload, seed: u64, ctx: &mut Ctx<'_>) -> RepOut {
    let root = ctx.tr.enter("perfbench.rep");
    let mut out = match w {
        Workload::Fig10Sat256 => fig10_sat(seed, ctx),
        Workload::Fig10Scale2046 => fig10_scale(seed, ctx),
        Workload::Flows256 => flows(seed, ctx),
        Workload::GraphOpt1020 => graph_opt(seed, ctx),
    };
    ctx.tr.exit(root);
    if ctx.tr.enabled() {
        span_layers(ctx.tr.spans(), &mut out.layer);
    }
    out
}

/// Per-layer values read straight off the spans.
fn span_layers(spans: &[Span], layer: &mut BTreeMap<&'static str, f64>) {
    for (metric, span) in [
        ("dsn-core.build_s", "dsn-core.build"),
        ("dsn-sim.routing.build_s", "dsn-sim.routing.build"),
        ("dsn-sim.routing.compile_s", "dsn-sim.routing.compile"),
        ("dsn-sim.engine.construct_s", "dsn-sim.engine.construct"),
        ("dsn-sim.engine.warmup_s", "dsn-sim.engine.warmup"),
        ("dsn-sim.engine.measure_s", "dsn-sim.engine.measure"),
        ("dsn-sim.engine.drain_s", "dsn-sim.engine.drain"),
        ("dsn-sim.engine.run_s.dsn", "dsn-sim.engine.run_dsn"),
        ("dsn-sim.engine.run_s.torus", "dsn-sim.engine.run_torus"),
        ("dsn-sim.engine.run_s.dln", "dsn-sim.engine.run_dln"),
        ("dsn-telemetry.export_s", "dsn-telemetry.export"),
        ("dsn-metrics.path_stats_s", "dsn-metrics.path_stats"),
        ("dsn-layout.cable_stats_s", "dsn-layout.cable_stats"),
        ("dsn-opt.anneal_s", "dsn-opt.anneal"),
    ] {
        if spans.iter().any(|s| s.name == span) {
            layer.insert(metric, total_secs(spans, span));
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Whether the engine will serve hops from a compiled flat table for this
/// scheme: the rule of `dsn-sim`'s table selection, restated so the
/// benchmark can time the compile as its own call before construction
/// (the compiled table is memoized inside the scheme, so construction
/// then reuses it). The resolved mode is read back from the simulator
/// and recorded in the manifest.
fn engine_compiles(cfg: &SimConfig, n: usize, routing: &dyn SimRouting) -> bool {
    match cfg.routing_tables {
        RoutingTables::Flat => !(routing.algorithmic() && n > ALGORITHMIC_AUTO_THRESHOLD),
        RoutingTables::Dyn => false,
        RoutingTables::Algorithmic => !routing.algorithmic(),
    }
}

fn fold_bytes(d: &mut Digest, bytes: &[u8]) {
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        d.word(u64::from_le_bytes(w));
    }
    d.word(bytes.len() as u64);
}

fn sim_invariants(s: &RunStats) -> [(bool, &'static str); 3] {
    [
        (
            s.delivered_packets <= s.created_packets,
            "delivered <= created",
        ),
        (!s.deadlock_suspected, "no deadlock suspected"),
        (s.delivered_packets > 0, "some packets delivered"),
    ]
}

/// Topology role of a Fig. 10 row; picks its span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Dsn,
    Torus,
    Dln,
}

impl Role {
    fn run_span(self) -> &'static str {
        match self {
            Role::Dsn => "dsn-sim.engine.run_dsn",
            Role::Torus => "dsn-sim.engine.run_torus",
            Role::Dln => "dsn-sim.engine.run_dln",
        }
    }
}

/// One simulated Fig. 10 row.
struct SimRow {
    role: Role,
    name: String,
    stats: RunStats,
    run_s: f64,
    table_bytes: usize,
    flat: bool,
}

fn maybe_span<T>(tr: &mut Tracer, on: bool, name: &'static str, f: impl FnOnce() -> T) -> T {
    if on {
        tr.span(name, f)
    } else {
        f()
    }
}

/// Set up and run one open-loop uniform row. Set-up time is added to
/// `setup_s`. The DSN row is stepped through warm-up, measurement and
/// drain so the traced run can bracket each phase; every row steps the
/// same way, traced or not. The sharded engine cannot step: it runs in one
/// call, which the DSN row records as its measure phase (warm-up and drain
/// then read 0, see [`fig10_finish`]).
#[allow(clippy::too_many_arguments)]
fn fig10_row(
    ctx: &mut Ctx<'_>,
    role: Role,
    name: String,
    graph: Arc<Graph>,
    routing: Arc<dyn SimRouting>,
    cfg: &SimConfig,
    gbps: f64,
    seed: u64,
    setup_s: &mut f64,
) -> SimRow {
    let t0 = Stopwatch::start();
    if engine_compiles(cfg, graph.node_count(), routing.as_ref()) {
        ctx.tr
            .span("dsn-sim.routing.compile", || routing.compiled_flat());
    }
    let rate = cfg.packets_per_cycle_for_gbps(gbps);
    let mut sim = ctx.tr.span("dsn-sim.engine.construct", || {
        Simulator::new(
            graph,
            cfg.clone(),
            routing.clone(),
            TrafficPattern::Uniform,
            rate,
            seed,
        )
    });
    let table_bytes = sim.routing_table_bytes();
    *setup_s += t0.secs();

    let t1 = Stopwatch::start();
    let run = ctx.tr.enter(role.run_span());
    let bracket = role == Role::Dsn;
    let stats = if cfg.engine == EngineKind::Sharded {
        maybe_span(ctx.tr, bracket, "dsn-sim.engine.measure", || sim.run())
    } else {
        let (w, m) = (cfg.warmup_cycles, cfg.measure_cycles);
        maybe_span(ctx.tr, bracket, "dsn-sim.engine.warmup", || {
            sim.advance_until(w)
        });
        maybe_span(ctx.tr, bracket, "dsn-sim.engine.measure", || {
            sim.advance_until(w + m)
        });
        maybe_span(ctx.tr, bracket, "dsn-sim.engine.drain", || sim.finish())
    };
    ctx.tr.exit(run);
    SimRow {
        role,
        name,
        stats,
        run_s: t1.secs(),
        table_bytes,
        flat: table_bytes > routing.table_bytes(),
    }
}

/// Build a topology from its spec inside a `dsn-core.build` span.
fn build(tr: &mut Tracer, spec: &TopologySpec) -> (String, Arc<Graph>) {
    let built = tr.span("dsn-core.build", || spec.build().expect("topology builds"));
    (built.name, Arc::new(built.graph))
}

/// Adaptive + up*/down* escape routing inside a `dsn-sim.routing.build`
/// span.
fn adaptive(tr: &mut Tracer, g: &Arc<Graph>, vcs: u8) -> Arc<dyn SimRouting> {
    tr.span("dsn-sim.routing.build", || {
        Arc::new(AdaptiveEscape::new(g.clone(), vcs)) as Arc<dyn SimRouting>
    })
}

/// Shared tail of the two Fig. 10 workloads: checks, outputs, per-layer
/// values and the manifest spec.
fn fig10_finish(
    ctx: &mut Ctx<'_>,
    rows: Vec<SimRow>,
    setup_s: f64,
    cfg: &SimConfig,
    gbps: f64,
) -> RepOut {
    let mut out = RepOut {
        setup_s,
        run_s: rows.iter().map(|r| r.run_s).sum(),
        ..RepOut::default()
    };
    for r in &rows {
        let mut d = Digest::default();
        d.run_stats(&r.stats);
        ctx.op(&mut out, &r.name, d.value(), &sim_invariants(&r.stats));
    }
    let dsn = rows
        .iter()
        .find(|r| r.role == Role::Dsn)
        .expect("every Fig. 10 workload has a DSN row");
    out.outputs = vec![
        ("dsn_latency_ns", "sim_ns", dsn.stats.avg_latency_ns),
        (
            "dsn_accepted_gbps",
            "Gbit/s/host",
            dsn.stats.accepted_gbps_per_host,
        ),
    ];
    if ctx.tr.enabled() {
        let l = &mut out.layer;
        let delivered: u64 = rows.iter().map(|r| r.stats.delivered_packets).sum();
        l.insert(
            "dsn-sim.routing.table_bytes",
            rows.iter().map(|r| r.table_bytes as f64).sum(),
        );
        l.insert(
            "dsn-sim.engine.host_ns_per_delivered_pkt",
            ratio(out.run_s * 1e9, delivered as f64),
        );
        l.insert(
            "dsn-sim.engine.peak_in_flight_packets",
            dsn.stats.peak_in_flight_packets as f64,
        );
        l.insert(
            "dsn-sim.engine.peak_buffered_flits",
            dsn.stats.peak_buffered_flits as f64,
        );
        l.insert(
            "dsn-sim.engine.mean_channel_util",
            dsn.stats.mean_channel_utilization,
        );
        if cfg.engine == EngineKind::Sharded {
            // One run() span, filed under measure_s by `fig10_row`.
            l.insert("dsn-sim.engine.warmup_s", 0.0);
            l.insert("dsn-sim.engine.drain_s", 0.0);
        }
    }
    let mut spec = format!(
        "{{\"pattern\": \"uniform\", \"load_gbps_per_host\": {gbps}, \"engine\": \"{}\", \
         \"dsn_row_phases\": \"{}\", \"routing_tables\": \"{}\", \"warmup_cycles\": {}, \
         \"measure_cycles\": {}, \"drain_cycles\": {}, \"rows\": [",
        cfg.engine.name(),
        if cfg.engine == EngineKind::Sharded {
            "one run() span, as measure"
        } else {
            "warmup, measure, drain"
        },
        cfg.routing_tables.name(),
        cfg.warmup_cycles,
        cfg.measure_cycles,
        cfg.drain_cycles
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            spec,
            "{}{{\"topology\": \"{}\", \"tables_resolved\": \"{}\", \"routing_table_bytes\": {}}}",
            if i > 0 { ", " } else { "" },
            r.name,
            if r.flat { "flat" } else { "none" },
            r.table_bytes
        );
    }
    spec.push_str("]}");
    out.spec = spec;
    out
}

fn fig10_cfg(profile: Profile, full: (u64, u64, u64), quick: (u64, u64, u64)) -> SimConfig {
    let (warmup_cycles, measure_cycles, drain_cycles) = match profile {
        Profile::Full => full,
        Profile::Quick => quick,
    };
    SimConfig {
        warmup_cycles,
        measure_cycles,
        drain_cycles,
        ..SimConfig::default()
    }
}

/// `fig10-sat-256`: the paper trio at 256 switches, uniform traffic at
/// 11 Gbit/s/host (past DSN's saturation point), adaptive + escape.
fn fig10_sat(seed: u64, ctx: &mut Ctx<'_>) -> RepOut {
    const N: usize = 256;
    const GBPS: f64 = 11.0;
    let cfg = fig10_cfg(ctx.profile, (1_500, 4_500, 4_500), (500, 1_500, 1_500));
    let traffic_seed = mix_seed(seed, 1);
    let specs = TopologySpec::paper_trio(N, mix_seed(seed, 2));
    let mut setup_s = 0.0;
    let mut rows = Vec::new();
    for (spec, role) in specs.iter().zip([Role::Dsn, Role::Torus, Role::Dln]) {
        let t0 = Stopwatch::start();
        let (name, g) = build(ctx.tr, spec);
        let routing = adaptive(ctx.tr, &g, cfg.vcs);
        setup_s += t0.secs();
        rows.push(fig10_row(
            ctx,
            role,
            name,
            g,
            routing,
            &cfg,
            GBPS,
            traffic_seed,
            &mut setup_s,
        ));
    }
    fig10_finish(ctx, rows, setup_s, &cfg, GBPS)
}

/// `fig10-scale-2046`: the Fig. 10 low-load point (1 Gbit/s/host,
/// uniform) at 2046 switches; DSN-10-2046 routed table-free by DSN-V,
/// DLN-2-2-2046 by adaptive + escape on the default tables.
fn fig10_scale(seed: u64, ctx: &mut Ctx<'_>) -> RepOut {
    const GBPS: f64 = 1.0;
    let n = match ctx.profile {
        Profile::Full => 2046,
        Profile::Quick => 1020,
    };
    let cfg = fig10_cfg(ctx.profile, (1_000, 3_000, 3_000), (200, 600, 600));
    let traffic_seed = mix_seed(seed, 1);
    let x = dsn_core::util::ceil_log2(n) - 1;
    let mut setup_s = 0.0;

    let t0 = Stopwatch::start();
    let dsn = ctx.tr.span("dsn-core.build", || {
        Arc::new(Dsn::new(n, x).expect("clean DSN size"))
    });
    let dsn_graph = Arc::new(dsn.graph().clone());
    let dsn_routing = ctx.tr.span("dsn-sim.routing.build", || {
        Arc::new(DsnAlgorithmic::new(dsn.clone())) as Arc<dyn SimRouting>
    });
    setup_s += t0.secs();
    let dsn_row = fig10_row(
        ctx,
        Role::Dsn,
        format!("DSN-{x}-{n}"),
        dsn_graph,
        dsn_routing,
        &cfg,
        GBPS,
        traffic_seed,
        &mut setup_s,
    );
    drop(dsn);

    let t0 = Stopwatch::start();
    let dln_spec = TopologySpec::DlnRandom {
        n,
        x: 2,
        y: 2,
        seed: mix_seed(seed, 2),
    };
    let (name, g) = build(ctx.tr, &dln_spec);
    let routing = adaptive(ctx.tr, &g, cfg.vcs);
    setup_s += t0.secs();
    let dln_row = fig10_row(
        ctx,
        Role::Dln,
        name,
        g,
        routing,
        &cfg,
        GBPS,
        traffic_seed,
        &mut setup_s,
    );
    fig10_finish(ctx, vec![dsn_row, dln_row], setup_s, &cfg, GBPS)
}

/// Flow-suite rows of `flows-256`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowRow {
    /// Open-loop web-search flows.
    Websearch,
    /// Synchronized incast waves.
    Incast,
    /// Recursive-doubling allreduce (closed batch).
    Allreduce,
    /// The web-search row again with telemetry recording and export.
    WebsearchTelemetry,
    /// The web-search row again under link flaps with host retries.
    WebsearchFlaps,
}

impl FlowRow {
    /// Rows that run only in traced runs, where their cost is measured
    /// against the plain web-search row of the same repetition. Their
    /// extra host time swings several-fold with the traffic seed (it grows
    /// with the flow backlog), too much for a bounded end-to-end metric.
    fn traced_only(self) -> bool {
        matches!(self, FlowRow::WebsearchTelemetry | FlowRow::WebsearchFlaps)
    }

    /// The flow suite's workload class this row runs.
    fn kind(self) -> FlowWorkloadKind {
        match self {
            FlowRow::Incast => FlowWorkloadKind::Incast,
            FlowRow::Allreduce => FlowWorkloadKind::Allreduce,
            _ => FlowWorkloadKind::Websearch,
        }
    }

    fn name(self) -> &'static str {
        match self {
            FlowRow::Websearch => "websearch",
            FlowRow::Incast => "incast",
            FlowRow::Allreduce => "allreduce",
            FlowRow::WebsearchTelemetry => "websearch+telemetry",
            FlowRow::WebsearchFlaps => "websearch+3flaps",
        }
    }

    fn span(self) -> &'static str {
        match self {
            FlowRow::Websearch => "dsn-sim.flow.websearch",
            FlowRow::Incast => "dsn-sim.flow.incast",
            FlowRow::Allreduce => "dsn-sim.flow.allreduce",
            FlowRow::WebsearchTelemetry => "dsn-sim.flow.websearch_telemetry",
            FlowRow::WebsearchFlaps => "dsn-sim.flow.websearch_flaps",
        }
    }
}

/// Link flaps in the faulted web-search row.
const FLAPS: usize = 3;
/// Telemetry window (cycles).
const TELEMETRY_WINDOW: u64 = 1_000;

/// The flow suite's configuration for `row`, except that the full-length
/// web-search rows measure 12k cycles instead of 6k, so that more flows
/// complete inside the window.
fn flow_cfg(profile: Profile, row: FlowRow) -> SimConfig {
    let engine = SimConfig::default().engine;
    let mut cfg = flow_config(engine, row.kind(), profile == Profile::Quick);
    if profile == Profile::Full && row.kind() == FlowWorkloadKind::Websearch {
        cfg.measure_cycles = 12_000;
        cfg.drain_cycles = 30_000;
    }
    cfg
}

/// `flows-256`: web-search with telemetry, incast, allreduce and
/// web-search under 3 link flaps on DSN-7-256, all sharing one
/// [`RoutingCache`].
fn flows(seed: u64, ctx: &mut Ctx<'_>) -> RepOut {
    const N: usize = 256;
    let flow_seed = mix_seed(seed, 1);
    let t0 = Stopwatch::start();
    let (topo, g) = build(ctx.tr, &TopologySpec::Dsn { n: N, x: 7 });
    let cache = Arc::new(RoutingCache::new());
    let mut out = RepOut::default();
    out.setup_s += t0.secs();

    let mut rows = vec![FlowRow::Websearch, FlowRow::Incast, FlowRow::Allreduce];
    if ctx.tr.enabled() {
        rows.extend([FlowRow::WebsearchTelemetry, FlowRow::WebsearchFlaps]);
    }
    let mut row_s = BTreeMap::new();
    let mut stats_of = BTreeMap::new();
    let mut spec = format!("{{\"topology\": \"{topo}\", \"rows\": [");
    for (i, &row) in rows.iter().enumerate() {
        let t0 = Stopwatch::start();
        let mut cfg = flow_cfg(ctx.profile, row);
        if row == FlowRow::WebsearchFlaps {
            // The flow suite's flapped links: fixed by the workload, not
            // by the seed.
            cfg.fault_plan = flap_plan(&cfg, g.edge_count(), FLAPS);
        }
        let workload = row.kind().build(N * cfg.hosts_per_switch);
        let vcs = cfg.vcs;
        let get = ctx.tr.enter("dsn-sim.cache.get_or_build");
        let tr = &mut *ctx.tr;
        let routing =
            cache.get_or_build(&g, &AdaptiveEscape::key_for(vcs), || adaptive(tr, &g, vcs));
        ctx.tr.exit(get);
        if engine_compiles(&cfg, N, routing.as_ref()) {
            ctx.tr
                .span("dsn-sim.routing.compile", || routing.compiled_flat());
        }
        let sim = ctx.tr.span("dsn-sim.engine.construct", || {
            Simulator::with_workload(g.clone(), cfg.clone(), routing, workload, flow_seed)
                .with_routing_cache(cache.clone())
        });
        let setup = t0.secs();

        let t1 = Stopwatch::start();
        let mut digest = Digest::default();
        let stats = if row == FlowRow::WebsearchTelemetry {
            let (stats, report) = ctx.tr.span(row.span(), || {
                sim.with_telemetry(cfg.standard_telemetry(TELEMETRY_WINDOW))
                    .run_with_telemetry()
            });
            let report = report.expect("telemetry was enabled");
            let (json, csv) = ctx.tr.span("dsn-telemetry.export", || {
                (report.to_json(), report.to_csv())
            });
            fold_bytes(&mut digest, json.as_bytes());
            fold_bytes(&mut digest, csv.as_bytes());
            if ctx.tr.enabled() {
                out.layer.insert(
                    "dsn-telemetry.report_bytes",
                    (json.len() + csv.len()) as f64,
                );
            }
            stats
        } else {
            ctx.tr.span(row.span(), || sim.run())
        };
        let run = t1.secs();
        row_s.insert(row.name(), run);
        if !row.traced_only() {
            out.setup_s += setup;
            out.run_s += run;
        }
        digest.run_stats(&stats);
        let mut inv = sim_invariants(&stats).to_vec();
        inv.push((
            stats.flows_completed <= stats.flows_started,
            "flows completed <= flows started",
        ));
        if row == FlowRow::Allreduce {
            inv.push((stats.completion_cycle.is_some(), "allreduce finished"));
        }
        ctx.op(&mut out, row.name(), digest.value(), &inv);
        let _ = write!(
            spec,
            "{}{{\"row\": \"{}\", \"engine\": \"{}\", \"routing_tables\": \"{}\", \
             \"warmup_cycles\": {}, \"measure_cycles\": {}, \"drain_cycles\": {}, \
             \"fault_events\": {}}}",
            if i > 0 { ", " } else { "" },
            row.name(),
            cfg.engine.name(),
            cfg.routing_tables.name(),
            cfg.warmup_cycles,
            cfg.measure_cycles,
            cfg.drain_cycles,
            cfg.fault_plan.events.len()
        );
        stats_of.insert(row.name(), stats);
    }
    let _ = write!(
        spec,
        "], \"websearch_flows_per_cycle_per_host\": {WEBSEARCH_RATE}, \"telemetry_window\": {TELEMETRY_WINDOW}}}"
    );
    out.spec = spec;

    let ws = &stats_of[FlowRow::Websearch.name()];
    let ar = &stats_of[FlowRow::Allreduce.name()];
    out.outputs = vec![
        ("dsn_fct_p99_cycles", "sim_cycles", ws.fct_p99_cycles as f64),
        (
            "dsn_allreduce_makespan_cycles",
            "sim_cycles",
            ar.completion_cycle.unwrap_or(0) as f64,
        ),
    ];
    if ctx.tr.enabled() {
        let l = &mut out.layer;
        let (hits, misses) = (cache.hits() as f64, cache.misses() as f64);
        l.insert("dsn-sim.cache.hit_ratio", ratio(hits, hits + misses));
        l.insert(
            "dsn-sim.flow.completed_ratio",
            ratio(ws.flows_completed as f64, ws.flows_started as f64),
        );
        if let Some(flap) = stats_of.get(FlowRow::WebsearchFlaps.name()) {
            l.insert("dsn-sim.fault.retried_packets", flap.retried_packets as f64);
            l.insert(
                "dsn-sim.fault.dropped_packets",
                flap.dropped_packets_all_time as f64,
            );
        }
        if let Some(&base) = row_s.get(FlowRow::Websearch.name()) {
            l.insert(
                "dsn-sim.fault.flap_overhead_s",
                row_s[FlowRow::WebsearchFlaps.name()] - base,
            );
            l.insert(
                "dsn-telemetry.overhead_s",
                row_s[FlowRow::WebsearchTelemetry.name()] - base,
            );
        }
    }
    out
}

/// `graph-opt-1020`: Fig. 7–9 (diameter, ASPL, cable length) for the trio
/// at N = 32..2048, then seeded simulated annealing of DSN-9-1020's
/// shortcuts under DSN's own cable budget.
fn graph_opt(seed: u64, ctx: &mut Ctx<'_>) -> RepOut {
    let (sizes, sa_n, iterations) = match ctx.profile {
        Profile::Full => ((5..=11).map(|k| 1usize << k).collect::<Vec<_>>(), 1020, 80),
        Profile::Quick => (vec![32, 64, 128], 252, 20),
    };
    let par = Parallelism::threads(ctx.threads);
    let mut out = RepOut::default();

    // Set-up: the search's start point and the budget it is held to.
    let t0 = Stopwatch::start();
    let start = ctx.tr.span("dsn-core.build", || {
        Candidate::from_dsn(sa_n).expect("DSN start point")
    });
    let free = Objective::aspl_only(par);
    let start_score = ctx.tr.span("dsn-opt.score", || free.score(start.graph()));
    out.setup_s = t0.secs();
    let budget_m = start_score.cable_m;

    let t1 = Stopwatch::start();
    let model = CableModel::default();
    for &n in &sizes {
        let mut d = Digest::default();
        let mut inv_ok = true;
        for spec in TopologySpec::paper_trio(n, mix_seed(seed, n as u64)) {
            let (_, g) = build(ctx.tr, &spec);
            let ps = ctx
                .tr
                .span("dsn-metrics.path_stats", || path_stats_with(&g, &par));
            let placement = LinearPlacement::new(n, model.switches_per_cabinet);
            let cable = ctx.tr.span("dsn-layout.cable_stats", || {
                cable_stats(&g, &placement, &model)
            });
            d.word(ps.diameter as u64)
                .float(ps.aspl)
                .float(cable.avg_m)
                .float(cable.total_m);
            let pairs: u64 = ps.histogram.iter().sum();
            inv_ok &= ps.unreachable_pairs == 0
                && pairs == (n * n) as u64
                && ps.aspl >= 1.0
                && ps.aspl <= ps.diameter as f64
                && cable.links == g.edge_count()
                && cable.avg_m > 0.0
                && cable.avg_m <= cable.max_m;
        }
        ctx.op(
            &mut out,
            &format!("fig7-9@{n}"),
            d.value(),
            &[(inv_ok, "connected, consistent path and cable stats")],
        );
    }

    let obj = Objective::aspl_under_budget(budget_m, par);
    let sa_cfg = SaConfig {
        iterations,
        seed: mix_seed(seed, 3),
        ..SaConfig::default()
    };
    let res = ctx
        .tr
        .span("dsn-opt.anneal", || anneal_shortcuts(&start, &obj, &sa_cfg));
    out.run_s = t1.secs();

    let fresh_aspl = ctx.tr.span("perfbench.check", || {
        dsn_metrics::apsp::aspl(res.best.graph())
    });
    let mut d = Digest::default();
    d.float(res.best_scalar)
        .word(res.best.fingerprint())
        .word(res.evaluations as u64);
    for t in &res.trace {
        d.word(t.step as u64)
            .word(t.scalar_bits)
            .word(t.fingerprint)
            .word(t.kept as u64);
    }
    ctx.op(
        &mut out,
        &format!("anneal@{sa_n}"),
        d.value(),
        &[
            (res.best_score.connected, "best is connected"),
            (res.best_score.within_budget, "best is within budget"),
            (
                res.best_score.aspl.to_bits() == fresh_aspl.to_bits(),
                "best ASPL equals a fresh APSP",
            ),
            (
                res.best_scalar <= obj.scalar(&start_score),
                "best no worse than the start",
            ),
        ],
    );
    out.outputs = vec![("opt_best_aspl", "hops", res.best_score.aspl)];
    if ctx.tr.enabled() {
        let anneal_s = total_secs(ctx.tr.spans(), "dsn-opt.anneal");
        let kept = res.trace.iter().filter(|t| t.kept).count();
        let l = &mut out.layer;
        l.insert("dsn-opt.evaluations", res.evaluations as f64);
        l.insert(
            "dsn-opt.eval_ms",
            ratio(anneal_s * 1e3, res.evaluations as f64),
        );
        l.insert(
            "dsn-opt.score_ms",
            total_secs(ctx.tr.spans(), "dsn-opt.score") * 1e3,
        );
        l.insert("dsn-opt.kept_ratio", ratio(kept as f64, iterations as f64));
    }
    out.spec = format!(
        "{{\"fig7_9_sizes\": {sizes:?}, \"trio\": \"DSN-(p-1), Torus2D, DLN-2-2\", \
         \"cable_model\": \"default, linear placement\", \"sa_start\": \"DSN-{}-{sa_n}\", \
         \"sa_iterations\": {iterations}, \"budget_m\": {budget_m}, \"apsp_threads\": {}}}",
        dsn_core::util::ceil_log2(sa_n) - 1,
        par.effective_threads()
    );
    out
}
