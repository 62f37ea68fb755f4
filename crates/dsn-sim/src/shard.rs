//! Sharded parallel driver over the event core: bounded-lag conservative
//! synchronization ([`crate::config::EngineKind::Sharded`]).
//!
//! Switches are partitioned into `workers` contiguous blocks, each owned by
//! one shard. A shard is a complete [`Simulator`] running the event core
//! over the whole graph, but it only ever touches the state it owns:
//!
//! * an *input unit* (channel input buffer or injection queue) belongs to
//!   the shard owning the switch it sits at (`input_node`);
//! * a directed channel's *output* state (credits, owner, round-robin
//!   pointer) belongs to the shard owning its source switch — the only
//!   shard that ever runs `grant_channel` for it;
//! * a host belongs to the shard owning its switch; every shard builds the
//!   same per-host RNG streams (identical seed), but only draws from the
//!   hosts it owns, so each host's injection sequence is bit-identical to
//!   the single-thread run.
//!
//! The only coupling between shards is a flit crossing a *cut channel*
//! (endpoints owned by different shards) and the matching credit return.
//! Both have a hard lower bound on their latency — `link_delay.max(1)`
//! cycles for flits, `credit_delay.max(1)` for credits — which is the
//! classic conservative-PDES *lookahead*. Shards therefore advance in
//! lockstep windows of
//! `W = min(link_delay.max(1), credit_delay.max(1))` cycles: any
//! cross-shard event produced inside window `k` (send at `now <= win_end-1`,
//! arrival at `now + delay >= win_end`) lands at or after the window
//! boundary, so exchanging mailboxes *between* windows can never deliver an
//! event into a shard's past. With the paper's 20 ns link latency
//! (8 cycles) the default window is 8 cycles of fully independent parallel
//! execution per synchronization. When the shards' *activity horizons*
//! (active units, pending wheel events, scheduled injections, staged
//! releases) prove that no shard can act before some cycle `a > win_start`,
//! the window extends to `a + W` — sends still start at or after `a`, so
//! arrivals still land at or after the boundary — collapsing idle and
//! drain-tail stretches into a single synchronization.
//!
//! Determinism and bit-identity with the single-thread event engine
//! (`tests/shard_equivalence.rs`) rest on two mechanisms:
//!
//! 1. **Deterministic mailbox drain.** At each boundary the coordinator
//!    drains each shard's outbound mailbox in shard-index order, messages
//!    in send order — a fixed order independent of thread scheduling — and
//!    schedules them into the destination shards' timing wheels. No sort is
//!    needed for bit-identity: within one arrival cycle the drain order is
//!    unobservable, because the engine applies *all* of a cycle's credits
//!    before anything reads a credit counter (phase 1 before phase 4),
//!    lands each arrival in its own `(channel, vc)` input buffer (a channel
//!    serializes at most one flit per cycle), and collects allocation
//!    eligibility in an order-free bitset. Per-channel FIFO order — the one
//!    order that *is* observable, because body flits reuse their head's
//!    slab binding — is preserved, since a single source shard emits each
//!    channel's messages in cycle order.
//! 2. **Integer-exact stats replay.** Every per-shard
//!    [`crate::stats::StatsCollector`] holds only integer sums, extrema and
//!    histograms, merged exactly at the end (floats appear once, in
//!    `finish`). Whole-network quantities that are *not* per-shard sums —
//!    peak in-flight packets, peak buffered flits, the stall watchdog and
//!    `last_progress` — are reconstructed exactly from tiny per-cycle
//!    deltas ([`CycleLog`]) each shard records: within one cycle the engine
//!    creates packets (phase 3) strictly before it delivers them (phase 5b)
//!    and pushes flits (phases 2–3) strictly before it pops them (phase 5),
//!    so `peak = max(peak, level + inflow)` per cycle reproduces the
//!    single-thread high-water marks bit for bit.
//!
//! A packet migrates between slabs when its head flit crosses a cut
//! channel: the head's [`Packet`] clone travels in a sidecar vector (its
//! route state is final for the hop — `on_hop` ran at allocation), keeping
//! the per-flit [`LinkMsg`] small; the receiver imports it (without
//! touching the created/peak counters) and remaps the body flits' slab
//! indices as they arrive; the sender retires its local copy when the tail
//! crosses.
//!
//! Runs with a fault plan use instantaneous global operations (zero-lag
//! credit refunds on drops) that have no lookahead, the per-packet tracer
//! wants globally stable uids, and the telemetry recorder keys its
//! per-packet state by slab slot, which is shard-local — all three fall
//! back to the single-thread event path, as does a resolved worker count
//! of 1. The fallback *is* the event oracle the equivalence suites compare
//! against, so its `RunStats` and telemetry bytes match by construction.
//!
//! The partition depends only on `cfg.workers` (0 = one shard per rayon
//! worker), never on thread scheduling, so a fixed worker count gives
//! bit-identical results on any machine.

use crate::engine::{Flit, Packet, Simulator};
use crate::workload::Workload;
use rayon::prelude::*;

/// A flit crossing a cut channel, mailed at the next window boundary.
/// Kept payload-free (head packets travel in [`ShardCtx::out_packets`], in
/// the same order) so the per-flit mailbox traffic stays small.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LinkMsg {
    /// Arrival cycle at the downstream input (`send + link_delay.max(1)`).
    pub t: u64,
    pub ch: u32,
    pub vc: u8,
    /// Head flit: the next unconsumed [`ShardCtx::out_packets`] entry is
    /// this packet; body flits reuse the binding their head established.
    pub head: bool,
    /// The flit, with its *source-shard* slab index (remapped on import).
    pub flit: Flit,
}

/// A credit return crossing a cut channel (flows opposite to the flits:
/// from the shard owning the channel's sink back to the one owning its
/// source, where the output-VC credit counter lives).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CreditMsg {
    pub t: u64,
    pub ch: u32,
    pub vc: u8,
}

/// Per-cycle deltas a shard records so the coordinator can reconstruct the
/// whole-network peaks and the stall watchdog exactly (see module docs).
/// Cycles where every field would be zero are not recorded.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CycleLog {
    pub cycle: u64,
    /// Packets created (phase 3 — strictly before this cycle's deliveries).
    pub created: u32,
    /// Packets delivered (phase 5b).
    pub delivered: u32,
    /// Flits pushed into input buffers (phases 2–3, before any pop).
    pub pushes: u32,
    /// Flits popped from input buffers (phase 5).
    pub pops: u32,
    /// A flit moved on this shard this cycle (`last_progress == cycle`).
    pub progress: bool,
}

/// Sentinel for [`ShardCtx::incoming`]: no packet mid-stream on this VC.
const NO_INCOMING: u32 = u32::MAX;

/// Shard-membership context installed on each shard simulator
/// (`Simulator::shard`). The engine's shared mutation helpers consult it to
/// divert cross-shard sends and credits into the mailboxes.
#[derive(Debug)]
pub(crate) struct ShardCtx {
    /// Per channel: flit arrivals belong to another shard (cut channel).
    pub remote_link: Vec<bool>,
    /// Per channel: credit returns belong to another shard. Identical to
    /// `remote_link` today (both mark cut channels); kept separate so the
    /// two call sites stay self-describing.
    pub remote_credit: Vec<bool>,
    /// Per host: this shard owns it (only owned hosts inject).
    pub local_host: Vec<bool>,
    /// Outbound flits accumulated during the current window.
    pub out_links: Vec<LinkMsg>,
    /// Packets for this window's head flits, in [`ShardCtx::out_links`]
    /// order (the payload sidecar).
    pub out_packets: Vec<Packet>,
    /// Outbound credits accumulated during the current window.
    pub out_credits: Vec<CreditMsg>,
    /// Running count of input-buffer pushes (pops are derived from the
    /// buffered-flits level around each step).
    pub pushes: u64,
    /// This window's per-cycle deltas, cycle-ascending.
    pub log: Vec<CycleLog>,
    /// Per `(channel * nvc + vc)`: local slab index of the packet currently
    /// streaming in from another shard (binds body flits to the imported
    /// head).
    pub incoming: Vec<u32>,
}

/// Whole-network quantities reconstructed from the merged [`CycleLog`]s.
#[derive(Debug, Default)]
struct Replay {
    live: u64,
    peak_live: u64,
    buffered: u64,
    peak_buffered: u64,
    created: u64,
    delivered: u64,
    cur_stall: u64,
    longest_stall: u64,
    last_progress: u64,
}

impl Replay {
    /// Fold one cycle's merged deltas, mirroring the engine's intra-cycle
    /// order (creates before deliveries, pushes before pops) and its
    /// watchdog rule.
    fn cycle(
        &mut self,
        c: u64,
        created: u64,
        delivered: u64,
        pushes: u64,
        pops: u64,
        progress: bool,
    ) {
        self.peak_live = self.peak_live.max(self.live + created);
        self.live = self.live + created - delivered;
        self.peak_buffered = self.peak_buffered.max(self.buffered + pushes);
        self.buffered = self.buffered + pushes - pops;
        self.created += created;
        self.delivered += delivered;
        if progress {
            self.last_progress = c;
        }
        if progress || self.live == 0 {
            self.cur_stall = 0;
        } else {
            self.cur_stall += 1;
            self.longest_stall = self.longest_stall.max(self.cur_stall);
        }
    }

    /// Fold a run of `len` cycles no shard logged anything for (no
    /// creates, deliveries, flit movement or progress) in O(1): levels are
    /// unchanged, and the watchdog either idles (empty network) or counts
    /// the whole run as one stall streak — exactly what folding
    /// [`Replay::cycle`] with all-zero deltas `len` times would do.
    fn silent_gap(&mut self, len: u64) {
        if len == 0 {
            return;
        }
        if self.live == 0 {
            self.cur_stall = 0;
        } else {
            self.cur_stall += len;
            self.longest_stall = self.longest_stall.max(self.cur_stall);
        }
    }
}

/// Contiguous-block partition: switch -> owning shard. The first `n % p`
/// shards take one extra switch.
fn partition(n: usize, p: usize) -> Vec<u32> {
    let (base, rem) = (n / p, n % p);
    let mut owner = Vec::with_capacity(n);
    for s in 0..p {
        let len = base + usize::from(s < rem);
        owner.extend(std::iter::repeat_n(s as u32, len));
    }
    owner
}

/// Resolve the configured worker count: 0 = one shard per rayon worker;
/// always clamped to the switch count.
fn resolve_workers(sim: &Simulator) -> usize {
    let req = match sim.cfg.workers {
        0 => rayon::current_num_threads(),
        w => w,
    };
    req.clamp(1, sim.graph.node_count())
}

/// Advance one shard to the window boundary, recording per-cycle deltas.
fn run_window(sim: &mut Simulator, win_end: u64) {
    while sim.now < win_end {
        let c = sim.now;
        let buf0 = sim.buffered_flits;
        let created0 = sim.packets.total_created;
        let delivered0 = sim.delivered_all_time;
        let pushes0 = sim.shard.as_ref().expect("shard ctx").pushes;
        crate::event::step(sim, win_end);
        let pushes = sim.shard.as_ref().expect("shard ctx").pushes - pushes0;
        // No pop hook needed: pops = level + inflow - new level.
        let pops = buf0 + pushes - sim.buffered_flits;
        let created = sim.packets.total_created - created0;
        let delivered = sim.delivered_all_time - delivered0;
        let progress = sim.last_progress == c;
        if created != 0 || delivered != 0 || pushes != 0 || pops != 0 || progress {
            sim.shard.as_mut().expect("shard ctx").log.push(CycleLog {
                cycle: c,
                created: created as u32,
                delivered: delivered as u32,
                pushes: pushes as u32,
                pops: pops as u32,
                progress,
            });
        }
    }
}

/// Run `sim` to `total` cycles under the sharded driver. Falls back to the
/// single-thread event path for worker count 1, fault plans (their global
/// zero-lag drop refunds have no lookahead), attached tracers (their uids
/// are global creation-order) and telemetry (its per-packet state is keyed
/// by slab slot).
pub(crate) fn run(sim: &mut Simulator, total: u64) {
    let workers = resolve_workers(sim);
    if workers <= 1
        || !sim.cfg.fault_plan.is_empty()
        || sim.tracer.is_some()
        || sim.telemetry.enabled()
    {
        crate::event::prepare(sim);
        while sim.now < total {
            crate::event::step(sim, total);
            if sim.batch_done() {
                break;
            }
        }
        return;
    }

    let n = sim.graph.node_count();
    let channels = sim.graph.channel_count();
    let nvc = sim.nvc;
    let hosts = sim.hosts();
    let hps = sim.cfg.hosts_per_switch;
    let owner = partition(n, workers);
    let window = sim.cfg.link_delay.max(1).min(sim.cfg.credit_delay.max(1));

    let cut: Vec<bool> = (0..channels)
        .map(|c| {
            let (src, dst) = sim.graph.channel_endpoints(c);
            owner[src] != owner[dst]
        })
        .collect();

    let mut shard_cfg = sim.cfg.clone();
    shard_cfg.engine = crate::config::EngineKind::Event;

    let mut shards: Vec<Simulator> = (0..workers)
        .map(|s| {
            let workload = match &sim.workload_spec {
                Workload::Open { .. } => Workload::Open {
                    pattern: sim
                        .pattern
                        .clone()
                        .expect("open workload has a traffic pattern"),
                    packets_per_cycle_per_host: sim.open_rate,
                },
                // The coordinator's spec keeps an empty packet list (the
                // real batch lives in pending_batch); rebuild each shard's
                // share from there.
                Workload::Closed { .. } => Workload::Closed {
                    packets: sim
                        .pending_batch
                        .iter()
                        .copied()
                        .filter(|&(src, _)| owner[src / hps] == s as u32)
                        .collect(),
                },
                // Flow and staged workloads replicate the spec verbatim:
                // per-host RNG streams are seeded independently, and only
                // a shard's local hosts ever fire, so the replicas stay
                // bit-identical to the single-thread sources.
                w @ (Workload::Flows { .. } | Workload::Incast { .. } | Workload::Staged(_)) => {
                    w.clone()
                }
            };
            let mut sh = Simulator::with_workload(
                sim.graph.clone(),
                shard_cfg.clone(),
                sim.routing.clone(),
                workload,
                sim.seed,
            );
            sh.routing_cache = sim.routing_cache.clone();
            sh.shard = Some(Box::new(ShardCtx {
                remote_link: cut.clone(),
                remote_credit: cut.clone(),
                local_host: (0..hosts).map(|h| owner[h / hps] == s as u32).collect(),
                out_links: Vec::new(),
                out_packets: Vec::new(),
                out_credits: Vec::new(),
                pushes: 0,
                log: Vec::new(),
                incoming: vec![NO_INCOMING; channels * nvc],
            }));
            if let Workload::Staged(spec) = &sim.workload_spec {
                // Stage releases of host h are entirely local to h's owning
                // shard (its deliveries land there and its sends originate
                // there), so each shard keeps only its hosts' cycle-0 seeds
                // and counts only its hosts' sends toward batch completion.
                sh.staged_ready
                    .retain(|&h| owner[h as usize / hps] == s as u32);
                sh.closed_total = Some(spec.total_packets_from(|h| owner[h / hps] == s as u32));
            }
            crate::event::prepare(&mut sh);
            sh
        })
        .collect();

    let mut rp = Replay::default();
    let mut logs: Vec<Vec<CycleLog>> = vec![Vec::new(); workers];
    let mut cursors = vec![0usize; workers];
    // Scratch buffers swapped with each shard's mailboxes during the
    // exchange (always empty outside it; the swap preserves capacity).
    let mut links: Vec<LinkMsg> = Vec::new();
    let mut packets: Vec<Packet> = Vec::new();
    let mut credits: Vec<CreditMsg> = Vec::new();
    // Final `now` when a closed batch drains before the horizon (the
    // single-thread loop breaks right after the delivering cycle).
    let mut done_now = None;

    // The `DSN_PHASE_TIMING` switch (see `crate::timing`) also prints the
    // sharded run / exchange / stats split and each shard's phases. The
    // coordinator never steps, so its own timers are dropped unreported.
    let timing = sim.phase_timers.take().is_some();
    let (mut t_run, mut t_exch, mut t_stats) = (
        std::time::Duration::ZERO,
        std::time::Duration::ZERO,
        std::time::Duration::ZERO,
    );
    let mut win_start = 0u64;
    while win_start < total {
        // Horizon-proven window extension: the exchange below has drained
        // every mailbox, so no shard can act — in particular, emit a
        // cut-crossing flit or credit — before `a`, the minimum of the
        // shards' activity horizons (active units, wheel events, scheduled
        // injections, staged releases). Any cross-shard event produced at
        // `t >= a` arrives at `t + delay >= a + W`, so the window may run
        // to `a + W` without ever delivering into a shard's past. This
        // subsumes the old all-quiescent idle fast-forward: with every
        // shard silent, `a` is the earliest scheduled injection and one
        // synchronization jumps the whole gap.
        let a = shards
            .iter()
            .map(|sh| {
                // Staged releases and the cycle-0 closed batch act outside
                // the event state's bookkeeping.
                if sh.staged_ready.is_empty() && sh.pending_batch.is_empty() {
                    sh.ev
                        .as_ref()
                        .expect("event state")
                        .activity_horizon(sh.now)
                } else {
                    sh.now
                }
            })
            .min()
            .expect("at least two shards");
        let win_end = (win_start + window)
            .max(a.saturating_add(window))
            .min(total);
        let t0 = std::time::Instant::now();
        shards.par_iter_mut().for_each(|sh| run_window(sh, win_end));
        if timing {
            t_run += t0.elapsed();
        }

        // Mailbox exchange, shard by shard in send order — deterministic
        // (fixed shard iteration, per-shard FIFO) and order-insensitive
        // within an arrival cycle (see module docs), so no sorting pass.
        // Every message arrives at t in [win_end, win_end + delay), i.e. in
        // the destination's future and within its wheel horizon. The
        // buffers are taken out whole and handed back so their capacity
        // survives across windows.
        let t0 = std::time::Instant::now();
        for src_shard in 0..workers {
            {
                let sc = shards[src_shard].shard.as_mut().expect("shard ctx");
                std::mem::swap(&mut links, &mut sc.out_links);
                std::mem::swap(&mut packets, &mut sc.out_packets);
                std::mem::swap(&mut credits, &mut sc.out_credits);
            }
            let mut next_packet = packets.drain(..);
            for msg in links.drain(..) {
                let (_, dst) = sim.graph.channel_endpoints(msg.ch as usize);
                let sh = &mut shards[owner[dst] as usize];
                let key = msg.ch as usize * nvc + msg.vc as usize;
                let mut flit = msg.flit;
                if msg.head {
                    let p = next_packet.next().expect("head flit without payload");
                    let local = sh.packets.import(p);
                    sh.shard.as_mut().expect("shard ctx").incoming[key] = local;
                    flit.packet = local;
                } else {
                    flit.packet = sh.shard.as_ref().expect("shard ctx").incoming[key];
                    debug_assert_ne!(flit.packet, NO_INCOMING, "body flit before its head");
                }
                sh.ev.as_mut().expect("event state").schedule_link(
                    msg.t,
                    msg.ch as usize,
                    flit,
                    msg.vc,
                );
            }
            debug_assert!(next_packet.next().is_none(), "payload without a head flit");
            drop(next_packet);
            for msg in credits.drain(..) {
                let (src, _) = sim.graph.channel_endpoints(msg.ch as usize);
                shards[owner[src] as usize]
                    .ev
                    .as_mut()
                    .expect("event state")
                    .schedule_credit(msg.t, msg.ch as usize, msg.vc);
            }
            let sc = shards[src_shard].shard.as_mut().expect("shard ctx");
            std::mem::swap(&mut links, &mut sc.out_links);
            std::mem::swap(&mut packets, &mut sc.out_packets);
            std::mem::swap(&mut credits, &mut sc.out_credits);
        }

        if timing {
            t_exch += t0.elapsed();
        }
        let t0 = std::time::Instant::now();
        // Stats replay: k-way merge this window's per-cycle deltas over
        // the logged (active) cycles only, folding silent gaps in O(1) —
        // extended windows can span thousands of idle cycles.
        for (s, sh) in shards.iter_mut().enumerate() {
            let sc = sh.shard.as_mut().expect("shard ctx");
            logs[s].clear();
            logs[s].append(&mut sc.log);
            cursors[s] = 0;
        }
        let mut c = win_start;
        while c < win_end {
            let next = logs
                .iter()
                .zip(&cursors)
                .filter_map(|(log, &cur)| log.get(cur).map(|e| e.cycle))
                .min();
            let Some(nc) = next else {
                rp.silent_gap(win_end - c);
                break;
            };
            debug_assert!(nc < win_end, "shard logged past its window");
            rp.silent_gap(nc - c);
            let (mut created, mut delivered, mut pushes, mut pops) = (0u64, 0u64, 0u64, 0u64);
            let mut progress = false;
            for (s, log) in logs.iter().enumerate() {
                if let Some(e) = log.get(cursors[s]) {
                    if e.cycle == nc {
                        cursors[s] += 1;
                        created += e.created as u64;
                        delivered += e.delivered as u64;
                        pushes += e.pushes as u64;
                        pops += e.pops as u64;
                        progress |= e.progress;
                    }
                }
            }
            rp.cycle(nc, created, delivered, pushes, pops, progress);
            c = nc + 1;
        }
        if timing {
            t_stats += t0.elapsed();
        }

        // Closed-batch termination, exactly where the single-thread loop
        // breaks: right after the cycle that delivered the last packet
        // (cycles past it are event-free, so the replay state is final).
        if sim.closed_total.is_some_and(|t| rp.created >= t) && rp.live == 0 {
            done_now = Some(rp.last_progress + 1);
            break;
        }

        win_start = win_end;
    }

    if timing {
        eprintln!("shard timing: run {t_run:?} exchange {t_exch:?} stats {t_stats:?}");
        for (s, sh) in shards.iter().enumerate() {
            if let Some(t) = &sh.phase_timers {
                eprint!("{}", t.report(&format!("shard{s}")));
            }
        }
    }
    // Fold the shards into the coordinator: integer-exact stat merges plus
    // the replay-reconstructed whole-network quantities.
    sim.now = done_now.unwrap_or(total);
    for sh in shards {
        for (dst, src) in sim.channel_flits.iter_mut().zip(&sh.channel_flits) {
            *dst += *src;
        }
        sim.delivered_all_time += sh.delivered_all_time;
        sim.packets.total_created += sh.packets.total_created;
        sim.stats.merge(sh.stats);
    }
    debug_assert_eq!(rp.created, sim.packets.total_created);
    debug_assert_eq!(rp.delivered, sim.delivered_all_time);
    sim.packets.peak_live = rp.peak_live;
    sim.peak_buffered_flits = rp.peak_buffered;
    sim.longest_stall = rp.longest_stall;
    sim.last_progress = rp.last_progress;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_contiguous_and_balanced() {
        let owner = partition(10, 3);
        assert_eq!(owner, vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
        let owner = partition(4, 8);
        assert_eq!(owner, vec![0, 1, 2, 3]);
        assert_eq!(partition(5, 1), vec![0; 5]);
    }

    #[test]
    fn replay_tracks_intra_cycle_peaks() {
        let mut rp = Replay::default();
        // Cycle 0: 3 created, 1 delivered -> peak sees all 3 live first.
        rp.cycle(0, 3, 1, 12, 4, true);
        assert_eq!(rp.peak_live, 3);
        assert_eq!(rp.live, 2);
        assert_eq!(rp.peak_buffered, 12);
        assert_eq!(rp.buffered, 8);
        // Two silent cycles with packets live -> the watchdog counts.
        rp.cycle(1, 0, 0, 0, 0, false);
        rp.cycle(2, 0, 0, 0, 0, false);
        assert_eq!(rp.longest_stall, 2);
        // Progress resets it and advances last_progress.
        rp.cycle(3, 0, 2, 0, 8, true);
        assert_eq!(rp.cur_stall, 0);
        assert_eq!(rp.last_progress, 3);
        assert_eq!(rp.live, 0);
        assert_eq!(rp.buffered, 0);
        // Empty network: no stall even without progress.
        rp.cycle(4, 0, 0, 0, 0, false);
        assert_eq!(rp.longest_stall, 2);
    }
}
