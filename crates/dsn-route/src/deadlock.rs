//! Deadlock-free DSN routing — the paper's Section V.A / Theorem 3.
//!
//! The basic three-phase algorithm is *not* deadlock-free on a single
//! virtual channel: PRE-WORK and FINISH share `pred` channels, and FINISH
//! walks can chain into a cycle around the ring. The paper proposes two
//! remedies and we implement (and *verify*, via exhaustive channel-
//! dependency-graph construction) both:
//!
//! * **DSN-V** — virtual channels. We use a 4-VC scheme (conveniently
//!   matching the 4 VCs of the paper's simulator):
//!   VC0 = PRE-WORK `pred` hops, VC1 = MAIN `succ`/shortcut hops,
//!   VC2 = FINISH hops, VC3 = FINISH hops after crossing the ring's
//!   0/n-1 *dateline* in either direction. VC0→VC1→VC2→VC3 transitions are
//!   monotone; within VC0/VC1 the DSN level changes monotonically; within
//!   VC2 a cycle would have to cross the dateline, which bumps to VC3; and
//!   a VC3 FINISH segment is far too short (≤ p + r hops) to wrap again.
//!   This refines the paper's three-group argument into a scheme whose
//!   acyclicity we machine-check over every source/destination pair.
//! * **DSN-E** — extra physical links instead of VCs: PRE-WORK rides the
//!   dedicated `Up` links, and FINISH hops that *land at* ids `<= 2p` ride
//!   the `Extra` links, so both the succ- and pred-direction ring-channel
//!   cycles are broken at the `0..2p` region, exactly in the spirit of
//!   Theorem 3's "use Extra links when available in the FINISH".

use crate::cdg::{Cdg, VirtualChannel};
use crate::dsn_routing::{route, RoutePhase, RouteStep, RouteTrace};
use dsn_core::dsn::Dsn;
use dsn_core::dsn_ext::DsnE;
use dsn_core::graph::{Graph, LinkKind};
use dsn_core::NodeId;

/// Find the edge joining `a` and `b` whose kind satisfies `pred`, if any.
fn find_edge(g: &Graph, a: NodeId, b: NodeId, pred: impl Fn(LinkKind) -> bool) -> Option<usize> {
    g.neighbors(a)
        .find(|&(u, e)| u == b && pred(g.edge(e).kind))
        .map(|(_, e)| e)
}

/// Channel sequence of the *basic* routing on a single VC — used to show
/// the basic scheme is NOT deadlock-free (its CDG has cycles).
pub fn basic_route_channels(dsn: &Dsn, s: NodeId, t: NodeId) -> Vec<VirtualChannel> {
    let g = dsn.graph();
    let tr = route(dsn, s, t).expect("basic route");
    trace_channels(g, &tr, |_, _, _| 0)
}

/// Channel sequence of the DSN-V routing: basic path, 4-VC assignment.
pub fn dsnv_route_channels(dsn: &Dsn, s: NodeId, t: NodeId) -> Vec<VirtualChannel> {
    let tr = route(dsn, s, t).expect("basic route");
    trace_channels(dsn.graph(), &tr, dsnv_vc(dsn.n()))
}

/// The DSN-V VC rule for one route, hop by hop: PRE-WORK on VC0, MAIN on
/// VC1, FINISH on VC2 until a hop crosses the ring's dateline between
/// `n-1` and `0` (either direction), VC3 from then on.
fn dsnv_vc(n: usize) -> impl FnMut(RoutePhase, NodeId, NodeId) -> u8 {
    let mut crossed = false;
    move |phase, prev, cur| match phase {
        RoutePhase::PreWork => 0,
        RoutePhase::Main => 1,
        RoutePhase::Finish => {
            crossed |= (prev == n - 1 && cur == 0) || (prev == 0 && cur == n - 1);
            if crossed {
                3
            } else {
                2
            }
        }
    }
}

/// Channel sequence of the DSN-E routing: basic path over the DSN-E graph,
/// single VC, with PRE-WORK on `Up` links and the Extra links acting as a
/// *dateline lane* for FINISH walks.
///
/// The Extra-link discipline matters. A naive "use Extra while inside
/// `0..2p`" still deadlocks, because FINISH walks of *different* routes
/// chain across the region and close a full-ring cycle (our CDG checker
/// finds it). Instead, Extra links carry only the hops a FINISH walk takes
/// *after crossing a dateline*:
///
/// * a forward (succ) walk crosses at the `n-1 -> 0` wrap and then rides
///   Extra; since a FINISH walk is at most `p + r < 2p` hops, it ends while
///   still inside the Extra zone and never re-enters the ring lane;
/// * a backward (pred) walk crosses at the `2p -> 2p-1` hop and then rides
///   Extra; it ends at id `>= p - r >= 1` (for `p | n`, at `>= p`), so it
///   never wraps past 0.
///
/// Every ring-direction dependency cycle must pass one of the two dateline
/// hops, and the post-crossing traffic lives on the Extra lane which no
/// other walk shares — so the CDG is acyclic, as the tests verify
/// exhaustively. Deadlock freedom is guaranteed for `p | n` (the paper's
/// own recommendation; an incomplete final super node lets MAIN-PROCESS
/// wrap the ring with a level decrease, which breaks the monotonicity that
/// keeps the MAIN group acyclic).
pub fn dsne_route_channels(dsne: &DsnE, s: NodeId, t: NodeId) -> Vec<VirtualChannel> {
    let dsn = dsne.base();
    let g = dsne.graph();
    let p = dsn.p() as usize;
    let n = dsn.n();
    let tr = route(dsn, s, t).expect("basic route");
    let mut prev = s;
    let mut crossed = false;
    let mut out = Vec::with_capacity(tr.steps.len());
    for (i, &step) in tr.steps.iter().enumerate() {
        let cur = tr.path[i + 1];
        let edge = match (tr.phases[i], step) {
            (RoutePhase::PreWork, RouteStep::Pred) => {
                // PRE-WORK stays inside a super node, where Up links always
                // exist (levels >= 2 own one toward their pred).
                find_edge(g, prev, cur, |k| k == LinkKind::Up)
                    .unwrap_or_else(|| edge_for_step(g, prev, cur, step))
            }
            (RoutePhase::Finish, _) => {
                // Dateline detection for this hop.
                match step {
                    RouteStep::Succ if prev == n - 1 && cur == 0 => crossed = true,
                    RouteStep::Pred if prev == 2 * p && cur + 1 == 2 * p => crossed = true,
                    _ => {}
                }
                if crossed {
                    find_edge(g, prev, cur, |k| k == LinkKind::Extra)
                        .unwrap_or_else(|| edge_for_step(g, prev, cur, step))
                } else {
                    edge_for_step(g, prev, cur, step)
                }
            }
            _ => edge_for_step(g, prev, cur, step),
        };
        out.push((g.channel_id(edge, prev), 0u8));
        prev = cur;
    }
    out
}

/// Channel sequence of the Section V.D overshoot-avoiding routing under
/// the same DSN-V 4-VC discipline. Its FINISH is forward-only, so the
/// pred-side dateline never triggers; the succ-side dateline still
/// protects the wrap. The tests CDG-verify acyclicity exhaustively.
pub fn dsnv_avoid_overshoot_channels(dsn: &Dsn, s: NodeId, t: NodeId) -> Vec<VirtualChannel> {
    let tr = crate::dsn_routing::route_avoid_overshoot(dsn, s, t).expect("route");
    trace_channels(dsn.graph(), &tr, dsnv_vc(dsn.n()))
}

/// Per-packet state of the *incremental* DSN-V router: the three-phase
/// walk is memoryless given `(current node, destination)` **within** a
/// phase, but the phase itself is genuine state — a MAIN node whose level
/// exceeds the required level walks `succ`, while a fresh route from the
/// same node would walk `pred` (PRE-WORK), so per-hop route restarts
/// livelock. Carrying `(phase, crossed)` — 3 bits — is exactly enough to
/// reproduce the full [`dsnv_route_channels`] hop/VC sequence one hop at a
/// time in O(levels) per hop and O(1) memory per packet, with no
/// materialized path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DsnvState {
    /// Current phase of the three-phase walk.
    pub phase: IncPhase,
    /// Whether a FINISH hop has crossed the ring's 0/n-1 dateline (bumps
    /// the FINISH VC from 2 to 3, permanently).
    pub crossed: bool,
}

/// Phase component of [`DsnvState`]. Monotone: PreWork → Main → Finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IncPhase {
    /// Climbing to the required level via `pred`.
    #[default]
    PreWork,
    /// Distance-halving shortcut/`succ` loop.
    Main,
    /// Local ring walk to the destination.
    Finish,
}

impl DsnvState {
    /// Pack into 3 bits (phase in bits 0–1, dateline flag in bit 2), for
    /// embedding in compact per-packet state words.
    #[inline]
    pub fn to_bits(self) -> u8 {
        let p = match self.phase {
            IncPhase::PreWork => 0u8,
            IncPhase::Main => 1,
            IncPhase::Finish => 2,
        };
        p | ((self.crossed as u8) << 2)
    }

    /// Inverse of [`Self::to_bits`]. Unknown phase encodings map to
    /// `Finish` (they cannot be produced by `to_bits`).
    #[inline]
    pub fn from_bits(bits: u8) -> Self {
        DsnvState {
            phase: match bits & 3 {
                0 => IncPhase::PreWork,
                1 => IncPhase::Main,
                _ => IncPhase::Finish,
            },
            crossed: bits & 4 != 0,
        }
    }
}

/// One hop of the incremental DSN-V walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsnvHop {
    /// The node after the hop.
    pub next: NodeId,
    /// Ring direction / shortcut kind of the hop.
    pub step: RouteStep,
    /// DSN-V virtual channel of the hop (0 = PRE-WORK, 1 = MAIN,
    /// 2/3 = FINISH before/after the dateline).
    pub vc: u8,
    /// State to carry to the next hop.
    pub state: DsnvState,
}

/// Compute the next hop of the DSN-V walk from `u` toward `t` given the
/// packet's carried [`DsnvState`], replicating the per-iteration decisions
/// of [`route`] (and therefore the exact hop/VC sequence of
/// [`dsnv_route_channels`]) without materializing the trace. Returns
/// `None` when `u == t`.
///
/// Decision cascade per call, mirroring the loop structure of `route()`:
/// a PRE-WORK packet whose level has dropped to the required level falls
/// through to the MAIN decision *at the same node*, and a MAIN packet
/// whose distance is `<= p` (or whose level exceeds `x`) falls through to
/// FINISH — each hop is labeled with the phase that actually emitted it.
pub fn dsnv_step(dsn: &Dsn, u: NodeId, t: NodeId, st: DsnvState) -> Option<DsnvHop> {
    if u == t {
        return None;
    }
    let d = dsn.cw_dist(u, t);
    let p = dsn.p() as usize;
    let x = dsn.x();
    let mut phase = st.phase;

    if phase == IncPhase::PreWork {
        let l = dsn.required_level(d);
        if dsn.level(u) > l {
            return Some(DsnvHop {
                next: dsn.pred(u),
                step: RouteStep::Pred,
                vc: 0,
                state: DsnvState {
                    phase: IncPhase::PreWork,
                    crossed: st.crossed,
                },
            });
        }
        phase = IncPhase::Main;
    }

    if phase == IncPhase::Main {
        let lu = dsn.level(u);
        if d > p && lu <= x {
            let l = dsn.required_level(d);
            let (next, step, next_phase) = if lu == l {
                let target = dsn
                    .shortcut(u)
                    .expect("level <= x nodes always own a shortcut");
                let overshoot = dsn.cw_dist(u, target) > d;
                (
                    target,
                    RouteStep::Shortcut,
                    if overshoot {
                        IncPhase::Finish
                    } else {
                        IncPhase::Main
                    },
                )
            } else {
                (dsn.succ(u), RouteStep::Succ, IncPhase::Main)
            };
            return Some(DsnvHop {
                next,
                step,
                vc: 1,
                state: DsnvState {
                    phase: next_phase,
                    crossed: st.crossed,
                },
            });
        }
        phase = IncPhase::Finish;
    }

    debug_assert_eq!(phase, IncPhase::Finish);
    let back = dsn.cw_dist(t, u);
    let (next, step) = if d <= back {
        (dsn.succ(u), RouteStep::Succ)
    } else {
        (dsn.pred(u), RouteStep::Pred)
    };
    let n = dsn.n();
    let crossing = (u == n - 1 && next == 0) || (u == 0 && next == n - 1);
    let crossed = st.crossed || crossing;
    Some(DsnvHop {
        next,
        step,
        vc: if crossed { 3 } else { 2 },
        state: DsnvState {
            phase: IncPhase::Finish,
            crossed,
        },
    })
}

/// [`dsnv_step`] resolved to a physical `(channel, vc)` over the DSN's own
/// graph — the incremental counterpart of one element of
/// [`dsnv_route_channels`].
pub fn dsnv_step_channel(
    dsn: &Dsn,
    u: NodeId,
    t: NodeId,
    st: DsnvState,
) -> Option<(VirtualChannel, NodeId, DsnvState)> {
    let hop = dsnv_step(dsn, u, t, st)?;
    let g = dsn.graph();
    let edge = edge_for_step(g, u, hop.next, hop.step);
    Some(((g.channel_id(edge, u), hop.vc), hop.next, hop.state))
}

/// Only the FIRST hop of the DSN-V channel sequence, without materializing
/// the whole route — O(1)-ish helper for per-cycle retry paths in the
/// simulator (the first hop of the three-phase algorithm is determined by
/// the PRE-WORK/MAIN decision at the source alone).
pub fn dsnv_first_hop(dsn: &Dsn, s: NodeId, t: NodeId) -> Option<VirtualChannel> {
    if s == t {
        return None;
    }
    let g = dsn.graph();
    let d = dsn.cw_dist(s, t);
    let l = dsn.required_level(d);
    let ls = dsn.level(s);
    let p = dsn.p() as usize;
    // Mirror the basic algorithm's first decision.
    let (next, step, phase) = if ls > l {
        (dsn.pred(s), RouteStep::Pred, RoutePhase::PreWork)
    } else if d <= p || ls > dsn.x() {
        // Straight to FINISH (forward, distance d <= p or no shortcut).
        let back = dsn.cw_dist(t, s);
        if d <= back {
            (dsn.succ(s), RouteStep::Succ, RoutePhase::Finish)
        } else {
            (dsn.pred(s), RouteStep::Pred, RoutePhase::Finish)
        }
    } else if ls == l {
        (
            dsn.shortcut(s).expect("level <= x owns a shortcut"),
            RouteStep::Shortcut,
            RoutePhase::Main,
        )
    } else {
        (dsn.succ(s), RouteStep::Succ, RoutePhase::Main)
    };
    let vc = match phase {
        RoutePhase::PreWork => 0u8,
        RoutePhase::Main => 1,
        RoutePhase::Finish => {
            // A first hop can only cross the dateline if it starts there.
            let n = dsn.n();
            let crossing = (s == n - 1 && next == 0) || (s == 0 && next == n - 1);
            if crossing {
                3
            } else {
                2
            }
        }
    };
    let edge = edge_for_step(g, s, next, step);
    Some((g.channel_id(edge, s), vc))
}

/// Pick the physical edge realizing one basic-route hop.
fn edge_for_step(g: &Graph, prev: NodeId, cur: NodeId, step: RouteStep) -> usize {
    match step {
        RouteStep::Succ | RouteStep::Pred => {
            find_edge(g, prev, cur, |k| k == LinkKind::Ring).expect("ring link must exist")
        }
        RouteStep::Shortcut => {
            find_edge(g, prev, cur, |k| matches!(k, LinkKind::Shortcut { .. }))
                // On tiny rings a shortcut may have been deduped against a
                // ring link; fall back to any link joining the pair.
                .or_else(|| find_edge(g, prev, cur, |_| true))
                .expect("shortcut link must exist")
        }
    }
}

/// Channel sequence of a route trace: each hop rides the edge
/// [`edge_for_step`] picks, on the VC `vc_of(phase, from, to)` returns
/// (called once per hop, in order).
fn trace_channels(
    g: &Graph,
    tr: &RouteTrace,
    mut vc_of: impl FnMut(RoutePhase, NodeId, NodeId) -> u8,
) -> Vec<VirtualChannel> {
    let mut prev = tr.path[0];
    let mut out = Vec::with_capacity(tr.steps.len());
    for (i, &step) in tr.steps.iter().enumerate() {
        let cur = tr.path[i + 1];
        let edge = edge_for_step(g, prev, cur, step);
        out.push((g.channel_id(edge, prev), vc_of(tr.phases[i], prev, cur)));
        prev = cur;
    }
    out
}

/// Build the CDG of the given per-pair channel function over every ordered
/// pair of distinct nodes.
pub fn build_cdg(
    n: usize,
    mut channels_of: impl FnMut(NodeId, NodeId) -> Vec<VirtualChannel>,
) -> Cdg {
    let mut cdg = Cdg::new();
    for s in 0..n {
        for t in 0..n {
            if s != t {
                cdg.add_route(&channels_of(s, t));
            }
        }
    }
    cdg
}

/// CDG of basic single-VC DSN routing (expected cyclic).
pub fn basic_cdg(dsn: &Dsn) -> Cdg {
    build_cdg(dsn.n(), |s, t| basic_route_channels(dsn, s, t))
}

/// CDG of DSN-V routing (expected acyclic — Theorem 3).
pub fn dsnv_cdg(dsn: &Dsn) -> Cdg {
    build_cdg(dsn.n(), |s, t| dsnv_route_channels(dsn, s, t))
}

/// CDG of DSN-E routing over individual channels.
///
/// **Reproduction finding:** this fine-grained CDG is *not* acyclic, even
/// with the Up/Extra links and a dateline discipline: a cycle closes
/// through position-wrapping shortcuts (a level-l shortcut near the end of
/// the ring lands at a small id without using the ring wrap channel)
/// bridged by forward-FINISH hops whose head level wraps at super-node
/// boundaries. The paper's Theorem 3 argument operates on three *groups*
/// of links (Figure 6) and holds at that granularity — see
/// [`dsne_group_dependencies`] — but group-level acyclicity does not imply
/// channel-level acyclicity. The virtual-channel variant DSN-V
/// ([`dsnv_cdg`]) is acyclic at full channel granularity.
pub fn dsne_cdg(dsne: &DsnE) -> Cdg {
    build_cdg(dsne.n(), |s, t| dsne_route_channels(dsne, s, t))
}

/// The paper's own coarse CDG for DSN-E (Figure 6): vertices are the three
/// link groups — `Up`, `Succ + Shortcut`, `Pred + Extra` — and an arc
/// records that some route holds a channel of one group while requesting a
/// channel of another. Theorem 3 claims this graph has no cycle among
/// distinct groups; [`dsne_group_dependencies`] lets the tests verify that
/// inter-group dependencies only ever point "forward" (Up -> Main ->
/// Finish).
pub fn dsne_group_dependencies(dsne: &DsnE) -> Vec<(u8, u8)> {
    let g = dsne.graph();
    let group_of = |channel: usize| -> u8 {
        let edge = g.edge(channel / 2);
        let (from, to) = g.channel_endpoints(channel);
        match edge.kind {
            LinkKind::Up => 0,
            LinkKind::Shortcut { .. } => 1,
            LinkKind::Ring => {
                let n = g.node_count();
                let succ = to == (from + 1) % n;
                if succ {
                    1
                } else {
                    2
                }
            }
            LinkKind::Extra => 2,
            k => unreachable!("unexpected link kind {k} in DSN-E"),
        }
    };
    let mut deps: Vec<(u8, u8)> = Vec::new();
    let n = dsne.n();
    for s in 0..n {
        for t in 0..n {
            if s == t {
                continue;
            }
            let ch = dsne_route_channels(dsne, s, t);
            for w in ch.windows(2) {
                let a = group_of(w[0].0);
                let b = group_of(w[1].0);
                if a != b && !deps.contains(&(a, b)) {
                    deps.push((a, b));
                }
            }
        }
    }
    deps.sort_unstable();
    deps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_routing_has_cdg_cycles() {
        // The motivation for Section V.A: without VCs or extra links the
        // three-phase algorithm deadlocks.
        let dsn = Dsn::new(64, 5).unwrap();
        let cdg = basic_cdg(&dsn);
        assert!(
            cdg.find_cycle().is_some(),
            "basic single-VC DSN routing should exhibit a CDG cycle"
        );
    }

    #[test]
    fn theorem3_dsnv_acyclic() {
        // Complete super nodes (p | n), the paper's own recommendation: an
        // incomplete final super node lets MAIN wrap the ring with a level
        // decrease and reintroduces cycles.
        for &n in &[30usize, 60, 126, 248] {
            let p = dsn_core::util::ceil_log2(n);
            assert_eq!(
                n % p as usize,
                0,
                "test sizes must have complete super nodes"
            );
            let dsn = Dsn::new(n, p - 1).unwrap();
            let cdg = dsnv_cdg(&dsn);
            assert!(
                cdg.is_acyclic(),
                "DSN-V CDG must be acyclic for n = {n}; cycle: {:?}",
                cdg.find_cycle()
            );
        }
    }

    #[test]
    fn theorem3_dsne_group_level_acyclic() {
        // The paper's Figure 6 argument: inter-group dependencies only go
        // Up(0) -> Main(1) -> Finish(2). We verify that exhaustively.
        for &n in &[30usize, 60, 126] {
            let dsne = DsnE::new(n).unwrap();
            let deps = dsne_group_dependencies(&dsne);
            for &(a, b) in &deps {
                assert!(
                    a < b,
                    "n={n}: backward group dependency {a} -> {b}; all deps: {deps:?}"
                );
            }
        }
    }

    #[test]
    fn dsne_channel_level_cycle_exists() {
        // Reproduction finding: group-level acyclicity does NOT imply
        // channel-level acyclicity. The fine-grained CDG of DSN-E closes a
        // cycle through position-wrapping shortcuts bridged by
        // forward-FINISH hops. (DSN-V fixes this with its dateline VC.)
        let dsne = DsnE::new(30).unwrap();
        let cdg = dsne_cdg(&dsne);
        assert!(
            cdg.find_cycle().is_some(),
            "expected the documented fine-grained DSN-E cycle"
        );
    }

    #[test]
    fn dsne_routing_diameter_preserved() {
        // Theorem 3: the extended routing keeps routing diameter <= 3p + r
        // (the path is the same as the basic algorithm's, only the links
        // ridden differ).
        let dsne = DsnE::new(128).unwrap();
        let dsn = dsne.base();
        let bound = 3 * dsn.p() as usize + dsn.r();
        for s in 0..128 {
            for t in 0..128 {
                let ch = dsne_route_channels(&dsne, s, t);
                assert!(ch.len() <= bound, "{s}->{t}: {} > {bound}", ch.len());
            }
        }
    }

    #[test]
    fn dsnv_channel_count_matches_route_length() {
        let dsn = Dsn::new(64, 5).unwrap();
        for (s, t) in [(0usize, 33usize), (10, 3), (63, 0), (5, 6)] {
            let tr = route(&dsn, s, t).unwrap();
            let ch = dsnv_route_channels(&dsn, s, t);
            assert_eq!(ch.len(), tr.hops());
        }
    }

    #[test]
    fn dsnv_vcs_monotone_per_route() {
        // Both DSN-V channel sequences ride exactly their route's hops, and
        // their VCs never decrease along a route.
        type Trace = fn(&Dsn, NodeId, NodeId) -> Result<RouteTrace, crate::dsn_routing::RouteError>;
        type Channels = fn(&Dsn, NodeId, NodeId) -> Vec<VirtualChannel>;
        let schemes: [(&str, Trace, Channels); 2] = [
            ("basic", route, dsnv_route_channels),
            (
                "avoid-overshoot",
                crate::dsn_routing::route_avoid_overshoot,
                dsnv_avoid_overshoot_channels,
            ),
        ];
        for &n in &[30usize, 64, 100] {
            let p = dsn_core::util::ceil_log2(n);
            let dsn = Dsn::new(n, p - 1).unwrap();
            let g = dsn.graph();
            for (name, trace, channels) in schemes {
                for s in 0..n {
                    for t in 0..n {
                        if s == t {
                            continue;
                        }
                        let path = trace(&dsn, s, t).unwrap().path;
                        let ch = channels(&dsn, s, t);
                        let hops: Vec<_> =
                            ch.iter().map(|&(c, _)| g.channel_endpoints(c)).collect();
                        let expected: Vec<_> = path.windows(2).map(|w| (w[0], w[1])).collect();
                        assert_eq!(hops, expected, "{name} n={n} {s}->{t}: path diverged");
                        assert!(
                            ch.windows(2).all(|w| w[0].1 <= w[1].1),
                            "{name} n={n} {s}->{t}: VC regressed: {ch:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn avoid_overshoot_dsnv_discipline_acyclic() {
        // The Section V.D variant under the DSN-V VC discipline stays
        // deadlock-free (machine-checked).
        for &n in &[30usize, 60, 126] {
            let p = dsn_core::util::ceil_log2(n);
            let dsn = Dsn::new(n, p - 1).unwrap();
            let cdg = build_cdg(n, |s, t| dsnv_avoid_overshoot_channels(&dsn, s, t));
            assert!(
                cdg.is_acyclic(),
                "avoid-overshoot DSN-V CDG cyclic at n = {n}: {:?}",
                cdg.find_cycle()
            );
        }
    }

    #[test]
    fn dsnv_first_hop_matches_full_route() {
        for &n in &[30usize, 64, 100, 126] {
            let p = dsn_core::util::ceil_log2(n);
            let dsn = Dsn::new(n, p - 1).unwrap();
            for s in 0..n {
                for t in 0..n {
                    let full = dsnv_route_channels(&dsn, s, t);
                    let first = dsnv_first_hop(&dsn, s, t);
                    assert_eq!(
                        full.first().copied(),
                        first,
                        "n={n} {s}->{t}: fast first hop diverges from full route"
                    );
                }
            }
        }
    }

    #[test]
    fn dsnv_step_matches_full_route_all_pairs() {
        // The incremental automaton must reproduce the materialized
        // hop/VC sequence bit-exactly — clean and non-clean sizes.
        for &n in &[30usize, 64, 100, 126] {
            let p = dsn_core::util::ceil_log2(n);
            let dsn = Dsn::new(n, p - 1).unwrap();
            for s in 0..n {
                for t in 0..n {
                    let full = dsnv_route_channels(&dsn, s, t);
                    let mut stepped = Vec::new();
                    let mut u = s;
                    let mut st = DsnvState::default();
                    while let Some((ch, next, nst)) = dsnv_step_channel(&dsn, u, t, st) {
                        stepped.push(ch);
                        u = next;
                        st = nst;
                        assert!(stepped.len() <= 4 * n, "n={n} {s}->{t}: runaway walk");
                    }
                    assert_eq!(u, t, "n={n} {s}->{t}: stepped walk did not terminate at t");
                    assert_eq!(
                        full, stepped,
                        "n={n} {s}->{t}: incremental walk diverges from full route"
                    );
                }
            }
        }
    }

    #[test]
    fn dsnv_step_matches_full_route_sampled_large() {
        // Spot-check at the Fig. 7 scale the simulator targets.
        let dsn = Dsn::new_clean(1024).unwrap();
        let n = dsn.n();
        assert_eq!(n, 1020);
        for s in (0..n).step_by(37) {
            for t in (0..n).step_by(23) {
                let full = dsnv_route_channels(&dsn, s, t);
                let mut stepped = Vec::new();
                let mut u = s;
                let mut st = DsnvState::default();
                while let Some((ch, next, nst)) = dsnv_step_channel(&dsn, u, t, st) {
                    stepped.push(ch);
                    u = next;
                    st = nst;
                }
                assert_eq!(full, stepped, "n={n} {s}->{t}");
            }
        }
    }

    #[test]
    fn dsnv_state_bits_roundtrip() {
        for phase in [IncPhase::PreWork, IncPhase::Main, IncPhase::Finish] {
            for crossed in [false, true] {
                let st = DsnvState { phase, crossed };
                assert_eq!(DsnvState::from_bits(st.to_bits()), st);
            }
        }
    }

    #[test]
    fn dsne_uses_up_links_in_prework() {
        let dsne = DsnE::new(64).unwrap();
        let g = dsne.graph();
        // Find a pair with nonempty PRE-WORK: s level high, long distance.
        // Node 5 has level 6 (p = 6); distance to 37 is 32 = n/2 -> l = 1.
        let ch = dsne_route_channels(&dsne, 5, 37);
        let first_kind = g.edge(ch[0].0 / 2).kind;
        assert_eq!(first_kind, LinkKind::Up, "PRE-WORK must ride Up links");
    }
}
