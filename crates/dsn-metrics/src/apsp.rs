//! All-pairs shortest path analysis: diameter, average shortest path length
//! (ASPL), eccentricities and hop-distance histograms — the quantities
//! plotted in the paper's Figures 7 and 8.
//!
//! The sweep is a bit-parallel multi-source BFS (MS-BFS, Then et al.,
//! VLDB 2015). The graph is flattened once into a `u32` CSR; sources then
//! run 256 at a time, each node holding one bit per source in its
//! `seen` / `frontier` / `next` words. A BFS level is one pull pass over the
//! nodes, `next[v] = OR(frontier[u] for u in N(v)) & !seen[v]`, so every
//! source of a batch advances together for the cost of a few word ORs per
//! edge. Per-level popcounts give the histogram and distance sum, and the
//! per-level OR of `next` gives each source's eccentricity.
//!
//! Batches fan out over the [`Parallelism`] policy and their integer
//! partials are reduced in batch order, so the result — ASPL bits included —
//! is identical for any worker count.

use dsn_core::graph::Graph;
use dsn_core::parallel::Parallelism;
use rayon::prelude::*;

/// Hop-count statistics of a graph, from an exact APSP sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStats {
    /// Number of nodes the sweep covered.
    pub nodes: usize,
    /// Maximum finite shortest-path length over all ordered pairs.
    pub diameter: u32,
    /// Average shortest path length over ordered pairs of distinct,
    /// mutually reachable nodes.
    pub aspl: f64,
    /// `histogram[d]` = number of ordered pairs at distance `d`
    /// (`histogram[0]` counts the trivial self pairs).
    pub histogram: Vec<u64>,
    /// Eccentricity of each node (max finite distance from it).
    pub eccentricity: Vec<u32>,
    /// Number of ordered pairs of distinct nodes that are unreachable.
    pub unreachable_pairs: u64,
}

impl PathStats {
    /// Radius: the minimum eccentricity.
    pub fn radius(&self) -> u32 {
        self.eccentricity.iter().copied().min().unwrap_or(0)
    }

    /// True when every node reaches every other node.
    pub fn is_connected(&self) -> bool {
        self.unreachable_pairs == 0
    }

    /// Fraction of ordered reachable pairs whose distance is at most `d`.
    pub fn cdf_at(&self, d: u32) -> f64 {
        let total: u64 = self.histogram.iter().skip(1).sum();
        if total == 0 {
            return 1.0;
        }
        let within: u64 = self.histogram.iter().skip(1).take(d as usize).sum();
        within as f64 / total as f64
    }
}

/// Sources per MS-BFS batch: one bit each across [`WORDS`] `u64` words.
const LANES: usize = 256;
const WORDS: usize = LANES / 64;

/// One bit per source of a batch.
type Lanes = [u64; WORDS];

const NONE: Lanes = [0; WORDS];

/// Compressed adjacency: the neighbours of `v` are
/// `targets[offsets[v]..offsets[v + 1]]`.
struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    fn new(g: &Graph) -> Self {
        let n = g.node_count();
        assert!(
            u32::try_from(n).is_ok() && u32::try_from(2 * g.edge_count()).is_ok(),
            "graph too large for u32 CSR indices"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * g.edge_count());
        offsets.push(0);
        for v in 0..n {
            targets.extend(g.neighbor_ids(v).map(|u| u as u32));
            offsets.push(targets.len() as u32);
        }
        Csr { offsets, targets }
    }

    fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// Per-worker MS-BFS bitsets, reused across batches.
struct Bitsets {
    seen: Vec<Lanes>,
    frontier: Vec<Lanes>,
    next: Vec<Lanes>,
}

impl Bitsets {
    fn new(n: usize) -> Self {
        Bitsets {
            seen: vec![NONE; n],
            frontier: vec![NONE; n],
            next: vec![NONE; n],
        }
    }
}

/// Run one MS-BFS from up to [`LANES`] sources at once. Returns the
/// batch's hop histogram (slot 0 left at zero) and each source's
/// eccentricity, in batch order.
fn run_batch(csr: &Csr, bits: &mut Bitsets, sources: &[usize]) -> (Vec<u64>, Vec<u32>) {
    let n = csr.offsets.len() - 1;
    debug_assert!(sources.len() <= LANES);
    let Bitsets {
        seen,
        frontier,
        next,
    } = bits;
    seen.fill(NONE);
    frontier.fill(NONE);
    // The lanes in use: a node whose `seen` equals this is done.
    let mut all = NONE;
    for (lane, &s) in sources.iter().enumerate() {
        let bit = 1 << (lane % 64);
        seen[s][lane / 64] |= bit;
        frontier[s][lane / 64] |= bit;
        all[lane / 64] |= bit;
    }

    let mut histogram = vec![0];
    let mut eccentricity = vec![0; sources.len()];
    for d in 1u32.. {
        let mut count = 0u64;
        let mut arrived = NONE;
        for v in 0..n {
            let s = seen[v];
            if s == all {
                next[v] = NONE;
                continue;
            }
            let mut acc = NONE;
            for &u in csr.neighbors(v) {
                let f = &frontier[u as usize];
                for w in 0..WORDS {
                    acc[w] |= f[w];
                }
            }
            for w in 0..WORDS {
                acc[w] &= !s[w];
            }
            next[v] = acc;
            if acc != NONE {
                for w in 0..WORDS {
                    seen[v][w] = s[w] | acc[w];
                    arrived[w] |= acc[w];
                    count += acc[w].count_ones() as u64;
                }
            }
        }
        if count == 0 {
            break;
        }
        histogram.push(count);
        for (w, &word) in arrived.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                eccentricity[64 * w + bits.trailing_zeros() as usize] = d;
                bits &= bits - 1;
            }
        }
        std::mem::swap(frontier, next);
    }
    (histogram, eccentricity)
}

/// Sweep the given sources in batches of [`LANES`] (serial or fanned out
/// per the policy) and assemble the final stats. The batch partials are
/// integers merged in batch order, so the result is bit-identical across
/// policies.
fn sweep_sources(g: &Graph, sources: &[usize], par: &Parallelism) -> PathStats {
    let n = g.node_count();
    let csr = Csr::new(g);
    let batches: Vec<&[usize]> = sources.chunks(LANES).collect();
    let per_batch: Vec<(Vec<u64>, Vec<u32>)> = if par.is_serial() {
        let mut bits = Bitsets::new(n);
        batches
            .iter()
            .map(|b| run_batch(&csr, &mut bits, b))
            .collect()
    } else {
        batches
            .par_iter()
            .map_init(|| Bitsets::new(n), |bits, b| run_batch(&csr, bits, b))
            .collect()
    };

    // Slot 0 counts self pairs for a complete ordered-pair accounting.
    let mut histogram = vec![sources.len() as u64];
    let mut eccentricity = Vec::with_capacity(sources.len());
    for (hist, ecc) in per_batch {
        if histogram.len() < hist.len() {
            histogram.resize(hist.len(), 0);
        }
        for (d, c) in hist.into_iter().enumerate().skip(1) {
            histogram[d] += c;
        }
        eccentricity.extend(ecc);
    }
    let reached: u64 = histogram[1..].iter().sum();
    let sum: u64 = histogram
        .iter()
        .enumerate()
        .map(|(d, &c)| d as u64 * c)
        .sum();

    PathStats {
        nodes: n,
        diameter: histogram.len() as u32 - 1,
        aspl: if reached == 0 {
            0.0
        } else {
            sum as f64 / reached as f64
        },
        histogram,
        eccentricity,
        unreachable_pairs: (sources.len() * n.saturating_sub(1)) as u64 - reached,
    }
}

/// Exact APSP statistics via the batched multi-source BFS sweep.
pub fn path_stats(g: &Graph) -> PathStats {
    path_stats_with(g, &Parallelism::auto())
}

/// [`path_stats`] under an explicit [`Parallelism`] policy. Serial and
/// parallel sweeps produce bit-identical results.
pub fn path_stats_with(g: &Graph, par: &Parallelism) -> PathStats {
    let sources: Vec<usize> = (0..g.node_count()).collect();
    sweep_sources(g, &sources, par)
}

/// Diameter only (still a full sweep; kept for call-site clarity).
pub fn diameter(g: &Graph) -> u32 {
    path_stats(g).diameter
}

/// [`diameter`] under an explicit [`Parallelism`] policy.
pub fn diameter_with(g: &Graph, par: &Parallelism) -> u32 {
    path_stats_with(g, par).diameter
}

/// Average shortest path length only.
pub fn aspl(g: &Graph) -> f64 {
    path_stats(g).aspl
}

/// [`aspl`] under an explicit [`Parallelism`] policy.
pub fn aspl_with(g: &Graph, par: &Parallelism) -> f64 {
    path_stats_with(g, par).aspl
}

/// Approximate ASPL/diameter from `samples` BFS sources chosen
/// deterministically (evenly spaced). Exact when `samples >= n`. Useful for
/// quick sweeps over very large graphs; the figure harnesses use the exact
/// sweep since the paper tops out at 2048 switches.
pub fn sampled_path_stats(g: &Graph, samples: usize) -> PathStats {
    sampled_path_stats_with(g, samples, &Parallelism::auto())
}

/// [`sampled_path_stats`] under an explicit [`Parallelism`] policy.
pub fn sampled_path_stats_with(g: &Graph, samples: usize, par: &Parallelism) -> PathStats {
    let n = g.node_count();
    if samples >= n {
        return path_stats_with(g, par);
    }
    let stride = (n as f64 / samples as f64).max(1.0);
    let sources: Vec<usize> = (0..samples)
        .map(|i| ((i as f64 * stride) as usize).min(n - 1))
        .collect();
    sweep_sources(g, &sources, par)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsn_core::graph::LinkKind;
    use dsn_core::ring::Ring;
    use dsn_core::torus::Torus;

    #[test]
    fn ring_diameter_and_aspl() {
        // Ring of n: diameter floor(n/2); ASPL for even n is n^2/4 / (n-1).
        let g = Ring::new(8).unwrap().into_graph();
        let s = path_stats(&g);
        assert_eq!(s.diameter, 4);
        // distances from any node: 1,1,2,2,3,3,4 -> sum 16, avg 16/7
        assert!((s.aspl - 16.0 / 7.0).abs() < 1e-12);
        assert!(s.is_connected());
        assert_eq!(s.radius(), 4);
    }

    #[test]
    fn torus_4x4_diameter() {
        let g = Torus::new(&[4, 4]).unwrap().into_graph();
        let s = path_stats(&g);
        assert_eq!(s.diameter, 4); // 2 + 2
        assert_eq!(s.eccentricity.len(), 16);
        assert!(s.eccentricity.iter().all(|&e| e == 4));
    }

    #[test]
    fn histogram_sums_to_ordered_pairs() {
        let g = Torus::new(&[4, 8]).unwrap().into_graph();
        let s = path_stats(&g);
        let n = g.node_count() as u64;
        let total: u64 = s.histogram.iter().sum();
        assert_eq!(total, n * n - s.unreachable_pairs);
        assert_eq!(s.histogram[0], n);
        assert_eq!(s.unreachable_pairs, 0);
    }

    #[test]
    fn disconnected_graph_counts_unreachable() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, LinkKind::Ring);
        g.add_edge(2, 3, LinkKind::Ring);
        let s = path_stats(&g);
        assert_eq!(s.unreachable_pairs, 8); // 2 components of 2: 2*2*2
        assert!(!s.is_connected());
        assert_eq!(s.diameter, 1);
    }

    #[test]
    fn cdf_monotone() {
        let g = Torus::new(&[4, 4]).unwrap().into_graph();
        let s = path_stats(&g);
        let mut prev = 0.0;
        for d in 0..=s.diameter {
            let c = s.cdf_at(d);
            assert!(c >= prev);
            prev = c;
        }
        assert!((s.cdf_at(s.diameter) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_matches_exact_when_full() {
        let g = Torus::new(&[4, 4]).unwrap().into_graph();
        let exact = path_stats(&g);
        let sampled = sampled_path_stats(&g, 1000);
        assert_eq!(exact, sampled);
    }

    #[test]
    fn sampled_subset_is_close() {
        let g = Ring::new(64).unwrap().into_graph();
        let exact = path_stats(&g);
        let sampled = sampled_path_stats(&g, 16);
        assert_eq!(sampled.diameter, exact.diameter); // symmetric graph
        assert!((sampled.aspl - exact.aspl).abs() < 0.5);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        let s = path_stats(&g);
        assert_eq!(s.diameter, 0);
        assert_eq!(s.aspl, 0.0);
    }
}
