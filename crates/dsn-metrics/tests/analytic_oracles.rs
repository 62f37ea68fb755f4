//! Analytic oracles for the APSP sweep.
//!
//! Rings, hypercubes and 2-D tori have closed-form distance distributions,
//! so their diameter, histogram and ASPL are checked exactly: the expected
//! ASPL is the same integer distance sum over the same integer pair count,
//! so the `f64` bits must match. Every `TopologySpec` family is checked at
//! about 64, 256, 1024 and 2048 nodes against the Moore bound and the
//! Moore-tree ASPL lower bound.

use dsn_core::classic::Hypercube;
use dsn_core::ring::Ring;
use dsn_core::topology::TopologySpec;
use dsn_core::torus::Torus;
use dsn_metrics::{moore_bound, path_stats, PathStats};

/// Nodes at each distance from any node of the ring `C_n`, index = hops.
fn ring_counts(n: usize) -> Vec<u64> {
    let mut counts = vec![0u64; n / 2 + 1];
    counts[0] = 1;
    for v in 1..n {
        counts[v.min(n - v)] += 1;
    }
    counts
}

/// Check a vertex-transitive graph on `n` nodes whose every node sees the
/// distance distribution `per_node` (index = hops, slot 0 = itself).
fn assert_exact(stats: &PathStats, n: usize, per_node: &[u64]) {
    let n64 = n as u64;
    let histogram: Vec<u64> = per_node.iter().map(|c| c * n64).collect();
    let node_sum: u64 = per_node.iter().enumerate().map(|(d, c)| d as u64 * c).sum();
    let diameter = per_node.len() as u32 - 1;
    assert_eq!(stats.nodes, n);
    assert_eq!(stats.diameter, diameter);
    assert_eq!(stats.histogram, histogram);
    assert_eq!(stats.eccentricity, vec![diameter; n]);
    assert_eq!(stats.unreachable_pairs, 0);
    let aspl = (n64 * node_sum) as f64 / (n64 * (n64 - 1)) as f64;
    assert_eq!(stats.aspl.to_bits(), aspl.to_bits(), "ASPL {aspl}");
}

#[test]
fn ring_closed_form() {
    let sizes = (3..=40).chain([63, 64, 65, 255, 256, 257, 1023, 1024, 2047, 2048]);
    for n in sizes {
        let stats = path_stats(&Ring::new(n).unwrap().into_graph());
        let counts = ring_counts(n);
        // Diameter floor(n/2), distance sum floor(n^2/4) per node.
        assert_eq!(counts.len() - 1, n / 2);
        let node_sum: u64 = counts.iter().enumerate().map(|(d, c)| d as u64 * c).sum();
        assert_eq!(node_sum, (n * n / 4) as u64, "C_{n}");
        assert_exact(&stats, n, &counts);
    }
}

#[test]
fn hypercube_closed_form() {
    for dim in 1..=11u32 {
        let n = 1usize << dim;
        let stats = path_stats(&Hypercube::new(dim).unwrap().into_graph());
        // C(dim, k) nodes at distance k.
        let mut binom = vec![1u64];
        for k in 1..=dim as u64 {
            binom.push(binom[k as usize - 1] * (dim as u64 - k + 1) / k);
        }
        assert_exact(&stats, n, &binom);
        // ASPL = d 2^(d-1) / (2^d - 1).
        let closed = (dim as u64 * (n as u64 / 2)) as f64 / (n as u64 - 1) as f64;
        assert_eq!(stats.aspl.to_bits(), closed.to_bits(), "Q_{dim}");
    }
}

#[test]
fn torus_closed_form() {
    for (a, b) in [
        (3, 3),
        (3, 5),
        (4, 4),
        (5, 8),
        (8, 8),
        (7, 9),
        (16, 16),
        (32, 32),
        (32, 64),
    ] {
        let n = a * b;
        let stats = path_stats(&Torus::new(&[a, b]).unwrap().into_graph());
        // Distances add across the two ring dimensions.
        let (ra, rb) = (ring_counts(a), ring_counts(b));
        let mut counts = vec![0u64; ra.len() + rb.len() - 1];
        for (i, x) in ra.iter().enumerate() {
            for (j, y) in rb.iter().enumerate() {
                counts[i + j] += x * y;
            }
        }
        let node_sum: u64 = counts.iter().enumerate().map(|(d, c)| d as u64 * c).sum();
        let closed = (a * (b * b / 4) + b * (a * a / 4)) as u64;
        assert_eq!(node_sum, closed, "{a}x{b}");
        assert_eq!(counts.len() - 1, a / 2 + b / 2);
        assert_exact(&stats, n, &counts);
    }
}

/// Per-source distance sum of a Moore tree: 1 node at distance 0, `d` at
/// 1, `d (d-1)` at 2, ..., filled until `n` nodes. No graph of maximum
/// degree `d` has a source with a smaller sum.
fn moore_tree_distance_sum(d: usize, n: usize) -> u64 {
    let (mut left, mut layer, mut sum) = (n as u64 - 1, d as u64, 0u64);
    let mut hops = 1;
    while left > 0 && layer > 0 {
        let take = layer.min(left);
        sum += hops * take;
        left -= take;
        layer = layer.saturating_mul(d as u64 - 1);
        hops += 1;
    }
    assert_eq!(left, 0, "degree {d} cannot connect {n} nodes");
    sum
}

/// One spec per family at about `n` nodes (the nearest size a family with
/// discrete sizes supports).
fn family_specs(n: usize) -> Vec<TopologySpec> {
    let log2 = n.trailing_zeros();
    let p = dsn_core::util::ceil_log2(n);
    let seed = 7;
    let side = (n as f64).sqrt().round() as usize;
    // base_n: the largest multiple of p below n, the rest as minors.
    let base_n = (n - 1) / p as usize * p as usize;
    let ccc_dim = match n {
        64 => 4,
        256 => 5,
        1024 => 7,
        _ => 8,
    };
    let (fb_k, fb_flat) = if n == 2048 {
        (2, 12)
    } else {
        (4, log2 / 2 + 1)
    };
    let (df_a, df_h) = match n {
        64 => (4, 4),
        256 => (8, 4),
        1024 => (16, 4),
        _ => (16, 8),
    };
    vec![
        TopologySpec::Dsn { n, x: p - 1 },
        TopologySpec::DsnE { n },
        TopologySpec::DsnD { n, x: 2 },
        TopologySpec::FlexDsn {
            base_n,
            x: p - 1,
            minors: n - base_n,
        },
        TopologySpec::Ring { n },
        TopologySpec::Torus2D { n },
        TopologySpec::Torus3D { n },
        TopologySpec::Dln { n, x: 4 },
        TopologySpec::DlnRandom {
            n,
            x: 2,
            y: 2,
            seed,
        },
        TopologySpec::RandomRegular { n, d: 4, seed },
        TopologySpec::Kleinberg { side, q: 1, seed },
        TopologySpec::Hypercube { dim: log2 },
        TopologySpec::Ccc { dim: ccc_dim },
        TopologySpec::DeBruijn { base: 2, dim: log2 },
        TopologySpec::FlattenedButterfly {
            k: fb_k,
            nflat: fb_flat,
        },
        TopologySpec::Dragonfly { a: df_a, h: df_h },
    ]
}

#[test]
fn every_family_respects_moore_bounds() {
    for n in [64, 256, 1024, 2048] {
        for spec in family_specs(n) {
            let built = spec.build().unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            let (name, g) = (&built.name, &built.graph);
            let nodes = g.node_count();
            let degree = g.max_degree();
            let stats = path_stats(g);
            assert!(stats.is_connected(), "{name} disconnected");
            assert!(
                nodes as u64 <= moore_bound(degree, stats.diameter),
                "{name}: {nodes} nodes > Moore bound at degree {degree}, diameter {}",
                stats.diameter
            );
            // Every source's distance sum is at least the Moore tree's.
            let tree = moore_tree_distance_sum(degree, nodes);
            let total: u64 = stats
                .histogram
                .iter()
                .enumerate()
                .map(|(d, c)| d as u64 * c)
                .sum();
            assert!(total >= nodes as u64 * tree, "{name}: distance sum");
            let lower = tree as f64 / (nodes - 1) as f64;
            assert!(stats.aspl >= lower, "{name}: ASPL {} < {lower}", stats.aspl);
        }
    }
}
