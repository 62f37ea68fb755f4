//! Differential test of the batched multi-source APSP sweep against a
//! fold of independent single-source BFS runs.
//!
//! The sweep runs sources 256 at a time in 64-bit words, so graphs here go
//! up to 600 nodes to cross both the word and the batch boundary, and they
//! include isolated nodes, several components and parallel edges. Every
//! field of `PathStats` is compared exactly, ASPL bit for bit.

use dsn::core::graph::{Graph, LinkKind};
use dsn::core::parallel::Parallelism;
use dsn::metrics::{
    bfs_distances, path_stats_with, sampled_path_stats_with, PathStats, UNREACHABLE,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A graph on `n` nodes split into `components` groups by `v % components`,
/// with `isolated` of the highest-numbered nodes left without links. Each
/// group gets a random spanning path plus `extra` random links per node,
/// drawn with repetition, so parallel edges occur.
fn random_graph(n: usize, components: usize, isolated: usize, extra: usize, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    let linked = n - isolated.min(n);
    for c in 0..components {
        let group: Vec<usize> = (c..linked).step_by(components).collect();
        for pair in group.windows(2) {
            // Links only sometimes follow the path, so groups split further.
            if rng.gen_range(0..8) != 0 {
                g.add_edge(pair[0], pair[1], LinkKind::Ring);
            }
        }
        if group.len() < 2 {
            continue;
        }
        for _ in 0..extra * group.len() {
            let a = group[rng.gen_range(0..group.len())];
            let b = group[rng.gen_range(0..group.len())];
            if a != b {
                g.add_edge(a, b, LinkKind::Random);
            }
        }
    }
    g
}

/// The same statistics from one plain BFS per source.
fn oracle(g: &Graph, sources: &[usize]) -> PathStats {
    let mut histogram = vec![sources.len() as u64];
    let mut eccentricity = Vec::new();
    let (mut sum, mut reached, mut unreachable) = (0u64, 0u64, 0u64);
    for &s in sources {
        let mut ecc = 0;
        for (v, &d) in bfs_distances(g, s).iter().enumerate() {
            if v == s {
                continue;
            }
            if d == UNREACHABLE {
                unreachable += 1;
                continue;
            }
            ecc = ecc.max(d);
            sum += d as u64;
            reached += 1;
            if histogram.len() <= d as usize {
                histogram.resize(d as usize + 1, 0);
            }
            histogram[d as usize] += 1;
        }
        eccentricity.push(ecc);
    }
    PathStats {
        nodes: g.node_count(),
        diameter: eccentricity.iter().copied().max().unwrap_or(0),
        aspl: if reached == 0 {
            0.0
        } else {
            sum as f64 / reached as f64
        },
        histogram,
        eccentricity,
        unreachable_pairs: unreachable,
    }
}

/// The evenly spaced sources `sampled_path_stats` documents.
fn sampled_sources(n: usize, samples: usize) -> Vec<usize> {
    let stride = (n as f64 / samples as f64).max(1.0);
    (0..samples)
        .map(|i| ((i as f64 * stride) as usize).min(n - 1))
        .collect()
}

fn assert_same(got: &PathStats, want: &PathStats) {
    assert_eq!(got.aspl.to_bits(), want.aspl.to_bits(), "ASPL bits");
    assert_eq!(got, want);
}

fn check_graph(g: &Graph) {
    let n = g.node_count();
    let all: Vec<usize> = (0..n).collect();
    let want = oracle(g, &all);
    let serial = path_stats_with(g, &Parallelism::serial());
    assert_same(&serial, &want);
    assert_same(&path_stats_with(g, &Parallelism::threads(4)), &want);

    // Sample counts off the 64- and 256-source boundaries.
    for samples in [1, 63, 65, 255, 257, 300, n / 3, n.saturating_sub(1)] {
        if samples == 0 || samples >= n {
            continue;
        }
        let want = oracle(g, &sampled_sources(n, samples));
        let serial = sampled_path_stats_with(g, samples, &Parallelism::serial());
        assert_same(&serial, &want);
        let parallel = sampled_path_stats_with(g, samples, &Parallelism::threads(4));
        assert_same(&parallel, &serial);
    }
}

#[test]
fn batch_and_word_edges() {
    for (i, &n) in [1, 2, 63, 64, 65, 255, 256, 257, 511, 512, 513]
        .iter()
        .enumerate()
    {
        check_graph(&random_graph(n, 1, 0, 1, i as u64));
        check_graph(&random_graph(n, 3, n / 10, 2, 100 + i as u64));
    }
}

#[test]
fn edgeless_graphs() {
    for n in [1, 5, 300] {
        let g = Graph::new(n);
        check_graph(&g);
        let s = path_stats_with(&g, &Parallelism::serial());
        assert_eq!(s.histogram, vec![n as u64]);
        assert_eq!(s.unreachable_pairs, (n * (n - 1)) as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn path_stats_match_per_source_bfs(
        n in 1usize..601,
        components in 1usize..5,
        isolated in 0usize..21,
        extra in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        check_graph(&random_graph(n, components, isolated, extra, seed));
    }
}
