//! Criterion bench: the APSP sweep behind Figures 7 and 8 (diameter and
//! average shortest path length) — the batched multi-source BFS sweep on
//! the DSN sizes the figures and the shortcut search use, the 2048-switch
//! trio (Torus-32x64 is the sweep's worst case: diameter 48, so 48 pull
//! passes per batch), and one single-source BFS for scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsn_core::dsn::Dsn;
use dsn_core::topology::TopologySpec;
use dsn_metrics::{bfs_distances, path_stats};
use std::hint::black_box;

fn bench_apsp(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_fig8_apsp");
    group.sample_size(10);
    let mut specs: Vec<TopologySpec> = [256usize, 1024]
        .iter()
        .map(|&n| TopologySpec::Dsn {
            n,
            x: dsn_core::util::ceil_log2(n) - 1,
        })
        .collect();
    specs.push(TopologySpec::Dsn { n: 1020, x: 9 });
    specs.extend(dsn_bench::trio(2048));
    for spec in specs {
        let built = spec.build().unwrap();
        group.bench_with_input(
            BenchmarkId::new("path_stats", &built.name),
            &built.graph,
            |b, g| b.iter(|| black_box(path_stats(g))),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("single_bfs");
    for &n in &[1024usize, 2048] {
        let p = dsn_core::util::ceil_log2(n);
        let g = Dsn::new(n, p - 1).unwrap().into_graph();
        group.bench_with_input(BenchmarkId::new("bfs", n), &g, |b, g| {
            b.iter(|| black_box(bfs_distances(g, 0)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_apsp);
criterion_main!(benches);
