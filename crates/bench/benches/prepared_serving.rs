//! Microbenchmark: cold `JoinBuilder::run` versus the prepared serving path
//! (`prepare` once, `PreparedJoin::query` repeatedly) for the two algorithms
//! with the heaviest S-side builds — PGBJ (pivot selection + Voronoi
//! partitioning + summaries) and H-BRJ (per-block R-trees).
//!
//! `cold_run` pays the full build on every iteration; `prepared_query` pays
//! only the probe, which is what a serving system pays per request once the
//! corpus state is resident.  `query_one` is the per-point cost of that
//! probe: one object answered directly on the caller's thread.

use bench::Workloads;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use geom::DistanceMetric;
use knnjoin::{Algorithm, JoinBuilder};

fn bench_prepared_serving(c: &mut Criterion) {
    let workloads = Workloads::new(bench::ExperimentScale::Quick);
    let data = workloads.forest_default();
    let k = workloads.default_k();
    let reducers = workloads.default_reducers();
    let pivots = workloads.default_pivots();

    let mut group = c.benchmark_group("prepared_serving");
    group.sample_size(10);
    for algorithm in [Algorithm::Pgbj, Algorithm::Hbrj] {
        group.bench_with_input(
            BenchmarkId::new("cold_run", algorithm.name()),
            &algorithm,
            |b, &algorithm| {
                b.iter(|| {
                    JoinBuilder::new(&data, &data)
                        .k(k)
                        .metric(DistanceMetric::Euclidean)
                        .algorithm(algorithm)
                        .pivot_count(pivots)
                        .reducers(reducers)
                        .run(workloads.context())
                        .expect("cold join")
                });
            },
        );
        let prepared = JoinBuilder::new(&data, &data)
            .k(k)
            .metric(DistanceMetric::Euclidean)
            .algorithm(algorithm)
            .pivot_count(pivots)
            .reducers(reducers)
            .prepare(workloads.context())
            .expect("prepare");
        group.bench_with_input(
            BenchmarkId::new("prepared_query", algorithm.name()),
            &prepared,
            |b, prepared| {
                b.iter(|| prepared.query(&data).expect("prepared query"));
            },
        );
        let points = data.points();
        group.bench_with_input(
            BenchmarkId::new("query_one", algorithm.name()),
            &prepared,
            |b, prepared| {
                let mut next = points.iter().cycle();
                b.iter(|| {
                    let point = next.next().expect("non-empty workload");
                    prepared.query_one(point).expect("query_one")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_prepared_serving);
criterion_main!(benches);
