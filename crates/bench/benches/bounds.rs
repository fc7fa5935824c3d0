//! Microbenchmark: the distance-bound machinery (Algorithm 1 / 2) that the
//! second MapReduce job's mappers run before routing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{forest_like, ForestConfig};
use geom::DistanceMetric;
use knnjoin::bounds::{table_theta, PartitionBounds};
use knnjoin::partition::VoronoiPartitioner;
use knnjoin::pivots::{select_pivots, PivotSelectionStrategy};
use knnjoin::summary::SummaryTables;

fn setup(pivots: usize) -> SummaryTables {
    let data = forest_like(
        &ForestConfig {
            n_points: 3000,
            dims: 10,
            n_clusters: 7,
        },
        1,
    );
    let pivot_points = select_pivots(
        &data,
        pivots,
        PivotSelectionStrategy::Random { candidate_sets: 3 },
        1000,
        DistanceMetric::Euclidean,
        5,
    );
    let partitioner = VoronoiPartitioner::new(pivot_points.clone(), DistanceMetric::Euclidean);
    let partitioned = partitioner.partition(&data);
    SummaryTables::build(
        pivot_points,
        DistanceMetric::Euclidean,
        &partitioned,
        &partitioned,
        10,
    )
}

fn bench_bounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_bounds");
    group.sample_size(10);
    for pivots in [32usize, 96] {
        let tables = setup(pivots);
        group.bench_with_input(
            BenchmarkId::new("theta_single_partition", pivots),
            &tables,
            |b, t| {
                b.iter(|| table_theta(t, 0, 10));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("all_partition_bounds", pivots),
            &tables,
            |b, t| {
                b.iter(|| PartitionBounds::compute(t, 10));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_bounds);
criterion_main!(benches);
