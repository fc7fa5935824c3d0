//! Integration tests for reproducibility and metric accounting across the
//! whole stack (datagen → mapreduce → knnjoin), driven through the unified
//! `Join` builder.

use pgbj::prelude::*;
use std::sync::Arc;

fn workload(seed: u64) -> PointSet {
    datagen::gaussian_clusters(
        &datagen::ClusterConfig {
            n_points: 500,
            dims: 3,
            n_clusters: 5,
            std_dev: 5.0,
            extent: 300.0,
            skew: 0.5,
        },
        seed,
    )
}

#[test]
fn repeated_runs_are_bit_identical() {
    let r = workload(1);
    let s = workload(2);
    let ctx = ExecutionContext::default();
    let run = || {
        Join::new(&r, &s)
            .k(7)
            .algorithm(Algorithm::Pgbj)
            .pivot_count(24)
            .reducers(6)
            .seed(99)
            .run(&ctx)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.rows.len(), b.rows.len());
    for (x, y) in a.rows.iter().zip(&b.rows) {
        assert_eq!(x.r_id, y.r_id);
        assert_eq!(x.neighbors, y.neighbors);
    }
    // Deterministic dataflow implies deterministic cost accounting too.
    assert_eq!(
        a.metrics.distance_computations,
        b.metrics.distance_computations
    );
    assert_eq!(a.metrics.shuffle_bytes, b.metrics.shuffle_bytes);
    assert_eq!(a.metrics.s_records_shuffled, b.metrics.s_records_shuffled);
}

#[test]
fn worker_pool_size_does_not_change_results() {
    // The ExecutionContext owns physical parallelism; logical results and
    // cost accounting must be identical whatever the pool size — for every
    // MapReduce join, whose tasks fold their counters in whatever order the
    // workers finish them.
    let r = workload(21);
    let s = workload(22);
    for algorithm in [
        Algorithm::Pgbj,
        Algorithm::Pbj,
        Algorithm::Hbrj,
        Algorithm::Zknn,
        Algorithm::BroadcastJoin,
    ] {
        let run_with_workers = |workers: usize| {
            let ctx = ExecutionContext::builder().workers(workers).build();
            Join::new(&r, &s)
                .k(5)
                .algorithm(algorithm)
                .pivot_count(16)
                .reducers(4)
                .run(&ctx)
                .unwrap()
        };
        let single = run_with_workers(1);
        let pooled = run_with_workers(8);
        assert!(single.matches(&pooled, 0.0), "{algorithm:?}");
        let counted = |m: &knnjoin::JoinMetrics| {
            [
                m.r_records_shuffled,
                m.s_records_shuffled,
                m.pivot_assignment_computations,
                m.index_builds,
                m.shuffle_bytes,
                m.shuffle_records,
                m.distance_computations,
            ]
        };
        assert_eq!(
            counted(&single.metrics),
            counted(&pooled.metrics),
            "{algorithm:?}"
        );
        assert!(single.metrics.shuffle_records > 0, "{algorithm:?}");
    }
}

#[test]
fn different_pivot_seeds_change_cost_but_not_results() {
    let r = workload(3);
    let s = workload(4);
    let ctx = ExecutionContext::default();
    let with_seed = |seed: u64| {
        Join::new(&r, &s)
            .k(5)
            .algorithm(Algorithm::Pgbj)
            .pivot_count(24)
            .reducers(6)
            .seed(seed)
            .run(&ctx)
            .unwrap()
    };
    let a = with_seed(1);
    let b = with_seed(2);
    // Same answer...
    assert!(a.matches(&b, 1e-9));
    // ...through a (very likely) different execution plan.
    assert_eq!(a.rows.len(), r.len());
}

#[test]
fn join_cardinality_matches_definition() {
    // |R ⋉ S| = k · |R| whenever k ≤ |S| (Definition 2 in the paper).
    let r = workload(5);
    let s = workload(6);
    let ctx = ExecutionContext::default();
    for k in [1usize, 4, 16] {
        let result = Join::new(&r, &s)
            .k(k)
            .algorithm(Algorithm::Pgbj)
            .pivot_count(16)
            .reducers(4)
            .run(&ctx)
            .unwrap();
        let total_pairs: usize = result.rows.iter().map(|row| row.neighbors.len()).sum();
        assert_eq!(total_pairs, k * r.len());
    }
}

#[test]
fn shuffle_accounting_matches_record_sizes() {
    // Every shuffled record of both PGBJ jobs is charged its `Record` wire
    // size, so the byte counter is exactly predictable: job 1 ships every record of
    // R ∪ S once, batched per (map task, Voronoi cell) under one u32 cell
    // key; job 2 ships the routed records, each with a u32 group key.
    let r = workload(7);
    let s = workload(8);
    let ctx = ExecutionContext::default();
    let join = Join::new(&r, &s)
        .k(5)
        .algorithm(Algorithm::Pgbj)
        .pivot_count(16)
        .reducers(4);
    let plan = join.plan().unwrap();
    let result = join.run(&ctx).unwrap();
    let exact = Join::new(&r, &s)
        .k(5)
        .algorithm(Algorithm::NestedLoopJoin)
        .run(&ctx)
        .unwrap();
    assert!(result.matches(&exact, 1e-9));

    // The expected batches, computed test-side: cut R ∪ S into the engine's
    // `map_tasks` contiguous splits and count the distinct (split, cell)
    // pairs under the plan's own pivots.
    let pivots = knnjoin::select_pivots(
        &r,
        plan.pivot_count,
        plan.pivot_strategy,
        plan.pivot_sample_size,
        plan.metric,
        plan.seed,
    );
    let partitioner = knnjoin::VoronoiPartitioner::new(pivots, plan.metric);
    let points: Vec<&Point> = r.iter().chain(s.iter()).collect();
    let chunk = points.len().div_ceil(plan.map_tasks.min(points.len()));
    let job1_batches: u64 = points
        .chunks(chunk)
        .map(|split| {
            split
                .iter()
                .map(|p| partitioner.nearest_pivot(&p.coords).partition)
                .collect::<std::collections::BTreeSet<_>>()
                .len() as u64
        })
        .sum();
    let n = (r.len() + s.len()) as u64;
    assert!(job1_batches < n, "batching merged nothing");

    let m = &result.metrics;
    let job2_records = m.r_records_shuffled + m.s_records_shuffled;
    assert_eq!(m.shuffle_records, job1_batches + job2_records);
    let record_bytes = knnjoin::algorithms::common::Record::new(
        knnjoin::algorithms::common::RecordKind::R,
        0,
        0.0,
        &r.points()[0],
    )
    .encoded_len() as u64;
    assert_eq!(
        m.shuffle_bytes,
        n * record_bytes + 4 * job1_batches + job2_records * (record_bytes + 4)
    );
}

#[test]
fn hbrj_replication_matches_block_count_exactly() {
    let r = workload(9);
    let s = workload(10);
    let ctx = ExecutionContext::default();
    for reducers in [4usize, 9, 16, 25] {
        let blocks = (reducers as f64).sqrt().floor() as u64;
        let result = Join::new(&r, &s)
            .k(3)
            .algorithm(Algorithm::Hbrj)
            .reducers(reducers)
            .run(&ctx)
            .unwrap();
        assert_eq!(result.metrics.r_records_shuffled, r.len() as u64 * blocks);
        assert_eq!(result.metrics.s_records_shuffled, s.len() as u64 * blocks);
    }
}

#[test]
fn phase_breakdown_covers_total_time() {
    let r = workload(11);
    let s = workload(12);
    let ctx = ExecutionContext::default();
    let result = Join::new(&r, &s)
        .k(5)
        .algorithm(Algorithm::Pbj)
        .pivot_count(16)
        .reducers(9)
        .run(&ctx)
        .unwrap();
    let m = &result.metrics;
    let summed: std::time::Duration = m.phase_times.iter().map(|(_, d)| *d).sum();
    assert_eq!(summed, m.total_time());
    assert!(m.total_time() > std::time::Duration::ZERO);
}

#[test]
fn context_sink_collects_every_join_of_a_session() {
    // The sink replaces per-experiment metric plumbing: run a small session
    // of joins and read the history back in execution order.
    let r = workload(13);
    let sink = Arc::new(MemoryMetricsSink::new());
    let ctx = ExecutionContext::builder()
        .metrics_sink(sink.clone())
        .build();
    for algorithm in [Algorithm::Pgbj, Algorithm::Hbrj, Algorithm::BroadcastJoin] {
        Join::new(&r, &r)
            .k(4)
            .algorithm(algorithm)
            .pivot_count(12)
            .reducers(4)
            .run(&ctx)
            .unwrap();
    }
    let history = sink.snapshot();
    let names: Vec<&str> = history.iter().map(|rec| rec.algorithm.as_str()).collect();
    assert_eq!(names, vec!["PGBJ", "H-BRJ", "Broadcast"]);
    assert!(history.iter().all(|rec| rec.metrics.r_size == r.len()));
    assert!(history.iter().all(|rec| rec.metrics.shuffle_bytes > 0));
}
