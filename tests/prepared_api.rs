//! Integration tests of the prepared (build/probe) serving API:
//! bit-identical agreement with the one-shot path for every algorithm, flat
//! `index_builds` / `pivot_selections` counters across repeated queries,
//! correctness on batches the join was never prepared with, the direct
//! (shuffle-free, chunked) probe, streaming sinks, and the `JoinSession` LRU.

use pgbj::knnjoin::algorithms::common::MIN_PROBE_CHUNK;
use pgbj::knnjoin::JoinMetrics;
use pgbj::prelude::*;
use std::sync::Arc;

fn clustered(n: usize, dims: usize, seed: u64) -> PointSet {
    gaussian_clusters(
        &ClusterConfig {
            n_points: n,
            dims,
            n_clusters: 5,
            std_dev: 5.0,
            extent: 200.0,
            skew: 0.5,
        },
        seed,
    )
}

fn builder_for<'a>(r: &'a PointSet, s: &'a PointSet, algorithm: Algorithm, k: usize) -> Join<'a> {
    Join::new(r, s)
        .k(k)
        .algorithm(algorithm)
        .pivot_count(12)
        .reducers(4)
        .seed(99)
}

/// The tentpole guarantee: for every algorithm and several metrics,
/// `prepare().query(r)` equals `run()` on the same inputs — same rows, same
/// neighbour counts, identical distances.
#[test]
fn prepared_query_is_bit_identical_to_one_shot_run_across_metrics() {
    let r = clustered(180, 3, 1);
    let s = clustered(220, 3, 2);
    let ctx = ExecutionContext::default();
    for metric in [DistanceMetric::Euclidean, DistanceMetric::Manhattan] {
        for algorithm in Algorithm::ALL {
            let cold = builder_for(&r, &s, algorithm, 6)
                .metric(metric)
                .run(&ctx)
                .expect("cold join");
            let prepared = builder_for(&r, &s, algorithm, 6)
                .metric(metric)
                .prepare(&ctx)
                .expect("prepare");
            let served = prepared.query(&r).expect("prepared query");
            assert!(
                served.matches(&cold, 0.0),
                "{algorithm} ({metric:?}) prepared vs cold: {:?}",
                served.mismatch_against(&cold, 0.0)
            );
        }
    }
}

/// Across consecutive queries on one `PreparedJoin`, the `index_builds` and
/// `pivot_selections` counters must not grow: all of that work happened at
/// build time.
#[test]
fn repeated_queries_keep_index_builds_and_pivot_selections_flat() {
    let r = clustered(150, 2, 3);
    let s = clustered(200, 2, 4);
    let ctx = ExecutionContext::default();
    for algorithm in Algorithm::ALL {
        let prepared = builder_for(&r, &s, algorithm, 5)
            .prepare(&ctx)
            .expect("prepare");
        let build = prepared.build_metrics();
        if algorithm == Algorithm::Hbrj {
            assert!(build.index_builds > 0, "H-BRJ must build its trees once");
        }
        if algorithm.uses_pivots() {
            assert_eq!(build.pivot_selections, 1, "{algorithm}");
        }
        let mut first: Option<JoinResult> = None;
        for round in 0..3 {
            let result = prepared.query(&r).expect("query");
            assert_eq!(
                result.metrics.index_builds, 0,
                "{algorithm} round {round}: per-query index builds"
            );
            assert_eq!(
                result.metrics.pivot_selections, 0,
                "{algorithm} round {round}: per-query pivot selections"
            );
            match &first {
                None => first = Some(result),
                Some(reference) => {
                    assert!(
                        result.matches(reference, 0.0),
                        "{algorithm} round {round} drifted"
                    );
                    // The deterministic cost counters are stable per query.
                    assert_eq!(
                        result.metrics.distance_computations,
                        reference.metrics.distance_computations
                    );
                }
            }
        }
        // The session-wide accumulation saw every query, and still no
        // rebuild leaked into the query side.
        let cumulative = prepared.cumulative_metrics();
        assert_eq!(cumulative.index_builds, 0);
        assert_eq!(cumulative.pivot_selections, 0);
        assert_eq!(prepared.stats().queries, 3);
    }
}

/// The prepared state is R-independent: batches the join was never prepared
/// with are answered exactly (approximately, for H-zkNNJ).
#[test]
fn prepared_state_serves_unseen_batches() {
    let calibration = clustered(120, 2, 5);
    let s = clustered(250, 2, 6);
    let unseen = uniform(80, 2, 180.0, 7);
    let ctx = ExecutionContext::default();
    let oracle = NestedLoopJoin
        .join(&unseen, &s, 4, DistanceMetric::Euclidean)
        .expect("oracle");
    for algorithm in Algorithm::ALL {
        let prepared = builder_for(&calibration, &s, algorithm, 4)
            .prepare(&ctx)
            .expect("prepare");
        let served = prepared.query(&unseen).expect("query unseen batch");
        if algorithm.is_exact() {
            assert!(
                served.matches(&oracle, 1e-9),
                "{algorithm} on an unseen batch: {:?}",
                served.mismatch_against(&oracle, 1e-9)
            );
        } else {
            assert_eq!(served.len(), unseen.len());
            let quality = served.quality_against(&oracle);
            assert!(
                quality.recall >= 0.8,
                "{algorithm} recall {}",
                quality.recall
            );
        }
    }
}

#[test]
fn query_one_answers_single_points() {
    let r = clustered(100, 2, 8);
    let s = clustered(150, 2, 9);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&r, &s, Algorithm::Pgbj, 3)
        .prepare(&ctx)
        .expect("prepare");
    let oracle = NestedLoopJoin
        .join(&r, &s, 3, DistanceMetric::Euclidean)
        .expect("oracle");
    for point in r.iter().take(5) {
        let row = prepared.query_one(point).expect("query_one");
        assert_eq!(row.r_id, point.id);
        let expected = oracle.row(point.id).expect("oracle row");
        assert_eq!(row.neighbors.len(), expected.neighbors.len());
        for (got, want) in row.neighbors.iter().zip(&expected.neighbors) {
            assert!((got.distance - want.distance).abs() < 1e-12);
        }
    }
}

#[test]
fn query_into_streams_rows_in_order_without_a_join_result() {
    let r = clustered(90, 2, 10);
    let s = clustered(140, 2, 11);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&r, &s, Algorithm::Hbrj, 4)
        .prepare(&ctx)
        .expect("prepare");
    let reference = prepared.query(&r).expect("query");

    // A Vec sink collects everything.
    let mut collected: Vec<JoinRow> = Vec::new();
    let metrics = prepared.query_into(&r, &mut collected).expect("query_into");
    assert_eq!(collected.len(), reference.len());
    assert!(collected.windows(2).all(|w| w[0].r_id < w[1].r_id));
    assert_eq!(
        metrics.distance_computations,
        reference.metrics.distance_computations
    );

    // A closure sink can aggregate without retaining rows.
    let mut neighbor_total = 0usize;
    let mut fold = |row: JoinRow| neighbor_total += row.neighbors.len();
    prepared.query_into(&r, &mut fold).expect("query_into");
    assert_eq!(
        neighbor_total,
        reference
            .iter()
            .map(|row| row.neighbors.len())
            .sum::<usize>()
    );
}

#[test]
fn prepared_query_validates_batches() {
    let r = clustered(50, 2, 12);
    let s = clustered(80, 2, 13);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&r, &s, Algorithm::Pgbj, 3)
        .prepare(&ctx)
        .expect("prepare");
    assert_eq!(
        prepared.query(&PointSet::new()).unwrap_err(),
        JoinError::EmptyInput("R")
    );
    let wrong_dims = uniform(10, 3, 10.0, 14);
    assert!(matches!(
        prepared.query(&wrong_dims).unwrap_err(),
        JoinError::DimensionalityMismatch {
            r_dims: 3,
            s_dims: 2
        }
    ));
    let ragged = PointSet::from_coords(vec![vec![0.0, 1.0], vec![2.0]]);
    assert!(matches!(
        prepared.query(&ragged).unwrap_err(),
        JoinError::RaggedInput { dataset: "R", .. }
    ));
}

/// Clones of the handle share state and statistics — several "request
/// handlers" serving one resident index.
#[test]
fn prepared_clones_share_state_and_stats() {
    let r = clustered(80, 2, 15);
    let s = clustered(120, 2, 16);
    let ctx = ExecutionContext::default();
    let prepared = builder_for(&r, &s, Algorithm::Zknn, 4)
        .prepare(&ctx)
        .expect("prepare");
    let clone = prepared.clone();
    let a = prepared.query(&r).expect("query via original");
    let b = clone.query(&r).expect("query via clone");
    assert!(a.matches(&b, 0.0));
    assert_eq!(prepared.stats().queries, 2);
    assert_eq!(clone.stats().queries, 2);
}

#[test]
fn join_session_reuses_compatible_prepared_joins_and_evicts_lru() {
    let r = clustered(70, 2, 17);
    let s = clustered(110, 2, 18);
    let other_corpus = clustered(90, 2, 19);
    let session = JoinSession::new(ExecutionContext::default(), 2);

    // Miss, then hit: the same Arc comes back and nothing is rebuilt.
    let first = session
        .get_or_prepare("pois", builder_for(&r, &s, Algorithm::Pgbj, 5))
        .expect("prepare pois");
    let again = session
        .get_or_prepare("pois", builder_for(&r, &s, Algorithm::Pgbj, 5))
        .expect("reuse pois");
    assert!(Arc::ptr_eq(&first, &again));
    assert_eq!((session.hits(), session.misses()), (1, 1));
    assert_eq!(session.len(), 1);

    // A different k is a different serving shape: miss.
    let other_k = session
        .get_or_prepare("pois", builder_for(&r, &s, Algorithm::Pgbj, 9))
        .expect("prepare k=9");
    assert!(!Arc::ptr_eq(&first, &other_k));
    assert_eq!(session.misses(), 2);
    assert_eq!(session.len(), 2);

    // Third distinct key evicts the least-recently-used entry (k=5 was
    // refreshed by the hit, then k=9 was added; the LRU is k=5... no: the
    // hit moved k=5 to most-recent, then k=9 became most-recent, so k=5 is
    // evicted).
    let _third = session
        .get_or_prepare(
            "stations",
            builder_for(&r, &other_corpus, Algorithm::Hbrj, 5),
        )
        .expect("prepare stations");
    assert_eq!(session.evictions(), 1);
    assert_eq!(session.len(), 2);

    // The evicted key rebuilds on next use.
    let rebuilt = session
        .get_or_prepare("pois", builder_for(&r, &s, Algorithm::Pgbj, 5))
        .expect("rebuild pois");
    assert!(!Arc::ptr_eq(&first, &rebuilt));
    assert_eq!(session.misses(), 4);

    // Queries through cached handles still serve correctly.
    let result = rebuilt.query(&r).expect("query cached handle");
    assert_eq!(result.len(), r.len());
}

/// A cached entry is only a hit when the *entire* resolved plan matches:
/// same corpus/algorithm/metric/k but different tuning knobs must rebuild
/// (and replace the stale entry), never silently serve the old
/// configuration.
#[test]
fn join_session_never_serves_a_different_configuration() {
    let r = clustered(60, 2, 30);
    let s = clustered(100, 2, 31);
    let session = JoinSession::new(ExecutionContext::default(), 4);
    let narrow = session
        .get_or_prepare(
            "pois",
            Join::new(&r, &s)
                .k(4)
                .algorithm(Algorithm::Zknn)
                .z_window(1),
        )
        .expect("prepare z_window=1");
    // Same key shape, wider (higher-recall) window: must NOT reuse narrow.
    let wide = session
        .get_or_prepare(
            "pois",
            Join::new(&r, &s)
                .k(4)
                .algorithm(Algorithm::Zknn)
                .z_window(8),
        )
        .expect("prepare z_window=8");
    assert!(!Arc::ptr_eq(&narrow, &wide));
    assert_eq!(wide.plan().z_window, 8);
    assert_eq!(session.hits(), 0);
    assert_eq!(session.misses(), 2);
    // The stale same-key entry was replaced, not duplicated.
    assert_eq!(session.len(), 1);
    assert_eq!(session.evictions(), 1);
    // Asking for the wide configuration again is now a hit.
    let again = session
        .get_or_prepare(
            "pois",
            Join::new(&r, &s)
                .k(4)
                .algorithm(Algorithm::Zknn)
                .z_window(8),
        )
        .expect("reuse z_window=8");
    assert!(Arc::ptr_eq(&wide, &again));
    assert_eq!(session.hits(), 1);
}

/// A cached handle mutated after caching (its corpus epoch moved) is stale:
/// the session must rebuild instead of serving a corpus the caller's label
/// no longer describes, counting the eviction and the rebuild miss.
#[test]
fn join_session_evicts_handles_mutated_since_caching() {
    let r = clustered(60, 2, 40);
    let s = clustered(100, 2, 41);
    let session = JoinSession::new(ExecutionContext::default(), 4);
    let cached = session
        .get_or_prepare("pois", builder_for(&r, &s, Algorithm::Pgbj, 4))
        .expect("prepare");
    assert_eq!((session.hits(), session.misses()), (0, 1));

    // Mutate through the cached handle: its epoch no longer matches the key.
    cached
        .insert(Point::new(500_000, vec![1.0, 2.0]))
        .expect("insert");
    assert_eq!(cached.epoch(), 1);

    let fresh = session
        .get_or_prepare("pois", builder_for(&r, &s, Algorithm::Pgbj, 4))
        .expect("rebuild after mutation");
    assert!(
        !Arc::ptr_eq(&cached, &fresh),
        "a mutated handle must not be served as a hit"
    );
    assert_eq!(session.hits(), 0);
    assert_eq!(session.misses(), 2);
    assert_eq!(session.evictions(), 1, "the stale entry was replaced");
    assert_eq!(session.len(), 1);
    // The fresh handle serves the *label's* corpus (without the mutation).
    assert_eq!(fresh.s_len(), s.len());

    // Unmutated handles keep hitting.
    let again = session
        .get_or_prepare("pois", builder_for(&r, &s, Algorithm::Pgbj, 4))
        .expect("reuse");
    assert!(Arc::ptr_eq(&fresh, &again));
    assert_eq!(session.hits(), 1);
}

/// Prepared queries report to the context's metrics sink like any other
/// join, so serving observability needs no extra plumbing.
#[test]
fn prepared_queries_flow_into_the_metrics_sink() {
    let r = clustered(60, 2, 20);
    let s = clustered(90, 2, 21);
    let sink = Arc::new(MemoryMetricsSink::new());
    let ctx = ExecutionContext::builder()
        .metrics_sink(sink.clone())
        .build();
    let prepared = builder_for(&r, &s, Algorithm::Pbj, 3)
        .prepare(&ctx)
        .expect("prepare");
    prepared.query(&r).expect("query 1");
    prepared.query(&r).expect("query 2");
    let records = sink.snapshot();
    assert_eq!(records.len(), 2);
    assert!(records.iter().all(|rec| rec.algorithm == "PBJ"));
    assert!(records.iter().all(|rec| rec.metrics.pivot_selections == 0));
}

/// Sharded-session regression: the hit/miss/eviction counters stay exact
/// when many threads hammer the LRU at once.  With capacity ≥ distinct keys
/// every key is built at most... exactly once (a concurrent duplicate build
/// loses the insert re-check and converts to a hit), nothing is evicted, and
/// hits + misses account for every request.
#[test]
fn sharded_session_counters_survive_concurrent_hammering() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 30;
    let r = clustered(50, 2, 90);
    let s = clustered(80, 2, 91);
    let labels = ["a", "b", "c", "d", "e", "f"];
    let session = JoinSession::new(ExecutionContext::default(), labels.len());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let session = &session;
            let (r, s) = (&r, &s);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let label = labels[(t + round) % labels.len()];
                    let handle = session
                        .get_or_prepare(label, builder_for(r, s, Algorithm::Pbj, 3))
                        .expect("get_or_prepare");
                    assert_eq!(handle.k(), 3);
                }
            });
        }
    });
    let total = (THREADS * ROUNDS) as u64;
    assert_eq!(session.hits() + session.misses(), total);
    // Each of the 6 keys was built at least once; duplicate concurrent
    // builds resolve to hits, so the cache holds exactly one entry per key.
    assert!(session.misses() >= labels.len() as u64);
    assert_eq!(session.len(), labels.len());
    assert_eq!(session.evictions(), 0);
}

/// With capacity below the working set, the global LRU bound holds across
/// shards: the cache never ends over capacity, and the eviction counter
/// satisfies the exact conservation law `evictions = misses − len` (every
/// miss inserts one entry; entries leave only by eviction).
#[test]
fn sharded_session_global_capacity_bound_under_concurrency() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 18;
    const CAPACITY: usize = 3;
    let r = clustered(50, 2, 92);
    let s = clustered(80, 2, 93);
    let labels = ["u", "v", "w", "x", "y", "z"];
    let session = JoinSession::new(ExecutionContext::default(), CAPACITY);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let session = &session;
            let (r, s) = (&r, &s);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let label = labels[(t * 2 + round) % labels.len()];
                    session
                        .get_or_prepare(label, builder_for(r, s, Algorithm::Pbj, 3))
                        .expect("get_or_prepare");
                }
            });
        }
    });
    assert!(
        session.len() <= CAPACITY,
        "over capacity: {}",
        session.len()
    );
    assert_eq!(session.hits() + session.misses(), (THREADS * ROUNDS) as u64);
    assert_eq!(session.evictions(), session.misses() - session.len() as u64);
}

/// Epoch-staleness eviction (PR 6) holds in every shard: labels hashing to
/// different shards each detect their own handle's mutation, rebuild, and
/// count exactly one eviction — with no cross-shard interference on the
/// other cached entries.
#[test]
fn sharded_session_epoch_staleness_holds_per_shard() {
    let r = clustered(50, 2, 94);
    let s = clustered(80, 2, 95);
    let labels = ["north", "south", "east", "west", "up"];
    let session = JoinSession::new(ExecutionContext::default(), labels.len());
    let handles: Vec<_> = labels
        .iter()
        .map(|label| {
            session
                .get_or_prepare(label, builder_for(&r, &s, Algorithm::Pgbj, 4))
                .expect("prepare")
        })
        .collect();
    assert_eq!(session.misses(), labels.len() as u64);
    assert_eq!(session.len(), labels.len());

    for (i, (label, cached)) in labels.iter().zip(&handles).enumerate() {
        // Mutate this label's handle: its cached epoch is now stale.
        cached
            .insert(Point::new(900_000 + i as u64, vec![1.0, 2.0]))
            .expect("insert");
        let fresh = session
            .get_or_prepare(label, builder_for(&r, &s, Algorithm::Pgbj, 4))
            .expect("rebuild stale");
        assert!(
            !Arc::ptr_eq(cached, &fresh),
            "{label}: mutated handle served as a hit"
        );
        assert_eq!(session.evictions(), i as u64 + 1);
        assert_eq!(session.len(), labels.len(), "{label}: entry not replaced");
        // The other labels' entries are untouched: still hits.
        let other = labels[(i + 1) % labels.len()];
        let before = session.hits();
        session
            .get_or_prepare(other, builder_for(&r, &s, Algorithm::Pgbj, 4))
            .expect("neighbour label");
        assert_eq!(session.hits(), before + 1, "{other}: expected a hit");
    }
}

// ---------------------------------------------------------------------------
// The direct probe: no shuffle, chunked over the worker pool
// ---------------------------------------------------------------------------

/// Ids of points inserted by [`mutate`], far above the generators' ids.
const ADD_ID_BASE: u64 = 10_000;

/// Puts adds and tombstones into the overlay (well under the compaction
/// threshold): fresh inserts, an upsert over a frozen id and a delete.
fn mutate(prepared: &PreparedJoin, s: &PointSet) {
    for i in 0..6u64 {
        let coords = vec![i as f64 * 30.0, 200.0 - i as f64 * 25.0];
        prepared
            .insert(Point::new(ADD_ID_BASE + i, coords))
            .expect("insert");
    }
    let mut frozen = s.iter();
    let upserted = frozen.next().expect("s nonempty").id;
    prepared
        .insert(Point::new(upserted, vec![100.0, 100.0]))
        .expect("upsert");
    assert!(prepared.delete(frozen.next().expect("s has two points").id));
    let stats = prepared.delta_stats();
    assert!(stats.pending_adds > 0 && stats.pending_tombstones > 0);
    assert_eq!(stats.compactions, 0);
}

/// The deterministic per-query counters of a probe.
fn probe_counters(m: &JoinMetrics) -> [u64; 4] {
    [
        m.distance_computations,
        m.pivot_assignment_computations,
        m.delta_probe_computations,
        m.tombstone_masked,
    ]
}

/// Splitting a batch across the worker pool changes neither the rows nor
/// the counters: every pool size answers like the inline single-worker scan.
#[test]
fn prepared_probes_are_identical_across_worker_counts() {
    let calibration = clustered(120, 2, 40);
    let s = clustered(260, 2, 41);
    // Large enough that four workers get four chunks.
    let batch = uniform(4 * MIN_PROBE_CHUNK + 5, 2, 200.0, 42);
    for algorithm in Algorithm::ALL {
        for mutated in [false, true] {
            let mut reference: Option<JoinResult> = None;
            for workers in [1usize, 2, 4] {
                let ctx = ExecutionContext::builder().workers(workers).build();
                let prepared = builder_for(&calibration, &s, algorithm, 5)
                    .prepare(&ctx)
                    .expect("prepare");
                if mutated {
                    mutate(&prepared, &s);
                }
                let result = prepared.query(&batch).expect("query");
                assert_eq!(result.len(), batch.len());
                match &reference {
                    None => reference = Some(result),
                    Some(first) => {
                        let label = format!("{algorithm} mutated={mutated} workers={workers}");
                        assert_eq!(result.rows, first.rows, "{label}: rows");
                        assert_eq!(
                            probe_counters(&result.metrics),
                            probe_counters(&first.metrics),
                            "{label}: counters"
                        );
                    }
                }
            }
        }
    }
}

/// Batches on both sides of the inline/split boundary answer like the
/// nested-loop oracle over the live corpus, with and without an overlay.
#[test]
fn batch_sizes_around_the_minimum_chunk_match_the_oracle() {
    let calibration = clustered(120, 2, 43);
    let s = clustered(260, 2, 44);
    let ctx = ExecutionContext::builder().workers(2).build();
    for algorithm in Algorithm::ALL {
        for mutated in [false, true] {
            let prepared = builder_for(&calibration, &s, algorithm, 4)
                .prepare(&ctx)
                .expect("prepare");
            if mutated {
                mutate(&prepared, &s);
            }
            let live = prepared.materialized_corpus();
            for size in [
                1,
                MIN_PROBE_CHUNK - 1,
                MIN_PROBE_CHUNK + 1,
                2 * MIN_PROBE_CHUNK + 1,
            ] {
                let batch = clustered(size, 2, 45 + size as u64);
                let oracle = NestedLoopJoin
                    .join(&batch, &live, 4, DistanceMetric::Euclidean)
                    .expect("oracle");
                let served = prepared.query(&batch).expect("query");
                let label = format!("{algorithm} mutated={mutated} size={size}");
                if algorithm.is_exact() {
                    assert!(
                        served.matches(&oracle, 1e-9),
                        "{label}: {:?}",
                        served.mismatch_against(&oracle, 1e-9)
                    );
                } else {
                    // The approximate join has no oracle to match; it must
                    // report true distances and answer every object exactly
                    // as it answers that object alone, however the batch
                    // was split.
                    assert_eq!(served.len(), size, "{label}");
                    let quality = served.quality_against(&oracle);
                    assert!(quality.distance_ratio >= 1.0 - 1e-9, "{label}");
                    for point in batch.iter() {
                        let row = prepared.query_one(point).expect("query_one");
                        assert_eq!(Some(&row), served.row(point.id), "{label}: query_one");
                    }
                }
            }
        }
    }
}

/// With `S` resident, a prepared probe moves nothing: no record crosses a
/// shuffle on any query path, for any algorithm.
#[test]
fn prepared_queries_shuffle_nothing() {
    let r = clustered(150, 2, 46);
    let s = clustered(200, 2, 47);
    let ctx = ExecutionContext::builder().workers(2).build();
    let assert_unshuffled = |m: &JoinMetrics, label: &str| {
        assert_eq!(m.shuffle_records, 0, "{label}: shuffle_records");
        assert_eq!(m.shuffle_bytes, 0, "{label}: shuffle_bytes");
        assert_eq!(m.r_records_shuffled, 0, "{label}: r_records_shuffled");
        assert_eq!(m.s_records_shuffled, 0, "{label}: s_records_shuffled");
    };
    for algorithm in Algorithm::ALL {
        let prepared = builder_for(&r, &s, algorithm, 5)
            .prepare(&ctx)
            .expect("prepare");
        let label = algorithm.to_string();
        assert_unshuffled(&prepared.query(&r).expect("query").metrics, &label);
        mutate(&prepared, &s);
        let mut rows: Vec<JoinRow> = Vec::new();
        let metrics = prepared.query_into(&r, &mut rows).expect("query_into");
        assert_unshuffled(&metrics, &label);
        for point in r.iter().take(3) {
            prepared.query_one(point).expect("query_one");
        }
        let cumulative = prepared.cumulative_metrics();
        assert_unshuffled(&cumulative, &label);
        assert_eq!(prepared.stats().queries, 5);
    }
}
