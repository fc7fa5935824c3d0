//! PBJ — partitioning-based join without grouping (Section 6 of the paper).
//!
//! PBJ keeps the Voronoi partitioning and all of PGBJ's distance bounds, but
//! drops the grouping step: like H-BRJ it splits `R` and `S` into `B = ⌊√N⌋`
//! random blocks, joins every `(R_i, S_j)` pair on one reducer, and merges the
//! partial results with a second MapReduce job.  Inside a reducer, Algorithm 1
//! runs over the `T_S` of the `S` block the cell received to derive each `R`
//! partition's kNN distance bound `θ_i` (necessarily looser than PGBJ's,
//! because the block is a random sample of `S`), and the global summary
//! tables prune candidate partitions and objects — exactly the behaviour the
//! paper uses to isolate how much of PGBJ's win comes from the grouping versus
//! the bounds.

use crate::algorithms::blocks::run_block_framework;
use crate::algorithms::common::{
    bounded_knn_scan, counters, order_s_partitions, split_reducer_records,
    summarize_flat_partition, NeighborListValue, Record, RecordKind,
};
use crate::algorithms::KnnJoinAlgorithm;
use crate::bounds::bounding_knn_theta;
use crate::context::ExecutionContext;
use crate::exact::validate_inputs;
use crate::metrics::{phases, JoinMetrics};
use crate::partition::VoronoiPartitioner;
use crate::pivots::{select_pivots, PivotSelectionStrategy};
use crate::result::{JoinError, JoinResult};
use crate::summary::{SPartitionSummary, SummaryTables};
use geom::{DistanceMetric, PointSet};
use mapreduce::{ReduceContext, Reducer};
use std::time::Instant;

/// Configuration of [`Pbj`].
#[derive(Debug, Clone)]
pub struct PbjConfig {
    /// Number of pivots (Voronoi cells).
    pub pivot_count: usize,
    /// How pivots are chosen from `R`.
    pub pivot_strategy: PivotSelectionStrategy,
    /// How many objects of `R` pivot selection may look at.
    pub pivot_sample_size: usize,
    /// Number of reducers ("computing nodes").
    pub reducers: usize,
    /// Number of map tasks.
    pub map_tasks: usize,
    /// Seed for pivot selection.
    pub seed: u64,
}

impl Default for PbjConfig {
    fn default() -> Self {
        Self {
            pivot_count: 32,
            pivot_strategy: PivotSelectionStrategy::default(),
            pivot_sample_size: 10_000,
            reducers: 4,
            map_tasks: 8,
            seed: 0xC0FFEE,
        }
    }
}

/// The PBJ algorithm.
#[derive(Debug, Clone, Default)]
pub struct Pbj {
    config: PbjConfig,
}

impl Pbj {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: PbjConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PbjConfig {
        &self.config
    }

    fn validate(&self) -> Result<(), JoinError> {
        if self.config.pivot_count == 0 {
            return Err(JoinError::InvalidConfig(
                "pivot_count must be positive".into(),
            ));
        }
        if self.config.reducers == 0 {
            return Err(JoinError::ZeroReducers);
        }
        if self.config.map_tasks == 0 {
            return Err(JoinError::ZeroMapTasks);
        }
        Ok(())
    }
}

impl KnnJoinAlgorithm for Pbj {
    fn name(&self) -> &'static str {
        "PBJ"
    }

    fn join_with(
        &self,
        r: &PointSet,
        s: &PointSet,
        k: usize,
        metric: DistanceMetric,
        ctx: &ExecutionContext,
    ) -> Result<JoinResult, JoinError> {
        self.validate()?;
        validate_inputs(r, s, k)?;
        let cfg = &self.config;
        let mut metrics = JoinMetrics {
            r_size: r.len(),
            s_size: s.len(),
            ..Default::default()
        };

        // ---- Preprocessing: pivot selection --------------------------------
        let start = Instant::now();
        let pivots = select_pivots(
            r,
            cfg.pivot_count,
            cfg.pivot_strategy,
            cfg.pivot_sample_size,
            metric,
            cfg.seed,
        );
        metrics.record_phase(phases::PIVOT_SELECTION, start.elapsed());
        metrics.pivot_selections = 1;

        // ---- Partitioning (first job of the paper, run as a driver-side scan)
        let start = Instant::now();
        let partitioner = VoronoiPartitioner::new(pivots.clone(), metric);
        let partitioned_r = partitioner.partition(r);
        let partitioned_s = partitioner.partition(s);
        metrics.record_phase(phases::DATA_PARTITIONING, start.elapsed());

        // ---- Summary tables -------------------------------------------------
        let start = Instant::now();
        let tables = SummaryTables::build(pivots, metric, &partitioned_r, &partitioned_s, k);
        metrics.record_phase(phases::INDEX_MERGING, start.elapsed());

        // ---- Block join + merge (no grouping phase) -------------------------
        let mut input = Vec::with_capacity(r.len() + s.len());
        for (kind, partitioned) in [
            (RecordKind::R, &partitioned_r),
            (RecordKind::S, &partitioned_s),
        ] {
            for (partition, bucket) in partitioned.partitions.iter().enumerate() {
                for (point, dist) in bucket {
                    input.push((point.id, Record::new(kind, partition as u32, *dist, point)));
                }
            }
        }

        let reducer = PbjCellReducer {
            tables: &tables,
            k,
            metric,
        };
        let rows = run_block_framework(
            input,
            k,
            cfg.reducers,
            cfg.map_tasks,
            ctx.workers(),
            &reducer,
            &mut metrics,
        )?;

        let mut result = JoinResult { rows, metrics };
        result.normalize();
        Ok(result)
    }
}

/// Reducer for one `(R_i, S_j)` cell: bounded, pruned nested-loop join using
/// the Voronoi summary tables, but over a random block of `S`.
struct PbjCellReducer<'a> {
    tables: &'a SummaryTables,
    k: usize,
    metric: DistanceMetric,
}

impl<'a> Reducer for PbjCellReducer<'a> {
    type KIn = u32;
    type VIn = Record<'a>;
    type KOut = u64;
    type VOut = NeighborListValue;

    fn reduce(
        &self,
        _cell: &u32,
        values: &[Record<'a>],
        ctx: &mut ReduceContext<u64, NeighborListValue>,
    ) {
        let dims = self.tables.pivots.first().map_or(0, |p| p.dims());
        let (r_parts, s_parts) = split_reducer_records(values, dims);
        // The cell's own T_S, over the random S block it received: θ_i from
        // it is the looser bound the paper attributes to PBJ.
        let cell_t_s: Vec<SPartitionSummary> = s_parts
            .iter()
            .map(|(&j, bucket)| summarize_flat_partition(j, bucket, self.k))
            .collect();

        for (&i, r_bucket) in &r_parts {
            let s_order = order_s_partitions(&s_parts, i, self.tables);
            let theta_i = bounding_knn_theta(
                self.tables.r_summaries[i].upper,
                &cell_t_s,
                &self.tables.pivot_distances[i],
                self.k,
            );
            for (r_obj, r_pivot_dist) in r_bucket {
                let (neighbors, computations) = bounded_knn_scan(
                    r_obj,
                    *r_pivot_dist,
                    i,
                    &s_parts,
                    &s_order,
                    self.tables,
                    theta_i,
                    self.k,
                    self.metric,
                );
                ctx.counters()
                    .add(counters::DISTANCE_COMPUTATIONS, computations);
                ctx.emit(r_obj.id, NeighborListValue::new(neighbors));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::common::FlatPartition;
    use crate::bounds::upper_bound;
    use crate::exact::NestedLoopJoin;
    use datagen::{gaussian_clusters, uniform, ClusterConfig};
    use geom::Point;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn clustered(n: usize, seed: u64) -> PointSet {
        gaussian_clusters(
            &ClusterConfig {
                n_points: n,
                dims: 2,
                n_clusters: 5,
                std_dev: 5.0,
                extent: 150.0,
                skew: 0.5,
            },
            seed,
        )
    }

    fn check_matches_exact(r: &PointSet, s: &PointSet, k: usize, config: PbjConfig) {
        let metric = DistanceMetric::Euclidean;
        let expected = NestedLoopJoin.join(r, s, k, metric).unwrap();
        let got = Pbj::new(config).join(r, s, k, metric).unwrap();
        if let Some(msg) = got.mismatch_against(&expected, 1e-9) {
            panic!("PBJ result differs from exact join: {msg}");
        }
    }

    #[test]
    fn matches_exact_on_clustered_data() {
        let r = clustered(300, 1);
        let s = clustered(350, 2);
        check_matches_exact(
            &r,
            &s,
            10,
            PbjConfig {
                pivot_count: 24,
                reducers: 9,
                ..Default::default()
            },
        );
    }

    #[test]
    fn matches_exact_on_high_dimensional_uniform_data() {
        let r = uniform(200, 5, 80.0, 3);
        let s = uniform(220, 5, 80.0, 4);
        check_matches_exact(
            &r,
            &s,
            6,
            PbjConfig {
                pivot_count: 12,
                reducers: 4,
                ..Default::default()
            },
        );
    }

    #[test]
    fn matches_exact_for_self_join() {
        let data = clustered(250, 5);
        check_matches_exact(
            &data,
            &data,
            8,
            PbjConfig {
                pivot_count: 16,
                reducers: 6,
                ..Default::default()
            },
        );
    }

    #[test]
    fn matches_exact_when_k_exceeds_s() {
        let r = uniform(40, 2, 30.0, 6);
        let s = uniform(7, 2, 30.0, 7);
        check_matches_exact(
            &r,
            &s,
            12,
            PbjConfig {
                pivot_count: 3,
                reducers: 4,
                ..Default::default()
            },
        );
    }

    #[test]
    fn phases_and_metrics_are_populated() {
        let r = clustered(200, 8);
        let s = clustered(200, 9);
        let res = Pbj::new(PbjConfig {
            pivot_count: 16,
            reducers: 9,
            ..Default::default()
        })
        .join(&r, &s, 5, DistanceMetric::Euclidean)
        .unwrap();
        let m = &res.metrics;
        // √9 = 3 blocks: every object is replicated 3 times.
        assert_eq!(m.r_records_shuffled, 600);
        assert_eq!(m.s_records_shuffled, 600);
        assert!(m.distance_computations > 0);
        assert!(m.shuffle_bytes > 0);
        for phase in [
            phases::PIVOT_SELECTION,
            phases::DATA_PARTITIONING,
            phases::INDEX_MERGING,
            phases::KNN_JOIN,
            phases::RESULT_MERGING,
        ] {
            assert!(
                m.phase_times.iter().any(|(n, _)| n == phase),
                "missing {phase}"
            );
        }
        // PBJ must not have a grouping phase.
        assert_eq!(
            m.phase(phases::PARTITION_GROUPING),
            std::time::Duration::ZERO
        );
    }

    #[test]
    fn pruning_beats_exhaustive_scanning_within_cells() {
        let r = clustered(400, 10);
        let s = clustered(400, 11);
        let res = Pbj::new(PbjConfig {
            pivot_count: 32,
            reducers: 4,
            ..Default::default()
        })
        .join(&r, &s, 10, DistanceMetric::Euclidean)
        .unwrap();
        // Exhaustive block join would compute |R|·|S| = 160000 pairs (every
        // pair meets in exactly one cell); the bounds must cut that down.
        assert!(
            res.metrics.distance_computations < 160_000,
            "no pruning: {} computations",
            res.metrics.distance_computations
        );
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let r = uniform(10, 2, 1.0, 0);
        let s = uniform(10, 2, 1.0, 1);
        assert!(matches!(
            Pbj::new(PbjConfig {
                pivot_count: 0,
                ..Default::default()
            })
            .join(&r, &s, 2, DistanceMetric::Euclidean)
            .unwrap_err(),
            JoinError::InvalidConfig(_)
        ));
        assert!(matches!(
            Pbj::new(PbjConfig {
                reducers: 0,
                ..Default::default()
            })
            .join(&r, &s, 2, DistanceMetric::Euclidean)
            .unwrap_err(),
            JoinError::ZeroReducers
        ));
        assert!(matches!(
            Pbj::new(PbjConfig {
                map_tasks: 0,
                ..Default::default()
            })
            .join(&r, &s, 2, DistanceMetric::Euclidean)
            .unwrap_err(),
            JoinError::ZeroMapTasks
        ));
        assert_eq!(Pbj::default().name(), "PBJ");
        assert_eq!(Pbj::default().config().pivot_count, 32);
    }

    /// The per-cell bound as first defined: every `ub(s, P_i^R)` of the cell,
    /// fully sorted, taking the `k`-th (∞ below `k` objects).  Kept as the
    /// oracle Algorithm 1 over the cell's `T_S` must reproduce bit for bit.
    fn full_sort_theta(
        u_r: f64,
        pivot_row: &[f64],
        s_parts: &BTreeMap<usize, FlatPartition>,
        k: usize,
    ) -> f64 {
        let mut ubs: Vec<f64> = s_parts
            .iter()
            .flat_map(|(&j, bucket)| {
                bucket
                    .pivot_dists
                    .iter()
                    .map(move |&d| upper_bound(u_r, pivot_row[j], d))
            })
            .collect();
        if ubs.len() < k {
            return f64::INFINITY;
        }
        ubs.sort_by(f64::total_cmp);
        ubs[k - 1]
    }

    /// One reducer cell on an 8×8 integer grid (so pivot distances tie); each
    /// point is given by its cell number `x + 8y`.  Returns `S` split by
    /// nearest pivot into the non-empty flat partitions the reducer sees, the
    /// pivot-distance matrix, and `U(P_i^R)` for every pivot.
    fn grid_cell(
        pivots: &[u32],
        s: &[u32],
        r: &[u32],
        metric: DistanceMetric,
    ) -> (BTreeMap<usize, FlatPartition>, Vec<Vec<f64>>, Vec<f64>) {
        let point = |id: usize, &cell: &u32| {
            Point::new(id as u64, vec![f64::from(cell % 8), f64::from(cell / 8)])
        };
        let pivots: Vec<Point> = pivots
            .iter()
            .enumerate()
            .map(|(i, c)| point(i, c))
            .collect();
        let nearest = |p: &Point| {
            pivots
                .iter()
                .enumerate()
                .map(|(j, pivot)| (j, metric.distance(p, pivot)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("at least one pivot")
        };
        let mut s_parts: BTreeMap<usize, FlatPartition> = BTreeMap::new();
        for (id, c) in s.iter().enumerate() {
            let p = point(id, c);
            let (j, d) = nearest(&p);
            s_parts
                .entry(j)
                .or_insert_with(|| FlatPartition::new(2))
                .push(&p, d);
        }
        let mut u_r = vec![0.0f64; pivots.len()];
        for (id, c) in r.iter().enumerate() {
            let (i, d) = nearest(&point(id, c));
            u_r[i] = u_r[i].max(d);
        }
        let pivot_distances = crate::summary::pivot_distance_matrix(&pivots, metric);
        (s_parts, pivot_distances, u_r)
    }

    /// Asserts that Algorithm 1 over the cell's `T_S` (each partition's `k`
    /// smallest pivot distances) gives the full sort's `θ_i` bit for bit, for
    /// every pivot: `ub` is monotone in `|p_j, s|`, so no `ub` outside a
    /// partition's `k` smallest can be among the cell's `k` smallest.
    fn assert_cell_theta_is_the_full_sort(
        pivots: &[u32],
        s: &[u32],
        r: &[u32],
        k: usize,
        metric: DistanceMetric,
    ) {
        let (s_parts, pivot_distances, u_r) = grid_cell(pivots, s, r, metric);
        let t_s: Vec<SPartitionSummary> = s_parts
            .iter()
            .map(|(&j, bucket)| summarize_flat_partition(j, bucket, k))
            .collect();
        for i in 0..pivots.len() {
            let want = full_sort_theta(u_r[i], &pivot_distances[i], &s_parts, k);
            let got = bounding_knn_theta(u_r[i], &t_s, &pivot_distances[i], k);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{metric:?}, k = {k}, S = {s:?}, partition {i}"
            );
            assert_eq!(want.is_infinite(), s.len() < k);
        }
    }

    #[test]
    fn cell_theta_edge_cases_match_the_full_sort() {
        // Pivots at (0, 0) and (4, 4); R at (1, 1) and (3, 3); k = 3.
        let cases: [&[u32]; 4] = [
            // No S object at all, and fewer than k objects in one partition.
            &[],
            &[1],
            // Four ties at distance 1 around the first pivot, one partition.
            &[1, 8, 1, 8],
            // Both partitions, each holding fewer than k objects.
            &[1, 8, 44, 37, 36],
        ];
        for s in cases {
            assert_cell_theta_is_the_full_sort(&[0, 36], s, &[9, 27], 3, DistanceMetric::Euclidean);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn cell_theta_is_the_full_sort_bit_for_bit(
            pivots in collection::vec(0u32..64, 1..5),
            s in collection::vec(0u32..64, 0..40),
            r in collection::vec(0u32..64, 1..20),
            k in 1usize..12,
            which_metric in 0usize..3,
        ) {
            let metric = [
                DistanceMetric::Euclidean,
                DistanceMetric::Manhattan,
                DistanceMetric::Chebyshev,
            ][which_metric];
            assert_cell_theta_is_the_full_sort(&pivots, &s, &r, k, metric);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn pbj_equals_exact_join(
            n_r in 10usize..100,
            n_s in 10usize..100,
            k in 1usize..10,
            pivot_count in 1usize..12,
            reducers in 1usize..10,
            seed in 0u64..100,
            which_metric in 0usize..3,
        ) {
            let r = uniform(n_r, 2, 80.0, seed);
            let s = uniform(n_s, 2, 80.0, seed ^ 0x99);
            let metric = [
                DistanceMetric::Euclidean,
                DistanceMetric::Manhattan,
                DistanceMetric::Chebyshev,
            ][which_metric];
            let expected = NestedLoopJoin.join(&r, &s, k, metric).unwrap();
            let got = Pbj::new(PbjConfig { pivot_count, reducers, map_tasks: 3, ..Default::default() })
                .join(&r, &s, k, metric)
                .unwrap();
            prop_assert!(got.matches(&expected, 1e-9), "{:?}", got.mismatch_against(&expected, 1e-9));
        }
    }
}
