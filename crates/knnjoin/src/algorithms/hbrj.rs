//! H-BRJ — the block-based R-tree baseline (Zhang et al., EDBT 2012),
//! described in Section 3 and used as the main competitor in Section 6.
//!
//! `R` and `S` are split into `B = ⌊√N⌋` random blocks each; every reducer
//! receives one `(R_i, S_j)` pair, probes an R-tree over `S_j` and answers a
//! kNN query for every `r ∈ R_i`; a second MapReduce job merges the `B`
//! partial lists of every `r` into the final `k` nearest neighbours.
//!
//! The `B` cells of one column all receive the *same* `S_j` block (the route
//! mapper replicates each `S` record across its column), so the tree over
//! `S_j` is built once — by whichever cell of the column reduces first — and
//! shared, instead of being bulk-loaded `B` times from identical input.  The
//! engine delivers one column's `S` values in the same order to every cell
//! (map-task order, then emission order), so the shared tree is bit-identical
//! to the per-cell trees it replaces and the join output and distance
//! counters are unchanged; only the number of bulk loads drops from `B²` to
//! `B` (the `index_builds` metric).

use crate::algorithms::blocks::{block_count, run_block_framework};
use crate::algorithms::common::{
    counters, probe_in_chunks, NeighborListValue, Record, RecordKind, ScanCounts,
};
use crate::algorithms::KnnJoinAlgorithm;
use crate::context::ExecutionContext;
use crate::delta::DeltaOverlay;
use crate::exact::validate_inputs;
use crate::metrics::JoinMetrics;
use crate::result::{JoinError, JoinResult, JoinRow};
use geom::{DistanceMetric, Neighbor, NeighborList, Point, PointSet};
use mapreduce::{ReduceContext, Reducer};
use spatial::RTree;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};

/// Configuration of [`Hbrj`].
#[derive(Debug, Clone)]
pub struct HbrjConfig {
    /// Number of reducers ("computing nodes").  The framework uses
    /// `⌊√reducers⌋²` of them for the join job.
    pub reducers: usize,
    /// Number of map tasks.
    pub map_tasks: usize,
    /// R-tree fanout used by the per-reducer index.
    pub rtree_fanout: usize,
}

impl Default for HbrjConfig {
    fn default() -> Self {
        Self {
            reducers: 4,
            map_tasks: 8,
            rtree_fanout: RTree::DEFAULT_FANOUT,
        }
    }
}

/// The H-BRJ baseline algorithm.
#[derive(Debug, Clone, Default)]
pub struct Hbrj {
    config: HbrjConfig,
}

impl Hbrj {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: HbrjConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &HbrjConfig {
        &self.config
    }

    fn validate(&self) -> Result<(), JoinError> {
        if self.config.reducers == 0 {
            return Err(JoinError::ZeroReducers);
        }
        if self.config.map_tasks == 0 {
            return Err(JoinError::ZeroMapTasks);
        }
        if self.config.rtree_fanout < 2 {
            return Err(JoinError::InvalidConfig(
                "rtree_fanout must be at least 2".into(),
            ));
        }
        Ok(())
    }
}

impl KnnJoinAlgorithm for Hbrj {
    fn name(&self) -> &'static str {
        "H-BRJ"
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
        let mut metrics = JoinMetrics {
            r_size: r.len(),
            s_size: s.len(),
            ..Default::default()
        };

        // H-BRJ has no preprocessing: the map job replicates raw records
        // that borrow the input points (no dataset-sized clone).
        let mut input = Vec::with_capacity(r.len() + s.len());
        for p in r {
            input.push((p.id, Record::new(RecordKind::R, 0, 0.0, p)));
        }
        for p in s {
            input.push((p.id, Record::new(RecordKind::S, 0, 0.0, p)));
        }

        let blocks = block_count(self.config.reducers);
        let reducer = HbrjCellReducer {
            k,
            metric,
            fanout: self.config.rtree_fanout,
            blocks,
            s_trees: (0..blocks).map(|_| OnceLock::new()).collect(),
            records: PhantomData,
        };
        let rows = run_block_framework(
            input,
            k,
            self.config.reducers,
            self.config.map_tasks,
            ctx.workers(),
            &reducer,
            &mut metrics,
        )?;

        let mut result = JoinResult { rows, metrics };
        result.normalize();
        Ok(result)
    }
}

/// Reducer for one `(R_i, S_j)` cell: a shared R-tree over `S_j` (built by
/// the column's first cell, reused by the rest), best-first kNN per
/// `r ∈ R_i`.
struct HbrjCellReducer<'a> {
    k: usize,
    metric: DistanceMetric,
    fanout: usize,
    /// `B`, the number of blocks per dataset; cell `c` joins `S` block
    /// `c % B`.
    blocks: usize,
    /// One lazily built tree per `S` block, shared across the column's cells.
    s_trees: Vec<OnceLock<Arc<RTree>>>,
    records: PhantomData<Record<'a>>,
}

impl<'a> Reducer for HbrjCellReducer<'a> {
    type KIn = u32;
    type VIn = Record<'a>;
    type KOut = u64;
    type VOut = NeighborListValue;

    fn reduce(
        &self,
        cell: &u32,
        values: &[Record<'a>],
        ctx: &mut ReduceContext<u64, NeighborListValue>,
    ) {
        let mut r_block: Vec<&Point> = Vec::new();
        let mut s_block: Vec<Point> = Vec::new();
        let s_slot = &self.s_trees[*cell as usize % self.blocks];
        let tree_cached = s_slot.get().is_some();
        for record in values {
            match record.kind {
                RecordKind::R => r_block.push(record.point),
                // The tree owns its points. Once another cell of this column
                // has built the (identical) tree, the block is not collected.
                RecordKind::S if !tree_cached => s_block.push(record.point.clone()),
                RecordKind::S => {}
            }
        }
        if r_block.is_empty() {
            return;
        }
        // Even with an empty S block every r must produce a (possibly empty)
        // candidate list so the merge job emits a row for it.
        let tree = s_slot.get_or_init(|| {
            ctx.counters().increment(counters::INDEX_BUILDS);
            Arc::new(RTree::bulk_load_with_fanout(
                s_block,
                self.metric,
                self.fanout,
            ))
        });
        for r_obj in r_block {
            let (neighbors, computations) = tree.knn_counted(r_obj, self.k);
            ctx.counters()
                .add(counters::DISTANCE_COMPUTATIONS, computations);
            ctx.emit(r_obj.id, NeighborListValue::new(neighbors));
        }
    }
}

// ---------------------------------------------------------------------------
// Prepared (build/probe) serving path
// ---------------------------------------------------------------------------

/// The prepared H-BRJ state: the `B = ⌊√N⌋` per-block R-trees, bulk-loaded
/// once at build time.  A probe searches all `B` resident trees per object
/// and keeps the global top-`k` — no per-query tree builds (`index_builds`
/// stays flat), no shuffle and no merge job.
#[derive(Debug)]
pub(crate) struct HbrjPrepared {
    trees: Vec<Arc<RTree>>,
}

impl HbrjPrepared {
    /// Splits `S` into the same `id mod B` blocks as the cold path and
    /// bulk-loads one tree per block.
    pub(crate) fn build(
        s: &PointSet,
        plan: &crate::plan::JoinPlan,
        metrics: &mut JoinMetrics,
    ) -> Self {
        use crate::metrics::phases;
        let start = std::time::Instant::now();
        let blocks = block_count(plan.reducers);
        let mut block_points: Vec<Vec<Point>> = vec![Vec::new(); blocks];
        for p in s {
            block_points[(p.id % blocks as u64) as usize].push(p.clone());
        }
        let trees = block_points
            .into_iter()
            .map(|block| {
                Arc::new(RTree::bulk_load_with_fanout(
                    block,
                    plan.metric,
                    plan.rtree_fanout,
                ))
            })
            .collect();
        metrics.index_builds += blocks as u64;
        metrics.record_phase(phases::PREPARE_BUILD, start.elapsed());
        Self { trees }
    }

    /// Answers one probe batch directly over the resident trees (merged with
    /// the delta overlay when one is present), split across the worker pool.
    pub(crate) fn probe(
        &self,
        r: &PointSet,
        plan: &crate::plan::JoinPlan,
        workers: usize,
        delta: Option<&DeltaOverlay>,
        metrics: &mut JoinMetrics,
    ) -> Vec<JoinRow> {
        probe_in_chunks(r, workers, metrics, |_, chunk, counts| {
            chunk
                .iter()
                .map(|r_obj| JoinRow {
                    r_id: r_obj.id,
                    neighbors: self.probe_point(r_obj, plan.k, plan.metric, delta, counts),
                })
                .collect()
        })
    }

    /// Best-first kNN of one object against every resident block tree,
    /// merged into the global top-`k`.
    fn probe_point(
        &self,
        r_obj: &Point,
        k: usize,
        metric: DistanceMetric,
        delta: Option<&DeltaOverlay>,
        counts: &mut ScanCounts,
    ) -> Vec<Neighbor> {
        let Some(overlay) = delta else {
            // One shared accumulator across the block trees: the k-th
            // distance found in earlier trees prunes later ones, which the
            // cold path's independent per-cell searches cannot do.
            let mut list = NeighborList::new(k);
            for tree in &self.trees {
                counts.frozen += tree.knn_into(r_obj, &mut list);
            }
            return list.into_sorted();
        };
        // The trees still index tombstoned objects, so up to
        // t = |tombstones| of the best frozen hits may be dead.  Oversampling
        // to k + t guarantees the top-(k + t) frozen candidates contain the
        // top-k *live* frozen candidates; tombstones are masked afterwards
        // and the survivors are re-ranked together with the memtable's adds.
        let mut frozen = NeighborList::new(k + overlay.tombstones_len());
        for tree in &self.trees {
            counts.frozen += tree.knn_into(r_obj, &mut frozen);
        }
        let kernel = metric.kernel();
        let mut list = NeighborList::new(k);
        for (id, coords) in overlay.adds() {
            list.offer(id, kernel(&r_obj.coords, coords));
            counts.delta += 1;
        }
        for n in frozen.into_sorted() {
            if overlay.is_tombstoned(n.id) {
                counts.masked += 1;
                continue;
            }
            list.offer(n.id, n.distance);
        }
        list.into_sorted()
    }

    /// Folds a delta overlay into the resident trees, rebuilding *only* the
    /// `id mod B` blocks the delta touches from the materialized corpus;
    /// untouched trees are `Arc`-shared into the new state.  Block
    /// membership is a pure function of the id, so the rebuilt blocks hold
    /// exactly what a cold build over the materialized corpus would load —
    /// in the same order, since both iterate the corpus front to back.
    pub(crate) fn compact(
        &self,
        materialized: &PointSet,
        delta: &DeltaOverlay,
        plan: &crate::plan::JoinPlan,
        metrics: &mut JoinMetrics,
    ) -> Self {
        let blocks = self.trees.len();
        let affected: std::collections::BTreeSet<usize> = delta
            .adds()
            .map(|(id, _)| id)
            .chain(delta.tombstones())
            .map(|id| (id % blocks as u64) as usize)
            .collect();
        let mut trees = self.trees.clone();
        for &b in &affected {
            let block: Vec<Point> = materialized
                .iter()
                .filter(|p| (p.id % blocks as u64) as usize == b)
                .cloned()
                .collect();
            metrics.compacted_points += block.len() as u64;
            metrics.index_builds += 1;
            trees[b] = Arc::new(RTree::bulk_load_with_fanout(
                block,
                plan.metric,
                plan.rtree_fanout,
            ));
        }
        Self { trees }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::NestedLoopJoin;
    use datagen::{gaussian_clusters, uniform, ClusterConfig};
    use proptest::prelude::*;

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

    fn check_matches_exact(r: &PointSet, s: &PointSet, k: usize, config: HbrjConfig) {
        let metric = DistanceMetric::Euclidean;
        let expected = NestedLoopJoin.join(r, s, k, metric).unwrap();
        let got = Hbrj::new(config).join(r, s, k, metric).unwrap();
        if let Some(msg) = got.mismatch_against(&expected, 1e-9) {
            panic!("H-BRJ result differs from exact join: {msg}");
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
            HbrjConfig {
                reducers: 9,
                ..Default::default()
            },
        );
    }

    #[test]
    fn matches_exact_with_non_square_reducer_count() {
        let r = uniform(150, 3, 50.0, 3);
        let s = uniform(200, 3, 50.0, 4);
        check_matches_exact(
            &r,
            &s,
            5,
            HbrjConfig {
                reducers: 7,
                ..Default::default()
            },
        );
    }

    #[test]
    fn matches_exact_for_self_join_and_small_k() {
        let data = clustered(250, 5);
        check_matches_exact(
            &data,
            &data,
            1,
            HbrjConfig {
                reducers: 4,
                ..Default::default()
            },
        );
    }

    #[test]
    fn matches_exact_when_k_exceeds_s() {
        let r = uniform(30, 2, 20.0, 6);
        let s = uniform(5, 2, 20.0, 7);
        check_matches_exact(
            &r,
            &s,
            9,
            HbrjConfig {
                reducers: 4,
                ..Default::default()
            },
        );
    }

    #[test]
    fn replication_is_sqrt_n_per_object() {
        let r = clustered(200, 8);
        let s = clustered(200, 9);
        let res = Hbrj::new(HbrjConfig {
            reducers: 9,
            ..Default::default()
        })
        .join(&r, &s, 5, DistanceMetric::Euclidean)
        .unwrap();
        // B = 3: every R and S object is sent to exactly 3 reducer cells.
        assert_eq!(res.metrics.r_records_shuffled, 600);
        assert_eq!(res.metrics.s_records_shuffled, 600);
        assert!((res.metrics.average_replication() - 3.0).abs() < 1e-9);
        assert!(res.metrics.shuffle_bytes > 0);
        assert!(res.metrics.distance_computations > 0);
    }

    #[test]
    fn s_block_trees_are_built_once_per_block_not_once_per_cell() {
        let r = clustered(240, 12);
        let s = clustered(260, 13);
        let k = 6;
        let metric = DistanceMetric::Euclidean;
        let reducers = 16; // B = 4 blocks, 16 cells
        let res = Hbrj::new(HbrjConfig {
            reducers,
            ..Default::default()
        })
        .join(&r, &s, k, metric)
        .unwrap();

        // √n tree builds: one per distinct S block, not one per (R_i, S_j)
        // cell.
        let blocks = crate::algorithms::blocks::block_count(reducers) as u64;
        assert_eq!(res.metrics.index_builds, blocks);

        // The shared trees change nothing observable: the output still
        // matches the exact oracle, and the distance counters equal what
        // independently built per-block trees produce (each r probes every
        // S block exactly once).
        let expected = NestedLoopJoin.join(&r, &s, k, metric).unwrap();
        assert!(
            res.matches(&expected, 1e-9),
            "{:?}",
            res.mismatch_against(&expected, 1e-9)
        );
        let mut reference_computations = 0u64;
        for j in 0..blocks {
            let s_block: Vec<Point> = s.iter().filter(|p| p.id % blocks == j).cloned().collect();
            let tree = RTree::bulk_load_with_fanout(s_block, metric, RTree::DEFAULT_FANOUT);
            for r_obj in &r {
                reference_computations += tree.knn_counted(r_obj, k).1;
            }
        }
        assert_eq!(res.metrics.distance_computations, reference_computations);
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let r = uniform(10, 2, 1.0, 0);
        let s = uniform(10, 2, 1.0, 1);
        assert!(matches!(
            Hbrj::new(HbrjConfig {
                reducers: 0,
                ..Default::default()
            })
            .join(&r, &s, 2, DistanceMetric::Euclidean)
            .unwrap_err(),
            JoinError::ZeroReducers
        ));
        assert!(matches!(
            Hbrj::new(HbrjConfig {
                map_tasks: 0,
                ..Default::default()
            })
            .join(&r, &s, 2, DistanceMetric::Euclidean)
            .unwrap_err(),
            JoinError::ZeroMapTasks
        ));
        assert!(matches!(
            Hbrj::new(HbrjConfig {
                rtree_fanout: 1,
                ..Default::default()
            })
            .join(&r, &s, 2, DistanceMetric::Euclidean)
            .unwrap_err(),
            JoinError::InvalidConfig(_)
        ));
        assert_eq!(Hbrj::default().name(), "H-BRJ");
        assert_eq!(Hbrj::default().config().reducers, 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn hbrj_equals_exact_join(
            n_r in 10usize..100,
            n_s in 10usize..100,
            k in 1usize..10,
            reducers in 1usize..10,
            seed in 0u64..100,
        ) {
            let r = uniform(n_r, 2, 80.0, seed);
            let s = uniform(n_s, 2, 80.0, seed ^ 0x77);
            let metric = DistanceMetric::Euclidean;
            let expected = NestedLoopJoin.join(&r, &s, k, metric).unwrap();
            let got = Hbrj::new(HbrjConfig { reducers, map_tasks: 3, ..Default::default() })
                .join(&r, &s, k, metric)
                .unwrap();
            prop_assert!(got.matches(&expected, 1e-9), "{:?}", got.mismatch_against(&expected, 1e-9));
        }
    }
}
