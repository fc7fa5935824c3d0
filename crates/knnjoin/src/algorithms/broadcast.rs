//! The "basic strategy" of Section 3: partition `R` into `N` disjoint subsets
//! and broadcast the *entire* `S` to every reducer.
//!
//! The paper introduces this strategy only to dismiss it — its shuffling cost
//! is `|R| + N·|S|` and every reducer joins its `R` subset against all of `S`
//! — but it is the natural naive MapReduce formulation and serves both as a
//! correctness oracle with a different code path and as the upper anchor for
//! the shuffle-cost comparisons.  A single job suffices (no merge phase),
//! since every reducer sees all of `S`.

use crate::algorithms::common::{counters, Record, RecordKind};
use crate::algorithms::KnnJoinAlgorithm;
use crate::context::ExecutionContext;
use crate::exact::validate_inputs;
use crate::metrics::{phases, JoinMetrics};
use crate::result::{JoinError, JoinResult, JoinRow};
use geom::{CoordMatrix, DistanceMetric, Neighbor, NeighborList, Point, PointSet};
use mapreduce::{IdentityPartitioner, JobBuilder, MapContext, Mapper, ReduceContext, Reducer};
use std::marker::PhantomData;
use std::time::Instant;

/// Configuration of [`BroadcastJoin`].
#[derive(Debug, Clone)]
pub struct BroadcastJoinConfig {
    /// Number of reducers; `R` is split into this many subsets.
    pub reducers: usize,
    /// Number of map tasks.
    pub map_tasks: usize,
}

impl Default for BroadcastJoinConfig {
    fn default() -> Self {
        Self {
            reducers: 4,
            map_tasks: 8,
        }
    }
}

/// The naive broadcast kNN join (the paper's "basic strategy").
#[derive(Debug, Clone, Default)]
pub struct BroadcastJoin {
    config: BroadcastJoinConfig,
}

impl BroadcastJoin {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: BroadcastJoinConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BroadcastJoinConfig {
        &self.config
    }

    fn validate(&self) -> Result<(), JoinError> {
        if self.config.reducers == 0 {
            return Err(JoinError::ZeroReducers);
        }
        if self.config.map_tasks == 0 {
            return Err(JoinError::ZeroMapTasks);
        }
        Ok(())
    }
}

impl KnnJoinAlgorithm for BroadcastJoin {
    fn name(&self) -> &'static str {
        "Broadcast"
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

        let mut input = Vec::with_capacity(r.len() + s.len());
        for p in r {
            input.push((p.id, Record::new(RecordKind::R, 0, 0.0, p)));
        }
        for p in s {
            input.push((p.id, Record::new(RecordKind::S, 0, 0.0, p)));
        }

        let start = Instant::now();
        let job = JobBuilder::new("broadcast-join")
            .reducers(self.config.reducers)
            .map_tasks(self.config.map_tasks)
            .workers(ctx.workers())
            .run_with_partitioner(
                input,
                &BroadcastMapper {
                    reducers: self.config.reducers,
                    records: PhantomData,
                },
                &BroadcastReducer {
                    k,
                    metric,
                    records: PhantomData,
                },
                &IdentityPartitioner,
            )
            .map_err(|e| JoinError::substrate("broadcast-join", e))?;
        metrics.record_phase(phases::KNN_JOIN, start.elapsed());
        metrics.absorb_job(&job.metrics);

        let rows = job
            .output
            .into_iter()
            .map(|(r_id, neighbors)| JoinRow { r_id, neighbors })
            .collect();
        let mut result = JoinResult { rows, metrics };
        result.normalize();
        Ok(result)
    }
}

/// Mapper: `R` objects go to one reducer (hash of their id); `S` objects are
/// broadcast to every reducer.
struct BroadcastMapper<'a> {
    reducers: usize,
    records: PhantomData<Record<'a>>,
}

impl<'a> Mapper for BroadcastMapper<'a> {
    type KIn = u64;
    type VIn = Record<'a>;
    type KOut = u32;
    type VOut = Record<'a>;

    fn map(&self, key: &u64, record: &Record<'a>, ctx: &mut MapContext<u32, Record<'a>>) {
        match record.kind {
            RecordKind::R => {
                ctx.counters().increment(counters::R_RECORDS);
                ctx.emit((key % self.reducers as u64) as u32, *record);
            }
            RecordKind::S => {
                for reducer in 0..self.reducers as u32 {
                    ctx.counters().increment(counters::S_RECORDS);
                    ctx.emit(reducer, *record);
                }
            }
        }
    }
}

/// Reducer: exhaustive scan of the full `S` for every local `r`.
struct BroadcastReducer<'a> {
    k: usize,
    metric: DistanceMetric,
    records: PhantomData<Record<'a>>,
}

impl<'a> Reducer for BroadcastReducer<'a> {
    type KIn = u32;
    type VIn = Record<'a>;
    type KOut = u64;
    type VOut = Vec<Neighbor>;

    fn reduce(
        &self,
        _key: &u32,
        values: &[Record<'a>],
        ctx: &mut ReduceContext<u64, Vec<Neighbor>>,
    ) {
        let mut r_block: Vec<&Point> = Vec::new();
        let mut s_block: Vec<&Point> = Vec::new();
        for record in values {
            match record.kind {
                RecordKind::R => r_block.push(record.point),
                RecordKind::S => s_block.push(record.point),
            }
        }
        // Flatten S once: the block is scanned |R_block| times, so the
        // columnar layout and hoisted kernel pay for themselves immediately.
        let dims = s_block.first().map_or(0, |p| p.dims());
        let mut s_coords = CoordMatrix::with_capacity(dims, s_block.len());
        for p in &s_block {
            s_coords.push_row(&p.coords);
        }
        let kernel = self.metric.kernel();
        for r_obj in r_block {
            let mut list = NeighborList::new(self.k);
            for (i, row) in s_coords.rows().enumerate() {
                list.offer(s_block[i].id, kernel(&r_obj.coords, row));
            }
            ctx.counters()
                .add(counters::DISTANCE_COMPUTATIONS, s_block.len() as u64);
            ctx.emit(r_obj.id, list.into_sorted());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::NestedLoopJoin;
    use datagen::uniform;
    use proptest::prelude::*;

    #[test]
    fn matches_exact_join() {
        let r = uniform(150, 3, 50.0, 1);
        let s = uniform(200, 3, 50.0, 2);
        let metric = DistanceMetric::Euclidean;
        let exact = NestedLoopJoin.join(&r, &s, 7, metric).unwrap();
        let got = BroadcastJoin::new(BroadcastJoinConfig {
            reducers: 5,
            ..Default::default()
        })
        .join(&r, &s, 7, metric)
        .unwrap();
        assert!(
            got.matches(&exact, 1e-9),
            "{:?}",
            got.mismatch_against(&exact, 1e-9)
        );
    }

    #[test]
    fn shuffle_cost_is_r_plus_n_times_s() {
        // The defining property of the basic strategy (Section 3).
        let r = uniform(100, 2, 50.0, 3);
        let s = uniform(80, 2, 50.0, 4);
        let reducers = 6;
        let result = BroadcastJoin::new(BroadcastJoinConfig {
            reducers,
            ..Default::default()
        })
        .join(&r, &s, 3, DistanceMetric::Euclidean)
        .unwrap();
        assert_eq!(result.metrics.r_records_shuffled, 100);
        assert_eq!(result.metrics.s_records_shuffled, 80 * reducers as u64);
        // Every (r, s) pair is computed exactly once: selectivity is 1.
        assert_eq!(result.metrics.distance_computations, 100 * 80);
        assert!((result.metrics.computation_selectivity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn broadcast_ships_more_than_pgbj_on_clustered_data() {
        let data = datagen::gaussian_clusters(
            &datagen::ClusterConfig {
                n_points: 400,
                dims: 2,
                n_clusters: 5,
                std_dev: 3.0,
                extent: 200.0,
                skew: 0.3,
            },
            9,
        );
        let metric = DistanceMetric::Euclidean;
        let broadcast = BroadcastJoin::new(BroadcastJoinConfig {
            reducers: 8,
            ..Default::default()
        })
        .join(&data, &data, 10, metric)
        .unwrap();
        let pgbj = crate::algorithms::Pgbj::new(crate::algorithms::PgbjConfig {
            pivot_count: 24,
            reducers: 8,
            ..Default::default()
        })
        .join(&data, &data, 10, metric)
        .unwrap();
        assert!(broadcast.metrics.shuffle_bytes > pgbj.metrics.shuffle_bytes);
        assert!(broadcast.metrics.distance_computations > pgbj.metrics.distance_computations);
        assert!(broadcast.matches(&pgbj, 1e-9));
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let r = uniform(10, 2, 1.0, 0);
        let s = uniform(10, 2, 1.0, 1);
        assert!(matches!(
            BroadcastJoin::new(BroadcastJoinConfig {
                reducers: 0,
                ..Default::default()
            })
            .join(&r, &s, 2, DistanceMetric::Euclidean)
            .unwrap_err(),
            JoinError::ZeroReducers
        ));
        assert!(matches!(
            BroadcastJoin::new(BroadcastJoinConfig {
                reducers: 1,
                map_tasks: 0
            })
            .join(&r, &s, 2, DistanceMetric::Euclidean)
            .unwrap_err(),
            JoinError::ZeroMapTasks
        ));
        assert_eq!(BroadcastJoin::default().name(), "Broadcast");
        assert_eq!(BroadcastJoin::default().config().reducers, 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn broadcast_equals_exact_join(
            n_r in 5usize..60,
            n_s in 5usize..60,
            k in 1usize..8,
            reducers in 1usize..8,
            seed in 0u64..50,
        ) {
            let r = uniform(n_r, 2, 40.0, seed);
            let s = uniform(n_s, 2, 40.0, seed ^ 0x31);
            let metric = DistanceMetric::Euclidean;
            let exact = NestedLoopJoin.join(&r, &s, k, metric).unwrap();
            let got = BroadcastJoin::new(BroadcastJoinConfig { reducers, map_tasks: 2 })
                .join(&r, &s, k, metric)
                .unwrap();
            prop_assert!(got.matches(&exact, 1e-9));
        }
    }
}
