//! PGBJ — the Partitioning and Grouping Based kNN Join (Sections 4 and 5).
//!
//! The algorithm runs as a preprocessing step plus two MapReduce jobs:
//!
//! 1. **Preprocessing** (driver): select pivots from `R`.
//! 2. **Job 1 — partitioning**: every object of `R ∪ S` is assigned to the
//!    Voronoi cell of its closest pivot; the reducers collect the partitioned
//!    data, from which the driver builds the summary tables `T_R` / `T_S`
//!    ("index merging" in Figure 6).
//! 3. **Grouping** (driver): Voronoi cells of `R` are merged into one group
//!    per reducer with the geometric or greedy strategy, and the replica
//!    lower bounds `LB(P_j^S, G_i)` are precomputed (Algorithm 2).
//! 4. **Job 2 — the join**: mappers route every `r` to its group and every `s`
//!    to all groups whose bound cannot exclude it (Theorem 6); each reducer
//!    runs the bounded nested-loop join of Algorithm 3 over its group.

use crate::algorithms::common::{
    bounded_knn_scan, counters, order_s_partitions, split_reducer_records, Record, RecordKind,
};
use crate::algorithms::KnnJoinAlgorithm;
use crate::bounds::PartitionBounds;
use crate::context::ExecutionContext;
use crate::exact::validate_inputs;
use crate::grouping::{build_grouping, GroupingStrategy};
use crate::metrics::{phases, JoinMetrics};
use crate::partition::{PartitionedDataset, VoronoiPartitioner};
use crate::pivots::{select_pivots, PivotSelectionStrategy};
use crate::result::{JoinError, JoinResult, JoinRow};
use crate::summary::SummaryTables;
use geom::{DistanceMetric, Neighbor, Point, PointSet};
use mapreduce::{
    ByteSize, IdentityPartitioner, JobBuilder, MapContext, Mapper, ReduceContext, Reducer,
};
use std::marker::PhantomData;
use std::ops::Range;
use std::time::Instant;

/// Configuration of [`Pgbj`].
#[derive(Debug, Clone)]
pub struct PgbjConfig {
    /// Number of pivots (Voronoi cells).  The paper uses 2000–8000 for
    /// multi-million-object datasets; scale proportionally to the data.
    pub pivot_count: usize,
    /// How pivots are chosen from `R`.
    pub pivot_strategy: PivotSelectionStrategy,
    /// How many objects of `R` the pivot-selection step may look at.
    pub pivot_sample_size: usize,
    /// How Voronoi cells are merged into reducer groups.
    pub grouping_strategy: GroupingStrategy,
    /// Number of reducers ("computing nodes"); also the number of groups.
    pub reducers: usize,
    /// Number of map tasks for both jobs.
    pub map_tasks: usize,
    /// Seed for pivot selection (experiments fix it for reproducibility).
    pub seed: u64,
}

impl Default for PgbjConfig {
    fn default() -> Self {
        Self {
            pivot_count: 32,
            pivot_strategy: PivotSelectionStrategy::default(),
            pivot_sample_size: 10_000,
            grouping_strategy: GroupingStrategy::Geometric,
            reducers: 4,
            map_tasks: 8,
            seed: 0xC0FFEE,
        }
    }
}

/// The PGBJ algorithm.
#[derive(Debug, Clone, Default)]
pub struct Pgbj {
    config: PgbjConfig,
}

impl Pgbj {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: PgbjConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PgbjConfig {
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

impl KnnJoinAlgorithm for Pgbj {
    fn name(&self) -> &'static str {
        "PGBJ"
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

        // ---- Preprocessing: pivot selection -------------------------------
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

        // ---- Job 1: Voronoi partitioning of R ∪ S -------------------------
        let start = Instant::now();
        let partitioner = VoronoiPartitioner::new(pivots.clone(), metric);
        let job1 = JobBuilder::new("pgbj-partition")
            .reducers(cfg.reducers)
            .map_tasks(cfg.map_tasks)
            .workers(ctx.workers())
            .run(
                build_job1_input(r, s, cfg.map_tasks),
                &PartitionMapper {
                    partitioner: &partitioner,
                    r,
                    s,
                },
                &CollectPartitionReducer(PhantomData),
            )
            .map_err(|e| JoinError::substrate("pgbj-partition", e))?;
        let (partitioned_r, partitioned_s) = assemble_partitions(job1.output, pivots.len());
        metrics.absorb_job(&job1.metrics);
        metrics.record_phase(phases::DATA_PARTITIONING, start.elapsed());

        // ---- Index merging: summary tables --------------------------------
        let start = Instant::now();
        let tables = SummaryTables::build(pivots, metric, &partitioned_r, &partitioned_s, k);
        metrics.record_phase(phases::INDEX_MERGING, start.elapsed());

        // ---- Grouping and replica bounds (Algorithm 2) ---------------------
        let start = Instant::now();
        let bounds = PartitionBounds::compute(&tables, k);
        let grouping = build_grouping(cfg.grouping_strategy, &tables, &bounds, cfg.reducers);
        let group_lb = bounds.group_lower_bounds(&grouping);
        let group_of = grouping.group_of(tables.partition_count());
        metrics.record_phase(phases::PARTITION_GROUPING, start.elapsed());

        // ---- Job 2: the kNN join (Algorithm 3) ------------------------------
        let start = Instant::now();
        let job2_input = build_job2_input(&partitioned_r, &partitioned_s);
        let join_reducer = PgbjJoinReducer {
            tables: &tables,
            theta: &bounds.theta,
            k,
            metric,
        };
        let job2 = JobBuilder::new("pgbj-join")
            .reducers(grouping.group_count())
            .map_tasks(cfg.map_tasks)
            .workers(ctx.workers())
            .run_with_partitioner(
                job2_input,
                &RouteMapper {
                    group_of: &group_of,
                    group_lb: &group_lb,
                },
                &join_reducer,
                &IdentityPartitioner,
            )
            .map_err(|e| JoinError::substrate("pgbj-join", e))?;
        metrics.record_phase(phases::KNN_JOIN, start.elapsed());

        // ---- Collect output and metrics ------------------------------------
        // Both jobs contribute: job 1's partitioning shuffle used to be
        // invisible here, understating the paper's shuffling-cost metric.
        metrics.absorb_job(&job2.metrics);

        let rows = job2
            .output
            .into_iter()
            .map(|(r_id, neighbors)| JoinRow { r_id, neighbors })
            .collect();
        let mut result = JoinResult { rows, metrics };
        result.normalize();
        Ok(result)
    }
}

// ---------------------------------------------------------------------------
// Job 1: partitioning
// ---------------------------------------------------------------------------

/// Job 1's input: the indices `0..|R| + |S|` of `R ∪ S` (`R` first) cut
/// into `map_tasks` contiguous chunks of `⌈(|R| + |S|) / map_tasks⌉` objects,
/// keyed by chunk index.  The engine cuts its map splits on the same
/// boundaries, so each map task receives exactly one chunk, and its mapper
/// reads the points straight from `R` and `S`.
fn build_job1_input(r: &PointSet, s: &PointSet, map_tasks: usize) -> Vec<(u64, Range<usize>)> {
    let n = r.len() + s.len();
    let chunk = n.div_ceil(map_tasks.clamp(1, n.max(1))).max(1);
    (0..n)
        .step_by(chunk)
        .enumerate()
        .map(|(i, first)| (i as u64, first..(first + chunk).min(n)))
        .collect()
}

/// The intermediate value of job 1: a batch of records bound for one Voronoi
/// partition.  A map task ships one batch per partition its chunk touches,
/// so the per-record shuffle framing is paid once per (task, partition)
/// instead of once per object.
#[derive(Debug, Clone, Default, PartialEq)]
struct RecordBatch<'a>(Vec<Record<'a>>);

impl ByteSize for RecordBatch<'_> {
    fn byte_size(&self) -> usize {
        // Exactly the member records: a record's wire form is
        // self-delimiting, so a batch needs no extra framing; the saving is
        // the key each batch shares, not an artifact of batch framing.
        self.0.iter().map(ByteSize::byte_size).sum()
    }
}

/// Mapper of job 1: assign each object of its chunk to its closest pivot via
/// the pruned [`VoronoiPartitioner::nearest_pivot`], crediting the
/// pivot-assignment counter with the distance computations actually spent
/// (the pruned scan usually touches far fewer than `|P|` pivots), then emit
/// one [`RecordBatch`] per touched partition, in partition order
/// ("in-mapper combining").
struct PartitionMapper<'a> {
    partitioner: &'a VoronoiPartitioner,
    r: &'a PointSet,
    s: &'a PointSet,
}

impl<'a> Mapper for PartitionMapper<'a> {
    type KIn = u64;
    type VIn = Range<usize>;
    type KOut = u32;
    type VOut = RecordBatch<'a>;

    fn map(&self, _key: &u64, chunk: &Range<usize>, ctx: &mut MapContext<u32, RecordBatch<'a>>) {
        let mut batches = vec![Vec::new(); self.partitioner.partition_count()];
        let mut computations = 0;
        let (r, s) = (self.r.points(), self.s.points());
        for i in chunk.clone() {
            let (kind, point) = match r.get(i) {
                Some(point) => (RecordKind::R, point),
                None => (RecordKind::S, &s[i - r.len()]),
            };
            let assignment = self.partitioner.nearest_pivot(&point.coords);
            computations += assignment.computations;
            batches[assignment.partition].push(Record::new(
                kind,
                assignment.partition as u32,
                assignment.distance,
                point,
            ));
        }
        ctx.counters()
            .add(counters::PIVOT_ASSIGNMENT_COMPUTATIONS, computations);
        for (partition, batch) in batches.into_iter().enumerate() {
            if !batch.is_empty() {
                ctx.emit(partition as u32, RecordBatch(batch));
            }
        }
    }
}

/// The objects a job-1 reducer collects for one partition.
type PartitionBucket<'a> = (Vec<(&'a Point, f64)>, Vec<(&'a Point, f64)>);

/// Reducer of job 1: collect the objects of each partition, `R` and `S`
/// apart (the partitioned view of the datasets that job 2 will read).
struct CollectPartitionReducer<'a>(PhantomData<Record<'a>>);

impl<'a> Reducer for CollectPartitionReducer<'a> {
    type KIn = u32;
    type VIn = RecordBatch<'a>;
    type KOut = u32;
    type VOut = PartitionBucket<'a>;

    fn reduce(
        &self,
        key: &u32,
        values: &[RecordBatch<'a>],
        ctx: &mut ReduceContext<u32, PartitionBucket<'a>>,
    ) {
        let (mut r, mut s) = (Vec::new(), Vec::new());
        for record in values.iter().flat_map(|batch| &batch.0) {
            let object = (record.point, record.pivot_distance);
            match record.kind {
                RecordKind::R => r.push(object),
                RecordKind::S => s.push(object),
            }
        }
        ctx.emit(*key, (r, s));
    }
}

type Partitioned<'a> = PartitionedDataset<&'a Point>;

fn assemble_partitions(
    output: Vec<(u32, PartitionBucket<'_>)>,
    n_partitions: usize,
) -> (Partitioned<'_>, Partitioned<'_>) {
    let mut pr = PartitionedDataset {
        partitions: vec![Vec::new(); n_partitions],
    };
    let mut ps = PartitionedDataset {
        partitions: vec![Vec::new(); n_partitions],
    };
    for (partition, (r, s)) in output {
        pr.partitions[partition as usize] = r;
        ps.partitions[partition as usize] = s;
    }
    (pr, ps)
}

// ---------------------------------------------------------------------------
// Job 2: routing and the join
// ---------------------------------------------------------------------------

/// Job 2's input: every object of the partitioned `R`, then of the
/// partitioned `S`, in partition order, keyed by partition.
fn build_job2_input<'a>(
    partitioned_r: &Partitioned<'a>,
    partitioned_s: &Partitioned<'a>,
) -> Vec<(u32, Record<'a>)> {
    let mut input = Vec::with_capacity(partitioned_r.len() + partitioned_s.len());
    for (kind, partitioned) in [
        (RecordKind::R, partitioned_r),
        (RecordKind::S, partitioned_s),
    ] {
        for (partition, bucket) in partitioned.partitions.iter().enumerate() {
            let partition = partition as u32;
            for &(point, dist) in bucket {
                input.push((partition, Record::new(kind, partition, dist, point)));
            }
        }
    }
    input
}

/// Mapper of job 2 (Algorithm 3, lines 3–11): `R` objects go to the reducer of
/// their group; `S` objects go to every group whose lower bound admits them.
struct RouteMapper<'a> {
    group_of: &'a [usize],
    group_lb: &'a [Vec<f64>],
}

impl<'a> Mapper for RouteMapper<'a> {
    type KIn = u32;
    type VIn = Record<'a>;
    type KOut = u32;
    type VOut = Record<'a>;

    fn map(&self, key: &u32, record: &Record<'a>, ctx: &mut MapContext<u32, Record<'a>>) {
        let partition = *key as usize;
        match record.kind {
            RecordKind::R => {
                ctx.counters().increment(counters::R_RECORDS);
                ctx.emit(self.group_of[partition] as u32, *record);
            }
            RecordKind::S => {
                for (group, bounds) in self.group_lb.iter().enumerate() {
                    if record.pivot_distance >= bounds[partition] {
                        ctx.counters().increment(counters::S_RECORDS);
                        ctx.emit(group as u32, *record);
                    }
                }
            }
        }
    }
}

/// Reducer of job 2 (Algorithm 3, lines 12–25): the bounded, pruned
/// nested-loop kNN join for one group.
struct PgbjJoinReducer<'a> {
    tables: &'a SummaryTables,
    theta: &'a [f64],
    k: usize,
    metric: DistanceMetric,
}

impl<'a> Reducer for PgbjJoinReducer<'a> {
    type KIn = u32;
    type VIn = Record<'a>;
    type KOut = u64;
    type VOut = Vec<Neighbor>;

    fn reduce(
        &self,
        _group: &u32,
        values: &[Record<'a>],
        ctx: &mut ReduceContext<u64, Vec<Neighbor>>,
    ) {
        // Parse the group's R objects by partition and the received S subset
        // by partition (line 13); S lands in flat structure-of-data storage,
        // which the Algorithm 3 candidate loop scans once per R object.
        let dims = self.tables.pivots.first().map_or(0, |p| p.dims());
        let (r_parts, s_parts) = split_reducer_records(values, dims);

        for (&i, r_bucket) in &r_parts {
            // Sort the S partitions by pivot distance to p_i (line 14): close
            // partitions are likelier to contain near neighbours, which
            // tightens θ early.
            let s_order = order_s_partitions(&s_parts, i, self.tables);
            let theta_i = self.theta[i];

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
                ctx.emit(r_obj.id, neighbors);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::NestedLoopJoin;
    use datagen::{gaussian_clusters, uniform, ClusterConfig};
    use proptest::prelude::*;

    fn clustered(n: usize, dims: usize, seed: u64) -> PointSet {
        gaussian_clusters(
            &ClusterConfig {
                n_points: n,
                dims,
                n_clusters: 6,
                std_dev: 4.0,
                extent: 200.0,
                skew: 0.6,
            },
            seed,
        )
    }

    fn check_matches_exact(r: &PointSet, s: &PointSet, k: usize, config: PgbjConfig) {
        let metric = DistanceMetric::Euclidean;
        let expected = NestedLoopJoin.join(r, s, k, metric).unwrap();
        let got = Pgbj::new(config).join(r, s, k, metric).unwrap();
        if let Some(msg) = got.mismatch_against(&expected, 1e-9) {
            panic!("PGBJ result differs from exact join: {msg}");
        }
    }

    #[test]
    fn matches_exact_on_clustered_data() {
        let r = clustered(400, 2, 1);
        let s = clustered(500, 2, 2);
        check_matches_exact(
            &r,
            &s,
            10,
            PgbjConfig {
                pivot_count: 24,
                reducers: 4,
                ..Default::default()
            },
        );
    }

    #[test]
    fn matches_exact_on_uniform_high_dim() {
        let r = uniform(250, 6, 100.0, 3);
        let s = uniform(300, 6, 100.0, 4);
        check_matches_exact(
            &r,
            &s,
            5,
            PgbjConfig {
                pivot_count: 16,
                reducers: 3,
                ..Default::default()
            },
        );
    }

    #[test]
    fn matches_exact_for_self_join() {
        let data = clustered(350, 3, 5);
        check_matches_exact(
            &data,
            &data,
            8,
            PgbjConfig {
                pivot_count: 20,
                reducers: 5,
                ..Default::default()
            },
        );
    }

    #[test]
    fn matches_exact_with_greedy_grouping_and_other_strategies() {
        let r = clustered(250, 2, 7);
        let s = clustered(250, 2, 8);
        for strategy in [
            PivotSelectionStrategy::Farthest,
            PivotSelectionStrategy::KMeans { iterations: 4 },
        ] {
            check_matches_exact(
                &r,
                &s,
                6,
                PgbjConfig {
                    pivot_count: 12,
                    reducers: 3,
                    pivot_strategy: strategy,
                    grouping_strategy: GroupingStrategy::Greedy,
                    ..Default::default()
                },
            );
        }
    }

    #[test]
    fn matches_exact_when_k_exceeds_s() {
        let r = uniform(40, 2, 50.0, 9);
        let s = uniform(6, 2, 50.0, 10);
        check_matches_exact(
            &r,
            &s,
            10,
            PgbjConfig {
                pivot_count: 4,
                reducers: 2,
                ..Default::default()
            },
        );
    }

    #[test]
    fn matches_exact_with_manhattan_metric() {
        let r = clustered(200, 2, 11);
        let s = clustered(220, 2, 12);
        let metric = DistanceMetric::Manhattan;
        let expected = NestedLoopJoin.join(&r, &s, 7, metric).unwrap();
        let got = Pgbj::new(PgbjConfig {
            pivot_count: 16,
            reducers: 4,
            ..Default::default()
        })
        .join(&r, &s, 7, metric)
        .unwrap();
        assert!(got.matches(&expected, 1e-9));
    }

    #[test]
    fn single_reducer_and_single_pivot_edge_cases() {
        let r = uniform(80, 2, 30.0, 13);
        let s = uniform(90, 2, 30.0, 14);
        check_matches_exact(
            &r,
            &s,
            4,
            PgbjConfig {
                pivot_count: 1,
                reducers: 1,
                ..Default::default()
            },
        );
        check_matches_exact(
            &r,
            &s,
            4,
            PgbjConfig {
                pivot_count: 40,
                reducers: 1,
                ..Default::default()
            },
        );
        check_matches_exact(
            &r,
            &s,
            4,
            PgbjConfig {
                pivot_count: 1,
                reducers: 8,
                ..Default::default()
            },
        );
    }

    #[test]
    fn metrics_are_populated() {
        let r = clustered(300, 2, 15);
        let s = clustered(300, 2, 16);
        let res = Pgbj::new(PgbjConfig {
            pivot_count: 20,
            reducers: 4,
            ..Default::default()
        })
        .join(&r, &s, 10, DistanceMetric::Euclidean)
        .unwrap();
        let m = &res.metrics;
        assert_eq!(m.r_size, 300);
        assert_eq!(m.s_size, 300);
        assert_eq!(m.r_records_shuffled, 300);
        assert!(
            m.s_records_shuffled >= 300,
            "every S object reaches at least one group"
        );
        assert!(m.distance_computations > 0);
        // Job 1 accounts its pruned pivot-assignment work: at least one
        // computation per object, at most the nominal |R ∪ S| · |P| budget.
        assert!(m.pivot_assignment_computations >= 600);
        assert!(m.pivot_assignment_computations <= 600 * 20);
        assert!(m.shuffle_bytes > 0);
        assert!(m.computation_selectivity() > 0.0 && m.computation_selectivity() <= 1.1);
        assert!(m.average_replication() >= 1.0);
        // All five PGBJ phases must be present.
        for phase in [
            phases::PIVOT_SELECTION,
            phases::DATA_PARTITIONING,
            phases::INDEX_MERGING,
            phases::PARTITION_GROUPING,
            phases::KNN_JOIN,
        ] {
            assert!(
                m.phase_times.iter().any(|(n, _)| n == phase),
                "missing phase {phase}"
            );
        }
    }

    /// Test-side oracle of job 1's shuffle: cut `R ∪ S` into the engine's
    /// `map_tasks` contiguous splits, assign every point to its closest
    /// pivot, and count the distinct (split, cell) pairs — one batch each.
    fn expected_job1_batches(
        r: &PointSet,
        s: &PointSet,
        cfg: &PgbjConfig,
        metric: DistanceMetric,
    ) -> u64 {
        let pivots = select_pivots(
            r,
            cfg.pivot_count,
            cfg.pivot_strategy,
            cfg.pivot_sample_size,
            metric,
            cfg.seed,
        );
        let partitioner = VoronoiPartitioner::new(pivots, metric);
        let points: Vec<&Point> = r.iter().chain(s.iter()).collect();
        let chunk = points.len().div_ceil(cfg.map_tasks.min(points.len()));
        points
            .chunks(chunk)
            .map(|split| {
                split
                    .iter()
                    .map(|p| partitioner.nearest_pivot(&p.coords).partition)
                    .collect::<std::collections::BTreeSet<_>>()
                    .len() as u64
            })
            .sum()
    }

    #[test]
    fn job1_ships_one_batch_per_map_task_and_cell() {
        let r = clustered(300, 2, 19);
        let s = clustered(300, 2, 20);
        let cfg = PgbjConfig {
            pivot_count: 20,
            reducers: 4,
            ..Default::default()
        };
        let metric = DistanceMetric::Euclidean;
        let res = Pgbj::new(cfg.clone()).join(&r, &s, 5, metric).unwrap();
        let exact = NestedLoopJoin.join(&r, &s, 5, metric).unwrap();
        assert!(res.matches(&exact, 1e-9));

        let m = &res.metrics;
        let job1_batches = expected_job1_batches(&r, &s, &cfg, metric);
        let job2_records = m.r_records_shuffled + m.s_records_shuffled;
        assert!(job1_batches < 600, "batching merged nothing");
        assert_eq!(m.shuffle_records, job1_batches + job2_records);
        // Job 1 ships every record once plus one u32 cell key per batch; job
        // 2 ships every routed record with its u32 group key.
        let record_bytes = Record::new(RecordKind::R, 0, 0.0, &r.points()[0]).encoded_len() as u64;
        assert_eq!(
            m.shuffle_bytes,
            600 * record_bytes + 4 * job1_batches + job2_records * (record_bytes + 4)
        );
    }

    #[test]
    fn metrics_cover_both_jobs() {
        // The partitioning job shuffles every object of R ∪ S once; its
        // volume must be part of the reported shuffling cost (it used to be
        // silently dropped).
        let r = clustered(200, 2, 21);
        let s = clustered(250, 2, 22);
        let cfg = PgbjConfig {
            pivot_count: 16,
            reducers: 4,
            ..Default::default()
        };
        let metric = DistanceMetric::Euclidean;
        let res = Pgbj::new(cfg.clone()).join(&r, &s, 5, metric).unwrap();
        let m = &res.metrics;
        // Job 1 ships one batch per (map task, cell); job 2 ships the routed
        // records.
        let job1_batches = expected_job1_batches(&r, &s, &cfg, metric);
        let job2_records = m.r_records_shuffled + m.s_records_shuffled;
        assert!(job1_batches < (r.len() + s.len()) as u64);
        assert_eq!(m.shuffle_records, job1_batches + job2_records);
    }

    #[test]
    fn pruning_reduces_selectivity_versus_exhaustive() {
        let r = clustered(400, 2, 17);
        let s = clustered(400, 2, 18);
        let res = Pgbj::new(PgbjConfig {
            pivot_count: 32,
            reducers: 8,
            ..Default::default()
        })
        .join(&r, &s, 10, DistanceMetric::Euclidean)
        .unwrap();
        // The whole point of PGBJ: far fewer than |R|·|S| distance
        // computations on clustered data.
        assert!(
            res.metrics.computation_selectivity() < 0.7,
            "selectivity {} shows no pruning",
            res.metrics.computation_selectivity()
        );
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let r = uniform(10, 2, 1.0, 0);
        let s = uniform(10, 2, 1.0, 1);
        let bad = Pgbj::new(PgbjConfig {
            pivot_count: 0,
            ..Default::default()
        });
        assert!(matches!(
            bad.join(&r, &s, 2, DistanceMetric::Euclidean).unwrap_err(),
            JoinError::InvalidConfig(_)
        ));
        let bad = Pgbj::new(PgbjConfig {
            reducers: 0,
            ..Default::default()
        });
        assert!(matches!(
            bad.join(&r, &s, 2, DistanceMetric::Euclidean).unwrap_err(),
            JoinError::ZeroReducers
        ));
        let bad = Pgbj::new(PgbjConfig {
            map_tasks: 0,
            ..Default::default()
        });
        assert!(matches!(
            bad.join(&r, &s, 2, DistanceMetric::Euclidean).unwrap_err(),
            JoinError::ZeroMapTasks
        ));
        assert!(matches!(
            Pgbj::default()
                .join(&r, &s, 0, DistanceMetric::Euclidean)
                .unwrap_err(),
            JoinError::InvalidK
        ));
    }

    #[test]
    fn name_and_config_accessors() {
        let alg = Pgbj::default();
        assert_eq!(alg.name(), "PGBJ");
        assert_eq!(alg.config().reducers, 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// The central correctness property: PGBJ equals the exact join for
        /// arbitrary data, k, pivot counts and reducer counts.
        #[test]
        fn pgbj_equals_exact_join(
            n_r in 10usize..120,
            n_s in 10usize..120,
            k in 1usize..12,
            pivot_count in 1usize..16,
            reducers in 1usize..6,
            dims in 1usize..4,
            seed in 0u64..200,
            which_metric in 0usize..3,
        ) {
            let r = uniform(n_r, dims, 100.0, seed);
            let s = uniform(n_s, dims, 100.0, seed ^ 0x5555);
            let metric = [
                DistanceMetric::Euclidean,
                DistanceMetric::Manhattan,
                DistanceMetric::Chebyshev,
            ][which_metric];
            let expected = NestedLoopJoin.join(&r, &s, k, metric).unwrap();
            let got = Pgbj::new(PgbjConfig {
                pivot_count,
                reducers,
                map_tasks: 3,
                ..Default::default()
            })
            .join(&r, &s, k, metric)
            .unwrap();
            prop_assert!(got.matches(&expected, 1e-9), "{:?}", got.mismatch_against(&expected, 1e-9));
        }
    }
}
