//! Pieces shared by the MapReduce join algorithms: the typed record that
//! crosses their shuffles, the neighbour-list value type used by the merge
//! jobs, counter names, the candidate scans, and the direct probe loop and
//! Voronoi state of the prepared PGBJ / PBJ path.

use crate::bounds::{hyperplane_bound, table_theta, theorem2_window};
use crate::delta::DeltaOverlay;
use crate::metrics::{phases, JoinMetrics};
use crate::partition::VoronoiPartitioner;
use crate::pivots::select_pivots;
use crate::plan::{Algorithm, JoinPlan};
use crate::result::JoinRow;
use crate::summary::{
    build_s_summaries, k_smallest_ascending, pivot_distance_matrix, RPartitionSummary,
    SPartitionSummary, SummaryTables,
};
use geom::{CoordMatrix, DistanceMetric, Neighbor, NeighborList, Point, PointId, PointSet};
use mapreduce::ByteSize;
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// Counter names used by the join jobs (defined next to [`crate::JoinMetrics`],
/// which aggregates them via `absorb_job`).
pub use crate::metrics::counters;

/// Which input dataset a shuffled object comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordKind {
    /// The outer dataset `R` (each of whose objects receives `k` neighbours).
    R,
    /// The inner dataset `S` (from which neighbours are drawn).
    S,
}

/// One object crossing a join shuffle: the tuple of the paper's Figure 4 —
/// dataset tag, Voronoi cell (partition), distance to that cell's pivot, and
/// the object itself.
///
/// The object is borrowed from the join's input, so mappers emit records
/// without copying points and reducers read coordinates in place; nothing is
/// serialised.  The shuffle still charges each record the size of its wire
/// form ([`Record::encoded_len`]), the unit of the paper's shuffling-cost
/// metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record<'a> {
    /// Originating dataset.
    pub kind: RecordKind,
    /// Index of the closest pivot (partition id); 0 where the algorithm has
    /// no pivots.
    pub partition: u32,
    /// Distance from the object to its closest pivot; 0 without pivots.
    pub pivot_distance: f64,
    /// The object itself.
    pub point: &'a Point,
}

impl<'a> Record<'a> {
    /// Creates a record.
    pub fn new(kind: RecordKind, partition: u32, pivot_distance: f64, point: &'a Point) -> Self {
        Self {
            kind,
            partition,
            pivot_distance,
            point,
        }
    }

    /// Bytes of the record's wire form: a one-byte dataset tag, the `u32`
    /// partition, the `f64` pivot distance, the `u64` id, a `u32` dimension
    /// count and one `f64` per coordinate.
    pub fn encoded_len(&self) -> usize {
        1 + 4 + 8 + 8 + 4 + 8 * self.point.coords.len()
    }
}

impl ByteSize for Record<'_> {
    fn byte_size(&self) -> usize {
        self.encoded_len()
    }
}

/// A partial kNN list for one `R` object, shuffled by the merge job of the
/// block-based algorithms (H-BRJ, PBJ).
#[derive(Debug, Clone, PartialEq)]
pub struct NeighborListValue {
    /// Candidate neighbours (at most `k` of them) found by one reducer cell.
    pub neighbors: Vec<Neighbor>,
}

impl NeighborListValue {
    /// Wraps a candidate list.
    pub fn new(neighbors: Vec<Neighbor>) -> Self {
        Self { neighbors }
    }
}

impl ByteSize for NeighborListValue {
    fn byte_size(&self) -> usize {
        // r-id is the key; each neighbour is an (id, distance) pair.
        4 + self.neighbors.len() * (8 + 8)
    }
}

/// Merges several partial candidate lists into the final `k` nearest
/// neighbours of one `R` object.
pub fn merge_neighbor_lists(lists: &[NeighborListValue], k: usize) -> Vec<Neighbor> {
    let mut acc = geom::NeighborList::new(k);
    for list in lists {
        for n in &list.neighbors {
            acc.offer(n.id, n.distance);
        }
    }
    acc.into_sorted()
}

/// One partition's objects in flat structure-of-data layout: coordinate rows
/// in a contiguous [`CoordMatrix`] with ids and pivot distances in parallel
/// vectors.  This is what the Algorithm 3 reducers scan: the candidate loop
/// walks three dense arrays instead of chasing a `Point` heap allocation per
/// candidate.
#[derive(Debug, Clone, Default)]
pub struct FlatPartition {
    /// Object ids, parallel to the coordinate rows.
    pub ids: Vec<PointId>,
    /// Object-to-pivot distances, parallel to the coordinate rows.
    pub pivot_dists: Vec<f64>,
    /// Coordinates, one row per object.
    pub coords: CoordMatrix,
}

impl FlatPartition {
    /// Creates an empty partition for the given dimensionality.
    pub fn new(dims: usize) -> Self {
        Self {
            ids: Vec::new(),
            pivot_dists: Vec::new(),
            coords: CoordMatrix::new(dims),
        }
    }

    /// Appends one object.
    pub fn push(&mut self, point: &Point, pivot_dist: f64) {
        self.ids.push(point.id);
        self.pivot_dists.push(pivot_dist);
        self.coords.push_row(&point.coords);
    }

    /// Number of objects held.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the partition holds no objects.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// The per-partition views an Algorithm 3 reducer works from: `R` objects
/// grouped by partition, and the received `S` subset in flat
/// [`FlatPartition`] storage.
pub(crate) type ReducerPartitions<'a> = (
    BTreeMap<usize, Vec<(&'a Point, f64)>>,
    BTreeMap<usize, FlatPartition>,
);

/// Splits a reducer's received records by kind and partition (Algorithm 3
/// line 13), preserving arrival order: `R` objects stay borrowed (each is a
/// query, visited once), while `S` coordinates are copied straight into the
/// columnar layout the candidate scan reads.  Shared by the PGBJ group
/// reducer and the PBJ cell reducer.
pub(crate) fn split_reducer_records<'a>(
    values: &[Record<'a>],
    dims: usize,
) -> ReducerPartitions<'a> {
    let mut r_parts: BTreeMap<usize, Vec<(&'a Point, f64)>> = BTreeMap::new();
    let mut s_parts: BTreeMap<usize, FlatPartition> = BTreeMap::new();
    for record in values {
        match record.kind {
            RecordKind::R => r_parts
                .entry(record.partition as usize)
                .or_default()
                .push((record.point, record.pivot_distance)),
            RecordKind::S => s_parts
                .entry(record.partition as usize)
                .or_insert_with(|| FlatPartition::new(dims))
                .push(record.point, record.pivot_distance),
        }
    }
    (r_parts, s_parts)
}

/// The pruned candidate scan at the heart of Algorithm 3 (lines 16–25),
/// shared by the PGBJ reducer and the PBJ cell reducer.
///
/// For one `R` object `r` (belonging to partition `r_partition`, at distance
/// `r_pivot_dist` from its pivot), scans the received `S` objects — grouped by
/// their partition in flat [`FlatPartition`] layout and visited in the order
/// `s_order` (ascending pivot distance from `p_i`) — pruning with Corollary 1,
/// Theorem 2 and the running threshold `θ = min(θ_i, current kth distance)`.
///
/// The metric's kernel is hoisted out of the loops (no enum dispatch per
/// candidate).  All threshold comparisons stay in true-distance space: θ and
/// the Theorem 2 window are derived from triangle-inequality bounds over true
/// distances, and mixing them with squared ranks could flip a comparison at
/// the last ulp (see ARCHITECTURE.md).
///
/// Returns the `k` best neighbours found and the number of distance
/// computations spent (object-to-object plus object-to-pivot, per the paper's
/// selectivity definition).
#[allow(clippy::too_many_arguments)]
pub fn bounded_knn_scan<P: Borrow<FlatPartition>>(
    r_obj: &Point,
    r_pivot_dist: f64,
    r_partition: usize,
    s_parts: &BTreeMap<usize, P>,
    s_order: &[usize],
    tables: &SummaryTables,
    theta_i: f64,
    k: usize,
    metric: DistanceMetric,
) -> (Vec<Neighbor>, u64) {
    let (neighbors, counts) = bounded_knn_scan_delta(
        r_obj,
        r_pivot_dist,
        r_partition,
        s_parts,
        s_order,
        tables,
        theta_i,
        k,
        metric,
        None,
    );
    (neighbors, counts.frozen)
}

/// Distance-computation breakdown of one delta-aware candidate scan.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ScanCounts {
    /// Kernel evaluations against frozen structures (objects or pivots).
    pub frozen: u64,
    /// Kernel evaluations against the delta memtable's added points.
    pub delta: u64,
    /// Frozen candidates discarded because their id is tombstoned.
    pub masked: u64,
}

impl std::ops::AddAssign for ScanCounts {
    fn add_assign(&mut self, other: Self) {
        self.frozen += other.frozen;
        self.delta += other.delta;
        self.masked += other.masked;
    }
}

/// [`bounded_knn_scan`] extended with the S-delta memtable of a mutated
/// [`crate::PreparedJoin`]: the overlay's added points are offered into the
/// accumulator *first* (tightening the running θ before any frozen candidate
/// is scanned), and tombstoned frozen candidates are masked just before their
/// kernel evaluation.  With `delta == None` the scan is bit-for-bit the
/// frozen-only Algorithm 3 loop.
///
/// Correctness note for callers: the per-partition `θ_i` bound is derived
/// from the frozen `T_S` table, whose guarantee ("partition `i` alone holds
/// `k` objects within `θ_i`") deletions can break — pass `θ_i = ∞` whenever
/// the overlay carries tombstones.  Added points never invalidate `θ_i`;
/// they only shrink the true kth distance.
#[allow(clippy::too_many_arguments)]
pub(crate) fn bounded_knn_scan_delta<P: Borrow<FlatPartition>>(
    r_obj: &Point,
    r_pivot_dist: f64,
    r_partition: usize,
    s_parts: &BTreeMap<usize, P>,
    s_order: &[usize],
    tables: &SummaryTables,
    theta_i: f64,
    k: usize,
    metric: DistanceMetric,
    delta: Option<&DeltaOverlay>,
) -> (Vec<Neighbor>, ScanCounts) {
    let kernel = metric.kernel();
    let mut neighbors = NeighborList::new(k);
    let mut counts = ScanCounts::default();
    if let Some(overlay) = delta {
        for (id, coords) in overlay.adds() {
            let d = kernel(&r_obj.coords, coords);
            counts.delta += 1;
            neighbors.offer(id, d);
        }
    }
    for &j in s_order {
        let theta = theta_i.min(neighbors.threshold());
        let pivot_dist = tables.pivot_distance(r_partition, j);
        // Distance from r to the pivot of partition j; pivots count as
        // objects in the paper's selectivity metric.
        let d_r_pj = kernel(&r_obj.coords, &tables.pivots[j].coords);
        counts.frozen += 1;
        // Corollary 1: skip the whole partition if the hyperplane between
        // p_i and p_j is already farther away than θ.
        if j != r_partition
            && theta.is_finite()
            && hyperplane_bound(r_pivot_dist, d_r_pj, pivot_dist, metric) > theta
        {
            continue;
        }
        // Theorem 2: only objects whose own pivot distance falls inside this
        // window can possibly be within θ of r.
        let summary = &tables.s_summaries[j];
        let (lo, hi) = theorem2_window(summary.lower, summary.upper, d_r_pj, theta);
        if lo > hi {
            continue;
        }
        if let Some(s_bucket) = s_parts.get(&j) {
            let s_bucket = s_bucket.borrow();
            for idx in 0..s_bucket.len() {
                let s_pivot_dist = s_bucket.pivot_dists[idx];
                if s_pivot_dist < lo || s_pivot_dist > hi {
                    continue;
                }
                // Re-check against the current (shrinking) θ using the
                // triangle inequality |r, s| ≥ ||p_j, s| − |p_j, r||.
                let theta_now = theta_i.min(neighbors.threshold());
                if (s_pivot_dist - d_r_pj).abs() > theta_now {
                    continue;
                }
                if let Some(overlay) = delta {
                    if overlay.is_tombstoned(s_bucket.ids[idx]) {
                        counts.masked += 1;
                        continue;
                    }
                }
                let d = kernel(&r_obj.coords, s_bucket.coords.row(idx));
                counts.frozen += 1;
                neighbors.offer(s_bucket.ids[idx], d);
            }
        }
    }
    (neighbors.into_sorted(), counts)
}

// ---------------------------------------------------------------------------
// Prepared (build/probe) serving support
// ---------------------------------------------------------------------------

/// Smallest slice of a probe batch worth a worker thread of its own.  A batch
/// shorter than twice this (a single point in particular) runs inline on the
/// caller's thread; a longer one is split into at most `workers` contiguous,
/// near-equal chunks, never more than one chunk per this many objects.
///
/// Sized by measurement on a 2-vCPU VM: spawning and joining the scoped
/// threads of one split costs about 55 µs, while one probe object costs from
/// about 5 µs (PGBJ or H-zkNNJ over a 50,000-point OSM-like 2-d corpus,
/// k = 10) up to hundreds of µs (H-BRJ or the flat scan over Forest-like
/// 10-d).  A 64-object chunk therefore carries at least about six times its
/// thread's overhead, and the small batches a serving coalescer flushes never
/// pay it at all.
pub const MIN_PROBE_CHUNK: usize = 64;

/// Runs a prepared probe over `r` directly, with no MapReduce job: the batch
/// is split into at most `workers` contiguous chunks (see
/// [`MIN_PROBE_CHUNK`]), each chunk is answered by `probe_chunk(first,
/// chunk, counts)` — `first` is the chunk's offset in `r` — on the engine's
/// worker pool, and the rows come back in `r` order.  The chunks' scan
/// counters are folded into `metrics`, and the whole scan is reported as the
/// `knn join` phase.
pub(crate) fn probe_in_chunks<F>(
    r: &PointSet,
    workers: usize,
    metrics: &mut JoinMetrics,
    probe_chunk: F,
) -> Vec<JoinRow>
where
    F: Fn(usize, &[Point], &mut ScanCounts) -> Vec<JoinRow> + Sync,
{
    let start = Instant::now();
    let points = r.points();
    let chunks = workers.min(points.len() / MIN_PROBE_CHUNK).max(1);
    let chunk_len = points.len().div_ceil(chunks).max(1);
    let parts = mapreduce::parallel_map(
        points.chunks(chunk_len).collect(),
        chunks,
        |index, chunk| {
            let mut counts = ScanCounts::default();
            let rows = probe_chunk(index * chunk_len, chunk, &mut counts);
            (rows, counts)
        },
    );
    let mut rows = Vec::with_capacity(points.len());
    for (chunk_rows, counts) in parts {
        rows.extend(chunk_rows);
        metrics.distance_computations += counts.frozen;
        metrics.delta_probe_computations += counts.delta;
        metrics.tombstone_masked += counts.masked;
    }
    metrics.record_phase(phases::KNN_JOIN, start.elapsed());
    rows
}

/// The prepared PGBJ / PBJ state: the pivot machinery, the
/// Voronoi-partitioned `S` in flat columnar layout, the `T_S` summary table
/// and the per-partition scan orders.  Everything here depends only on `S`,
/// the pivot set and the plan — probe batches of `R` reuse it unchanged,
/// which is what keeps `pivot_selections` flat across queries.
///
/// PGBJ and PBJ share this one type: with `S` resident there is nothing to
/// group or replicate, so both probe with the same assignment, the same
/// Algorithm 1 bound over the full `T_S` and the same Algorithm 3 scan, and
/// report the same counters.  They differ only in the name of the phase the
/// bound is reported under.
#[derive(Debug)]
pub(crate) struct VoronoiServeState {
    /// Pivot assignment machinery (flat pivot matrix + pruned search);
    /// `Arc`-shared so compaction epochs reuse it untouched.
    pub partitioner: Arc<VoronoiPartitioner>,
    /// The pivot set, shared into every per-query [`SummaryTables`].
    pub pivots: Arc<Vec<Point>>,
    /// Voronoi-partitioned `S` in flat layout; only non-empty partitions.
    /// Each cell sits behind its own `Arc` so a compaction rebuilds only the
    /// cells the delta touched and shares the rest.
    pub s_parts: Arc<BTreeMap<usize, Arc<FlatPartition>>>,
    /// `T_S`, built once with the plan's `k`; shared into every per-query
    /// [`SummaryTables`].
    pub s_summaries: Arc<Vec<SPartitionSummary>>,
    /// Pairwise pivot distances, shared likewise.
    pub pivot_distances: Arc<Vec<Vec<f64>>>,
    /// For every `R` partition `i`: the non-empty `S` partitions sorted by
    /// pivot distance from `p_i` (Algorithm 3 line 14, hoisted out of the
    /// per-query path since it depends only on the pivots).
    pub s_orders: Arc<Vec<Vec<usize>>>,
    /// The phase the per-batch `θ_i` computation is reported under: the
    /// step of the cold algorithm it stands in for (`partition grouping`
    /// for PGBJ, `index merging` for PBJ), so traced ledgers of the two
    /// stay comparable with their cold runs.
    pub bounds_phase: &'static str,
}

impl VoronoiServeState {
    /// Builds the S-side state for a PGBJ or PBJ plan: pivot selection +
    /// `S` partitioning + summaries.  `calibration_r` seeds pivot selection
    /// (the paper draws pivots from `R`), exactly as the cold path would;
    /// the resulting state serves arbitrary probe batches because the
    /// correctness of every bound holds for any pivot set.
    pub(crate) fn prepare(
        calibration_r: &PointSet,
        s: &PointSet,
        plan: &JoinPlan,
        metrics: &mut JoinMetrics,
    ) -> Self {
        let start = Instant::now();
        let pivots = select_pivots(
            calibration_r,
            plan.pivot_count,
            plan.pivot_strategy,
            plan.pivot_sample_size,
            plan.metric,
            plan.seed,
        );
        metrics.record_phase(phases::PIVOT_SELECTION, start.elapsed());
        metrics.pivot_selections = 1;
        let start = Instant::now();
        let metric = plan.metric;
        let partitioner = Arc::new(VoronoiPartitioner::new(pivots, metric));
        let pivots = Arc::new(partitioner.pivots().to_vec());
        let partitioned_s = partitioner.partition(s);
        let s_summaries = Arc::new(build_s_summaries(&partitioned_s, plan.k));
        let pivot_distances = Arc::new(pivot_distance_matrix(&pivots, metric));
        let dims = partitioner.pivot_matrix().dims();
        let mut s_parts: BTreeMap<usize, Arc<FlatPartition>> = BTreeMap::new();
        for (j, bucket) in partitioned_s.partitions.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut flat = FlatPartition::new(dims);
            for (point, dist) in bucket {
                flat.push(point, *dist);
            }
            s_parts.insert(j, Arc::new(flat));
        }
        let non_empty: Vec<usize> = s_parts.keys().copied().collect();
        let s_orders = Arc::new(compute_s_orders(
            &non_empty,
            &pivot_distances,
            partitioner.partition_count(),
        ));
        metrics.record_phase(phases::DATA_PARTITIONING, start.elapsed());
        Self {
            partitioner,
            pivots,
            s_parts: Arc::new(s_parts),
            s_summaries,
            pivot_distances,
            s_orders,
            bounds_phase: match plan.algorithm {
                Algorithm::Pbj => phases::INDEX_MERGING,
                _ => phases::PARTITION_GROUPING,
            },
        }
    }

    /// Answers one probe batch directly over the resident cells: assign `R`
    /// to cells, derive `θ_i` for the cells the batch occupies, then run
    /// Algorithm 3's bounded scan per object (merged with the delta overlay
    /// when one is present), split across the worker pool.
    ///
    /// The Theorem 6 routing and the reducer grouping of the cold path are
    /// unnecessary here — no `S` record moves — so pruning is carried
    /// entirely by Corollary 1, Theorem 2 and the per-partition `θ_i` bound.
    /// `θ_i` uses the full resident `T_S`, the tight bound cold PGBJ
    /// computes (cold PBJ only had its block's looser one).
    pub(crate) fn probe(
        &self,
        r: &PointSet,
        plan: &JoinPlan,
        workers: usize,
        delta: Option<&DeltaOverlay>,
        metrics: &mut JoinMetrics,
    ) -> Vec<JoinRow> {
        let start = Instant::now();
        let (assignments, computations) = self.assign_batch(r);
        metrics.pivot_assignment_computations += computations;
        metrics.record_phase(phases::DATA_PARTITIONING, start.elapsed());

        let start = Instant::now();
        let tables = self.query_tables(&assignments);
        // θ_i promises that partition i alone holds k objects within θ_i of
        // any r assigned there — a promise the frozen T_S cannot keep once
        // objects are deleted, so tombstones demote θ to the running kth
        // distance alone.  Only the cells the batch occupies need a bound.
        let tombstoned = delta.is_some_and(|d| d.tombstones_len() > 0);
        let theta: Vec<f64> = (0..tables.partition_count())
            .map(|i| {
                if tombstoned {
                    f64::INFINITY
                } else {
                    table_theta(&tables, i, plan.k)
                }
            })
            .collect();
        metrics.record_phase(self.bounds_phase, start.elapsed());

        probe_in_chunks(r, workers, metrics, |first, chunk, counts| {
            chunk
                .iter()
                .zip(&assignments[first..])
                .map(|(r_obj, &(partition, pivot_dist))| {
                    let i = partition as usize;
                    let (neighbors, scanned) = bounded_knn_scan_delta(
                        r_obj,
                        pivot_dist,
                        i,
                        &self.s_parts,
                        &self.s_orders[i],
                        &tables,
                        theta[i],
                        plan.k,
                        plan.metric,
                        delta,
                    );
                    *counts += scanned;
                    JoinRow {
                        r_id: r_obj.id,
                        neighbors,
                    }
                })
                .collect()
        })
    }

    /// Folds a delta overlay into the serving state, rebuilding *only* the
    /// Voronoi cells the delta touches: cells holding a tombstoned object
    /// and cells an added point is assigned to.  Untouched cells (and the
    /// pivot machinery, distance matrix and — when the non-empty cell set is
    /// unchanged — the scan orders) are `Arc`-shared into the new state.
    ///
    /// The rebuilt cells keep frozen arrival order followed by adds in
    /// ascending id order, and their `T_S` rows are recomputed with the same
    /// (order-insensitive) formulas as the full build, so the compacted
    /// state is distance-identical to a cold build over the materialized
    /// corpus.
    pub(crate) fn compact(
        &self,
        delta: &DeltaOverlay,
        k: usize,
        metrics: &mut JoinMetrics,
    ) -> Self {
        let dims = self.partitioner.pivot_matrix().dims();
        let mut affected: BTreeSet<usize> = BTreeSet::new();
        if delta.tombstones_len() > 0 {
            for (&j, part) in self.s_parts.iter() {
                if part.ids.iter().any(|id| delta.is_tombstoned(*id)) {
                    affected.insert(j);
                }
            }
        }
        let mut add_cells: BTreeMap<usize, Vec<(Point, f64)>> = BTreeMap::new();
        for (id, coords) in delta.adds() {
            let a = self.partitioner.nearest_pivot(coords);
            metrics.pivot_assignment_computations += a.computations;
            affected.insert(a.partition);
            add_cells
                .entry(a.partition)
                .or_default()
                .push((Point::new(id, coords.to_vec()), a.distance));
        }

        let mut s_parts: BTreeMap<usize, Arc<FlatPartition>> = BTreeMap::new();
        for (&j, part) in self.s_parts.iter() {
            if !affected.contains(&j) {
                s_parts.insert(j, Arc::clone(part));
            }
        }
        let mut s_summaries = (*self.s_summaries).clone();
        for &j in &affected {
            let mut flat = FlatPartition::new(dims);
            if let Some(old) = self.s_parts.get(&j) {
                for idx in 0..old.len() {
                    if delta.is_tombstoned(old.ids[idx]) {
                        continue;
                    }
                    flat.ids.push(old.ids[idx]);
                    flat.pivot_dists.push(old.pivot_dists[idx]);
                    flat.coords.push_row(old.coords.row(idx));
                }
            }
            if let Some(adds) = add_cells.get(&j) {
                for (point, dist) in adds {
                    flat.push(point, *dist);
                }
            }
            metrics.compacted_points += flat.len() as u64;
            s_summaries[j] = summarize_flat_partition(j, &flat, k);
            if !flat.is_empty() {
                s_parts.insert(j, Arc::new(flat));
            }
        }

        let old_non_empty: Vec<usize> = self.s_parts.keys().copied().collect();
        let new_non_empty: Vec<usize> = s_parts.keys().copied().collect();
        let s_orders = if new_non_empty == old_non_empty {
            Arc::clone(&self.s_orders)
        } else {
            Arc::new(compute_s_orders(
                &new_non_empty,
                &self.pivot_distances,
                self.partitioner.partition_count(),
            ))
        };
        Self {
            partitioner: Arc::clone(&self.partitioner),
            pivots: Arc::clone(&self.pivots),
            s_parts: Arc::new(s_parts),
            s_summaries: Arc::new(s_summaries),
            pivot_distances: Arc::clone(&self.pivot_distances),
            s_orders,
            bounds_phase: self.bounds_phase,
        }
    }

    /// Assigns a probe batch to Voronoi cells, returning one `(partition,
    /// pivot distance)` per object plus the pruned assignment computations
    /// actually spent.
    pub(crate) fn assign_batch(&self, r: &PointSet) -> (Vec<(u32, f64)>, u64) {
        let mut assignments = Vec::with_capacity(r.len());
        let mut computations = 0u64;
        for p in r {
            let a = self.partitioner.nearest_pivot(&p.coords);
            computations += a.computations;
            assignments.push((a.partition as u32, a.distance));
        }
        (assignments, computations)
    }

    /// Assembles the full [`SummaryTables`] for one probe batch: `T_R` is
    /// computed from the batch's assignments; the pivot set, `T_S` and the
    /// pivot-distance matrix are `Arc`-shared from the prebuilt state, so
    /// assembly costs O(t) for the fresh `R` summaries and nothing else.
    pub(crate) fn query_tables(&self, assignments: &[(u32, f64)]) -> SummaryTables {
        let t = self.partitioner.partition_count();
        let mut counts = vec![0usize; t];
        let mut lowers = vec![f64::INFINITY; t];
        let mut uppers = vec![f64::NEG_INFINITY; t];
        for (partition, dist) in assignments {
            let i = *partition as usize;
            counts[i] += 1;
            lowers[i] = lowers[i].min(*dist);
            uppers[i] = uppers[i].max(*dist);
        }
        let r_summaries = (0..t)
            .map(|i| RPartitionSummary {
                partition: i,
                count: counts[i],
                lower: if counts[i] == 0 { 0.0 } else { lowers[i] },
                upper: if counts[i] == 0 { 0.0 } else { uppers[i] },
            })
            .collect();
        SummaryTables {
            pivots: Arc::clone(&self.pivots),
            metric: self.partitioner.metric(),
            r_summaries,
            s_summaries: Arc::clone(&self.s_summaries),
            pivot_distances: Arc::clone(&self.pivot_distances),
        }
    }
}

/// The per-`R`-partition scan orders over the non-empty `S` cells (ascending
/// pivot distance, Algorithm 3 line 14), shared by the full build and the
/// partial compaction.
fn compute_s_orders(
    non_empty: &[usize],
    pivot_distances: &[Vec<f64>],
    partition_count: usize,
) -> Vec<Vec<usize>> {
    (0..partition_count)
        .map(|i| {
            let mut order = non_empty.to_vec();
            order.sort_by(|&a, &b| pivot_distances[i][a].total_cmp(&pivot_distances[i][b]));
            order
        })
        .collect()
}

/// `T_S` row of one flat cell, with exactly the semantics of
/// [`build_s_summaries`]: `(0, 0)` bounds for empty cells, the `k` smallest
/// pivot distances ascending otherwise.  Both are order-insensitive in the
/// cell contents, which is what lets compaction recompute only the affected
/// rows, and lets a PBJ reducer cell summarise the `S` block it received.
pub(crate) fn summarize_flat_partition(
    partition: usize,
    flat: &FlatPartition,
    k: usize,
) -> SPartitionSummary {
    if flat.is_empty() {
        return SPartitionSummary {
            partition,
            count: 0,
            lower: 0.0,
            upper: 0.0,
            knn_distances: Vec::new(),
        };
    }
    let mut lower = f64::INFINITY;
    let mut upper = f64::NEG_INFINITY;
    for &d in &flat.pivot_dists {
        lower = lower.min(d);
        upper = upper.max(d);
    }
    SPartitionSummary {
        partition,
        count: flat.len(),
        lower,
        upper,
        knn_distances: k_smallest_ascending(flat.pivot_dists.clone(), k),
    }
}

/// Sorts the partition ids in `s_parts` by ascending pivot distance from the
/// pivot of `r_partition` (Algorithm 3 line 14).
pub fn order_s_partitions(
    s_parts: &BTreeMap<usize, FlatPartition>,
    r_partition: usize,
    tables: &SummaryTables,
) -> Vec<usize> {
    let mut order: Vec<usize> = s_parts.keys().copied().collect();
    let row = &tables.pivot_distances[r_partition];
    order.sort_by(|&a, &b| row[a].total_cmp(&row[b]));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Point;

    #[test]
    fn record_size_is_its_wire_form() {
        let point = Point::new(9, vec![1.0, 2.0]);
        let record = Record::new(RecordKind::S, 3, 1.5, &point);
        // tag + partition + pivot distance + id + dims + two coordinates.
        assert_eq!(record.byte_size(), 1 + 4 + 8 + 8 + 4 + 2 * 8);
        assert_eq!(record.byte_size(), record.encoded_len());
    }

    #[test]
    fn a_nan_pivot_distance_in_a_flat_cell_does_not_panic() {
        let mut flat = FlatPartition::new(1);
        flat.push(&Point::new(1, vec![0.0]), 3.0);
        flat.push(&Point::new(2, vec![f64::NAN]), f64::NAN);
        flat.push(&Point::new(3, vec![1.0]), 1.0);
        let summary = summarize_flat_partition(4, &flat, 2);
        assert_eq!((summary.partition, summary.count), (4, 3));
        // `total_cmp` orders NaN after every finite distance.
        assert_eq!(summary.knn_distances, vec![1.0, 3.0]);
    }

    #[test]
    fn neighbor_list_value_size() {
        let v = NeighborListValue::new(vec![Neighbor::new(1, 0.5), Neighbor::new(2, 1.5)]);
        assert_eq!(v.byte_size(), 4 + 2 * 16);
    }

    #[test]
    fn merging_partial_lists_keeps_global_k_best() {
        let a = NeighborListValue::new(vec![Neighbor::new(1, 5.0), Neighbor::new(2, 1.0)]);
        let b = NeighborListValue::new(vec![Neighbor::new(3, 0.5), Neighbor::new(4, 9.0)]);
        let merged = merge_neighbor_lists(&[a, b], 2);
        let ids: Vec<u64> = merged.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![3, 2]);
    }

    #[test]
    fn merging_handles_duplicates_across_blocks() {
        // The same S object can be seen by several reducer cells; duplicates
        // must not crowd out distinct neighbours... they are kept as-is since
        // block algorithms never see the same (r, s) pair twice, but merging
        // is still well-defined.
        let a = NeighborListValue::new(vec![Neighbor::new(1, 1.0)]);
        let b = NeighborListValue::new(vec![Neighbor::new(2, 2.0)]);
        let merged = merge_neighbor_lists(&[a.clone(), b, a], 3);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].id, 1);
    }
}
