//! H-zkNNJ — the z-value-based *approximate* kNN join (Zhang, Li, Jestes;
//! EDBT 2012), the third competitor of the paper's evaluation and the only
//! one trading exactness for speed.
//!
//! The idea: map every object to a one-dimensional *z-value* (bit-interleaved
//! quantized coordinates, [`geom::zorder`]), where spatial proximity mostly
//! survives.  A kNN query then becomes a scan of the nearest z-values — a
//! window of `z_window · k` on each side of the query's position in z-order
//! (the EDBT paper uses `z_window = 1`, i.e. the 2k z-neighbours) — instead
//! of a scan of `S`.  Because the z-curve has seams, the whole join is
//! repeated over `α` randomly shifted copies of the data (`shift_copies`) and
//! the per-copy candidates are merged, keeping the *exact-over-candidates*
//! top-`k`: every reported distance is a true distance, only the candidate
//! sets are approximate.
//!
//! As two MapReduce jobs:
//!
//! 1. **`zknn-join`** — each shifted copy of `R ∪ S` is sorted by z-value and
//!    range-partitioned into `n` balanced slabs (boundaries are computed
//!    driver-side from the full sort; the paper estimates them from a sample
//!    and then copies the `k` boundary records between adjacent partitions —
//!    here the `S` slabs are *padded* by the candidate window on each side
//!    directly, which replicates exactly those boundary records).  Each
//!    reducer sorts its slab's `S` subset by z-value and answers every local
//!    `r` from its z-window, computing true distances to the candidates.
//! 2. **`zknn-merge`** — the standard merge job (shared with H-BRJ/PBJ): the
//!    `α` partial candidate lists of every `r` fold into the final top-`k`.
//!
//! Cost structure: `O(α·|R∪S|)` shuffled records and at most
//! `α·2·z_window·k` distance computations per `R` object — a constant per
//! object, far below the exact algorithms — at the price of recall < 1 when
//! a true neighbour is z-far in every shifted copy.
//! [`crate::result::QualityReport`] measures exactly that trade.

use crate::algorithms::blocks::MergeMapper;
use crate::algorithms::common::{
    counters, probe_in_chunks, NeighborListValue, Record, RecordKind, ScanCounts,
};
use crate::algorithms::KnnJoinAlgorithm;
use crate::context::ExecutionContext;
use crate::delta::DeltaOverlay;
use crate::exact::validate_inputs;
use crate::metrics::{phases, JoinMetrics};
use crate::result::{JoinError, JoinResult, JoinRow};
use geom::zorder::{random_shifts, ZQuantizer, ZValue, MAX_Z_BITS};
use geom::{CoordMatrix, DistanceMetric, NeighborList, Point, PointId, PointSet};
use mapreduce::{IdentityPartitioner, JobBuilder, MapContext, Mapper, ReduceContext, Reducer};
use std::time::Instant;

/// Configuration of [`Zknn`].
#[derive(Debug, Clone)]
pub struct ZknnConfig {
    /// `α`, the number of randomly shifted copies of the data (the first copy
    /// is always unshifted).  More copies cost proportionally more shuffle
    /// and candidates but heal more z-curve seams; the EDBT paper uses 2–4.
    pub shift_copies: usize,
    /// Grid bits per dimension for the z-value quantization (1..=32, and
    /// `dims · bits` must fit the 256-bit z-value).  More bits resolve finer
    /// spatial detail; 16 is plenty for the paper's workloads.
    pub quantization_bits: u32,
    /// Candidate-window multiplier: each `R` object considers
    /// `z_window · k` z-neighbours *per side* (the EDBT paper's window is
    /// `z_window = 1`, i.e. 2k candidates per copy).  One z-order scan covers
    /// a single curve locality; widening the window compensates for the
    /// curve's distortion at higher dimensionality, where true neighbours
    /// spread further along the curve.  The default 4 holds recall ≈ 0.9 at
    /// `shift_copies = 2` on the paper's 10-d Forest workload while staying
    /// far below the exact algorithms' distance work.
    pub z_window: usize,
    /// Number of reducers ("computing nodes").  Job 1 uses about this many
    /// slab reducers in total, spread over the shifted copies.
    pub reducers: usize,
    /// Number of map tasks.
    pub map_tasks: usize,
    /// Seed for the random shift vectors.
    pub seed: u64,
}

impl Default for ZknnConfig {
    fn default() -> Self {
        Self {
            shift_copies: 2,
            quantization_bits: 16,
            z_window: 4,
            reducers: 4,
            map_tasks: 8,
            seed: 0x5EED,
        }
    }
}

/// The H-zkNNJ approximate algorithm.
#[derive(Debug, Clone, Default)]
pub struct Zknn {
    config: ZknnConfig,
}

impl Zknn {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: ZknnConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ZknnConfig {
        &self.config
    }

    fn validate(&self) -> Result<(), JoinError> {
        if self.config.shift_copies == 0 {
            return Err(JoinError::InvalidConfig(
                "shift_copies must be at least 1".into(),
            ));
        }
        if self.config.quantization_bits == 0 || self.config.quantization_bits > 32 {
            return Err(JoinError::InvalidConfig(format!(
                "quantization_bits must be in 1..=32 (got {})",
                self.config.quantization_bits
            )));
        }
        if self.config.z_window == 0 {
            return Err(JoinError::InvalidConfig(
                "z_window must be at least 1".into(),
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

impl KnnJoinAlgorithm for Zknn {
    fn name(&self) -> &'static str {
        "H-zkNNJ"
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
        check_z_domain(r.dims(), cfg.quantization_bits)?;
        let mut metrics = JoinMetrics {
            r_size: r.len(),
            s_size: s.len(),
            ..Default::default()
        };

        // ---- Driver: quantizer, shifts and slab boundaries -----------------
        let start = Instant::now();
        let shared = ZknnShared::build(r, s, k, cfg);
        metrics.record_phase(phases::DATA_PARTITIONING, start.elapsed());

        // ---- Job 1: per-copy z-order slabs, 2k z-neighbour candidates ------
        let mut input = Vec::with_capacity(r.len() + s.len());
        for p in r {
            input.push((p.id, Record::new(RecordKind::R, 0, 0.0, p)));
        }
        for p in s {
            input.push((p.id, Record::new(RecordKind::S, 0, 0.0, p)));
        }
        let start = Instant::now();
        let join_job = JobBuilder::new("zknn-join")
            .reducers(shared.copies.len() * shared.slabs)
            .map_tasks(cfg.map_tasks)
            .workers(ctx.workers())
            .run_with_partitioner(
                input,
                &ZRouteMapper { shared: &shared },
                &ZSlabReducer {
                    shared: &shared,
                    k,
                    metric,
                },
                &IdentityPartitioner,
            )
            .map_err(|e| JoinError::substrate("zknn-join", e))?;
        metrics.record_phase(phases::KNN_JOIN, start.elapsed());
        metrics.absorb_job(&join_job.metrics);

        // ---- Job 2: merge the per-copy candidate lists ---------------------
        let start = Instant::now();
        let merge_job = JobBuilder::new("zknn-merge")
            .reducers(cfg.reducers)
            .map_tasks(cfg.map_tasks)
            .workers(ctx.workers())
            .run(join_job.output, &MergeMapper, &ZMergeReducer { k })
            .map_err(|e| JoinError::substrate("zknn-merge", e))?;
        metrics.record_phase(phases::RESULT_MERGING, start.elapsed());
        metrics.absorb_job(&merge_job.metrics);

        let rows = merge_job
            .output
            .into_iter()
            .map(|(r_id, neighbors)| JoinRow { r_id, neighbors })
            .collect();
        let mut result = JoinResult { rows, metrics };
        result.normalize();
        Ok(result)
    }
}

/// Rejects inputs H-zkNNJ cannot map to z-values: a z-value interleaves at
/// least one dimension, and `dims × bits` must fit in [`MAX_Z_BITS`].  The
/// cold join and [`crate::JoinBuilder::plan`] (and so every prepared build)
/// both check this before [`z_calibration`] builds the quantizer.
pub(crate) fn check_z_domain(dims: usize, bits: u32) -> Result<(), JoinError> {
    if dims == 0 {
        return Err(JoinError::InvalidConfig(
            "H-zkNNJ needs at least one dimension to build z-values".into(),
        ));
    }
    if dims as u32 * bits > MAX_Z_BITS {
        return Err(JoinError::InvalidConfig(format!(
            "{dims} dims × {bits} quantization bits exceeds the {MAX_Z_BITS}-bit z-value"
        )));
    }
    Ok(())
}

/// The driver-side calibration shared by the cold and prepared paths: the
/// quantization domain over `R ∪ S`, the [`ZQuantizer`] it induces, and the
/// seeded shift vectors.  One definition, so the prepared path cannot drift
/// from the cold computation it must reproduce bit for bit.
fn z_calibration(
    r: &PointSet,
    s: &PointSet,
    bits: u32,
    copies: usize,
    seed: u64,
) -> (ZQuantizer, Vec<Vec<f64>>) {
    let dims = r.dims();
    let mut mins = vec![f64::INFINITY; dims];
    let mut maxs = vec![f64::NEG_INFINITY; dims];
    for p in r.iter().chain(s.iter()) {
        for d in 0..dims {
            mins[d] = mins[d].min(p.coords[d]);
            maxs[d] = maxs[d].max(p.coords[d]);
        }
    }
    let widths: Vec<f64> = mins.iter().zip(&maxs).map(|(lo, hi)| hi - lo).collect();
    let quantizer =
        ZQuantizer::new(&mins, &maxs, bits).expect("z domain validated by check_z_domain");
    let shifts = random_shifts(&widths, copies, seed);
    (quantizer, shifts)
}

/// One shifted copy's range partitioning: the slab cut points over `R ∪ S`
/// z-values, and the `k`-rank-padded z-window of `S` records each slab
/// additionally receives (the boundary replicas of the EDBT paper).
#[derive(Debug, Clone)]
struct CopySlabs {
    /// Ascending cut z-values; a z belongs to slab `#cuts ≤ z`.
    cuts: Vec<ZValue>,
    /// Per slab: smallest S z-value the (padded) slab receives.
    pad_lo: Vec<ZValue>,
    /// Per slab: largest S z-value the (padded) slab receives.
    pad_hi: Vec<ZValue>,
}

/// Everything the mapper and reducer share: the quantizer, the shift
/// vectors, and each copy's slab boundaries.
#[derive(Debug)]
struct ZknnShared {
    quantizer: ZQuantizer,
    shifts: Vec<Vec<f64>>,
    slabs: usize,
    /// Candidate z-neighbours per side: `z_window · k`.
    window: usize,
    copies: Vec<CopySlabs>,
}

impl ZknnShared {
    /// Computes the quantization domain, shift vectors and per-copy balanced
    /// slab boundaries from the data (driver-side preprocessing; the shuffled
    /// work stays in the MapReduce jobs).
    fn build(r: &PointSet, s: &PointSet, k: usize, cfg: &ZknnConfig) -> ZknnShared {
        let (quantizer, shifts) =
            z_calibration(r, s, cfg.quantization_bits, cfg.shift_copies, cfg.seed);
        // Spread the reducer budget over the copies, at least one slab each.
        let slabs = (cfg.reducers / cfg.shift_copies).max(1);
        let window = cfg.z_window.saturating_mul(k);

        let copies = shifts
            .iter()
            .map(|shift| {
                let mut all_z: Vec<ZValue> = r
                    .iter()
                    .chain(s.iter())
                    .map(|p| quantizer.z_value(&p.coords, Some(shift)))
                    .collect();
                let mut s_z: Vec<ZValue> = s
                    .iter()
                    .map(|p| quantizer.z_value(&p.coords, Some(shift)))
                    .collect();
                all_z.sort_unstable();
                s_z.sort_unstable();
                // Balanced slabs over the combined sort: cut j sits at rank
                // (j+1)·n/slabs.
                let n = all_z.len();
                let cuts: Vec<ZValue> = (1..slabs).map(|j| all_z[j * n / slabs]).collect();
                let mut pad_lo = Vec::with_capacity(slabs);
                let mut pad_hi = Vec::with_capacity(slabs);
                for j in 0..slabs {
                    // S ranks covered by slab j, then padded by the candidate
                    // window on each side so boundary objects keep their full
                    // window.
                    let lo = if j == 0 {
                        0
                    } else {
                        s_z.partition_point(|z| *z < cuts[j - 1])
                    };
                    let hi = if j + 1 == slabs {
                        s_z.len()
                    } else {
                        s_z.partition_point(|z| *z < cuts[j])
                    };
                    let plo = lo.saturating_sub(window);
                    let phi = (hi + window).min(s_z.len());
                    pad_lo.push(if plo == 0 { ZValue::MIN } else { s_z[plo] });
                    pad_hi.push(if phi == s_z.len() {
                        ZValue::MAX
                    } else {
                        s_z[phi - 1]
                    });
                }
                CopySlabs {
                    cuts,
                    pad_lo,
                    pad_hi,
                }
            })
            .collect();

        ZknnShared {
            quantizer,
            shifts,
            slabs,
            window,
            copies,
        }
    }

    /// The z-value of `coords` in shifted copy `copy`.
    fn z(&self, copy: usize, coords: &[f64]) -> ZValue {
        self.quantizer.z_value(coords, Some(&self.shifts[copy]))
    }

    /// The slab of a z-value within one copy.
    fn slab_of(&self, copy: usize, z: ZValue) -> usize {
        self.copies[copy].cuts.partition_point(|c| *c <= z)
    }
}

/// Mapper of job 1: for every shifted copy, route each `R` record to its
/// z-slab and each `S` record to every slab whose padded z-window contains it
/// (its own slab plus, near boundaries, the neighbour it pads).
struct ZRouteMapper<'a> {
    shared: &'a ZknnShared,
}

impl<'a> Mapper for ZRouteMapper<'a> {
    type KIn = u64;
    type VIn = Record<'a>;
    type KOut = u32;
    type VOut = Record<'a>;

    fn map(&self, _key: &u64, record: &Record<'a>, ctx: &mut MapContext<u32, Record<'a>>) {
        let slabs = self.shared.slabs;
        for copy in 0..self.shared.copies.len() {
            let z = self.shared.z(copy, &record.point.coords);
            match record.kind {
                RecordKind::R => {
                    let slab = self.shared.slab_of(copy, z);
                    ctx.counters().increment(counters::R_RECORDS);
                    ctx.emit((copy * slabs + slab) as u32, *record);
                }
                RecordKind::S => {
                    let bounds = &self.shared.copies[copy];
                    for slab in 0..slabs {
                        if z >= bounds.pad_lo[slab] && z <= bounds.pad_hi[slab] {
                            ctx.counters().increment(counters::S_RECORDS);
                            ctx.emit((copy * slabs + slab) as u32, *record);
                        }
                    }
                }
            }
        }
    }
}

/// Reducer of job 1, one per (copy, slab): sort the received `S` subset by
/// z-value and answer every local `r` from the candidate window around its
/// z-position — `z_window · k` preceding and following — with true
/// distances.
struct ZSlabReducer<'a> {
    shared: &'a ZknnShared,
    k: usize,
    metric: DistanceMetric,
}

impl<'a> Reducer for ZSlabReducer<'a> {
    type KIn = u32;
    type VIn = Record<'a>;
    type KOut = u64;
    type VOut = NeighborListValue;

    fn reduce(
        &self,
        key: &u32,
        values: &[Record<'a>],
        ctx: &mut ReduceContext<u64, NeighborListValue>,
    ) {
        let copy = *key as usize / self.shared.slabs;
        let mut r_block: Vec<(ZValue, &Point)> = Vec::new();
        let mut s_block: Vec<(ZValue, &Point)> = Vec::new();
        for record in values {
            let z = self.shared.z(copy, &record.point.coords);
            match record.kind {
                RecordKind::R => r_block.push((z, record.point)),
                RecordKind::S => s_block.push((z, record.point)),
            }
        }
        if r_block.is_empty() {
            return;
        }
        // Sort S by (z, id): the id tiebreak makes the candidate windows
        // deterministic when z-values collide (duplicate or grid-coincident
        // points).
        s_block.sort_unstable_by_key(|(z, p)| (*z, p.id));
        let s_z: Vec<ZValue> = s_block.iter().map(|(z, _)| *z).collect();
        let s_ids: Vec<PointId> = s_block.iter().map(|(_, p)| p.id).collect();
        let mut s_coords = CoordMatrix::new(self.shared.quantizer.dims());
        for (_, p) in &s_block {
            s_coords.push_row(&p.coords);
        }
        let dims = self.shared.quantizer.dims();
        // Scratch for the batched window evaluation: at most 2·window rows.
        let mut ranks: Vec<f64> = Vec::new();

        let window = self.shared.window;
        for (z_r, r_obj) in &r_block {
            // The candidate z-window around r's insertion position.
            let pos = s_z.partition_point(|z| z < z_r);
            let lo = pos.saturating_sub(window);
            let hi = (pos + window).min(s_z.len());
            let mut list = NeighborList::new(self.k);
            offer_window(
                self.metric,
                &r_obj.coords,
                &s_ids[lo..hi],
                &s_coords.as_slice()[lo * dims..hi * dims],
                &mut ranks,
                &mut list,
            );
            ctx.counters()
                .add(counters::DISTANCE_COMPUTATIONS, (hi - lo) as u64);
            ctx.emit(r_obj.id, NeighborListValue::new(list.into_sorted()));
        }
    }
}

/// Offers one candidate z-window — `ids.len()` contiguous rows `rows` of the
/// `(z, id)`-sorted `S` — to `list`.  A single batch call ranks the whole
/// window, and the rank→distance map restores true distances bit-identical
/// to the scalar kernel's; `ranks` is scratch reused across windows.
fn offer_window(
    metric: DistanceMetric,
    query: &[f64],
    ids: &[PointId],
    rows: &[f64],
    ranks: &mut Vec<f64>,
    list: &mut NeighborList,
) {
    let m = ids.len();
    if ranks.len() < m {
        ranks.resize(m, 0.0);
    }
    (metric.batch_rank_kernel())(query, rows, query.len(), &mut ranks[..m]);
    metric.ranks_to_distances(&mut ranks[..m]);
    for (&id, &d) in ids.iter().zip(&ranks[..m]) {
        list.offer(id, d);
    }
}

/// Merges per-copy candidate lists into the `k` best *distinct* `S` objects.
///
/// Unlike the block algorithms' merge (where every `(r, s)` pair meets in
/// exactly one reducer cell), H-zkNNJ can find the same `S` object in several
/// shifted copies; keeping duplicates would crowd distinct candidates out of
/// the top-`k`, so ids are deduplicated (keeping the smallest distance)
/// before bounding.
pub(crate) fn merge_distinct_candidates(
    lists: &[NeighborListValue],
    k: usize,
) -> Vec<geom::Neighbor> {
    // BTreeMap (not HashMap): the bounded list breaks exact-distance ties by
    // arrival order, so candidates must be offered in a deterministic (id)
    // order or equal-distance survivors would vary run to run.
    let mut best: std::collections::BTreeMap<PointId, f64> = std::collections::BTreeMap::new();
    for list in lists {
        for n in &list.neighbors {
            best.entry(n.id)
                .and_modify(|d| *d = d.min(n.distance))
                .or_insert(n.distance);
        }
    }
    let mut acc = NeighborList::new(k);
    for (id, distance) in best {
        acc.offer(id, distance);
    }
    acc.into_sorted()
}

/// Reducer of the merge job: the `k` globally best distinct candidates.
struct ZMergeReducer {
    k: usize,
}

impl Reducer for ZMergeReducer {
    type KIn = u64;
    type VIn = NeighborListValue;
    type KOut = u64;
    type VOut = Vec<geom::Neighbor>;

    fn reduce(
        &self,
        key: &u64,
        values: &[NeighborListValue],
        ctx: &mut ReduceContext<u64, Vec<geom::Neighbor>>,
    ) {
        ctx.emit(*key, merge_distinct_candidates(values, self.k));
    }
}

// ---------------------------------------------------------------------------
// Prepared (build/probe) serving path
// ---------------------------------------------------------------------------

/// One shifted copy of `S`, fully sorted by `(z-value, id)` with the
/// coordinates in matching flat rows — the windows any probe object scans.
#[derive(Debug)]
struct SortedCopy {
    z: Vec<ZValue>,
    ids: Vec<PointId>,
    coords: CoordMatrix,
}

/// The prepared H-zkNNJ state: the quantizer and shift vectors (calibrated
/// from the datasets the join was prepared with, exactly as the cold driver
/// computes them) plus one `(z, id)`-sorted copy of `S` per shift.  Because
/// each resident copy is the *full* sorted `S`, a probe object's candidate
/// window around its z-position is identical to the window the cold slab
/// reducers see (slab padding exists only to reassemble this list under
/// partitioning), so prepared answers are bit-identical to cold ones.
#[derive(Debug)]
pub(crate) struct ZknnPrepared {
    quantizer: ZQuantizer,
    shifts: Vec<Vec<f64>>,
    /// Candidate z-neighbours per side: `z_window · k`.
    window: usize,
    copies: Vec<SortedCopy>,
}

impl ZknnPrepared {
    /// Builds the sorted shifted copies of `S`.  `calibration_r` only
    /// calibrates the quantization domain (the cold driver derives it from
    /// `R ∪ S`); out-of-domain probe coordinates are clamped by the
    /// quantizer.
    pub(crate) fn build(
        calibration_r: &PointSet,
        s: &PointSet,
        plan: &crate::plan::JoinPlan,
        metrics: &mut JoinMetrics,
    ) -> Self {
        let start = Instant::now();
        let dims = s.dims();
        let (quantizer, shifts) = z_calibration(
            calibration_r,
            s,
            plan.quantization_bits,
            plan.shift_copies,
            plan.seed,
        );
        let copies = shifts
            .iter()
            .map(|shift| {
                let mut entries: Vec<(ZValue, &Point)> = s
                    .iter()
                    .map(|p| (quantizer.z_value(&p.coords, Some(shift)), p))
                    .collect();
                entries.sort_unstable_by_key(|(z, p)| (*z, p.id));
                let mut coords = CoordMatrix::new(dims);
                let mut z = Vec::with_capacity(entries.len());
                let mut ids = Vec::with_capacity(entries.len());
                for (zv, p) in entries {
                    z.push(zv);
                    ids.push(p.id);
                    coords.push_row(&p.coords);
                }
                SortedCopy { z, ids, coords }
            })
            .collect();
        metrics.record_phase(phases::PREPARE_BUILD, start.elapsed());
        Self {
            quantizer,
            shifts,
            window: plan.z_window.saturating_mul(plan.k),
            copies,
        }
    }

    /// Answers one probe batch directly over the resident copies, split
    /// across the worker pool: per object and per copy, scan the
    /// `z_window · k` z-neighbours on each side, then merge the per-copy
    /// candidates into the `k` best distinct `S` objects.
    ///
    /// When a delta overlay is present, its adds are quantized with the
    /// *prepared* quantizer and shifts into a `(z, id)`-sorted index per
    /// copy, and every window is the two-pointer merge of frozen and delta
    /// entries — exactly the window a cold build over the materialized
    /// corpus would scan, provided cold calibration yields this quantizer.
    /// Tombstoned frozen entries are skipped without consuming window slots.
    pub(crate) fn probe(
        &self,
        r: &PointSet,
        plan: &crate::plan::JoinPlan,
        workers: usize,
        delta: Option<&DeltaOverlay>,
        metrics: &mut JoinMetrics,
    ) -> Vec<JoinRow> {
        let delta = delta.map(|overlay| {
            (
                overlay,
                delta_sorted_copies(&self.quantizer, &self.shifts, overlay),
            )
        });
        // The delta-merged windows interleave frozen and add rows, so they
        // stay pairwise.
        let kernel = plan.metric.kernel();
        let dims = self.quantizer.dims();
        probe_in_chunks(r, workers, metrics, |_, chunk, counts| {
            let mut ranks: Vec<f64> = Vec::new();
            let mut rows = Vec::with_capacity(chunk.len());
            for r_obj in chunk {
                let mut lists = Vec::with_capacity(self.copies.len());
                for (i, (copy, shift)) in self.copies.iter().zip(&self.shifts).enumerate() {
                    let z_r = self.quantizer.z_value(&r_obj.coords, Some(shift));
                    let mut list = NeighborList::new(plan.k);
                    match &delta {
                        None => {
                            let pos = copy.z.partition_point(|z| *z < z_r);
                            let lo = pos.saturating_sub(self.window);
                            let hi = (pos + self.window).min(copy.z.len());
                            offer_window(
                                plan.metric,
                                &r_obj.coords,
                                &copy.ids[lo..hi],
                                &copy.coords.as_slice()[lo * dims..hi * dims],
                                &mut ranks,
                                &mut list,
                            );
                            counts.frozen += (hi - lo) as u64;
                        }
                        Some((overlay, add_copies)) => {
                            *counts += self.merged_window(
                                &r_obj.coords,
                                z_r,
                                copy,
                                &add_copies[i],
                                overlay,
                                kernel,
                                &mut list,
                            );
                        }
                    }
                    lists.push(NeighborListValue::new(list.into_sorted()));
                }
                rows.push(JoinRow {
                    r_id: r_obj.id,
                    neighbors: merge_distinct_candidates(&lists, plan.k),
                });
            }
            rows
        })
    }

    /// The delta-merged candidate window for one probe object and one copy:
    /// the `window` live `(z, id)`-predecessors and `window` live successors
    /// of `z_r` in the virtual merge of the frozen copy (minus tombstones)
    /// and the delta adds — exactly the window a cold build over the
    /// materialized corpus scans.  Tombstoned frozen entries are skipped
    /// *without* consuming a window slot.
    #[allow(clippy::too_many_arguments)]
    fn merged_window(
        &self,
        r_coords: &[f64],
        z_r: ZValue,
        frozen: &SortedCopy,
        adds: &SortedCopy,
        overlay: &DeltaOverlay,
        kernel: fn(&[f64], &[f64]) -> f64,
        list: &mut NeighborList,
    ) -> ScanCounts {
        let window = self.window;
        let mut counts = ScanCounts::default();
        let pos_f = frozen.z.partition_point(|z| *z < z_r);
        let pos_a = adds.z.partition_point(|z| *z < z_r);

        // Backward merge over the strict predecessors: largest (z, id) first.
        let (mut f, mut a) = (pos_f, pos_a);
        let mut taken = 0usize;
        while taken < window && (f > 0 || a > 0) {
            let take_frozen = match (f > 0, a > 0) {
                (true, true) => {
                    (frozen.z[f - 1], frozen.ids[f - 1]) >= (adds.z[a - 1], adds.ids[a - 1])
                }
                (have_frozen, _) => have_frozen,
            };
            if take_frozen {
                f -= 1;
                if overlay.is_tombstoned(frozen.ids[f]) {
                    counts.masked += 1;
                    continue;
                }
                list.offer(frozen.ids[f], kernel(r_coords, frozen.coords.row(f)));
                counts.frozen += 1;
            } else {
                a -= 1;
                list.offer(adds.ids[a], kernel(r_coords, adds.coords.row(a)));
                counts.delta += 1;
            }
            taken += 1;
        }

        // Forward merge over the successors (z ≥ z_r): smallest (z, id) first.
        let (mut f, mut a) = (pos_f, pos_a);
        let mut taken = 0usize;
        while taken < window && (f < frozen.z.len() || a < adds.z.len()) {
            let take_frozen = match (f < frozen.z.len(), a < adds.z.len()) {
                (true, true) => (frozen.z[f], frozen.ids[f]) <= (adds.z[a], adds.ids[a]),
                (have_frozen, _) => have_frozen,
            };
            if take_frozen {
                if overlay.is_tombstoned(frozen.ids[f]) {
                    counts.masked += 1;
                    f += 1;
                    continue;
                }
                list.offer(frozen.ids[f], kernel(r_coords, frozen.coords.row(f)));
                counts.frozen += 1;
                f += 1;
            } else {
                list.offer(adds.ids[a], kernel(r_coords, adds.coords.row(a)));
                counts.delta += 1;
                a += 1;
            }
            taken += 1;
        }
        counts
    }

    /// Folds the overlay into the sorted copies: per copy, a linear merge of
    /// the live frozen entries (tombstones dropped) with the delta's sorted
    /// adds, both ordered by `(z, id)`.  The quantizer, shifts and window are
    /// *unchanged* — the z-domain is fixed at prepare time, so compaction
    /// never perturbs frozen z-values.
    pub(crate) fn compact(&self, delta: &DeltaOverlay, metrics: &mut JoinMetrics) -> Self {
        let add_copies = delta_sorted_copies(&self.quantizer, &self.shifts, delta);
        let copies = self
            .copies
            .iter()
            .zip(&add_copies)
            .map(|(frozen, adds)| {
                let dims = frozen.coords.dims();
                let merged_len = frozen.z.len() - delta.tombstones_len() + adds.z.len();
                let mut z = Vec::with_capacity(merged_len);
                let mut ids = Vec::with_capacity(merged_len);
                let mut coords = CoordMatrix::with_capacity(dims, merged_len);
                let (mut f, mut a) = (0usize, 0usize);
                while f < frozen.z.len() || a < adds.z.len() {
                    if f < frozen.z.len() && delta.is_tombstoned(frozen.ids[f]) {
                        f += 1;
                        continue;
                    }
                    let take_frozen = match (f < frozen.z.len(), a < adds.z.len()) {
                        (true, true) => (frozen.z[f], frozen.ids[f]) <= (adds.z[a], adds.ids[a]),
                        (have_frozen, _) => have_frozen,
                    };
                    if take_frozen {
                        z.push(frozen.z[f]);
                        ids.push(frozen.ids[f]);
                        coords.push_row(frozen.coords.row(f));
                        f += 1;
                    } else {
                        z.push(adds.z[a]);
                        ids.push(adds.ids[a]);
                        coords.push_row(adds.coords.row(a));
                        a += 1;
                    }
                }
                metrics.compacted_points += z.len() as u64;
                SortedCopy { z, ids, coords }
            })
            .collect();
        Self {
            quantizer: self.quantizer.clone(),
            shifts: self.shifts.clone(),
            window: self.window,
            copies,
        }
    }
}

/// Builds one `(z, id)`-sorted index of the overlay's adds per shift, using
/// the prepared quantizer so delta entries live in the same z-domain as the
/// frozen copies (frozen z-values and windows stay bit-identical).
fn delta_sorted_copies(
    quantizer: &ZQuantizer,
    shifts: &[Vec<f64>],
    delta: &DeltaOverlay,
) -> Vec<SortedCopy> {
    let dims = quantizer.dims();
    shifts
        .iter()
        .map(|shift| {
            let mut entries: Vec<(ZValue, PointId, &[f64])> = delta
                .adds()
                .map(|(id, coords)| (quantizer.z_value(coords, Some(shift)), id, coords))
                .collect();
            entries.sort_unstable_by_key(|(z, id, _)| (*z, *id));
            let mut z = Vec::with_capacity(entries.len());
            let mut ids = Vec::with_capacity(entries.len());
            let mut coords = CoordMatrix::with_capacity(dims, entries.len());
            for (zv, id, row) in entries {
                z.push(zv);
                ids.push(id);
                coords.push_row(row);
            }
            SortedCopy { z, ids, coords }
        })
        .collect()
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
                n_clusters: 5,
                std_dev: 5.0,
                extent: 150.0,
                skew: 0.5,
            },
            seed,
        )
    }

    fn quality(r: &PointSet, s: &PointSet, k: usize, config: ZknnConfig) -> (f64, f64) {
        let metric = DistanceMetric::Euclidean;
        let exact = NestedLoopJoin.join(r, s, k, metric).unwrap();
        let got = Zknn::new(config).join(r, s, k, metric).unwrap();
        assert_eq!(got.rows.len(), r.len(), "every r must receive a row");
        for row in &got.rows {
            assert!(row.neighbors.len() <= k);
            assert!(row
                .neighbors
                .windows(2)
                .all(|w| w[0].distance <= w[1].distance));
        }
        let q = got.quality_against(&exact);
        (q.recall, q.distance_ratio)
    }

    #[test]
    fn high_recall_on_clustered_2d_data() {
        let r = clustered(300, 2, 1);
        let s = clustered(350, 2, 2);
        let (recall, ratio) = quality(&r, &s, 10, ZknnConfig::default());
        assert!(recall >= 0.9, "recall {recall}");
        assert!((1.0..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn more_shift_copies_do_not_hurt_recall() {
        let r = uniform(250, 3, 100.0, 3);
        let s = uniform(250, 3, 100.0, 4);
        let (r1, _) = quality(
            &r,
            &s,
            5,
            ZknnConfig {
                shift_copies: 1,
                ..Default::default()
            },
        );
        let (r4, _) = quality(
            &r,
            &s,
            5,
            ZknnConfig {
                shift_copies: 4,
                ..Default::default()
            },
        );
        assert!(
            r4 >= r1 - 1e-9,
            "recall must not degrade with more copies: {r1} -> {r4}"
        );
        assert!(r4 >= 0.9, "recall at 4 copies: {r4}");
    }

    #[test]
    fn exact_when_k_covers_s() {
        // With k ≥ |S| every candidate window spans all of S: the result is
        // exact by construction.
        let r = uniform(40, 2, 30.0, 6);
        let s = uniform(7, 2, 30.0, 7);
        let exact = NestedLoopJoin
            .join(&r, &s, 12, DistanceMetric::Euclidean)
            .unwrap();
        let got = Zknn::default()
            .join(&r, &s, 12, DistanceMetric::Euclidean)
            .unwrap();
        assert!(
            got.matches(&exact, 1e-9),
            "{:?}",
            got.mismatch_against(&exact, 1e-9)
        );
    }

    #[test]
    fn exact_on_identical_points() {
        // All-identical coordinates collapse to one z-value; the id tiebreak
        // still yields k candidates at distance 0.
        let data = PointSet::from_coords(vec![vec![3.0, 3.0]; 25]);
        let exact = NestedLoopJoin
            .join(&data, &data, 4, DistanceMetric::Euclidean)
            .unwrap();
        let got = Zknn::default()
            .join(&data, &data, 4, DistanceMetric::Euclidean)
            .unwrap();
        assert!(got.matches(&exact, 1e-9));
    }

    #[test]
    fn shuffles_far_less_than_broadcast_and_computes_far_less_than_exact() {
        let r = clustered(400, 2, 8);
        let s = clustered(400, 2, 9);
        let k = 10;
        let res = Zknn::default()
            .join(&r, &s, k, DistanceMetric::Euclidean)
            .unwrap();
        let m = &res.metrics;
        // Each R object costs at most α·2·window·k distance computations —
        // a constant per object, unlike the exact algorithms.
        let defaults = ZknnConfig::default();
        let per_object = (defaults.shift_copies * 2 * defaults.z_window * k) as u64;
        assert!(m.distance_computations <= r.len() as u64 * per_object);
        assert!(m.distance_computations < (r.len() * s.len()) as u64 / 2);
        // α copies of R; α copies of S plus boundary padding.
        let alpha = defaults.shift_copies as u64;
        assert_eq!(m.r_records_shuffled, alpha * r.len() as u64);
        assert!(m.s_records_shuffled >= alpha * s.len() as u64);
        assert!(m.shuffle_bytes > 0);
        // Both jobs report phases.
        assert!(m.phase(phases::KNN_JOIN) > std::time::Duration::ZERO);
        assert!(m
            .phase_times
            .iter()
            .any(|(n, _)| n == phases::RESULT_MERGING));
    }

    #[test]
    fn merge_breaks_exact_distance_ties_deterministically() {
        // Two copies each contribute a different candidate at the same
        // distance; with k = 1 only one survives, and it must be the same
        // one (smallest id) on every run — not whichever a hash map yields
        // first.
        let from_copy_a = NeighborListValue::new(vec![geom::Neighbor::new(7, 2.5)]);
        let from_copy_b = NeighborListValue::new(vec![geom::Neighbor::new(3, 2.5)]);
        for _ in 0..32 {
            let merged = merge_distinct_candidates(&[from_copy_a.clone(), from_copy_b.clone()], 1);
            assert_eq!(merged.len(), 1);
            assert_eq!(merged[0].id, 3);
        }
        // Duplicates of one id keep the smaller distance, not a second slot.
        let dup = NeighborListValue::new(vec![geom::Neighbor::new(7, 1.0)]);
        let merged = merge_distinct_candidates(&[from_copy_a, dup], 2);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].distance, 1.0);
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let r = clustered(200, 3, 10);
        let s = clustered(220, 3, 11);
        let a = Zknn::default()
            .join(&r, &s, 5, DistanceMetric::Euclidean)
            .unwrap();
        let b = Zknn::default()
            .join(&r, &s, 5, DistanceMetric::Euclidean)
            .unwrap();
        assert!(a.matches(&b, 0.0));
        assert_eq!(
            a.metrics.distance_computations,
            b.metrics.distance_computations
        );
        assert_eq!(a.metrics.shuffle_bytes, b.metrics.shuffle_bytes);
        // A different shift seed may legitimately produce different
        // candidates (still high recall, checked elsewhere).
        let c = Zknn::new(ZknnConfig {
            seed: 999,
            ..Default::default()
        })
        .join(&r, &s, 5, DistanceMetric::Euclidean)
        .unwrap();
        assert_eq!(c.rows.len(), r.len());
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let r = uniform(10, 2, 1.0, 0);
        let s = uniform(10, 2, 1.0, 1);
        let run = |config: ZknnConfig| {
            Zknn::new(config)
                .join(&r, &s, 2, DistanceMetric::Euclidean)
                .unwrap_err()
        };
        assert!(matches!(
            run(ZknnConfig {
                shift_copies: 0,
                ..Default::default()
            }),
            JoinError::InvalidConfig(_)
        ));
        assert!(matches!(
            run(ZknnConfig {
                quantization_bits: 0,
                ..Default::default()
            }),
            JoinError::InvalidConfig(_)
        ));
        assert!(matches!(
            run(ZknnConfig {
                quantization_bits: 33,
                ..Default::default()
            }),
            JoinError::InvalidConfig(_)
        ));
        assert!(matches!(
            run(ZknnConfig {
                reducers: 0,
                ..Default::default()
            }),
            JoinError::ZeroReducers
        ));
        assert!(matches!(
            run(ZknnConfig {
                map_tasks: 0,
                ..Default::default()
            }),
            JoinError::ZeroMapTasks
        ));
        // 12 dims × 32 bits = 384 > 256 interleaved bits.
        let wide = uniform(10, 12, 1.0, 2);
        let err = Zknn::new(ZknnConfig {
            quantization_bits: 32,
            ..Default::default()
        })
        .join(&wide, &wide, 2, DistanceMetric::Euclidean)
        .unwrap_err();
        assert!(matches!(err, JoinError::InvalidConfig(_)), "{err}");
        assert_eq!(Zknn::default().name(), "H-zkNNJ");
        assert_eq!(Zknn::default().config().shift_copies, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        /// The candidate sets are approximate but the plumbing is not: every
        /// run yields one row per R object with at most k sorted true-distance
        /// neighbours, and recall against the oracle stays high.
        #[test]
        fn recall_stays_high_on_random_workloads(
            n_r in 20usize..120,
            n_s in 20usize..120,
            k in 1usize..8,
            reducers in 1usize..10,
            seed in 0u64..50,
        ) {
            let r = uniform(n_r, 2, 80.0, seed);
            let s = uniform(n_s, 2, 80.0, seed ^ 0x5A);
            let metric = DistanceMetric::Euclidean;
            let exact = NestedLoopJoin.join(&r, &s, k, metric).unwrap();
            let got = Zknn::new(ZknnConfig { reducers, map_tasks: 3, ..Default::default() })
                .join(&r, &s, k, metric)
                .unwrap();
            prop_assert_eq!(got.rows.len(), r.len());
            let q = got.quality_against(&exact);
            prop_assert!(q.recall >= 0.8, "recall {} below threshold", q.recall);
            prop_assert!(q.distance_ratio >= 1.0 - 1e-9);
        }
    }
}
