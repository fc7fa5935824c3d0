//! Exact single-machine kNN join (the correctness oracle).
//!
//! The "naive implementation" the paper's introduction describes: for every
//! `r ∈ R`, scan all of `S` and keep the `k` closest objects — `O(|R|·|S|)`
//! distance computations.  It is used by tests and benchmarks as ground truth
//! and as the centralized baseline that motivates distributing the join.

use crate::algorithms::common::{flat_block_scan, probe_in_chunks, DeltaBlock, TileScratch};
use crate::delta::DeltaOverlay;
use crate::metrics::{phases, JoinMetrics};
use crate::plan::JoinPlan;
use crate::result::{JoinError, JoinResult, JoinRow};
use geom::{CoordMatrix, DistanceMetric, KernelMode, NeighborList, PointSet};
use std::time::Instant;

/// The exact nested-loop kNN join.
#[derive(Debug, Clone, Copy, Default)]
pub struct NestedLoopJoin;

impl NestedLoopJoin {
    /// Computes `R ⋉ S` exactly.
    ///
    /// # Errors
    /// Returns [`JoinError`] if `k` is zero, an input is empty or the
    /// dimensionalities differ.
    pub fn join(
        &self,
        r: &PointSet,
        s: &PointSet,
        k: usize,
        metric: DistanceMetric,
    ) -> Result<JoinResult, JoinError> {
        validate_inputs(r, s, k)?;
        let start = Instant::now();
        // S is scanned |R| times: flatten it once and hoist the kernel.
        let s_coords = CoordMatrix::from_point_set(s);
        let s_ids: Vec<u64> = s.iter().map(|p| p.id).collect();
        let kernel = metric.kernel();
        let mut rows = Vec::with_capacity(r.len());
        let mut computations = 0u64;
        for r_obj in r {
            let mut list = NeighborList::new(k);
            for (i, row) in s_coords.rows().enumerate() {
                list.offer(s_ids[i], kernel(&r_obj.coords, row));
                computations += 1;
            }
            rows.push(JoinRow {
                r_id: r_obj.id,
                neighbors: list.into_sorted(),
            });
        }
        let mut metrics = JoinMetrics {
            distance_computations: computations,
            r_size: r.len(),
            s_size: s.len(),
            ..Default::default()
        };
        metrics.record_phase(phases::KNN_JOIN, start.elapsed());
        let mut result = JoinResult { rows, metrics };
        result.normalize();
        Ok(result)
    }

    /// [`Self::join`] with an explicit [`KernelMode`].  `Exact` is the
    /// untouched scalar loop above; `Fast` streams `S` through the tiled
    /// batch rank kernels; `RankF32` additionally filters each tile in `f32`
    /// and refines only the survivors in `f64` (so its
    /// `distance_computations` counter reflects the refinements alone).
    ///
    /// # Errors
    /// Same contract as [`Self::join`].
    pub fn join_with_mode(
        &self,
        r: &PointSet,
        s: &PointSet,
        k: usize,
        metric: DistanceMetric,
        mode: KernelMode,
    ) -> Result<JoinResult, JoinError> {
        if mode.is_exact() {
            return self.join(r, s, k, metric);
        }
        validate_inputs(r, s, k)?;
        let start = Instant::now();
        let s_coords = CoordMatrix::from_point_set(s);
        let s_ids: Vec<u64> = s.iter().map(|p| p.id).collect();
        let s_coords32 = shadow_coords(&s_coords, mode);
        let mut scratch = TileScratch::new();
        let mut rows = Vec::with_capacity(r.len());
        let mut computations = 0u64;
        for r_obj in r {
            let (neighbors, counts) = flat_block_scan(
                &r_obj.coords,
                &s_ids,
                &s_coords,
                s_coords32.as_deref(),
                k,
                metric,
                None,
                None,
                &mut scratch,
            );
            computations += counts.frozen;
            rows.push(JoinRow {
                r_id: r_obj.id,
                neighbors,
            });
        }
        let mut metrics = JoinMetrics {
            distance_computations: computations,
            r_size: r.len(),
            s_size: s.len(),
            ..Default::default()
        };
        metrics.record_phase(phases::KNN_JOIN, start.elapsed());
        let mut result = JoinResult { rows, metrics };
        result.normalize();
        Ok(result)
    }
}

/// The `f32` shadow copy of a flat block, built only when `mode` is
/// [`KernelMode::RankF32`] (the other modes never read it).
pub(crate) fn shadow_coords(coords: &CoordMatrix, mode: KernelMode) -> Option<Vec<f32>> {
    match mode {
        KernelMode::RankF32 => {
            let mut shadow = Vec::with_capacity(coords.as_slice().len());
            geom::kernels::downcast_coords(coords.as_slice(), &mut shadow);
            Some(shadow)
        }
        KernelMode::Exact | KernelMode::Fast => None,
    }
}

/// The prepared state of the exhaustive scanners, nested loop and
/// broadcast: `S` flattened once into columnar storage.  In Hadoop terms the
/// broadcast join's build is the broadcast itself — `S` is staged at every
/// node once — so with `S` resident both algorithms probe the same way: an
/// exhaustive scan per object, split across the worker pool.
#[derive(Debug)]
pub(crate) struct FlatPrepared {
    ids: Vec<u64>,
    coords: CoordMatrix,
    /// `f32` shadow of `coords`, present only in `RankF32` mode.
    coords32: Option<Vec<f32>>,
    mode: KernelMode,
}

impl FlatPrepared {
    /// Flattens `S` (and downcasts the `f32` shadow when `mode` wants one).
    pub(crate) fn build(s: &PointSet, mode: KernelMode, metrics: &mut JoinMetrics) -> Self {
        let start = Instant::now();
        let coords = CoordMatrix::from_point_set(s);
        let coords32 = shadow_coords(&coords, mode);
        let prepared = Self {
            ids: s.iter().map(|p| p.id).collect(),
            coords,
            coords32,
            mode,
        };
        metrics.record_phase(phases::PREPARE_BUILD, start.elapsed());
        prepared
    }

    /// Scans the resident flat `S` (minus tombstones, plus the memtable's
    /// adds when a delta overlay is present) for every probe object.
    pub(crate) fn probe(
        &self,
        r: &PointSet,
        plan: &JoinPlan,
        workers: usize,
        delta: Option<&DeltaOverlay>,
        metrics: &mut JoinMetrics,
    ) -> Vec<JoinRow> {
        let (k, metric) = (plan.k, plan.metric);
        if !self.mode.is_exact() {
            let delta_block = delta.and_then(|d| DeltaBlock::from_overlay(d, self.coords.dims()));
            return probe_in_chunks(r, workers, metrics, |_, chunk, counts| {
                let mut scratch = TileScratch::new();
                chunk
                    .iter()
                    .map(|r_obj| {
                        let (neighbors, scanned) = flat_block_scan(
                            &r_obj.coords,
                            &self.ids,
                            &self.coords,
                            self.coords32.as_deref(),
                            k,
                            metric,
                            delta,
                            delta_block.as_ref(),
                            &mut scratch,
                        );
                        *counts += scanned;
                        JoinRow {
                            r_id: r_obj.id,
                            neighbors,
                        }
                    })
                    .collect()
            });
        }
        let kernel = metric.kernel();
        probe_in_chunks(r, workers, metrics, |_, chunk, counts| {
            chunk
                .iter()
                .map(|r_obj| {
                    let mut list = NeighborList::new(k);
                    for (i, row) in self.coords.rows().enumerate() {
                        if delta.is_some_and(|overlay| overlay.is_tombstoned(self.ids[i])) {
                            counts.masked += 1;
                            continue;
                        }
                        list.offer(self.ids[i], kernel(&r_obj.coords, row));
                        counts.frozen += 1;
                    }
                    for (id, coords) in delta.iter().flat_map(|overlay| overlay.adds()) {
                        list.offer(id, kernel(&r_obj.coords, coords));
                        counts.delta += 1;
                    }
                    JoinRow {
                        r_id: r_obj.id,
                        neighbors: list.into_sorted(),
                    }
                })
                .collect()
        })
    }

    /// Re-flattens the materialized corpus (frozen survivors in arrival
    /// order, then adds in ascending id order — the canonical
    /// materialization order, so the compacted scan is bit-identical to a
    /// cold build over the same corpus), keeping this epoch's kernel mode.
    pub(crate) fn compact(&self, materialized: &PointSet, metrics: &mut JoinMetrics) -> Self {
        metrics.compacted_points += materialized.len() as u64;
        Self::build(materialized, self.mode, metrics)
    }
}

/// Shared input validation for every join algorithm in this crate.
pub(crate) fn validate_inputs(r: &PointSet, s: &PointSet, k: usize) -> Result<(), JoinError> {
    if k == 0 {
        return Err(JoinError::InvalidK);
    }
    if r.is_empty() {
        return Err(JoinError::EmptyInput("R"));
    }
    if s.is_empty() {
        return Err(JoinError::EmptyInput("S"));
    }
    // Intra-set raggedness is checked before the cross-set comparison: the
    // kernels only `debug_assert` slice lengths, so a ragged set that happens
    // to share its first point's dims with the other set would otherwise
    // reach them.
    for (name, set) in [("R", r), ("S", s)] {
        if let Some((index, dims)) = set.first_dim_mismatch() {
            return Err(JoinError::RaggedInput {
                dataset: name,
                index,
                dims,
                expected: set.dims(),
            });
        }
    }
    if r.dims() != s.dims() {
        return Err(JoinError::DimensionalityMismatch {
            r_dims: r.dims(),
            s_dims: s.dims(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::uniform;
    use geom::Point;

    #[test]
    fn small_hand_checked_example() {
        let r = PointSet::from_points(vec![Point::new(0, vec![0.0, 0.0])]);
        let s = PointSet::from_points(vec![
            Point::new(10, vec![1.0, 0.0]),
            Point::new(11, vec![0.0, 2.0]),
            Point::new(12, vec![3.0, 0.0]),
        ]);
        let res = NestedLoopJoin
            .join(&r, &s, 2, DistanceMetric::Euclidean)
            .unwrap();
        assert_eq!(res.rows.len(), 1);
        let ids: Vec<u64> = res.rows[0].neighbors.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![10, 11]);
        assert_eq!(res.metrics.distance_computations, 3);
        assert!((res.metrics.computation_selectivity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cardinality_is_k_times_r() {
        let r = uniform(40, 3, 10.0, 1);
        let s = uniform(60, 3, 10.0, 2);
        let res = NestedLoopJoin
            .join(&r, &s, 5, DistanceMetric::Euclidean)
            .unwrap();
        assert_eq!(res.rows.len(), 40);
        let total: usize = res.rows.iter().map(|row| row.neighbors.len()).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn k_larger_than_s_degrades_to_cross_join() {
        let r = uniform(5, 2, 10.0, 3);
        let s = uniform(3, 2, 10.0, 4);
        let res = NestedLoopJoin
            .join(&r, &s, 10, DistanceMetric::Euclidean)
            .unwrap();
        assert!(res.rows.iter().all(|row| row.neighbors.len() == 3));
    }

    #[test]
    fn self_join_finds_self_first() {
        let data = uniform(30, 2, 10.0, 5);
        let res = NestedLoopJoin
            .join(&data, &data, 3, DistanceMetric::Euclidean)
            .unwrap();
        for row in &res.rows {
            assert_eq!(row.neighbors[0].id, row.r_id);
            assert_eq!(row.neighbors[0].distance, 0.0);
        }
    }

    #[test]
    fn input_validation() {
        let a = uniform(5, 2, 1.0, 0);
        let b = uniform(5, 3, 1.0, 0);
        let empty = PointSet::new();
        assert_eq!(
            NestedLoopJoin
                .join(&a, &a, 0, DistanceMetric::Euclidean)
                .unwrap_err(),
            JoinError::InvalidK
        );
        assert_eq!(
            NestedLoopJoin
                .join(&empty, &a, 1, DistanceMetric::Euclidean)
                .unwrap_err(),
            JoinError::EmptyInput("R")
        );
        assert_eq!(
            NestedLoopJoin
                .join(&a, &empty, 1, DistanceMetric::Euclidean)
                .unwrap_err(),
            JoinError::EmptyInput("S")
        );
        assert!(matches!(
            NestedLoopJoin
                .join(&a, &b, 1, DistanceMetric::Euclidean)
                .unwrap_err(),
            JoinError::DimensionalityMismatch { .. }
        ));
    }

    #[test]
    fn ragged_inputs_are_rejected_not_a_release_mode_panic() {
        let good = uniform(5, 2, 1.0, 0);
        let ragged = PointSet::from_coords(vec![vec![0.0, 1.0], vec![2.0], vec![3.0, 4.0]]);
        assert_eq!(
            NestedLoopJoin
                .join(&ragged, &good, 1, DistanceMetric::Euclidean)
                .unwrap_err(),
            JoinError::RaggedInput {
                dataset: "R",
                index: 1,
                dims: 1,
                expected: 2
            }
        );
        assert_eq!(
            NestedLoopJoin
                .join(&good, &ragged, 1, DistanceMetric::Euclidean)
                .unwrap_err(),
            JoinError::RaggedInput {
                dataset: "S",
                index: 1,
                dims: 1,
                expected: 2
            }
        );
    }

    #[test]
    fn fast_and_rank_f32_modes_match_the_scalar_loop() {
        let r = uniform(60, 5, 25.0, 11);
        let s = uniform(700, 5, 25.0, 12);
        for metric in [
            DistanceMetric::Euclidean,
            DistanceMetric::Manhattan,
            DistanceMetric::Chebyshev,
        ] {
            let exact = NestedLoopJoin.join(&r, &s, 6, metric).unwrap();
            let fast = NestedLoopJoin
                .join_with_mode(&r, &s, 6, metric, KernelMode::Fast)
                .unwrap();
            assert!(
                fast.matches(&exact, 1e-9),
                "{metric:?}: {:?}",
                fast.mismatch_against(&exact, 1e-9)
            );
            // Fast ranks every row, so the counter still bills |R|·|S|.
            assert_eq!(fast.metrics.distance_computations, 60 * 700);
            let rank32 = NestedLoopJoin
                .join_with_mode(&r, &s, 6, metric, KernelMode::RankF32)
                .unwrap();
            // Uniform data is nowhere near f32 resolution, so the filter
            // keeps every true neighbour and the f64 refinement makes the
            // reported distances exact.
            assert!(
                rank32.matches(&exact, 1e-9),
                "{metric:?}: {:?}",
                rank32.mismatch_against(&exact, 1e-9)
            );
            // The f32 filter's whole point: far fewer f64 kernel calls.
            assert!(rank32.metrics.distance_computations < fast.metrics.distance_computations / 2);
        }
        let exact_via_mode = NestedLoopJoin
            .join_with_mode(&r, &s, 6, DistanceMetric::Euclidean, KernelMode::Exact)
            .unwrap();
        let exact = NestedLoopJoin
            .join(&r, &s, 6, DistanceMetric::Euclidean)
            .unwrap();
        assert!(exact_via_mode.matches(&exact, 0.0));
    }

    #[test]
    fn works_with_all_metrics() {
        let r = uniform(20, 4, 10.0, 7);
        let s = uniform(20, 4, 10.0, 8);
        for metric in [
            DistanceMetric::Euclidean,
            DistanceMetric::Manhattan,
            DistanceMetric::Chebyshev,
        ] {
            let res = NestedLoopJoin.join(&r, &s, 3, metric).unwrap();
            assert_eq!(res.rows.len(), 20);
            // neighbours sorted ascending
            for row in &res.rows {
                assert!(row
                    .neighbors
                    .windows(2)
                    .all(|w| w[0].distance <= w[1].distance));
            }
        }
    }
}
