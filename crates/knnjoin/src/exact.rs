//! Exact single-machine kNN join (the correctness oracle).
//!
//! The "naive implementation" the paper's introduction describes: for every
//! `r ∈ R`, scan all of `S` and keep the `k` closest objects — `O(|R|·|S|)`
//! distance computations.  It is used by tests and benchmarks as ground truth
//! and as the centralized baseline that motivates distributing the join.

use crate::algorithms::common::probe_in_chunks;
use crate::delta::DeltaOverlay;
use crate::metrics::{phases, JoinMetrics};
use crate::plan::JoinPlan;
use crate::result::{JoinError, JoinResult, JoinRow};
use geom::{CoordMatrix, DistanceMetric, NeighborList, Point, PointSet};
use std::time::Instant;

/// The exact nested-loop kNN join.
#[derive(Debug, Clone, Copy, Default)]
pub struct NestedLoopJoin;

impl NestedLoopJoin {
    /// Computes `R ⋉ S` exactly.
    ///
    /// # Errors
    /// Returns [`JoinError`] if `k` is zero, an input is empty or ragged,
    /// the dimensionalities differ or a coordinate is NaN or infinite.
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
}

impl FlatPrepared {
    /// Flattens `S`.
    pub(crate) fn build(s: &PointSet, metrics: &mut JoinMetrics) -> Self {
        let start = Instant::now();
        let prepared = Self {
            ids: s.iter().map(|p| p.id).collect(),
            coords: CoordMatrix::from_point_set(s),
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
    /// cold build over the same corpus).
    pub(crate) fn compact(&self, materialized: &PointSet, metrics: &mut JoinMetrics) -> Self {
        metrics.compacted_points += materialized.len() as u64;
        Self::build(materialized, metrics)
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
    check_set(r, "R")?;
    check_set(s, "S")?;
    check_dims(r.dims(), s.dims())
}

/// Validation of a probe batch against a prepared corpus of `s_dims`
/// dimensions, shared by every `PreparedJoin::query*` and `Server::submit`.
pub(crate) fn validate_probe(r: &PointSet, s_dims: usize) -> Result<(), JoinError> {
    if r.is_empty() {
        return Err(JoinError::EmptyInput("R"));
    }
    check_set(r, "R")?;
    check_dims(r.dims(), s_dims)
}

/// Validation of one point joining `dataset` (`"R"` for a single-point
/// query, `"S"` for an insert) of a corpus of `s_dims` dimensions.
pub(crate) fn validate_point(
    point: &Point,
    dataset: &'static str,
    s_dims: usize,
) -> Result<(), JoinError> {
    check_dims(point.dims(), s_dims)?;
    if !point.is_finite() {
        return Err(JoinError::NonFiniteCoordinate { dataset, index: 0 });
    }
    Ok(())
}

/// Rejects a ragged set, or one holding a NaN or infinite coordinate.
fn check_set(set: &PointSet, dataset: &'static str) -> Result<(), JoinError> {
    if let Some((index, dims)) = set.first_dim_mismatch() {
        return Err(JoinError::RaggedInput {
            dataset,
            index,
            dims,
            expected: set.dims(),
        });
    }
    match set.first_non_finite() {
        Some(index) => Err(JoinError::NonFiniteCoordinate { dataset, index }),
        None => Ok(()),
    }
}

fn check_dims(r_dims: usize, s_dims: usize) -> Result<(), JoinError> {
    if r_dims != s_dims {
        return Err(JoinError::DimensionalityMismatch { r_dims, s_dims });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::uniform;

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
