//! Distance bounds and pruning rules (Theorems 1–7, Algorithm 1 and 2).
//!
//! All pruning in the paper follows from the triangle inequality applied to
//! object-to-pivot distances, which are the only distances available without
//! touching the raw data again:
//!
//! * **Theorem 1 / Corollary 1** — the distance from a query to the
//!   generalized hyperplane separating two pivots lower-bounds its distance to
//!   every object of the other pivot's cell; whole cells can be skipped.
//! * **Theorem 2** — within a cell, only objects whose pivot distance falls in
//!   a window around the query's pivot distance can be within `θ`.
//! * **Theorem 3 / Equation 6 / Algorithm 1** — an upper bound `θ_i` on the
//!   kNN distance of *every* object of an `R` partition, computed from the
//!   summary tables alone.
//! * **Theorem 4 / 5 / Corollary 2** — a lower bound on the distance from an
//!   `S` object to every object of an `R` partition, and hence the rule that
//!   decides which `S` objects must be replicated to which partition/group.
//! * **Theorem 6 / 7** — the same rule lifted to partition groups, and the
//!   resulting replication count `RP(S)` used as the grouping cost model.

use crate::grouping::PartitionGrouping;
use crate::partition::PartitionedDataset;
use crate::summary::{SPartitionSummary, SummaryTables};
use std::collections::BinaryHeap;

/// Theorem 1: distance from an object `q` to the generalized hyperplane
/// `HP(p_q, p_i)` between its own pivot `p_q` and another pivot `p_i`.
///
/// `d_q_own` is `|q, p_q|`, `d_q_other` is `|q, p_i|` and `pivot_dist` is
/// `|p_q, p_i|`.  The value is non-negative whenever `q` really is closer to
/// its own pivot.  A zero `pivot_dist` (duplicate pivots) yields zero, which
/// keeps the bound sound (it never over-prunes).
pub fn hyperplane_distance(d_q_own: f64, d_q_other: f64, pivot_dist: f64) -> f64 {
    if pivot_dist <= 0.0 {
        return 0.0;
    }
    (d_q_other * d_q_other - d_q_own * d_q_own) / (2.0 * pivot_dist)
}

/// Metric-aware version of the Corollary 1 pruning bound.
///
/// The paper's Theorem 1 formula is the (signed) Euclidean distance from the
/// query to the bisector hyperplane of the two pivots, which is only a valid
/// lower bound on `|q, o|` under the Euclidean metric.  For the other metrics
/// the generalized-hyperplane bound `(|q, p_other| − |q, p_own|) / 2` — which
/// follows from the triangle inequality alone — is used instead.  Both return
/// a value `B` such that every `o` in the other pivot's cell satisfies
/// `|q, o| ≥ B`, so partitions with `B > θ` can be skipped.
pub fn hyperplane_bound(
    d_q_own: f64,
    d_q_other: f64,
    pivot_dist: f64,
    metric: geom::DistanceMetric,
) -> f64 {
    match metric {
        geom::DistanceMetric::Euclidean => hyperplane_distance(d_q_own, d_q_other, pivot_dist),
        _ => (d_q_other - d_q_own) / 2.0,
    }
}

/// Theorem 2: the window of pivot distances an object `o ∈ P_j` must fall in
/// to possibly satisfy `|q, o| ≤ θ`, given the partition's `L`/`U` statistics
/// and `|p_j, q|`.  Returns `(low, high)`; the window may be empty
/// (`low > high`), meaning the whole partition can be skipped.
pub fn theorem2_window(lower: f64, upper: f64, pivot_to_query: f64, theta: f64) -> (f64, f64) {
    (
        lower.max(pivot_to_query - theta),
        upper.min(pivot_to_query + theta),
    )
}

/// Theorem 3: upper bound on the distance from an `S` object `s ∈ P_j^S` to
/// *any* object of partition `P_i^R`:
/// `ub(s, P_i^R) = U(P_i^R) + |p_i, p_j| + |p_j, s|`.
pub fn upper_bound(u_r_partition: f64, pivot_dist: f64, s_pivot_dist: f64) -> f64 {
    u_r_partition + pivot_dist + s_pivot_dist
}

/// Theorem 4: lower bound on the distance from an `S` object `s ∈ P_j^S` to
/// *any* object of partition `P_i^R`:
/// `lb(s, P_i^R) = max{0, |p_i, p_j| − U(P_i^R) − |p_j, s|}`.
pub fn lower_bound(u_r_partition: f64, pivot_dist: f64, s_pivot_dist: f64) -> f64 {
    (pivot_dist - u_r_partition - s_pivot_dist).max(0.0)
}

/// Algorithm 1 (`boundingKNN`): computes `θ_i`, an upper bound on the kNN
/// distance of every object in the `R` partition `P_i^R`, from summaries
/// alone.
///
/// `u_r` is `U(P_i^R)`, `s_summaries` is the `T_S` to bound over (the whole
/// of `S` for PGBJ, the block of `S` one reducer cell received for PBJ) and
/// `pivot_row[j]` is `|p_i, p_j|` for every partition id `j` the summaries
/// name.  Returns `f64::INFINITY` when the summaries hold fewer than `k`
/// objects (the bound is then vacuous but still sound).  An empty `R`
/// partition has no objects to bound; callers skip it.
pub fn bounding_knn_theta(
    u_r: f64,
    s_summaries: &[SPartitionSummary],
    pivot_row: &[f64],
    k: usize,
) -> f64 {
    assert!(k > 0, "k must be positive");
    // Max-heap keeps the k smallest upper bounds; its top is the current θ.
    let mut heap: BinaryHeap<OrderedF64> = BinaryHeap::with_capacity(k + 1);
    for s_summary in s_summaries {
        let pivot_dist = pivot_row[s_summary.partition];
        // knn_distances is ascending and ub is monotone in it, so once one
        // candidate fails to improve the heap no later candidate of this
        // partition can (line 8 of Algorithm 1).
        for s_pivot_dist in &s_summary.knn_distances {
            let ub = upper_bound(u_r, pivot_dist, *s_pivot_dist);
            if heap.len() < k {
                heap.push(OrderedF64(ub));
            } else if heap.peek().is_some_and(|top| ub < top.0) {
                heap.pop();
                heap.push(OrderedF64(ub));
            } else {
                break;
            }
        }
    }
    match heap.peek() {
        Some(top) if heap.len() >= k => top.0,
        _ => f64::INFINITY,
    }
}

/// [`bounding_knn_theta`] for `R` partition `r_partition` over the whole of
/// `tables`; `f64::INFINITY` when that partition is empty.
pub fn table_theta(tables: &SummaryTables, r_partition: usize, k: usize) -> f64 {
    let r_summary = &tables.r_summaries[r_partition];
    if r_summary.count == 0 {
        return f64::INFINITY;
    }
    bounding_knn_theta(
        r_summary.upper,
        &tables.s_summaries,
        &tables.pivot_distances[r_partition],
        k,
    )
}

/// Per-partition bounds computed before the second MapReduce job (Algorithm
/// 2, `compLBOfReplica`).
#[derive(Debug, Clone)]
pub struct PartitionBounds {
    /// `θ_i` for every partition of `R` (Equation 6).
    pub theta: Vec<f64>,
    /// `LB(P_j^S, P_i^R)` indexed as `lb[i][j]` (Corollary 2).
    pub lb: Vec<Vec<f64>>,
}

impl PartitionBounds {
    /// Runs Algorithm 1 for every `R` partition and Algorithm 2 for every
    /// `(R partition, S partition)` pair.
    pub fn compute(tables: &SummaryTables, k: usize) -> Self {
        let n = tables.partition_count();
        let theta: Vec<f64> = (0..n).map(|i| table_theta(tables, i, k)).collect();
        let lb = (0..n)
            .map(|i| {
                let u_r = tables.r_summaries[i].upper;
                (0..n)
                    .map(|j| {
                        if theta[i].is_infinite() {
                            // A vacuous θ means nothing can be pruned for this
                            // partition: every S object must be shipped.
                            f64::NEG_INFINITY
                        } else {
                            tables.pivot_distance(i, j) - u_r - theta[i]
                        }
                    })
                    .collect()
            })
            .collect();
        Self { theta, lb }
    }

    /// Theorem 6: `LB(P_j^S, G_i) = min_{P^R ∈ G_i} LB(P_j^S, P^R)`, for every
    /// group of the given grouping.  Indexed as `result[group][s_partition]`.
    pub fn group_lower_bounds(&self, grouping: &PartitionGrouping) -> Vec<Vec<f64>> {
        let n_partitions = self.lb.len();
        grouping
            .groups
            .iter()
            .map(|members| {
                (0..n_partitions)
                    .map(|j| {
                        members
                            .iter()
                            .map(|&i| self.lb[i][j])
                            .fold(f64::INFINITY, f64::min)
                    })
                    .collect()
            })
            .collect()
    }

    /// Theorem 7: the exact number of replicas of `S` objects shipped to
    /// reducers under the given grouping, computed from the partitioned `S`
    /// (each object's pivot distance is compared against the group bound).
    pub fn count_replicas(
        &self,
        grouping: &PartitionGrouping,
        partitioned_s: &PartitionedDataset,
    ) -> u64 {
        let group_lb = self.group_lower_bounds(grouping);
        let mut replicas = 0u64;
        for bounds in &group_lb {
            for (j, bucket) in partitioned_s.partitions.iter().enumerate() {
                let lb = bounds[j];
                replicas += bucket.iter().filter(|(_, d)| *d >= lb).count() as u64;
            }
        }
        replicas
    }

    /// Equation 12: the approximate replica count for one group used by the
    /// greedy grouping strategy — whole `S` partitions are counted as soon as
    /// any of their objects could be assigned (`LB(P_j^S, G) ≤ U(P_j^S)`).
    pub fn approximate_group_replicas(&self, members: &[usize], tables: &SummaryTables) -> u64 {
        let n = tables.partition_count();
        let mut total = 0u64;
        for j in 0..n {
            let lb = members
                .iter()
                .map(|&i| self.lb[i][j])
                .fold(f64::INFINITY, f64::min);
            if lb <= tables.s_summaries[j].upper {
                total += tables.s_summaries[j].count as u64;
            }
        }
        total
    }
}

/// `f64` wrapper with a total order (`f64::total_cmp`), for use in heaps.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);
impl Eq for OrderedF64 {}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grouping::PartitionGrouping;
    use crate::partition::VoronoiPartitioner;
    use datagen::uniform;
    use geom::{DistanceMetric, Point, PointSet};
    use proptest::prelude::*;

    fn build_tables(
        r: &PointSet,
        s: &PointSet,
        n_pivots: usize,
        k: usize,
        seed: u64,
    ) -> (SummaryTables, PartitionedDataset, PartitionedDataset) {
        let pivots: Vec<Point> = uniform(n_pivots, r.dims(), 100.0, seed).into_points();
        let partitioner = VoronoiPartitioner::new(pivots.clone(), DistanceMetric::Euclidean);
        let pr = partitioner.partition(r);
        let ps = partitioner.partition(s);
        let tables = SummaryTables::build(pivots, DistanceMetric::Euclidean, &pr, &ps, k);
        (tables, pr, ps)
    }

    #[test]
    fn theta_survives_a_nan_pivot_distance_in_t_s() {
        let r = uniform(80, 2, 100.0, 1);
        let s = uniform(120, 2, 100.0, 2);
        let (mut tables, pr, _) = build_tables(&r, &s, 6, 5, 3);
        for summary in std::sync::Arc::make_mut(&mut tables.s_summaries) {
            summary.knn_distances.insert(0, f64::NAN);
        }
        for (i, bucket) in pr.partitions.iter().enumerate() {
            let theta = table_theta(&tables, i, 5);
            if bucket.is_empty() {
                assert_eq!(theta, f64::INFINITY);
            }
        }
    }

    #[test]
    fn hyperplane_distance_matches_geometry() {
        // Pivots at (0,0) and (10,0): hyperplane is x = 5.
        // For q = (2, 0) in the first cell, distance to the plane is 3.
        let d_own = 2.0;
        let d_other = 8.0;
        let d = hyperplane_distance(d_own, d_other, 10.0);
        assert!((d - 3.0).abs() < 1e-12);
        // Degenerate pivots: bound collapses to 0 (never over-prunes).
        assert_eq!(hyperplane_distance(1.0, 2.0, 0.0), 0.0);
    }

    #[test]
    fn theorem2_window_behaviour() {
        let (lo, hi) = theorem2_window(1.0, 9.0, 5.0, 2.0);
        assert_eq!((lo, hi), (3.0, 7.0));
        // Window clamped by L and U.
        let (lo, hi) = theorem2_window(4.0, 6.0, 5.0, 10.0);
        assert_eq!((lo, hi), (4.0, 6.0));
        // Empty window when θ is too small and the query is far away.
        let (lo, hi) = theorem2_window(0.0, 1.0, 10.0, 2.0);
        assert!(lo > hi);
    }

    #[test]
    fn upper_and_lower_bounds_bracket_true_distances() {
        // Exhaustively validate Theorems 3 and 4 on a small random instance.
        let r = uniform(60, 2, 100.0, 1);
        let s = uniform(80, 2, 100.0, 2);
        let (tables, pr, ps) = build_tables(&r, &s, 5, 3, 3);
        let metric = DistanceMetric::Euclidean;
        for (i, r_bucket) in pr.partitions.iter().enumerate() {
            let u_r = tables.r_summaries[i].upper;
            for (j, s_bucket) in ps.partitions.iter().enumerate() {
                let pivot_dist = tables.pivot_distance(i, j);
                for (s_obj, s_pivot_dist) in s_bucket {
                    let ub = upper_bound(u_r, pivot_dist, *s_pivot_dist);
                    let lb = lower_bound(u_r, pivot_dist, *s_pivot_dist);
                    for (r_obj, _) in r_bucket {
                        let d = metric.distance(r_obj, s_obj);
                        assert!(d <= ub + 1e-9, "ub violated: {d} > {ub}");
                        assert!(d >= lb - 1e-9, "lb violated: {d} < {lb}");
                    }
                }
            }
        }
    }

    #[test]
    fn theta_upper_bounds_every_true_knn_distance() {
        let r = uniform(80, 3, 50.0, 7);
        let s = uniform(120, 3, 50.0, 8);
        let k = 4;
        let (tables, pr, ps) = build_tables(&r, &s, 6, k, 9);
        let metric = DistanceMetric::Euclidean;
        let bounds = PartitionBounds::compute(&tables, k);
        let all_s: Vec<(Point, f64)> = ps.partitions.iter().flatten().cloned().collect();
        for (i, r_bucket) in pr.partitions.iter().enumerate() {
            for (r_obj, _) in r_bucket {
                // true kth NN distance of r_obj
                let mut dists: Vec<f64> = all_s
                    .iter()
                    .map(|(s, _)| metric.distance(r_obj, s))
                    .collect();
                dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
                let kth = dists[k - 1];
                assert!(
                    kth <= bounds.theta[i] + 1e-9,
                    "θ_{i} = {} is below the true kth distance {kth}",
                    bounds.theta[i]
                );
            }
        }
    }

    #[test]
    fn theta_is_infinite_when_s_is_too_small() {
        let r = uniform(30, 2, 10.0, 1);
        let s = uniform(2, 2, 10.0, 2);
        let (tables, _, _) = build_tables(&r, &s, 3, 5, 3);
        for i in 0..tables.partition_count() {
            if tables.r_summaries[i].count > 0 {
                assert!(table_theta(&tables, i, 5).is_infinite());
            }
        }
    }

    #[test]
    fn replica_filter_never_prunes_a_true_neighbor() {
        // The heart of the correctness argument: for every r ∈ P_i^R and every
        // s among its true kNN, s must pass the partition-level filter
        // |s, p_j| ≥ LB(P_j^S, P_i^R).
        let r = uniform(60, 2, 80.0, 21);
        let s = uniform(90, 2, 80.0, 22);
        let k = 3;
        let (tables, pr, ps) = build_tables(&r, &s, 6, k, 23);
        let metric = DistanceMetric::Euclidean;
        let bounds = PartitionBounds::compute(&tables, k);
        let all_s: Vec<(Point, f64, usize)> = ps
            .partitions
            .iter()
            .enumerate()
            .flat_map(|(j, b)| b.iter().map(move |(p, d)| (p.clone(), *d, j)))
            .collect();
        for (i, r_bucket) in pr.partitions.iter().enumerate() {
            for (r_obj, _) in r_bucket {
                let mut by_dist: Vec<(f64, usize)> = all_s
                    .iter()
                    .enumerate()
                    .map(|(idx, (s_obj, _, _))| (metric.distance(r_obj, s_obj), idx))
                    .collect();
                by_dist.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                for (_, idx) in by_dist.iter().take(k) {
                    let (_, s_pivot_dist, j) = &all_s[*idx];
                    assert!(
                        *s_pivot_dist >= bounds.lb[i][*j] - 1e-9,
                        "true neighbour pruned from partition {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn group_bounds_are_minima_of_member_bounds() {
        let r = uniform(50, 2, 60.0, 31);
        let s = uniform(70, 2, 60.0, 32);
        let (tables, _, _) = build_tables(&r, &s, 6, 3, 33);
        let bounds = PartitionBounds::compute(&tables, 3);
        let grouping = PartitionGrouping {
            groups: vec![vec![0, 1, 2], vec![3, 4, 5]],
        };
        let gb = bounds.group_lower_bounds(&grouping);
        assert_eq!(gb.len(), 2);
        for (j, &got) in gb[0].iter().enumerate().take(6) {
            let expect = bounds.lb[0][j].min(bounds.lb[1][j]).min(bounds.lb[2][j]);
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn replica_count_matches_manual_count_and_grows_with_group_merging() {
        let r = uniform(80, 2, 60.0, 41);
        let s = uniform(100, 2, 60.0, 42);
        let (tables, _, ps) = build_tables(&r, &s, 8, 3, 43);
        let bounds = PartitionBounds::compute(&tables, 3);
        let fine = PartitionGrouping {
            groups: (0..8).map(|i| vec![i]).collect(),
        };
        let coarse = PartitionGrouping {
            groups: vec![(0..8).collect()],
        };
        let fine_replicas = bounds.count_replicas(&fine, &ps);
        let coarse_replicas = bounds.count_replicas(&coarse, &ps);
        // A single group must ship at most |S| objects (no duplicate groups);
        // eight singleton groups ship at least that many in total.
        assert!(coarse_replicas <= ps.len() as u64);
        assert!(fine_replicas >= coarse_replicas);
        // Manual recount for the fine grouping.
        let manual: u64 = (0..8)
            .map(|i| {
                ps.partitions
                    .iter()
                    .enumerate()
                    .map(|(j, bucket)| {
                        bucket.iter().filter(|(_, d)| *d >= bounds.lb[i][j]).count() as u64
                    })
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(fine_replicas, manual);
    }

    #[test]
    fn approximate_replicas_upper_bound_exact_replicas_per_group() {
        let r = uniform(60, 2, 60.0, 51);
        let s = uniform(80, 2, 60.0, 52);
        let (tables, _, ps) = build_tables(&r, &s, 6, 3, 53);
        let bounds = PartitionBounds::compute(&tables, 3);
        let members = vec![0usize, 1, 2];
        let approx = bounds.approximate_group_replicas(&members, &tables);
        let exact = {
            let grouping = PartitionGrouping {
                groups: vec![members.clone()],
            };
            bounds.count_replicas(&grouping, &ps)
        };
        assert!(
            approx >= exact,
            "Eq. 12 approximation must over-count ({approx} < {exact})"
        );
    }

    #[test]
    fn hyperplane_bound_is_sound_for_every_metric() {
        // For every metric, every r in its own cell and every s in another
        // cell must be at least `hyperplane_bound` away from r.
        for metric in [
            DistanceMetric::Euclidean,
            DistanceMetric::Manhattan,
            DistanceMetric::Chebyshev,
        ] {
            let r = uniform(60, 3, 100.0, 61);
            let s = uniform(80, 3, 100.0, 62);
            let pivots: Vec<Point> = uniform(6, 3, 100.0, 63).into_points();
            let partitioner = VoronoiPartitioner::new(pivots.clone(), metric);
            let pr = partitioner.partition(&r);
            let ps = partitioner.partition(&s);
            for (i, r_bucket) in pr.partitions.iter().enumerate() {
                for (r_obj, r_pivot_dist) in r_bucket {
                    for (j, s_bucket) in ps.partitions.iter().enumerate() {
                        if i == j {
                            continue;
                        }
                        let d_r_pj = metric.distance(r_obj, &pivots[j]);
                        let pivot_dist = metric.distance(&pivots[i], &pivots[j]);
                        let bound = hyperplane_bound(*r_pivot_dist, d_r_pj, pivot_dist, metric);
                        for (s_obj, _) in s_bucket {
                            let d = metric.distance(r_obj, s_obj);
                            assert!(
                                d >= bound - 1e-9,
                                "{metric:?}: |r,s| = {d} below bound {bound}"
                            );
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Theorems 3 and 4 hold for arbitrary random configurations.
        #[test]
        fn bounds_hold_for_random_data(
            n_r in 5usize..40,
            n_s in 5usize..40,
            n_pivots in 1usize..8,
            seed in 0u64..1000,
        ) {
            let r = uniform(n_r, 2, 50.0, seed);
            let s = uniform(n_s, 2, 50.0, seed ^ 0xff);
            let (tables, pr, ps) = build_tables(&r, &s, n_pivots, 3, seed ^ 0xf0f0);
            let metric = DistanceMetric::Euclidean;
            for (i, r_bucket) in pr.partitions.iter().enumerate() {
                let u_r = tables.r_summaries[i].upper;
                for (j, s_bucket) in ps.partitions.iter().enumerate() {
                    let pivot_dist = tables.pivot_distance(i, j);
                    for (s_obj, s_pivot_dist) in s_bucket {
                        let ub = upper_bound(u_r, pivot_dist, *s_pivot_dist);
                        let lb = lower_bound(u_r, pivot_dist, *s_pivot_dist);
                        prop_assert!(lb <= ub + 1e-9);
                        for (r_obj, _) in r_bucket {
                            let d = metric.distance(r_obj, s_obj);
                            prop_assert!(d <= ub + 1e-9);
                            prop_assert!(d >= lb - 1e-9);
                        }
                    }
                }
            }
        }
    }
}
