//! Grouping strategies (Section 5.2, Algorithm 4).
//!
//! PGBJ uses many more pivots than reducers, so Voronoi cells must be merged
//! into `N` groups, one per reducer.  A good grouping keeps geometrically
//! close cells together (so their objects share potential neighbours and few
//! `S` objects need replicating) while balancing the number of `R` objects per
//! group (so reducers finish together).  The paper proposes two heuristics:
//!
//! * **Geometric grouping** (Algorithm 4) — seed the `N` groups with mutually
//!   far-apart pivots, then repeatedly give the currently smallest group the
//!   unassigned cell whose pivot is closest to the group's pivots.
//! * **Greedy grouping** — identical skeleton, but the cell to add is chosen
//!   to minimise the *increase in replication* `RP(S, G ∪ {P}) − RP(S, G)`,
//!   estimated with the Equation 12 approximation.

use crate::bounds::PartitionBounds;
use crate::summary::SummaryTables;

/// Which grouping heuristic to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GroupingStrategy {
    /// Algorithm 4: group geometrically close cells (the paper's default
    /// choice after the parameter study).
    #[default]
    Geometric,
    /// Replication-increase greedy grouping with the Equation 12 estimate.
    Greedy,
}

impl GroupingStrategy {
    /// Label used in experiment tables ("GE"/"GR" in the paper's naming).
    pub fn label(&self) -> &'static str {
        match self {
            GroupingStrategy::Geometric => "geometric",
            GroupingStrategy::Greedy => "greedy",
        }
    }
}

/// An assignment of every partition (Voronoi cell) of `R` to exactly one
/// group; groups map 1:1 onto reducers of the second MapReduce job.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionGrouping {
    /// `groups[g]` lists the partition indices belonging to group `g`.
    pub groups: Vec<Vec<usize>>,
}

impl PartitionGrouping {
    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Inverse mapping: for every partition index, the group it belongs to.
    ///
    /// # Panics
    /// Panics if a partition index exceeds `n_partitions`.
    pub fn group_of(&self, n_partitions: usize) -> Vec<usize> {
        let mut map = vec![usize::MAX; n_partitions];
        for (g, members) in self.groups.iter().enumerate() {
            for &p in members {
                assert!(p < n_partitions, "partition index {p} out of range");
                map[p] = g;
            }
        }
        map
    }

    /// Number of `R` objects per group, according to the summary tables.
    pub fn group_object_counts(&self, tables: &SummaryTables) -> Vec<usize> {
        self.groups
            .iter()
            .map(|members| members.iter().map(|&p| tables.r_summaries[p].count).sum())
            .collect()
    }

    /// `(min, max, mean, stddev)` of the per-group object counts — the columns
    /// of Table 3 in the paper.
    pub fn size_statistics(&self, tables: &SummaryTables) -> (usize, usize, f64, f64) {
        crate::partition::size_statistics(&self.group_object_counts(tables))
    }
}

/// Builds a grouping of all partitions into `n_groups` groups with the chosen
/// strategy.  `bounds` is only consulted by the greedy strategy.
///
/// # Panics
/// Panics if `n_groups` is zero.
pub fn build_grouping(
    strategy: GroupingStrategy,
    tables: &SummaryTables,
    bounds: &PartitionBounds,
    n_groups: usize,
) -> PartitionGrouping {
    assert!(n_groups > 0, "need at least one group");
    let n_partitions = tables.partition_count();
    let n_groups = n_groups.min(n_partitions);

    // --- Seeding phase (identical for both strategies, Algorithm 4 lines 1-5)
    let mut remaining: Vec<usize> = (0..n_partitions).collect();
    let mut groups: Vec<Vec<usize>> = Vec::with_capacity(n_groups);

    // First seed: the pivot farthest from all other pivots.
    let first = *remaining
        .iter()
        .max_by(|&&a, &&b| {
            sum_distance_to_all(tables, a).total_cmp(&sum_distance_to_all(tables, b))
        })
        .expect("at least one partition");
    remaining.retain(|&p| p != first);
    groups.push(vec![first]);
    let mut seeds = vec![first];

    // Remaining seeds: maximise summed distance to the seeds chosen so far.
    for _ in 1..n_groups {
        let next = *remaining
            .iter()
            .max_by(|&&a, &&b| {
                sum_distance_to(tables, a, &seeds).total_cmp(&sum_distance_to(tables, b, &seeds))
            })
            .expect("enough partitions for every group");
        remaining.retain(|&p| p != next);
        groups.push(vec![next]);
        seeds.push(next);
    }

    // --- Filling phase (Algorithm 4 lines 6-9)
    let mut group_sizes: Vec<usize> = groups
        .iter()
        .map(|members| members.iter().map(|&p| tables.r_summaries[p].count).sum())
        .collect();
    while !remaining.is_empty() {
        // The group with the fewest R objects receives the next partition.
        let g = group_sizes
            .iter()
            .enumerate()
            .min_by_key(|(_, &size)| size)
            .map(|(i, _)| i)
            .expect("at least one group");

        let chosen_idx = match strategy {
            GroupingStrategy::Geometric => {
                // Partition whose pivot is closest (in summed distance) to the
                // pivots already in the group.
                best_index_by(&remaining, |p| {
                    std::cmp::Reverse(OrderedF64(sum_distance_to(tables, p, &groups[g])))
                })
            }
            GroupingStrategy::Greedy => {
                // Partition whose addition increases the estimated replica
                // count of the group the least.
                let current = bounds.approximate_group_replicas(&groups[g], tables);
                best_index_by(&remaining, |p| {
                    let mut extended = groups[g].clone();
                    extended.push(p);
                    let after = bounds.approximate_group_replicas(&extended, tables);
                    std::cmp::Reverse(OrderedF64(after.saturating_sub(current) as f64))
                })
            }
        };
        let p = remaining.swap_remove(chosen_idx);
        group_sizes[g] += tables.r_summaries[p].count;
        groups[g].push(p);
    }

    PartitionGrouping { groups }
}

/// Index into `candidates` of the element with the maximum key.
fn best_index_by<K: Ord>(candidates: &[usize], mut key: impl FnMut(usize) -> K) -> usize {
    candidates
        .iter()
        .enumerate()
        .max_by_key(|(_, &p)| key(p))
        .map(|(i, _)| i)
        .expect("candidates is non-empty")
}

fn sum_distance_to_all(tables: &SummaryTables, p: usize) -> f64 {
    (0..tables.partition_count())
        .map(|q| tables.pivot_distance(p, q))
        .sum()
}

fn sum_distance_to(tables: &SummaryTables, p: usize, others: &[usize]) -> f64 {
    others.iter().map(|&q| tables.pivot_distance(p, q)).sum()
}

/// Total order for f64 keys used in `max_by_key`.
#[derive(PartialEq)]
struct OrderedF64(f64);
impl Eq for OrderedF64 {}
impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::VoronoiPartitioner;
    use crate::summary::SummaryTables;
    use datagen::{gaussian_clusters, uniform, ClusterConfig};
    use geom::{DistanceMetric, Point, PointSet};
    use proptest::prelude::*;

    fn setup(
        n_pivots: usize,
        seed: u64,
    ) -> (
        SummaryTables,
        PartitionBounds,
        crate::partition::PartitionedDataset,
    ) {
        let r = gaussian_clusters(
            &ClusterConfig {
                n_points: 600,
                dims: 2,
                n_clusters: 8,
                std_dev: 3.0,
                extent: 200.0,
                skew: 0.7,
            },
            seed,
        );
        let s = gaussian_clusters(
            &ClusterConfig {
                n_points: 600,
                dims: 2,
                n_clusters: 8,
                std_dev: 3.0,
                extent: 200.0,
                skew: 0.7,
            },
            seed ^ 1,
        );
        let pivots: Vec<Point> = crate::pivots::select_pivots(
            &r,
            n_pivots,
            crate::pivots::PivotSelectionStrategy::Random { candidate_sets: 3 },
            400,
            DistanceMetric::Euclidean,
            seed ^ 2,
        );
        let partitioner = VoronoiPartitioner::new(pivots.clone(), DistanceMetric::Euclidean);
        let pr = partitioner.partition(&r);
        let ps = partitioner.partition(&s);
        let tables = SummaryTables::build(pivots, DistanceMetric::Euclidean, &pr, &ps, 5);
        let bounds = PartitionBounds::compute(&tables, 5);
        (tables, bounds, ps)
    }

    fn assert_is_partition_of_all(grouping: &PartitionGrouping, n_partitions: usize) {
        let mut seen = vec![false; n_partitions];
        for members in &grouping.groups {
            for &p in members {
                assert!(!seen[p], "partition {p} in two groups");
                seen[p] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "some partition not grouped");
    }

    #[test]
    fn geometric_grouping_covers_all_partitions() {
        let (tables, bounds, _) = setup(24, 5);
        let grouping = build_grouping(GroupingStrategy::Geometric, &tables, &bounds, 6);
        assert_eq!(grouping.group_count(), 6);
        assert_is_partition_of_all(&grouping, 24);
    }

    #[test]
    fn greedy_grouping_covers_all_partitions() {
        let (tables, bounds, _) = setup(24, 7);
        let grouping = build_grouping(GroupingStrategy::Greedy, &tables, &bounds, 6);
        assert_eq!(grouping.group_count(), 6);
        assert_is_partition_of_all(&grouping, 24);
    }

    #[test]
    fn groups_are_reasonably_balanced() {
        let (tables, bounds, _) = setup(32, 11);
        for strategy in [GroupingStrategy::Geometric, GroupingStrategy::Greedy] {
            let grouping = build_grouping(strategy, &tables, &bounds, 8);
            let counts = grouping.group_object_counts(&tables);
            let total: usize = counts.iter().sum();
            assert_eq!(total, 600);
            let max = *counts.iter().max().unwrap();
            let min = *counts.iter().min().unwrap();
            // The balancing rule always feeds the smallest group, so the
            // spread should stay well below the total.
            assert!(
                max - min < total / 2,
                "{strategy:?} produced unbalanced groups: {counts:?}"
            );
        }
    }

    #[test]
    fn more_groups_than_partitions_is_clamped() {
        let (tables, bounds, _) = setup(4, 13);
        let grouping = build_grouping(GroupingStrategy::Geometric, &tables, &bounds, 16);
        assert_eq!(grouping.group_count(), 4);
        assert_is_partition_of_all(&grouping, 4);
    }

    #[test]
    fn single_group_holds_everything() {
        let (tables, bounds, _) = setup(10, 17);
        let grouping = build_grouping(GroupingStrategy::Greedy, &tables, &bounds, 1);
        assert_eq!(grouping.group_count(), 1);
        assert_eq!(grouping.groups[0].len(), 10);
    }

    #[test]
    fn greedy_grouping_does_not_replicate_more_than_geometric_by_much() {
        // The greedy strategy optimises replication directly; it should not be
        // drastically worse than geometric on clustered data (the paper finds
        // it slightly better, at higher grouping cost).
        let (tables, bounds, ps) = setup(32, 19);
        let geo = build_grouping(GroupingStrategy::Geometric, &tables, &bounds, 8);
        let grd = build_grouping(GroupingStrategy::Greedy, &tables, &bounds, 8);
        let geo_rep = bounds.count_replicas(&geo, &ps);
        let grd_rep = bounds.count_replicas(&grd, &ps);
        assert!(
            (grd_rep as f64) <= geo_rep as f64 * 1.5,
            "greedy replication {grd_rep} much worse than geometric {geo_rep}"
        );
    }

    #[test]
    fn group_of_inverse_mapping() {
        let grouping = PartitionGrouping {
            groups: vec![vec![2, 0], vec![1, 3]],
        };
        assert_eq!(grouping.group_of(4), vec![0, 1, 0, 1]);
    }

    #[test]
    fn geometric_seeds_are_far_apart() {
        // Pivots on a line: 0, 1, 2, ..., 9.  With two groups, the two seeds
        // must be the two extreme pivots.
        let pivot_points: Vec<Point> = (0..10)
            .map(|i| Point::new(i, vec![i as f64 * 10.0, 0.0]))
            .collect();
        let data = PointSet::from_coords(
            (0..100)
                .map(|i| vec![(i % 10) as f64 * 10.0, 1.0])
                .collect(),
        );
        let partitioner = VoronoiPartitioner::new(pivot_points.clone(), DistanceMetric::Euclidean);
        let pd = partitioner.partition(&data);
        let tables = SummaryTables::build(pivot_points, DistanceMetric::Euclidean, &pd, &pd, 3);
        let bounds = PartitionBounds::compute(&tables, 3);
        let grouping = build_grouping(GroupingStrategy::Geometric, &tables, &bounds, 2);
        let seeds: Vec<usize> = grouping.groups.iter().map(|g| g[0]).collect();
        assert!(seeds.contains(&0) || seeds.contains(&9));
        // The two halves of the line should end up in different groups:
        // partition 0 and partition 9 must not share a group.
        let map = grouping.group_of(10);
        assert_ne!(map[0], map[9]);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(GroupingStrategy::Geometric.label(), "geometric");
        assert_eq!(GroupingStrategy::Greedy.label(), "greedy");
        assert_eq!(GroupingStrategy::default(), GroupingStrategy::Geometric);
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_groups_panics() {
        let (tables, bounds, _) = setup(4, 23);
        let _ = build_grouping(GroupingStrategy::Geometric, &tables, &bounds, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn grouping_is_always_a_partition_of_cells(
            n_pivots in 2usize..20,
            n_groups in 1usize..10,
            seed in 0u64..100,
            greedy in proptest::bool::ANY,
        ) {
            let r = uniform(200, 2, 100.0, seed);
            let s = uniform(200, 2, 100.0, seed ^ 3);
            let pivots: Vec<Point> = uniform(n_pivots, 2, 100.0, seed ^ 7).into_points();
            let partitioner = VoronoiPartitioner::new(pivots.clone(), DistanceMetric::Euclidean);
            let pr = partitioner.partition(&r);
            let ps = partitioner.partition(&s);
            let tables = SummaryTables::build(pivots, DistanceMetric::Euclidean, &pr, &ps, 3);
            let bounds = PartitionBounds::compute(&tables, 3);
            let strategy = if greedy { GroupingStrategy::Greedy } else { GroupingStrategy::Geometric };
            let grouping = build_grouping(strategy, &tables, &bounds, n_groups);
            prop_assert_eq!(grouping.group_count(), n_groups.min(n_pivots));
            let mut seen = vec![false; n_pivots];
            for members in &grouping.groups {
                prop_assert!(!members.is_empty(), "empty group");
                for &p in members {
                    prop_assert!(!seen[p]);
                    seen[p] = true;
                }
            }
            prop_assert!(seen.iter().all(|&x| x));
        }
    }
}
