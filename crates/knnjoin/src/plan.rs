//! Validated execution plans and runtime algorithm selection.
//!
//! A [`JoinPlan`] is the fully-resolved description of one kNN join: which
//! [`Algorithm`] runs, with which `k`, metric and tuning parameters.  Plans
//! are produced by [`crate::JoinBuilder::plan`] (which validates inputs and
//! auto-tunes unset knobs) and executed against an
//! [`crate::ExecutionContext`]; they can also be inspected, logged or reused
//! across datasets of similar shape.

use crate::algorithms::{
    BroadcastJoin, BroadcastJoinConfig, Hbrj, HbrjConfig, KnnJoinAlgorithm, Pbj, PbjConfig, Pgbj,
    PgbjConfig, Zknn, ZknnConfig,
};
use crate::context::ExecutionContext;
use crate::exact::NestedLoopJoin;
use crate::grouping::GroupingStrategy;
use crate::pivots::PivotSelectionStrategy;
use crate::result::{JoinError, JoinResult};
use geom::{DistanceMetric, PointSet};
use spatial::RTree;

/// The join algorithms selectable at runtime.
///
/// The exact algorithms all produce identical results and differ only in cost
/// structure — exactly what the paper's evaluation compares.  [`Zknn`] is the
/// one approximate algorithm (the z-value competitor of §6): its reported
/// distances are true distances, but its candidate sets are z-order
/// neighbourhoods, so recall can fall below 1 (see
/// [`Algorithm::is_exact`] and [`crate::result::QualityReport`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// The paper's contribution: Voronoi partitioning + grouping (§4–5).
    #[default]
    Pgbj,
    /// Voronoi bounds inside the √N×√N block framework, no grouping (§6).
    Pbj,
    /// The R-tree block baseline of Zhang et al. (§3).
    Hbrj,
    /// The z-value-based *approximate* join of Zhang, Li and Jestes (the
    /// H-zkNNJ competitor of §6).
    Zknn,
    /// The naive "broadcast S everywhere" strategy (§3).
    BroadcastJoin,
    /// The single-machine exact oracle.
    NestedLoopJoin,
}

impl Algorithm {
    /// Every selectable algorithm, in paper order.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Pgbj,
        Algorithm::Pbj,
        Algorithm::Hbrj,
        Algorithm::Zknn,
        Algorithm::BroadcastJoin,
        Algorithm::NestedLoopJoin,
    ];

    /// Display name, matching experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Pgbj => "PGBJ",
            Algorithm::Pbj => "PBJ",
            Algorithm::Hbrj => "H-BRJ",
            Algorithm::Zknn => "H-zkNNJ",
            Algorithm::BroadcastJoin => "Broadcast",
            Algorithm::NestedLoopJoin => "NestedLoop",
        }
    }

    /// Whether the algorithm runs on the MapReduce substrate (everything but
    /// the nested-loop oracle).
    pub fn is_distributed(&self) -> bool {
        !matches!(self, Algorithm::NestedLoopJoin)
    }

    /// Whether the algorithm consumes the Voronoi pivot machinery.
    pub fn uses_pivots(&self) -> bool {
        matches!(self, Algorithm::Pgbj | Algorithm::Pbj)
    }

    /// Whether the algorithm returns the exact kNN join.  Everything except
    /// [`Algorithm::Zknn`] does; H-zkNNJ trades recall for a much cheaper
    /// join, and its deviation from exact is measured by
    /// [`crate::result::QualityReport`].
    pub fn is_exact(&self) -> bool {
        !matches!(self, Algorithm::Zknn)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A validated, fully-resolved join plan.
///
/// Every field holds a concrete value: defaults and auto-tuned parameters are
/// already substituted by the time a plan exists.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPlan {
    /// Which algorithm executes the join.
    pub algorithm: Algorithm,
    /// Number of neighbours per `R` object.
    pub k: usize,
    /// The distance metric.
    pub metric: DistanceMetric,
    /// Number of Voronoi pivots (meaningful for PGBJ/PBJ).
    pub pivot_count: usize,
    /// Whether `pivot_count` was auto-tuned (≈ √|R|) rather than requested.
    pub pivots_auto_tuned: bool,
    /// How pivots are selected from `R`.
    pub pivot_strategy: PivotSelectionStrategy,
    /// Sample-size cap for pivot selection.
    pub pivot_sample_size: usize,
    /// How Voronoi cells are merged into reducer groups (PGBJ).  Shapes
    /// cold runs only: a prepared probe moves no data, so it groups nothing.
    pub grouping_strategy: GroupingStrategy,
    /// Number of reducers ("computing nodes").  Shapes cold runs only —
    /// prepared probes run directly over the resident state, split across
    /// the context's workers — except that a prepared H-BRJ still derives
    /// its `⌊√N⌋` resident block trees from it.
    pub reducers: usize,
    /// Number of map tasks.  Shapes cold runs only; prepared probes run no
    /// MapReduce job.
    pub map_tasks: usize,
    /// R-tree fanout (H-BRJ).
    pub rtree_fanout: usize,
    /// `α`, the number of randomly shifted copies (H-zkNNJ).  More copies
    /// heal more z-curve seams (higher recall) at proportionally more shuffle
    /// and candidate work.
    pub shift_copies: usize,
    /// Grid bits per dimension of the z-value quantization (H-zkNNJ).
    pub quantization_bits: u32,
    /// Candidate-window multiplier (H-zkNNJ): `z_window · k` z-neighbours per
    /// side per shifted copy.
    pub z_window: usize,
    /// Seed driving pivot selection.
    pub seed: u64,
    /// Maximum resident delta-overlay size (adds + tombstones) of a
    /// [`crate::PreparedJoin`] before a mutation triggers an automatic
    /// compaction (see [`crate::delta`]).  Irrelevant to cold joins.
    pub delta_threshold: usize,
}

/// Default [`JoinPlan::delta_threshold`]: mutations beyond this many pending
/// delta entries compact the prepared join's serving structures.
pub const DEFAULT_DELTA_THRESHOLD: usize = 1024;

impl JoinPlan {
    /// Instantiates the planned algorithm as a trait object, so callers can
    /// also drive it through the legacy [`KnnJoinAlgorithm`] interface.
    pub fn instantiate(&self) -> Box<dyn KnnJoinAlgorithm> {
        match self.algorithm {
            Algorithm::Pgbj => Box::new(Pgbj::new(PgbjConfig {
                pivot_count: self.pivot_count,
                pivot_strategy: self.pivot_strategy,
                pivot_sample_size: self.pivot_sample_size,
                grouping_strategy: self.grouping_strategy,
                reducers: self.reducers,
                map_tasks: self.map_tasks,
                seed: self.seed,
            })),
            Algorithm::Pbj => Box::new(Pbj::new(PbjConfig {
                pivot_count: self.pivot_count,
                pivot_strategy: self.pivot_strategy,
                pivot_sample_size: self.pivot_sample_size,
                reducers: self.reducers,
                map_tasks: self.map_tasks,
                seed: self.seed,
            })),
            Algorithm::Hbrj => Box::new(Hbrj::new(HbrjConfig {
                reducers: self.reducers,
                map_tasks: self.map_tasks,
                rtree_fanout: self.rtree_fanout,
            })),
            Algorithm::Zknn => Box::new(Zknn::new(ZknnConfig {
                shift_copies: self.shift_copies,
                quantization_bits: self.quantization_bits,
                z_window: self.z_window,
                reducers: self.reducers,
                map_tasks: self.map_tasks,
                seed: self.seed,
            })),
            Algorithm::BroadcastJoin => Box::new(BroadcastJoin::new(BroadcastJoinConfig {
                reducers: self.reducers,
                map_tasks: self.map_tasks,
            })),
            Algorithm::NestedLoopJoin => Box::new(NestedLoopJoin),
        }
    }

    /// Executes the plan against `r` and `s` inside `ctx`, reporting the
    /// resulting metrics to the context's sink.
    pub fn execute(
        &self,
        r: &PointSet,
        s: &PointSet,
        ctx: &ExecutionContext,
    ) -> Result<JoinResult, JoinError> {
        let result = self
            .instantiate()
            .join_with(r, s, self.k, self.metric, ctx)?;
        ctx.record_join(self.algorithm.name(), &result.metrics);
        Ok(result)
    }
}

impl Default for JoinPlan {
    fn default() -> Self {
        let pgbj = PgbjConfig::default();
        let zknn = ZknnConfig::default();
        Self {
            algorithm: Algorithm::default(),
            k: 1,
            metric: DistanceMetric::default(),
            pivot_count: pgbj.pivot_count,
            pivots_auto_tuned: false,
            pivot_strategy: pgbj.pivot_strategy,
            pivot_sample_size: pgbj.pivot_sample_size,
            grouping_strategy: pgbj.grouping_strategy,
            reducers: pgbj.reducers,
            map_tasks: pgbj.map_tasks,
            rtree_fanout: RTree::DEFAULT_FANOUT,
            shift_copies: zknn.shift_copies,
            quantization_bits: zknn.quantization_bits,
            z_window: zknn.z_window,
            seed: pgbj.seed,
            delta_threshold: DEFAULT_DELTA_THRESHOLD,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_predicates_are_stable() {
        assert_eq!(Algorithm::Pgbj.name(), "PGBJ");
        assert_eq!(Algorithm::Pbj.name(), "PBJ");
        assert_eq!(Algorithm::Hbrj.name(), "H-BRJ");
        assert_eq!(Algorithm::Zknn.name(), "H-zkNNJ");
        assert_eq!(Algorithm::BroadcastJoin.name(), "Broadcast");
        assert_eq!(Algorithm::NestedLoopJoin.name(), "NestedLoop");
        assert_eq!(Algorithm::default(), Algorithm::Pgbj);
        assert_eq!(format!("{}", Algorithm::Hbrj), "H-BRJ");
        assert!(Algorithm::Pgbj.is_distributed());
        assert!(Algorithm::Zknn.is_distributed());
        assert!(!Algorithm::NestedLoopJoin.is_distributed());
        assert!(Algorithm::Pbj.uses_pivots());
        assert!(!Algorithm::Hbrj.uses_pivots());
        assert!(!Algorithm::Zknn.uses_pivots());
        assert_eq!(Algorithm::ALL.len(), 6);
        // Exactly one algorithm is approximate.
        let approx: Vec<Algorithm> = Algorithm::ALL
            .into_iter()
            .filter(|a| !a.is_exact())
            .collect();
        assert_eq!(approx, vec![Algorithm::Zknn]);
    }

    #[test]
    fn every_algorithm_instantiates_with_its_own_name() {
        for algorithm in Algorithm::ALL {
            let plan = JoinPlan {
                algorithm,
                ..Default::default()
            };
            assert_eq!(plan.instantiate().name(), algorithm.name());
        }
    }
}
