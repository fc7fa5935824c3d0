//! The three distributed kNN-join algorithms evaluated in the paper.
//!
//! | Algorithm | Section | Framework | Pruning |
//! |-----------|---------|-----------|---------|
//! | [`Pgbj`]  | §4–5    | partition + group, single join job | Voronoi bounds (Theorems 1–6) |
//! | [`Pbj`]   | §6      | √N × √N blocks + merge job | Voronoi bounds within each block pair |
//! | [`Hbrj`]  | §3 (baseline, Zhang et al.) | √N × √N blocks + merge job | R-tree per S block |
//! | [`BroadcastJoin`] | §3 ("basic strategy") | R split N ways, S broadcast | none |
//! | [`Zknn`]  | §6 competitor (Zhang, Li, Jestes) | per-copy z-order slabs + merge job | approximate: 2k z-neighbours per shifted copy |
//!
//! All of them implement [`KnnJoinAlgorithm`] and produce a [`JoinResult`]
//! carrying the evaluation metrics of the paper.  H-zkNNJ is the one
//! *approximate* algorithm: its reported distances are true distances, but
//! its candidate sets are z-order neighbourhoods, so recall can fall below 1
//! (measured by [`crate::result::QualityReport`]).

mod blocks;
mod broadcast;
pub mod common;
mod hbrj;
mod pbj;
mod pgbj;
mod zknn;

pub use broadcast::{BroadcastJoin, BroadcastJoinConfig};
pub use hbrj::{Hbrj, HbrjConfig};
pub use pbj::{Pbj, PbjConfig};
pub use pgbj::{Pgbj, PgbjConfig};
pub use zknn::{Zknn, ZknnConfig};

pub(crate) use common::VoronoiServeState;
pub(crate) use hbrj::HbrjPrepared;
pub(crate) use zknn::{check_z_domain, ZknnPrepared};

use crate::context::ExecutionContext;
use crate::result::{JoinError, JoinResult};
use geom::{DistanceMetric, PointSet};

/// A distributed (MapReduce-based) or centralized kNN-join algorithm.
///
/// New code should prefer driving algorithms through the
/// [`crate::JoinBuilder`], which validates parameters and picks the
/// implementation at runtime; this trait remains the common execution
/// interface underneath (and keeps pre-builder call sites compiling).
pub trait KnnJoinAlgorithm {
    /// Short name used in experiment tables ("PGBJ", "PBJ", "H-BRJ", ...).
    fn name(&self) -> &'static str;

    /// Computes `R ⋉ S` for the given `k` and metric inside `ctx`, which
    /// supplies the MapReduce worker-pool size and shared substrate handles.
    ///
    /// # Errors
    /// Returns [`JoinError`] on invalid inputs or configuration.
    fn join_with(
        &self,
        r: &PointSet,
        s: &PointSet,
        k: usize,
        metric: DistanceMetric,
        ctx: &ExecutionContext,
    ) -> Result<JoinResult, JoinError>;

    /// Convenience wrapper running inside a default [`ExecutionContext`].
    ///
    /// # Errors
    /// Returns [`JoinError`] on invalid inputs or configuration.
    fn join(
        &self,
        r: &PointSet,
        s: &PointSet,
        k: usize,
        metric: DistanceMetric,
    ) -> Result<JoinResult, JoinError> {
        self.join_with(r, s, k, metric, &ExecutionContext::default())
    }
}

impl KnnJoinAlgorithm for crate::exact::NestedLoopJoin {
    fn name(&self) -> &'static str {
        "NestedLoop"
    }

    fn join_with(
        &self,
        r: &PointSet,
        s: &PointSet,
        k: usize,
        metric: DistanceMetric,
        _ctx: &ExecutionContext,
    ) -> Result<JoinResult, JoinError> {
        NestedLoopJoin::join(self, r, s, k, metric)
    }
}

use crate::exact::NestedLoopJoin;

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::uniform;

    #[test]
    fn nested_loop_implements_the_trait() {
        let alg: &dyn KnnJoinAlgorithm = &NestedLoopJoin;
        assert_eq!(alg.name(), "NestedLoop");
        let r = uniform(20, 2, 10.0, 1);
        let s = uniform(20, 2, 10.0, 2);
        let res = alg.join(&r, &s, 3, DistanceMetric::Euclidean).unwrap();
        assert_eq!(res.rows.len(), 20);
    }
}
