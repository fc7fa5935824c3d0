//! Cold joins: the paper's experiment, one algorithm after another.
//!
//! A single caller runs PGBJ → PBJ → H-BRJ → H-zkNNJ in a closed loop, each
//! join built from scratch through `JoinBuilder::run` with the experiments'
//! full-scale settings.  Nothing prepared, no delta overlay, no server.

use crate::data::{JOIN_PIVOTS, K, REDUCERS, SHIFT_COPIES, Z_WINDOW};
use crate::oracle::{check_join, Corpus};
use crate::{Tally, Tracers};
use pgbj::geom::{DistanceMetric, Neighbor, PointSet};
use pgbj::knnjoin::{Algorithm, ExecutionContext, JoinBuilder, JoinMetrics, JoinResult};
use std::time::Instant;

/// One compared algorithm: how it is selected, its metric-name prefix, the
/// span around its calls, and the Figure 6 phases it reports.
pub struct Alg {
    pub algorithm: Algorithm,
    pub key: &'static str,
    pub span: &'static str,
    pub phases: &'static [&'static str],
}

/// The paper's algorithm and its three competitors, in rotation order.
pub const ALGS: [Alg; 4] = [
    Alg {
        algorithm: Algorithm::Pgbj,
        key: "pgbj",
        span: "knnjoin.algorithms.pgbj",
        phases: &[
            "pivot selection",
            "data partitioning",
            "index merging",
            "partition grouping",
            "knn join",
        ],
    },
    Alg {
        algorithm: Algorithm::Pbj,
        key: "pbj",
        span: "knnjoin.algorithms.pbj",
        phases: &[
            "pivot selection",
            "data partitioning",
            "index merging",
            "knn join",
            "result merging",
        ],
    },
    Alg {
        algorithm: Algorithm::Hbrj,
        key: "hbrj",
        span: "knnjoin.algorithms.hbrj",
        phases: &["knn join", "result merging"],
    },
    Alg {
        algorithm: Algorithm::Zknn,
        key: "zknn",
        span: "knnjoin.algorithms.zknn",
        phases: &["data partitioning", "knn join", "result merging"],
    },
];

/// Everything measured per algorithm over the rotations of a run.
#[derive(Debug, Default)]
pub struct AlgSamples {
    /// Wall time of each join, s.
    pub seconds: Vec<f64>,
    /// Whether each join ran traced.
    pub traced: Vec<bool>,
    /// The metrics each join reported.
    pub metrics: Vec<JoinMetrics>,
}

/// Results of the cold-join stage.
#[derive(Debug, Default)]
pub struct Joins {
    /// Indexed like [`ALGS`].
    pub per_alg: [AlgSamples; 4],
    /// H-zkNNJ recall of each of its joins.
    pub zknn_recall: Vec<f64>,
}

/// Runs one rotation (each algorithm once, in order), checking every
/// answer against `truth` and appending the measurements to `out`.
#[allow(clippy::too_many_arguments)]
pub fn rotation(
    ctx: &ExecutionContext,
    data: &PointSet,
    truth: &[Vec<Neighbor>],
    oracle: &JoinResult,
    seed: u64,
    index: usize,
    tracers: &Tracers,
    tally: &mut Tally,
    out: &mut Joins,
) {
    let corpus = Corpus::new(data.points());
    let tracer = tracers.pick(index);
    for (alg, samples) in ALGS.iter().zip(out.per_alg.iter_mut()) {
        let mut span = tracer.open(alg.span, index as u64);
        let began = Instant::now();
        let result = JoinBuilder::new(data, data)
            .k(K)
            .metric(DistanceMetric::Euclidean)
            .algorithm(alg.algorithm)
            .pivot_count(JOIN_PIVOTS)
            .reducers(REDUCERS)
            .shift_copies(SHIFT_COPIES)
            .z_window(Z_WINDOW)
            .seed(seed)
            .run(ctx);
        let seconds = began.elapsed().as_secs_f64();
        tally.attempted += 1;
        let result = match result {
            Ok(result) => result,
            Err(e) => {
                drop(span);
                tally.fail(format!("{} join failed: {e}", alg.key));
                continue;
            }
        };
        attach(&mut span, &result.metrics);
        drop(span);
        let exact = alg.algorithm.is_exact();
        let (wrong, first) = check_join(&result, data, truth, &corpus, exact);
        if wrong > 0 {
            tally.wrong(
                1,
                format!(
                    "{}: {wrong} wrong rows; first: {}",
                    alg.key,
                    first.unwrap_or_default()
                ),
            );
        }
        if !exact {
            out.zknn_recall.push(result.quality_against(oracle).recall);
        }
        samples.seconds.push(seconds);
        samples.traced.push(tracer.enabled());
        samples.metrics.push(result.metrics);
    }
}

/// Attaches a join's reported phases and counters to its span.
pub fn attach(span: &mut crate::trace::Guard<'_>, m: &JoinMetrics) {
    for (phase, d) in &m.phase_times {
        span.attr(format!("phase.{}_s", snake(phase)), d.as_secs_f64());
    }
    span.attr("distance_computations", m.distance_computations as f64);
    span.attr(
        "pivot_assignment_computations",
        m.pivot_assignment_computations as f64,
    );
    span.attr("shuffle_bytes", m.shuffle_bytes as f64);
    span.attr("shuffle_records", m.shuffle_records as f64);
}

/// `"partition grouping"` → `"partition_grouping"`.
pub fn snake(phase: &str) -> String {
    phase.replace(' ', "_")
}
