//! The online stages over one prepared PGBJ corpus: set-up, single-point
//! serving through `Server`, the rate search, and read/write churn on the
//! prepared handle itself.

use crate::data::{Inputs, CORPUS_PIVOTS, K, REDUCERS};
use crate::openloop::{self, Problem, Refusal, Run, Search, Verdict};
use crate::oracle::{check_row, Corpus};
use crate::stats::quantile;
use crate::trace::{SpanId, Tracer};
use crate::{Tally, Tracers};
use pgbj::geom::{DistanceMetric, Neighbor, PointSet};
use pgbj::knnjoin::{
    Algorithm, ExecutionContext, JoinBuilder, JoinError, JoinMetrics, PreparedJoin, Server,
    ServerConfig, ServerStats,
};
use std::time::{Duration, Instant};

/// The references every online answer is checked against.
pub struct Truth<'a> {
    pub inputs: &'a Inputs,
    /// Reference neighbours of each pool point over the corpus.
    pub pool: &'a [Vec<Neighbor>],
    pub corpus: Corpus<'a>,
}

impl Truth<'_> {
    fn check(&self, row: &pgbj::knnjoin::JoinRow, pool_index: usize) -> Result<(), String> {
        let query = &self.inputs.pool[pool_index];
        check_row(row, query, &self.pool[pool_index], &self.corpus, true)
    }

    /// The pool index of the `i`-th request.
    fn pool_index(&self, i: usize) -> usize {
        self.inputs.read_order[i % self.inputs.read_order.len()]
    }
}

/// Set-up times of a run, one entry per set-up, s.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// `prepare` + `Server::start`.
    pub setup_s: Vec<f64>,
    /// `prepare` alone.
    pub build_s: Vec<f64>,
}

/// Prepares PGBJ over `corpus` and starts a server over it, recording how
/// long both took.
pub fn set_up(
    ctx: &ExecutionContext,
    corpus: &PointSet,
    seed: u64,
    workers: usize,
    tracer: &Tracer,
    times: &mut SetupTimes,
) -> Result<(PreparedJoin, Server), JoinError> {
    let rep = times.setup_s.len() as u64;
    let began = Instant::now();
    let prepared = {
        let mut span = tracer.open("knnjoin.prepared.prepare", rep);
        let prepared = JoinBuilder::new(corpus, corpus)
            .k(K)
            .metric(DistanceMetric::Euclidean)
            .algorithm(Algorithm::Pgbj)
            .pivot_count(CORPUS_PIVOTS)
            .reducers(REDUCERS)
            .seed(seed)
            .prepare(ctx)?;
        crate::joins::attach(&mut span, prepared.build_metrics());
        prepared
    };
    let built = Instant::now();
    let server = {
        let _span = tracer.open("knnjoin.serving.start", rep);
        Server::start(prepared.clone(), server_config(workers))
    };
    times.setup_s.push(began.elapsed().as_secs_f64());
    times.build_s.push((built - began).as_secs_f64());
    Ok((prepared, server))
}

/// The served configuration: library defaults, one worker per core.
pub fn server_config(workers: usize) -> ServerConfig {
    ServerConfig::default().workers(workers)
}

/// Direct probes of `batch` pool points through `PreparedJoin::query`,
/// repeated `reps` times: wall time (ms) and the reported metrics of each.
pub fn probes(
    prepared: &PreparedJoin,
    truth: &Truth<'_>,
    batch: usize,
    reps: usize,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Vec<(f64, JoinMetrics)> {
    let mut out = Vec::new();
    for rep in 0..reps {
        let indices: Vec<usize> = (0..batch)
            .map(|j| truth.pool_index(rep * batch + j))
            .collect();
        let points = PointSet::from_points(
            indices
                .iter()
                .map(|&i| truth.inputs.pool[i].clone())
                .collect(),
        );
        let mut span = tracer.open("knnjoin.prepared.query", rep as u64);
        let began = Instant::now();
        let result = prepared.query(&points);
        let ms = began.elapsed().as_secs_f64() * 1e3;
        tally.attempted += 1;
        match result {
            Ok(result) => {
                crate::joins::attach(&mut span, &result.metrics);
                drop(span);
                for &i in &indices {
                    let id = truth.inputs.pool[i].id;
                    let outcome = result
                        .row(id)
                        .ok_or_else(|| format!("probe lost query {id}"))
                        .and_then(|row| truth.check(row, i));
                    if let Err(e) = outcome {
                        tally.wrong(1, e);
                    }
                }
                out.push((ms, result.metrics));
            }
            Err(e) => tally.fail(format!("probe failed: {e}")),
        }
    }
    out
}

/// Offers `count` single-point lookups at `rate` per second to `server`.
/// Request `i` is the run's request `first + i` and asks for pool point
/// `read_order[first + i]`.
pub fn open_loop(
    server: &Server,
    truth: &Truth<'_>,
    rate: f64,
    first: usize,
    count: usize,
    tracers: &Tracers,
    parent: Option<SpanId>,
) -> Run {
    openloop::drive(
        rate,
        count,
        |i| {
            let i = first + i;
            let index = truth.pool_index(i);
            let _span = tracers
                .pick(i)
                .open_under(parent, "knnjoin.serving.submit_one", i as u64);
            match server.submit_one(truth.inputs.pool[index].clone()) {
                Ok(ticket) => Ok((ticket, index)),
                Err(JoinError::Overloaded { .. }) => Err(Refusal::Overloaded),
                Err(e) => Err(Refusal::Error(e.to_string())),
            }
        },
        |i, (ticket, index)| {
            let i = first + i;
            let _span = tracers
                .pick(i)
                .open_under(parent, "knnjoin.serving.wait", i as u64);
            let row = ticket.wait().map_err(|e| Problem::Error(e.to_string()))?;
            truth.check(&row, index).map_err(Problem::Wrong)
        },
    )
}

/// Searches for the highest rate meeting the latency limit, each rung on a
/// fresh server over the same prepared corpus.  A rung that fails is run
/// once more and passes if the second attempt does: on a shared machine a
/// single stall can sink a rung far below capacity, while a rate above
/// capacity fails every attempt.  Rung requests are checked but not
/// counted in the run's attempted/failed totals.
pub fn rate_search(
    prepared: &PreparedJoin,
    truth: &Truth<'_>,
    workers: usize,
    start_rate: f64,
    resolution: f64,
    rung: Duration,
    tally: &mut Tally,
) -> Search {
    let untraced = Tracers::untraced();
    let mut attempt = |rate: f64| {
        let server = Server::start(prepared.clone(), server_config(workers));
        let count = (rate * rung.as_secs_f64()).ceil() as usize;
        let run = open_loop(&server, truth, rate, 0, count, &untraced, None);
        server.shutdown();
        if run.wrong > 0 {
            tally.wrong_outside(
                run.wrong,
                format!(
                    "rate search at {rate:.0}/s: {} wrong answers; first: {}",
                    run.wrong,
                    run.first_problem.clone().unwrap_or_default()
                ),
            );
        }
        let verdict = Verdict::of(&run);
        eprintln!(
            "perfbench: rung {rate:.0}/s: pass={} p99={:.2}ms lateness_p99={:.2}ms refused={} generator_limited={}",
            verdict.pass,
            quantile(&run.latency_ms, 0.99),
            quantile(&run.lateness_ms, 0.99),
            run.refused,
            verdict.generator_limited
        );
        verdict
    };
    openloop::search(start_rate, resolution, |rate| {
        let first = attempt(rate);
        if first.pass {
            first
        } else {
            attempt(rate)
        }
    })
}

/// Served lookups at the nominal rate, measured in chunks between the
/// other stages.
pub struct Serving {
    server: Server,
    pub run: Run,
    /// Requests served by the end of each chunk.
    pub chunk_ends: Vec<usize>,
}

/// What the nominal-rate serving measured.
pub struct Served {
    pub run: Run,
    pub stats: ServerStats,
    pub chunk_ends: Vec<usize>,
}

impl Serving {
    /// Warms the set-up server up, then starts the measured one.  The
    /// warm-up fills caches and lets lazily built state settle; its answers
    /// are checked but not measured.
    pub fn start(
        setup_server: Server,
        prepared: &PreparedJoin,
        truth: &Truth<'_>,
        workers: usize,
        rate: f64,
        tally: &mut Tally,
    ) -> Self {
        let warm = open_loop(
            &setup_server,
            truth,
            rate,
            0,
            (rate * 0.25) as usize,
            &Tracers::untraced(),
            None,
        );
        setup_server.shutdown();
        if warm.wrong > 0 {
            tally.wrong_outside(
                warm.wrong,
                format!("warm-up: {}", warm.first_problem.unwrap_or_default()),
            );
        }
        Self {
            server: Server::start(prepared.clone(), server_config(workers)),
            run: Run::default(),
            chunk_ends: Vec::new(),
        }
    }

    /// Offers `rate` lookups per second for `duration`.
    pub fn chunk(
        &mut self,
        truth: &Truth<'_>,
        rate: f64,
        duration: Duration,
        tracers: &Tracers,
        tally: &mut Tally,
    ) {
        let span = tracers.main.open("phase.serve_nominal", 0);
        let count = (rate * duration.as_secs_f64()).ceil() as usize;
        let run = open_loop(
            &self.server,
            truth,
            rate,
            self.run.latency_ms.len(),
            count,
            tracers,
            span.id(),
        );
        drop(span);
        tally.attempted += run.attempted();
        tally.failed += run.refused + run.errors;
        if run.wrong > 0 {
            tally.wrong(
                run.wrong,
                format!(
                    "served reads: {} wrong; first: {}",
                    run.wrong,
                    run.first_problem.clone().unwrap_or_default()
                ),
            );
        } else if let Some(problem) = &run.first_problem {
            tally.note(format!("served reads: {problem}"));
        }
        self.run.append(run);
        self.chunk_ends.push(self.run.latency_ms.len());
    }

    pub fn finish(self) -> Served {
        Served {
            stats: self.server.shutdown(),
            run: self.run,
            chunk_ends: self.chunk_ends,
        }
    }
}

/// What the churn stage measured.
#[derive(Debug, Default)]
pub struct Churn {
    /// `query_one` wall time, ms, and whether each read ran traced.
    pub read_ms: Vec<f64>,
    pub read_traced: Vec<bool>,
    /// `insert` wall time, ms.
    pub write_ms: Vec<f64>,
    pub write_traced: Vec<bool>,
    /// The handle's cumulative metrics before and after the stage.
    pub before: JoinMetrics,
    pub after: JoinMetrics,
    /// Reads done by the end of each chunk.
    pub chunk_ends: Vec<usize>,
}

impl Churn {
    pub fn new(prepared: &PreparedJoin) -> Self {
        Self {
            before: prepared.cumulative_metrics(),
            ..Self::default()
        }
    }

    /// Alternates direct reads with position-refresh upserts (a corpus
    /// point re-inserted under its own id with its own coordinates):
    /// `min_reads` pairs, then on to the end of the current compaction
    /// cycle, so that every chunk holds whole cycles and the mean write
    /// cost is not skewed by a partial one.  Gives up waiting for a
    /// compaction once the chunk has run three times as long as its first
    /// `min_reads` pairs took.  The live corpus never changes, so every read
    /// is checked against the same reference.
    pub fn chunk(
        &mut self,
        prepared: &PreparedJoin,
        truth: &Truth<'_>,
        min_reads: usize,
        tracers: &Tracers,
        tally: &mut Tally,
    ) {
        let corpus = &truth.inputs.corpus;
        let writes = &truth.inputs.write_order;
        let start = Instant::now();
        let first = self.read_ms.len();
        let mut min_time = None;
        loop {
            let i = self.read_ms.len();
            let tracer = tracers.pick(i);
            let index = truth.pool_index(i);
            let span = tracer.open("knnjoin.prepared.query_one", i as u64);
            let began = Instant::now();
            let read = prepared.query_one(&truth.inputs.pool[index]);
            self.read_ms.push(began.elapsed().as_secs_f64() * 1e3);
            drop(span);
            self.read_traced.push(tracer.enabled());
            tally.attempted += 1;
            match read {
                Ok(row) => {
                    if let Err(e) = truth.check(&row, index) {
                        tally.wrong(1, format!("churn read: {e}"));
                    }
                }
                Err(e) => tally.fail(format!("churn read failed: {e}")),
            }

            let point = corpus.points()[writes[i % writes.len()]].clone();
            let compactions = prepared.delta_stats().compactions;
            let mut span = tracer.open("knnjoin.delta.insert", i as u64);
            let began = Instant::now();
            let write = prepared.insert(point);
            self.write_ms.push(began.elapsed().as_secs_f64() * 1e3);
            let compacted = prepared.delta_stats().compactions > compactions;
            span.attr("compacted", f64::from(u8::from(compacted)));
            drop(span);
            self.write_traced.push(tracer.enabled());
            tally.attempted += 1;
            if let Err(e) = write {
                tally.fail(format!("churn write failed: {e}"));
            }
            let elapsed = start.elapsed();
            if i + 1 - first == min_reads {
                min_time = Some(elapsed);
            }
            if let Some(min) = min_time {
                if compacted || elapsed >= 3 * min {
                    break;
                }
            }
        }
        self.after = prepared.cumulative_metrics();
        self.chunk_ends.push(self.read_ms.len());
    }
}
