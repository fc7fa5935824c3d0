//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <forest|osm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs, over one of the paper's two datasets (Forest-like
//! 10-d or OSM-like 2-d):
//!
//! 1. cold self-joins of 12,000 points, rotating PGBJ → PBJ → H-BRJ →
//!    H-zkNNJ with the experiments' full-scale settings (closed loop, one
//!    caller);
//! 2. set-ups of a 50,000-point prepared PGBJ corpus plus a `Server` over
//!    it;
//! 3. in the traced run only, single-point lookups offered to the server on
//!    an open loop at a fixed nominal rate, then a rate search for the
//!    highest rate meeting the latency limit;
//! 4. churn: one caller alternating direct `query_one` reads with upserts
//!    on the prepared handle, no server.
//!
//! Every answer is checked against a brute-force reference built during
//! set-up.  The last line of standard output is one JSON object: the
//! end-to-end metrics with `--trace 0`; with `--trace 1`, the per-layer
//! metrics of a separate traced run, whose spans are also written to
//! `perfbench/traces/`.  The exit code is non-zero when any answer was
//! wrong or the run could not complete.

mod data;
mod joins;
mod layers;
mod online;
mod openloop;
mod oracle;
mod report;
mod stats;
mod trace;

use crate::data::{Dataset, K};
use crate::online::Truth;
use crate::oracle::Corpus;
use crate::stats::{chunked_quantile, mean, median, quantile, samples_needed};
use crate::trace::Tracer;
use pgbj::knnjoin::{ExecutionContext, JoinMetrics};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Served lookups per second at the nominal rate.
const NOMINAL_RATE: f64 = 1000.0;
/// Relative resolution of the rate search.
const SEARCH_RESOLUTION: f64 = 0.03;
/// Rung runs a rate search from [`NOMINAL_RATE`] usually takes, retries
/// included.
const EXPECTED_RUNGS: f64 = 14.0;
/// Share of `--seconds` given to the rate search.
const SEARCH_SHARE: f64 = 0.35;
/// Set-ups per measurement round; `setup_s` is the median of all.
const SETUPS_PER_ROUND: usize = 2;
/// Fewest measurement rounds per run.
const MIN_ROUNDS: usize = 3;
/// Least cold-join time per round (whole rotations).
const JOIN_CHUNK: Duration = Duration::from_secs(2);
/// Served time per round at the nominal rate.
const SERVE_CHUNK: Duration = Duration::from_secs(2);
/// Direct probes per batch size in the traced run.
const PROBE_REPS: usize = 200;

/// Operation counts of a run.  Failed operations are errors, refusals and
/// wrong answers; rate-search rungs and warm-ups are not counted, but a
/// wrong answer anywhere makes the run incorrect.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    wrong: u64,
    problems: Vec<String>,
}

impl Tally {
    /// A counted operation failed.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.note(problem);
    }

    /// `n` counted operations answered wrongly.
    pub fn wrong(&mut self, n: u64, problem: String) {
        self.failed += n;
        self.wrong_outside(n, problem);
    }

    /// `n` wrong answers outside the counted operations.
    pub fn wrong_outside(&mut self, n: u64, problem: String) {
        self.wrong += n;
        self.note(problem);
    }

    /// Keeps the first few problems for the report.
    pub fn note(&mut self, problem: String) {
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }
}

/// The run's tracer and an inert one.  In the traced run, even-numbered
/// operations are traced and odd ones are not, so the same run measures
/// the tracing overhead.
pub struct Tracers {
    pub main: Tracer,
    off: Tracer,
}

impl Tracers {
    fn new(trace: bool) -> Self {
        Self {
            main: if trace { Tracer::on() } else { Tracer::off() },
            off: Tracer::off(),
        }
    }

    /// Two inert tracers.
    pub fn untraced() -> Self {
        Self::new(false)
    }

    /// The tracer of operation `i`.
    pub fn pick(&self, i: usize) -> &Tracer {
        if i.is_multiple_of(2) {
            &self.main
        } else {
            &self.off
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let dataset = Dataset::from_workload(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?} (expected forest or osm)",
            args.workload
        )
    })?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = ExecutionContext::builder().workers(workers).build();
    let tracers = Tracers::new(args.trace);
    let seconds = args.seconds;
    let share = |s: f64| Duration::from_secs_f64(seconds * s);

    // Set-up: inputs and references, not timed.
    let began = Instant::now();
    let inputs = data::make(dataset, args.seed);
    let join_truth = oracle::brute_force(inputs.join.points(), inputs.join.points(), K, workers);
    let join_oracle = oracle::as_join_result(&inputs.join, &join_truth);
    let pool_truth = oracle::brute_force(&inputs.pool, inputs.corpus.points(), K, workers);
    let truth = Truth {
        inputs: &inputs,
        pool: &pool_truth,
        corpus: Corpus::new(inputs.corpus.points()),
    };
    eprintln!(
        "perfbench: workload {} seed {} on {workers} cores; inputs and references in {:.1}s",
        args.workload,
        args.seed,
        began.elapsed().as_secs_f64()
    );

    let mut tally = Tally::default();
    let run_span = tracers.main.open("run", args.seed);

    // Two set-ups give the served handle and the churned one; each round
    // adds more, so that `setup_s` is a median over the whole run.
    let mut setup_times = online::SetupTimes::default();
    let mut set_up = |tally: &mut Tally| {
        let _span = tracers.main.open("phase.setup", 0);
        tally.attempted += 1;
        online::set_up(
            &ctx,
            &inputs.corpus,
            args.seed,
            workers,
            &tracers.main,
            &mut setup_times,
        )
        .map_err(|e| format!("prepare failed: {e}"))
    };
    let (churned, server) = set_up(&mut tally)?;
    server.shutdown();
    let (prepared, server) = set_up(&mut tally)?;

    let probes = if args.trace {
        let _span = tracers.main.open("phase.probes", 0);
        [1, 16].map(|batch| {
            online::probes(
                &prepared,
                &truth,
                batch,
                PROBE_REPS / batch.min(4),
                &tracers.main,
                &mut tally,
            )
        })
    } else {
        [Vec::new(), Vec::new()]
    };

    // The measured stages run in rounds, so that each stage's samples are
    // spread over the whole run rather than taken in one stretch of it.
    // Served reads are per-layer metrics, so only the traced run serves.
    let mut joins = joins::Joins::default();
    let mut serving = if args.trace {
        Some(online::Serving::start(
            server,
            &prepared,
            &truth,
            workers,
            NOMINAL_RATE,
            &mut tally,
        ))
    } else {
        server.shutdown();
        None
    };
    let mut churn = online::Churn::new(&churned);
    let rounds_budget = share(if args.trace { 1.0 - SEARCH_SHARE } else { 1.0 });
    let began = Instant::now();
    let mut round = 0;
    let mut rotation = 0;
    while round < MIN_ROUNDS || began.elapsed() < rounds_budget {
        let _span = tracers.main.open("phase.round", round as u64);
        let joined = Instant::now();
        loop {
            joins::rotation(
                &ctx,
                &inputs.join,
                &join_truth,
                &join_oracle,
                args.seed,
                rotation,
                &tracers,
                &mut tally,
                &mut joins,
            );
            rotation += 1;
            if joined.elapsed() >= JOIN_CHUNK {
                break;
            }
        }
        if let Some(serving) = serving.as_mut() {
            serving.chunk(&truth, NOMINAL_RATE, SERVE_CHUNK, &tracers, &mut tally);
        }
        // Each chunk reports its own p99, so each holds enough reads for it.
        churn.chunk(&churned, &truth, samples_needed(0.99), &tracers, &mut tally);
        for _ in 0..SETUPS_PER_ROUND {
            set_up(&mut tally)?.1.shutdown();
        }
        round += 1;
    }
    let peak_rss = peak_rss_mb();

    let mut values = BTreeMap::new();
    let catalogue: Vec<(String, &str)> = if let Some(serving) = serving {
        let served = serving.finish();
        let rung = share(SEARCH_SHARE).as_secs_f64() / EXPECTED_RUNGS;
        let search = online::rate_search(
            &prepared,
            &truth,
            workers,
            NOMINAL_RATE,
            SEARCH_RESOLUTION,
            Duration::from_secs_f64(rung.clamp(0.5, 2.0)),
            &mut tally,
        );
        if search.generator_limited {
            eprintln!(
                "perfbench: rate search generator-limited at {:.0}/s",
                search.max_rate
            );
        }
        let _span = tracers.main.open("phase.layers", 0);
        per_layer_values(
            &mut values,
            &inputs,
            &joins,
            &setup_times.build_s,
            &probes,
            &served,
            &search,
            &churn,
            args.seed,
            workers,
            &tracers.main,
        );
        report::per_layer()
    } else {
        end_to_end_values(&mut values, &joins, &churn, &setup_times.setup_s);
        values.insert("peak_rss_mb".into(), peak_rss);
        report::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    drop(run_span);

    if args.trace {
        values.insert("trace.span_ns".into(), span_cost_ns());
        let spans = tracers.main.take();
        values.insert("trace.spans".into(), spans.len() as f64);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        trace::write_jsonl(&path, &spans)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        for (name, s) in trace::summarize(&spans) {
            eprintln!(
                "perfbench: span {name:<36} n={:<6} total={:.4}s self={:.4}s",
                s.count,
                s.total_ns as f64 * 1e-9,
                s.self_ns as f64 * 1e-9
            );
        }
        eprintln!(
            "perfbench: {} spans written to {}",
            spans.len(),
            path.display()
        );
    }

    for (name, unit) in &catalogue {
        if let Some(v) = values.get(name) {
            eprintln!("perfbench: {name:<48} {v:>16.6} {unit}");
        }
    }
    for problem in &tally.problems {
        eprintln!("perfbench: problem: {problem}");
    }
    let correct = tally.wrong == 0;
    println!(
        "{}",
        report::render(correct, tally.attempted, tally.failed, &catalogue, &values)?
    );
    Ok(if correct { 0 } else { 1 })
}

fn end_to_end_values(
    values: &mut BTreeMap<String, f64>,
    joins: &joins::Joins,
    churn: &online::Churn,
    setup_s: &[f64],
) {
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    for (alg, samples) in joins::ALGS.iter().zip(&joins.per_alg) {
        put(&format!("join_s.{}", alg.key), median(&samples.seconds));
    }
    put("zknn_recall", median(&joins.zknn_recall));
    put("probe_p50_ms", quantile(&churn.read_ms, 0.5));
    put("write_p50_ms", quantile(&churn.write_ms, 0.5));
    put("write_mean_ms", mean(&churn.write_ms));
    put("setup_s", median(setup_s));
    eprintln!(
        "perfbench: samples: {} churn reads, {} writes, {} join rotations, {} set-ups",
        churn.read_ms.len(),
        churn.write_ms.len(),
        joins.per_alg[0].seconds.len(),
        setup_s.len()
    );
}

#[allow(clippy::too_many_arguments)]
fn per_layer_values(
    values: &mut BTreeMap<String, f64>,
    inputs: &data::Inputs,
    joins: &joins::Joins,
    build_s: &[f64],
    probes: &[Vec<(f64, JoinMetrics)>; 2],
    served: &online::Served,
    search: &openloop::Search,
    churn: &online::Churn,
    seed: u64,
    workers: usize,
    tracer: &Tracer,
) {
    let mut put = |name: String, v: f64| {
        values.insert(name, v);
    };

    // geom.kernels: the arithmetic floor's ns/distance, measured in this run.
    let (scalar2, batch2) = layers::kernel_ns_per_dist(2, seed, tracer);
    let (scalar10, batch10) = layers::kernel_ns_per_dist(10, seed, tracer);
    put("kernels.scalar_ns_per_dist.d2".into(), scalar2);
    put("kernels.scalar_ns_per_dist.d10".into(), scalar10);
    put("kernels.batch_ns_per_dist.d2".into(), batch2);
    put("kernels.batch_ns_per_dist.d10".into(), batch10);
    let ns_per_dist = if inputs.join.dims() == 2 {
        scalar2
    } else {
        scalar10
    };

    // knnjoin.pivots / knnjoin.partition / spatial.rtree on the join input.
    let p = layers::partitioning(&inputs.join, seed, tracer);
    put("pivots.select_s".into(), p.select_s);
    put("partition.assign_s".into(), p.assign_s);
    put("partition.dists_per_point".into(), p.dists_per_point);
    let r = layers::rtree(&inputs.join, tracer);
    put("rtree.bulk_load_s".into(), r.bulk_load_s);
    put("rtree.knn_us".into(), r.knn_us);
    put("rtree.dists_per_knn".into(), r.dists_per_knn);

    // knnjoin.algorithms: program-reported phases and counters.
    for (alg, samples) in joins::ALGS.iter().zip(&joins.per_alg) {
        let key = alg.key;
        for phase in alg.phases {
            let times: Vec<f64> = samples
                .metrics
                .iter()
                .map(|m| m.phase(phase).as_secs_f64())
                .collect();
            put(
                format!("{key}.phase.{}_s", joins::snake(phase)),
                median(&times),
            );
        }
        let m = samples.metrics.last().cloned().unwrap_or_default();
        let dists = (m.distance_computations + m.pivot_assignment_computations) as f64;
        let floor = dists * ns_per_dist * 1e-9;
        put(
            format!("{key}.distance_computations"),
            m.distance_computations as f64,
        );
        put(format!("{key}.selectivity"), m.computation_selectivity());
        put(format!("{key}.shuffle_bytes"), m.shuffle_bytes as f64);
        put(format!("{key}.shuffle_records"), m.shuffle_records as f64);
        put(format!("{key}.replication"), m.average_replication());
        put(format!("{key}.arith_floor_s"), floor);
        put(
            format!("{key}.floor_ratio"),
            median(&samples.seconds) / floor,
        );
        if key == "pgbj" {
            put(
                "pgbj.pivot_assignment_computations".into(),
                m.pivot_assignment_computations as f64,
            );
            // mapreduce.engine: a replay shaped like this join's job.
            let e = layers::engine(&inputs.join, m.average_replication(), workers, tracer);
            put("engine.map_s".into(), e.map_s);
            put("engine.shuffle_s".into(), e.shuffle_s);
            put("engine.reduce_s".into(), e.reduce_s);
            put("engine.ns_per_record".into(), e.ns_per_record);
        }
        if key == "hbrj" {
            put("hbrj.index_builds".into(), m.index_builds as f64);
        }
    }

    // knnjoin.prepared.
    put("prepared.build_s".into(), median(build_s));
    for (label, samples) in ["probe1", "probe16"].iter().zip(probes) {
        let ms: Vec<f64> = samples.iter().map(|(ms, _)| *ms).collect();
        let phase = |name: &str| {
            median(
                &samples
                    .iter()
                    .map(|(_, m)| m.phase(name).as_secs_f64() * 1e3)
                    .collect::<Vec<_>>(),
            )
        };
        let dists = median(
            &samples
                .iter()
                .map(|(_, m)| (m.distance_computations + m.pivot_assignment_computations) as f64)
                .collect::<Vec<_>>(),
        );
        put(format!("prepared.{label}_ms"), median(&ms));
        put(
            format!("prepared.{label}.phase.partition_grouping_ms"),
            phase("partition grouping"),
        );
        put(
            format!("prepared.{label}.phase.knn_join_ms"),
            phase("knn join"),
        );
        put(format!("prepared.{label}.dists"), dists);
        put(
            format!("prepared.{label}.floor_ratio"),
            median(&ms) / (dists * ns_per_dist * 1e-6),
        );
    }

    // knnjoin.serving, at the nominal rate.  Tail latencies are the median
    // over rounds of each round's p99 (see `chunked_quantile`).
    let run = &served.run;
    let stats = &served.stats;
    put("read_p50_ms".into(), quantile(&run.latency_ms, 0.5));
    put("max_qps".into(), search.max_throughput);
    put(
        "read_p99_ms".into(),
        chunked_quantile(&run.latency_ms, &served.chunk_ends, 0.99),
    );
    put("serving.admit_us".into(), median(&run.admit_us));
    put("serving.wait_p50_ms".into(), median(&run.wait_ms));
    put(
        "serving.batch_size_mean".into(),
        stats.mean_coalesced_batch(),
    );
    put(
        "serving.reject_ratio".into(),
        stats.rejected as f64 / (stats.submitted + stats.rejected).max(1) as f64,
    );
    put(
        "serving.gen_lateness_p99_ms".into(),
        quantile(&run.lateness_ms, 0.99),
    );
    put(
        "serving.server_p50_ms".into(),
        stats.latency.p50().as_secs_f64() * 1e3,
    );
    put(
        "serving.server_p99_ms".into(),
        stats.latency.p99().as_secs_f64() * 1e3,
    );

    // knnjoin.delta, over the churn stage.
    let (b, a) = (&churn.before, &churn.after);
    let reads = churn.read_ms.len().max(1) as f64;
    let compactions = a.compactions - b.compactions;
    let compaction_s = a.phase("compaction").as_secs_f64() - b.phase("compaction").as_secs_f64();
    put(
        "probe_p99_ms".into(),
        chunked_quantile(&churn.read_ms, &churn.chunk_ends, 0.99),
    );
    put(
        "delta.insert_p50_us".into(),
        quantile(&churn.write_ms, 0.5) * 1e3,
    );
    put(
        "delta.insert_p99_us".into(),
        quantile(&churn.write_ms, 0.99) * 1e3,
    );
    put("delta.compactions".into(), compactions as f64);
    put(
        "delta.compacted_points".into(),
        (a.compacted_points - b.compacted_points) as f64,
    );
    put(
        "delta.compaction_ms".into(),
        compaction_s * 1e3 / compactions.max(1) as f64,
    );
    put(
        "delta.frozen_dists_per_read".into(),
        (a.distance_computations - b.distance_computations) as f64 / reads,
    );
    put(
        "delta.probe_dists_per_read".into(),
        (a.delta_probe_computations - b.delta_probe_computations) as f64 / reads,
    );
    put(
        "delta.tombstone_masked_per_read".into(),
        (a.tombstone_masked - b.tombstone_masked) as f64 / reads,
    );

    // Tracing overhead: traced (even) minus untraced (odd) operations.
    let split = |v: &[f64], traced: &dyn Fn(usize) -> bool| {
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for (i, &x) in v.iter().enumerate() {
            if traced(i) {
                on.push(x);
            } else {
                off.push(x);
            }
        }
        median(&on) - median(&off)
    };
    let mut join_overhead = 0.0;
    for samples in &joins.per_alg {
        join_overhead += split(&samples.seconds, &|i| samples.traced[i]);
    }
    put("trace.overhead.join_s".into(), join_overhead);
    put(
        "trace.overhead.read_p50_ms".into(),
        split(&run.latency_ms, &|i| i.is_multiple_of(2)),
    );
    put(
        "trace.overhead.probe_p50_ms".into(),
        split(&churn.read_ms, &|i| churn.read_traced[i]),
    );
    put(
        "trace.overhead.write_p50_ms".into(),
        split(&churn.write_ms, &|i| churn.write_traced[i]),
    );
}

/// Cost of recording one span, ns.
fn span_cost_ns() -> f64 {
    const SPANS: usize = 100_000;
    let tracer = Tracer::on();
    let began = Instant::now();
    for i in 0..SPANS {
        drop(tracer.open("trace.cost", i as u64));
    }
    began.elapsed().as_nanos() as f64 / SPANS as f64
}

/// Peak resident memory of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
