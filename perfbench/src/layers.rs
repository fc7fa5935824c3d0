//! Direct measurements of single layers through their public functions,
//! made only in the traced run: distance kernels, pivot selection and
//! Voronoi assignment, the R-tree, and the MapReduce engine.

use crate::data::{SplitMix64, JOIN_PIVOTS, K, REDUCERS};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use pgbj::geom::kernels::euclidean_batch;
use pgbj::geom::{CoordMatrix, DistanceMetric, PointSet};
use pgbj::knnjoin::{select_pivots, PgbjConfig, VoronoiPartitioner};
use pgbj::mapreduce::{JobBuilder, MapContext, Mapper, ReduceContext, Reducer};
use pgbj::spatial::RTree;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each timed layer call; the median is reported.
const REPS: usize = 5;

/// Nanoseconds per Euclidean distance of `dims` dimensions, through the
/// scalar kernel the exact join paths call (`DistanceMetric::kernel`) and
/// through the batch kernel: `(scalar, batch)`.
pub fn kernel_ns_per_dist(dims: usize, seed: u64, tracer: &Tracer) -> (f64, f64) {
    const ROWS: usize = 4096;
    const QUERIES: usize = 64;
    let mut rng = SplitMix64(seed ^ dims as u64);
    let rows = CoordMatrix::from_raw((0..ROWS * dims).map(|_| rng.unit()).collect(), dims);
    let queries: Vec<Vec<f64>> = (0..QUERIES)
        .map(|_| (0..dims).map(|_| rng.unit()).collect())
        .collect();
    let kernel = DistanceMetric::Euclidean.kernel();
    let per_dist = |began: Instant| began.elapsed().as_nanos() as f64 / (ROWS * QUERIES) as f64;

    let mut scalar = Vec::new();
    let mut batch = Vec::new();
    let mut out = vec![0.0; ROWS];
    for _ in 0..REPS {
        let span = tracer.open("geom.kernels.scalar", dims as u64);
        let began = Instant::now();
        let mut acc = 0.0;
        for q in &queries {
            for row in rows.rows() {
                acc += kernel(black_box(q), black_box(row));
            }
        }
        black_box(acc);
        scalar.push(per_dist(began));
        drop(span);

        let _span = tracer.open("geom.kernels.batch", dims as u64);
        let began = Instant::now();
        for q in &queries {
            euclidean_batch(black_box(q), black_box(rows.as_slice()), dims, &mut out);
            black_box(&out);
        }
        batch.push(per_dist(began));
    }
    (median(&scalar), median(&batch))
}

/// Pivot selection and Voronoi assignment on the cold-join input.
pub struct Partitioning {
    pub select_s: f64,
    pub assign_s: f64,
    pub dists_per_point: f64,
}

pub fn partitioning(data: &PointSet, seed: u64, tracer: &Tracer) -> Partitioning {
    let PgbjConfig {
        pivot_strategy: strategy,
        pivot_sample_size: sample,
        ..
    } = PgbjConfig::default();
    let mut select = Vec::new();
    let mut pivots = Vec::new();
    for rep in 0..REPS {
        let _span = tracer.open("knnjoin.pivots.select_pivots", rep as u64);
        let began = Instant::now();
        pivots = select_pivots(
            data,
            JOIN_PIVOTS,
            strategy,
            sample,
            DistanceMetric::Euclidean,
            seed,
        );
        select.push(began.elapsed().as_secs_f64());
    }
    let partitioner = VoronoiPartitioner::new(pivots, DistanceMetric::Euclidean);
    let mut assign = Vec::new();
    for rep in 0..REPS {
        let _span = tracer.open("knnjoin.partition.partition", rep as u64);
        let began = Instant::now();
        black_box(partitioner.partition(data));
        assign.push(began.elapsed().as_secs_f64());
    }
    let mut span = tracer.open("knnjoin.partition.nearest_pivot", 0);
    let computations: u64 = data
        .iter()
        .map(|p| partitioner.nearest_pivot(&p.coords).computations)
        .sum();
    let dists_per_point = computations as f64 / data.len() as f64;
    span.attr("computations", computations as f64);
    Partitioning {
        select_s: median(&select),
        assign_s: median(&assign),
        dists_per_point,
    }
}

/// The R-tree H-BRJ builds per `S` block, over the whole cold-join input.
pub struct Rtree {
    pub bulk_load_s: f64,
    pub knn_us: f64,
    pub dists_per_knn: f64,
}

pub fn rtree(data: &PointSet, tracer: &Tracer) -> Rtree {
    let mut load = Vec::new();
    let mut tree = None;
    for rep in 0..REPS {
        let points = data.points().to_vec();
        let _span = tracer.open("spatial.rtree.bulk_load", rep as u64);
        let began = Instant::now();
        tree = Some(RTree::bulk_load(points, DistanceMetric::Euclidean));
        load.push(began.elapsed().as_secs_f64());
    }
    let tree = tree.expect("at least one build");
    let mut us = Vec::new();
    let mut dists = Vec::new();
    for (i, query) in data.iter().step_by(12).enumerate() {
        let _span = tracer.open("spatial.rtree.knn", i as u64);
        let began = Instant::now();
        let (neighbors, computed) = tree.knn_counted(query, K);
        us.push(began.elapsed().as_secs_f64() * 1e6);
        black_box(neighbors);
        dists.push(computed as f64);
    }
    Rtree {
        bulk_load_s: median(&load),
        knn_us: median(&us),
        dists_per_knn: mean(&dists),
    }
}

/// A replay of the PGBJ join job's shape on the engine: every `R` record
/// goes to one reducer group, every `S` record to `replicas` groups, and
/// the reducer only counts what it receives.
struct ReplayMap {
    replicas: u64,
}

impl Mapper for ReplayMap {
    type KIn = u64;
    type VIn = (bool, Vec<f64>);
    type KOut = u64;
    type VOut = (u64, Vec<f64>);

    fn map(&self, id: &u64, value: &(bool, Vec<f64>), ctx: &mut MapContext<u64, (u64, Vec<f64>)>) {
        let (is_s, coords) = value;
        let groups = REDUCERS as u64;
        let copies = if *is_s { self.replicas } else { 1 };
        for j in 0..copies {
            ctx.emit((id + j) % groups, (*id, coords.clone()));
        }
    }
}

struct ReplayReduce;

impl Reducer for ReplayReduce {
    type KIn = u64;
    type VIn = (u64, Vec<f64>);
    type KOut = u64;
    type VOut = u64;

    fn reduce(&self, key: &u64, values: &[(u64, Vec<f64>)], ctx: &mut ReduceContext<u64, u64>) {
        ctx.emit(*key, values.len() as u64);
    }
}

/// Engine phase times and cost per shuffled record.
pub struct Engine {
    pub map_s: f64,
    pub shuffle_s: f64,
    pub reduce_s: f64,
    pub ns_per_record: f64,
}

/// Replays a self-join of `data` with each `S` record shipped `replication`
/// times (PGBJ's measured average), on `workers` threads.
pub fn engine(data: &PointSet, replication: f64, workers: usize, tracer: &Tracer) -> Engine {
    let mapper = ReplayMap {
        replicas: (replication.round() as u64).max(1),
    };
    let job = JobBuilder::new("pgbj-shaped-replay")
        .reducers(REDUCERS)
        .map_tasks(8)
        .workers(workers);
    let (mut map, mut shuffle, mut reduce, mut per_record) = (vec![], vec![], vec![], vec![]);
    for rep in 0..REPS {
        let input: Vec<(u64, (bool, Vec<f64>))> = data
            .iter()
            .flat_map(|p| {
                [
                    (p.id, (false, p.coords.clone())),
                    (p.id, (true, p.coords.clone())),
                ]
            })
            .collect();
        let mut span = tracer.open("mapreduce.engine.run", rep as u64);
        let out = job
            .run(input, &mapper, &ReplayReduce)
            .expect("replay job is well formed");
        let t = out.metrics.timings;
        span.attr("shuffle_records", out.metrics.shuffle_records as f64);
        map.push(t.map.as_secs_f64());
        shuffle.push(t.shuffle.as_secs_f64());
        reduce.push(t.reduce.as_secs_f64());
        per_record.push(t.total().as_nanos() as f64 / out.metrics.shuffle_records.max(1) as f64);
    }
    Engine {
        map_s: median(&map),
        shuffle_s: median(&shuffle),
        reduce_s: median(&reduce),
        ns_per_record: median(&per_record),
    }
}
