//! The job execution engine.
//!
//! [`JobBuilder`] executes a full MapReduce job in-process:
//!
//! 1. the input pairs are divided into map splits,
//! 2. map tasks run in parallel on a bounded worker pool (sized by the
//!    caller's execution context, defaulting to the machine's parallelism);
//!    each task hash-routes every pair it emits into a **per-task,
//!    per-reduce-partition buffer** using the job's [`Partitioner`] and
//!    accounts the byte size of each pair towards the shuffle in the same
//!    pass (mirroring Hadoop's partitioned spill files),
//! 3. the shuffle hands each reduce partition the buffers every map task
//!    produced for it — a transpose of already-routed buffers, with no
//!    global materialisation and no global sort,
//! 4. reduce tasks run in parallel, one per partition; each task merges its
//!    buffers into sorted key groups (Hadoop's sort/group guarantee, now
//!    performed inside the parallel region) and runs the [`Reducer`], and
//! 5. per-phase timings, shuffle volume and counters (including the built-in
//!    [`crate::counters::builtin`] shuffle counters) are reported as
//!    [`JobMetrics`].  Tasks count into a private
//!    [`crate::counters::TaskCounters`] tally that is folded into the job's
//!    counters once per task, so no record takes a lock.
//!
//! Output order is deterministic regardless of the worker-pool size: reduce
//! partitions appear in partition order, keys ascend within a partition, and
//! the values of one key arrive in map-task order (then emission order).

use crate::bytesize::ByteSize;
use crate::counters::{builtin, Counters};
use crate::job::{HashPartitioner, MapContext, Mapper, Partitioner, ReduceContext, Reducer};
use crate::metrics::{JobMetrics, PhaseTimings};
use crate::sync::{ranks, RankedMutex};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// Worker-thread count used when the caller supplies none: one thread per
/// available core.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Applies `f` to every item on up to `workers` threads, preserving the input
/// order of the results (task index is passed through to `f`).
///
/// With `workers <= 1` or at most one item, every call runs inline on the
/// caller's thread and no thread is spawned.  Besides the engine's own map
/// and reduce phases, this is the pool the prepared probes of `knnjoin`
/// split their batches over.
pub fn parallel_map<T, U, F>(items: Vec<T>, workers: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    // Each lock is taken alone: the queue guard drops before `f` runs, and
    // `f` returns before its slot is locked to store the result.  A map or
    // reduce task takes `engine.counters` once inside `f`, after its last
    // record, to fold in its task-local tally; it holds no other lock then.
    let queue: RankedMutex<VecDeque<(usize, T)>> = RankedMutex::new(
        ranks::ENGINE_QUEUE,
        "engine.queue",
        items.into_iter().enumerate().collect(),
    );
    let slots: Vec<RankedMutex<Option<U>>> = (0..n)
        .map(|_| RankedMutex::new(ranks::ENGINE_SLOT, "engine.slot", None))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let next = queue.lock().pop_front();
                match next {
                    Some((i, item)) => *slots[i].lock() = Some(f(i, item)),
                    None => break,
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every task produced a result"))
        .collect()
}

/// Errors reported by the engine before any task runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job was configured with zero reduce tasks.
    NoReducers,
    /// The job was configured with zero map tasks.
    NoMapTasks,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::NoReducers => write!(f, "job must have at least one reduce task"),
            JobError::NoMapTasks => write!(f, "job must have at least one map task"),
        }
    }
}

impl std::error::Error for JobError {}

/// One reduce partition's share of one map task's output: the routed pairs
/// plus their shuffle byte volume.
type PartitionBuffer<K, V> = (Vec<(K, V)>, u64);

/// Everything one reduce partition receives: one routed buffer per map task,
/// concatenated in map-task order.
type PartitionInput<K, V> = Vec<Vec<(K, V)>>;

/// The result of a completed job: the reduce output plus execution metrics.
#[derive(Debug, Clone)]
pub struct JobOutput<K, V> {
    /// Final key/value pairs emitted by all reduce tasks, in reduce-task order
    /// (task 0's output first), with each task's keys in sorted order.
    pub output: Vec<(K, V)>,
    /// Execution metrics (timings, shuffle volume, counters).
    pub metrics: JobMetrics,
}

/// Fluent configuration for a MapReduce job.
///
/// Mirrors Hadoop's `JobConf`: a name, a number of reduce tasks ("computing
/// nodes" in the paper's experiments) and a number of map tasks (by default
/// one per reduce task, but usually set to the number of input splits).
///
/// # Example
///
/// Count occurrences per key, with the task topology decoupled from the
/// physical worker pool:
///
/// ```
/// use mapreduce::{JobBuilder, MapContext, Mapper, ReduceContext, Reducer};
///
/// struct One;
/// impl Mapper for One {
///     type KIn = u64;
///     type VIn = u64;
///     type KOut = u64;
///     type VOut = u64;
///     fn map(&self, k: &u64, _v: &u64, ctx: &mut MapContext<u64, u64>) {
///         ctx.emit(k % 3, 1);
///     }
/// }
///
/// struct Count;
/// impl Reducer for Count {
///     type KIn = u64;
///     type VIn = u64;
///     type KOut = u64;
///     type VOut = u64;
///     fn reduce(&self, k: &u64, vs: &[u64], ctx: &mut ReduceContext<u64, u64>) {
///         ctx.emit(*k, vs.len() as u64);
///     }
/// }
///
/// let input: Vec<(u64, u64)> = (0..90).map(|i| (i, 0)).collect();
/// let out = JobBuilder::new("count")
///     .reducers(3)   // logical reduce partitions
///     .map_tasks(6)  // logical input splits
///     .workers(2)    // physical threads executing all tasks
///     .run(input, &One, &Count)
///     .unwrap();
/// assert_eq!(out.output.len(), 3);
/// assert!(out.output.iter().all(|&(_, count)| count == 30));
/// assert_eq!(out.metrics.shuffle_records, 90);
/// ```
#[derive(Debug, Clone)]
pub struct JobBuilder {
    name: String,
    num_reducers: usize,
    num_map_tasks: Option<usize>,
    workers: Option<usize>,
}

impl JobBuilder {
    /// Creates a builder for a job with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            num_reducers: 1,
            num_map_tasks: None,
            workers: None,
        }
    }

    /// Sets the number of reduce tasks.
    pub fn reducers(mut self, n: usize) -> Self {
        self.num_reducers = n;
        self
    }

    /// Sets the number of map tasks (defaults to `max(num_reducers, 1)` if the
    /// input is large enough, otherwise one task per input pair).
    pub fn map_tasks(mut self, n: usize) -> Self {
        self.num_map_tasks = Some(n);
        self
    }

    /// Sets how many worker threads execute tasks (tasks are logical units;
    /// this is the physical pool size).  Defaults to [`default_workers`].
    /// Callers running inside an execution context thread its pool size
    /// through here.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n);
        self
    }

    /// Runs the job with the default [`HashPartitioner`].
    ///
    /// # Errors
    /// Returns [`JobError`] if the configuration is invalid.
    pub fn run<M, R>(
        &self,
        input: Vec<(M::KIn, M::VIn)>,
        mapper: &M,
        reducer: &R,
    ) -> Result<JobOutput<R::KOut, R::VOut>, JobError>
    where
        M: Mapper,
        R: Reducer<KIn = M::KOut, VIn = M::VOut>,
    {
        self.run_with_partitioner(input, mapper, reducer, &HashPartitioner)
    }

    /// Runs the job with an explicit partitioner.
    ///
    /// # Errors
    /// Returns [`JobError`] if the configuration is invalid.
    pub fn run_with_partitioner<M, R, P>(
        &self,
        input: Vec<(M::KIn, M::VIn)>,
        mapper: &M,
        reducer: &R,
        partitioner: &P,
    ) -> Result<JobOutput<R::KOut, R::VOut>, JobError>
    where
        M: Mapper,
        R: Reducer<KIn = M::KOut, VIn = M::VOut>,
        P: Partitioner<M::KOut>,
    {
        let num_reducers = self.num_reducers;
        if num_reducers == 0 {
            return Err(JobError::NoReducers);
        }
        let requested_map_tasks = self.num_map_tasks.unwrap_or_else(|| num_reducers.max(1));
        if requested_map_tasks == 0 {
            return Err(JobError::NoMapTasks);
        }
        let workers = self.workers.unwrap_or_else(default_workers).max(1);

        let counters = Counters::new();
        let input_records = input.len() as u64;

        // ---- Map phase -------------------------------------------------------
        // Each map task hash-routes its own output into one buffer per reduce
        // partition and accounts its bytes, so all per-record shuffle work
        // happens inside the parallel region — the analogue of Hadoop's
        // partitioned spill files.
        let map_start = Instant::now();
        let splits = make_splits(input, requested_map_tasks);
        let map_tasks = splits.len().max(1);
        let map_results: Vec<Vec<PartitionBuffer<M::KOut, M::VOut>>> =
            parallel_map(splits, workers, |task_id, split| {
                let mut ctx = MapContext::new(task_id);
                mapper.setup(&mut ctx);
                for (k, v) in &split {
                    mapper.map(k, v, &mut ctx);
                }
                mapper.cleanup(&mut ctx);
                counters.merge_task(&ctx.counters);
                route(ctx.emitted, partitioner, num_reducers)
            });
        let map_time = map_start.elapsed();

        // ---- Shuffle phase ----------------------------------------------------
        // The pairs are already routed; the shuffle is a transpose that hands
        // partition `p` the buffer every map task produced for it, moving whole
        // buffers rather than records.
        let shuffle_start = Instant::now();
        let mut shuffle_records = 0u64;
        let mut shuffle_bytes = 0u64;
        let mut partition_inputs: Vec<PartitionInput<M::KOut, M::VOut>> = (0..num_reducers)
            .map(|_| Vec::with_capacity(map_tasks))
            .collect();
        for task_buffers in map_results {
            for (p, (buffer, bytes)) in task_buffers.into_iter().enumerate() {
                shuffle_records += buffer.len() as u64;
                shuffle_bytes += bytes;
                partition_inputs[p].push(buffer);
            }
        }
        counters.add(builtin::SHUFFLE_RECORDS, shuffle_records);
        counters.add(builtin::SHUFFLE_BYTES, shuffle_bytes);
        let shuffle_time = shuffle_start.elapsed();

        // ---- Reduce phase ------------------------------------------------------
        // Each reduce task merges the buffers it received into sorted key groups
        // (the sort/group guarantee) and runs the reducer — grouping happens per
        // partition inside the parallel region instead of globally up front.
        let reduce_start = Instant::now();
        let reduce_outputs: Vec<Vec<(R::KOut, R::VOut)>> =
            parallel_map(partition_inputs, workers, |task_id, buffers| {
                let mut groups: BTreeMap<M::KOut, Vec<M::VOut>> = BTreeMap::new();
                for buffer in buffers {
                    for (k, v) in buffer {
                        groups.entry(k).or_default().push(v);
                    }
                }
                let mut ctx = ReduceContext::new(task_id);
                reducer.setup(&mut ctx);
                for (k, vs) in &groups {
                    reducer.reduce(k, vs, &mut ctx);
                }
                reducer.cleanup(&mut ctx);
                counters.merge_task(&ctx.counters);
                ctx.emitted
            });
        let reduce_time = reduce_start.elapsed();

        let mut output = Vec::new();
        for mut part in reduce_outputs {
            output.append(&mut part);
        }

        let metrics = JobMetrics {
            job_name: self.name.clone(),
            map_tasks,
            reduce_tasks: num_reducers,
            input_records,
            shuffle_records,
            shuffle_bytes,
            output_records: output.len() as u64,
            timings: PhaseTimings {
                map: map_time,
                shuffle: shuffle_time,
                reduce: reduce_time,
            },
            counters,
        };

        Ok(JobOutput { output, metrics })
    }
}

/// Routes one map task's output into one buffer per reduce partition and
/// accounts each buffer's shuffle bytes in the same pass.  Runs inside the map
/// task, so routing is parallel across map tasks.
fn route<K, V, P>(
    emitted: Vec<(K, V)>,
    partitioner: &P,
    num_reducers: usize,
) -> Vec<PartitionBuffer<K, V>>
where
    K: ByteSize,
    V: ByteSize,
    P: Partitioner<K>,
{
    let mut buffers: Vec<PartitionBuffer<K, V>> =
        (0..num_reducers).map(|_| (Vec::new(), 0)).collect();
    for (k, v) in emitted {
        let p = partitioner.partition(&k, num_reducers);
        debug_assert!(p < num_reducers, "partitioner returned out-of-range index");
        let (buffer, bytes) = &mut buffers[p.min(num_reducers - 1)];
        *bytes += (k.byte_size() + v.byte_size()) as u64;
        buffer.push((k, v));
    }
    buffers
}

/// Splits the input into at most `n` contiguous, near-equal chunks.
fn make_splits<T>(input: Vec<T>, n: usize) -> Vec<Vec<T>> {
    if input.is_empty() {
        return vec![Vec::new()];
    }
    let n = n.min(input.len()).max(1);
    let chunk = input.len().div_ceil(n);
    let mut splits = Vec::with_capacity(n);
    let mut it = input.into_iter();
    loop {
        let split: Vec<T> = it.by_ref().take(chunk).collect();
        if split.is_empty() {
            break;
        }
        splits.push(split);
    }
    splits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::IdentityPartitioner;

    /// Identity mapper over (u64, u64) pairs.
    struct IdMap;
    impl Mapper for IdMap {
        type KIn = u64;
        type VIn = u64;
        type KOut = u64;
        type VOut = u64;
        fn map(&self, k: &u64, v: &u64, ctx: &mut MapContext<u64, u64>) {
            ctx.emit(*k, *v);
        }
    }

    /// Sums values per key.
    struct SumRed;
    impl Reducer for SumRed {
        type KIn = u64;
        type VIn = u64;
        type KOut = u64;
        type VOut = u64;
        fn reduce(&self, k: &u64, vs: &[u64], ctx: &mut ReduceContext<u64, u64>) {
            ctx.emit(*k, vs.iter().sum());
        }
    }

    fn pairs(n: u64) -> Vec<(u64, u64)> {
        (0..n).map(|i| (i % 10, i)).collect()
    }

    #[test]
    fn sums_match_sequential_computation() {
        let input = pairs(1000);
        let mut expect = BTreeMap::new();
        for (k, v) in &input {
            *expect.entry(*k).or_insert(0u64) += v;
        }
        let out = JobBuilder::new("sum")
            .reducers(4)
            .run(input, &IdMap, &SumRed)
            .unwrap();
        let got: BTreeMap<u64, u64> = out.output.into_iter().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn metrics_account_records_and_bytes() {
        let input = pairs(100);
        let out = JobBuilder::new("metrics")
            .reducers(3)
            .map_tasks(5)
            .run(input, &IdMap, &SumRed)
            .unwrap();
        let m = &out.metrics;
        assert_eq!(m.job_name, "metrics");
        assert_eq!(m.input_records, 100);
        assert_eq!(m.shuffle_records, 100);
        assert_eq!(m.shuffle_bytes, 100 * 16); // (u64, u64) = 16 bytes each
        assert_eq!(m.output_records, 10);
        assert_eq!(m.map_tasks, 5);
        assert_eq!(m.reduce_tasks, 3);
    }

    #[test]
    fn results_are_independent_of_task_counts() {
        let input = pairs(500);
        let single = JobBuilder::new("a")
            .reducers(1)
            .map_tasks(1)
            .run(input.clone(), &IdMap, &SumRed)
            .unwrap();
        let many = JobBuilder::new("b")
            .reducers(13)
            .map_tasks(7)
            .run(input, &IdMap, &SumRed)
            .unwrap();
        let mut a = single.output;
        let mut b = many.output;
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_reducers_is_an_error() {
        let err = JobBuilder::new("bad")
            .reducers(0)
            .run(pairs(10), &IdMap, &SumRed)
            .unwrap_err();
        assert_eq!(err, JobError::NoReducers);
        assert!(err.to_string().contains("reduce"));
    }

    #[test]
    fn zero_map_tasks_is_an_error() {
        let err = JobBuilder::new("bad")
            .reducers(1)
            .map_tasks(0)
            .run(pairs(10), &IdMap, &SumRed)
            .unwrap_err();
        assert_eq!(err, JobError::NoMapTasks);
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let out = JobBuilder::new("empty")
            .reducers(2)
            .run(Vec::new(), &IdMap, &SumRed)
            .unwrap();
        assert!(out.output.is_empty());
        assert_eq!(out.metrics.input_records, 0);
        assert_eq!(out.metrics.shuffle_bytes, 0);
    }

    #[test]
    fn identity_partitioner_routes_by_key() {
        // With the identity partitioner and as many reducers as keys, each
        // reducer sees exactly one key; the output order groups per reducer.
        let input: Vec<(u64, u64)> = (0..30).map(|i| (i % 3, 1)).collect();
        let out = JobBuilder::new("ident")
            .reducers(3)
            .run_with_partitioner(input, &IdMap, &SumRed, &IdentityPartitioner)
            .unwrap();
        assert_eq!(out.output, vec![(0, 10), (1, 10), (2, 10)]);
    }

    #[test]
    fn counters_flow_from_tasks_to_metrics() {
        struct CountingMap;
        impl Mapper for CountingMap {
            type KIn = u64;
            type VIn = u64;
            type KOut = u64;
            type VOut = u64;
            fn setup(&self, ctx: &mut MapContext<u64, u64>) {
                ctx.counters().increment("map_setup");
            }
            fn map(&self, k: &u64, v: &u64, ctx: &mut MapContext<u64, u64>) {
                ctx.counters().increment("mapped");
                ctx.counters().add("mapped_value", *v);
                ctx.emit(*k, *v);
            }
            fn cleanup(&self, ctx: &mut MapContext<u64, u64>) {
                ctx.counters().add("map_cleanup", 2);
            }
        }
        struct CountingRed;
        impl Reducer for CountingRed {
            type KIn = u64;
            type VIn = u64;
            type KOut = u64;
            type VOut = u64;
            fn setup(&self, ctx: &mut ReduceContext<u64, u64>) {
                ctx.counters().increment("red_setup");
            }
            fn reduce(&self, k: &u64, vs: &[u64], ctx: &mut ReduceContext<u64, u64>) {
                ctx.counters().add("reduced", vs.len() as u64);
                ctx.emit(*k, vs.iter().sum());
            }
            fn cleanup(&self, ctx: &mut ReduceContext<u64, u64>) {
                ctx.counters().increment("red_cleanup");
            }
        }
        // Seven map tasks and five reduce tasks on fewer workers: every
        // worker runs several tasks, and each task folds in its own tally.
        let totals = |workers: usize| {
            let out = JobBuilder::new("counting")
                .reducers(5)
                .map_tasks(7)
                .workers(workers)
                .run(pairs(50), &CountingMap, &CountingRed)
                .unwrap();
            out.metrics.counters.snapshot()
        };
        let one = totals(1);
        let expect: BTreeMap<String, u64> = [
            ("map_cleanup", 14),
            ("map_setup", 7),
            ("mapped", 50),
            ("mapped_value", (0..50).sum()),
            ("red_cleanup", 5),
            ("red_setup", 5),
            ("reduced", 50),
            (builtin::SHUFFLE_BYTES, 50 * 16),
            (builtin::SHUFFLE_RECORDS, 50),
        ]
        .into_iter()
        .map(|(name, count)| (name.to_string(), count))
        .collect();
        assert_eq!(one, expect);
        assert_eq!(totals(4), one);
    }

    #[test]
    fn setup_and_cleanup_run_once_per_task() {
        struct LifecycleMap;
        impl Mapper for LifecycleMap {
            type KIn = u64;
            type VIn = u64;
            type KOut = u64;
            type VOut = u64;
            fn setup(&self, ctx: &mut MapContext<u64, u64>) {
                ctx.counters().increment("map_setup");
            }
            fn cleanup(&self, ctx: &mut MapContext<u64, u64>) {
                ctx.counters().increment("map_cleanup");
            }
            fn map(&self, k: &u64, v: &u64, ctx: &mut MapContext<u64, u64>) {
                ctx.emit(*k, *v);
            }
        }
        struct LifecycleRed;
        impl Reducer for LifecycleRed {
            type KIn = u64;
            type VIn = u64;
            type KOut = u64;
            type VOut = u64;
            fn setup(&self, ctx: &mut ReduceContext<u64, u64>) {
                ctx.counters().increment("red_setup");
            }
            fn reduce(&self, k: &u64, vs: &[u64], ctx: &mut ReduceContext<u64, u64>) {
                ctx.emit(*k, vs.len() as u64);
            }
        }
        let out = JobBuilder::new("lifecycle")
            .reducers(3)
            .map_tasks(4)
            .run(pairs(40), &LifecycleMap, &LifecycleRed)
            .unwrap();
        assert_eq!(out.metrics.counters.get("map_setup"), 4);
        assert_eq!(out.metrics.counters.get("map_cleanup"), 4);
        assert_eq!(out.metrics.counters.get("red_setup"), 3);
    }

    #[test]
    fn reduce_sees_keys_in_sorted_order() {
        struct OrderRed;
        impl Reducer for OrderRed {
            type KIn = u64;
            type VIn = u64;
            type KOut = u64;
            type VOut = u64;
            fn reduce(&self, k: &u64, _vs: &[u64], ctx: &mut ReduceContext<u64, u64>) {
                ctx.emit(*k, 0);
            }
        }
        // Single reducer: output must be exactly the sorted distinct keys.
        let input: Vec<(u64, u64)> = vec![(5, 0), (1, 0), (3, 0), (1, 0), (9, 0)];
        let out = JobBuilder::new("order")
            .reducers(1)
            .run(input, &IdMap, &OrderRed)
            .unwrap();
        let keys: Vec<u64> = out.output.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
    }

    #[test]
    fn explicit_worker_counts_do_not_change_results() {
        let input = pairs(300);
        let mut expect: Vec<(u64, u64)> = JobBuilder::new("w1")
            .reducers(4)
            .workers(1)
            .run(input.clone(), &IdMap, &SumRed)
            .unwrap()
            .output;
        expect.sort();
        for workers in [2usize, 3, 8] {
            let mut got = JobBuilder::new("wn")
                .reducers(4)
                .workers(workers)
                .run(input.clone(), &IdMap, &SumRed)
                .unwrap()
                .output;
            got.sort();
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn parallel_map_preserves_order_and_runs_every_item() {
        for workers in [1usize, 2, 5, 64] {
            let out = parallel_map((0..57u64).collect(), workers, |i, x| {
                assert_eq!(i as u64, x);
                x * 2
            });
            assert_eq!(out, (0..57u64).map(|x| x * 2).collect::<Vec<_>>());
        }
        let empty: Vec<u64> = parallel_map(Vec::new(), 4, |_, x: u64| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn parallel_map_runs_inline_for_one_worker_or_one_item() {
        let caller = std::thread::current().id();
        let on_caller = |_, x: u64| (x, std::thread::current().id() == caller);
        for (items, workers) in [(vec![7u64], 4usize), ((0..9).collect(), 1)] {
            let out = parallel_map(items.clone(), workers, on_caller);
            assert_eq!(out.iter().map(|(x, _)| *x).collect::<Vec<_>>(), items);
            assert!(out.iter().all(|(_, inline)| *inline), "{workers} workers");
        }
        // Several items on several workers do leave the caller's thread.
        let out = parallel_map((0..9u64).collect(), 3, on_caller);
        assert_eq!(
            out.iter().map(|(x, _)| *x).collect::<Vec<_>>(),
            (0..9).collect::<Vec<_>>()
        );
        assert!(out.iter().all(|(_, inline)| !*inline));
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn output_is_bit_identical_across_worker_pool_sizes() {
        // Stronger than "same multiset": the exact output *order* must be
        // deterministic (partition order, sorted keys within a partition),
        // whatever the physical pool size.
        let input = pairs(400);
        let reference = JobBuilder::new("det")
            .reducers(5)
            .map_tasks(7)
            .workers(1)
            .run(input.clone(), &IdMap, &SumRed)
            .unwrap()
            .output;
        for workers in [2usize, 4, 16] {
            let got = JobBuilder::new("det")
                .reducers(5)
                .map_tasks(7)
                .workers(workers)
                .run(input.clone(), &IdMap, &SumRed)
                .unwrap()
                .output;
            assert_eq!(got, reference, "workers = {workers}");
        }
    }

    #[test]
    fn builtin_counters_track_shuffle_volume() {
        let out = JobBuilder::new("plain")
            .reducers(4)
            .map_tasks(3)
            .run(pairs(600), &IdMap, &SumRed)
            .unwrap();
        let m = &out.metrics;
        assert_eq!(m.counters.get(builtin::SHUFFLE_RECORDS), 600);
        assert_eq!(m.counters.get(builtin::SHUFFLE_RECORDS), m.shuffle_records);
        assert_eq!(m.counters.get(builtin::SHUFFLE_BYTES), m.shuffle_bytes);
    }

    #[test]
    fn make_splits_covers_all_elements() {
        let splits = make_splits((0..10).collect::<Vec<_>>(), 3);
        assert_eq!(splits.len(), 3);
        let flat: Vec<i32> = splits.into_iter().flatten().collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
        // More tasks than elements degrade gracefully.
        let splits = make_splits(vec![1, 2], 10);
        assert_eq!(splits.len(), 2);
        let splits: Vec<Vec<i32>> = make_splits(Vec::new(), 4);
        assert_eq!(splits.len(), 1);
        assert!(splits[0].is_empty());
    }
}
