//! User-facing job abstractions: mappers, reducers, partitioners and the
//! contexts through which they emit intermediate and final pairs.

use crate::bytesize::ByteSize;
use crate::counters::TaskCounters;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// The map side of a job.
///
/// A mapper receives one input pair at a time and emits zero or more
/// intermediate pairs through the [`MapContext`].  Implementations must be
/// `Send + Sync` because map tasks run concurrently and share the mapper
/// instance, exactly like a Hadoop `Mapper` class shared across task JVMs.
pub trait Mapper: Send + Sync {
    /// Input key type.
    type KIn: Send;
    /// Input value type.
    type VIn: Send;
    /// Intermediate key type.
    type KOut: Send + Clone + Ord + Hash + ByteSize;
    /// Intermediate value type.
    type VOut: Send + Clone + ByteSize;

    /// Processes one input pair.
    fn map(&self, key: &Self::KIn, value: &Self::VIn, ctx: &mut MapContext<Self::KOut, Self::VOut>);

    /// Called once per map task before any input pair is processed
    /// (Hadoop's `setup()`); the default does nothing.
    fn setup(&self, _ctx: &mut MapContext<Self::KOut, Self::VOut>) {}

    /// Called once per map task after the last input pair (Hadoop's
    /// `cleanup()`); the default does nothing.
    fn cleanup(&self, _ctx: &mut MapContext<Self::KOut, Self::VOut>) {}
}

/// The reduce side of a job.
///
/// A reducer receives every intermediate key assigned to its partition
/// together with all values emitted for that key (grouped and sorted by key by
/// the shuffle), and emits final output pairs.
pub trait Reducer: Send + Sync {
    /// Intermediate key type (must match the mapper's `KOut`).
    type KIn: Send + Clone + Ord + Hash;
    /// Intermediate value type (must match the mapper's `VOut`).
    type VIn: Send + Clone;
    /// Output key type.
    type KOut: Send + Clone;
    /// Output value type.
    type VOut: Send + Clone;

    /// Processes one intermediate key and all of its values.
    fn reduce(
        &self,
        key: &Self::KIn,
        values: &[Self::VIn],
        ctx: &mut ReduceContext<Self::KOut, Self::VOut>,
    );

    /// Called once per reduce task before the first key; default no-op.
    fn setup(&self, _ctx: &mut ReduceContext<Self::KOut, Self::VOut>) {}

    /// Called once per reduce task after the last key; default no-op.
    fn cleanup(&self, _ctx: &mut ReduceContext<Self::KOut, Self::VOut>) {}
}

/// Routes an intermediate key to one of the `num_reducers` reduce tasks.
pub trait Partitioner<K>: Send + Sync {
    /// Returns the reducer index in `0..num_reducers` for `key`.
    fn partition(&self, key: &K, num_reducers: usize) -> usize;
}

/// Default partitioner: hash of the key modulo the number of reducers, the
/// same policy as Hadoop's `HashPartitioner`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

impl<K: Hash> Partitioner<K> for HashPartitioner {
    fn partition(&self, key: &K, num_reducers: usize) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % num_reducers as u64) as usize
    }
}

/// A partitioner for keys that *are* the target reducer index (e.g. the group
/// id in the paper's second job).  Keys are taken modulo the reducer count so
/// out-of-range ids still land somewhere deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPartitioner;

impl Partitioner<u32> for IdentityPartitioner {
    fn partition(&self, key: &u32, num_reducers: usize) -> usize {
        (*key as usize) % num_reducers
    }
}

impl Partitioner<u64> for IdentityPartitioner {
    fn partition(&self, key: &u64, num_reducers: usize) -> usize {
        (*key as usize) % num_reducers
    }
}

impl Partitioner<usize> for IdentityPartitioner {
    fn partition(&self, key: &usize, num_reducers: usize) -> usize {
        *key % num_reducers
    }
}

/// Context handed to a map task; collects emitted intermediate pairs (the
/// engine accounts their shuffle bytes while routing them).
#[derive(Debug)]
pub struct MapContext<K, V> {
    pub(crate) emitted: Vec<(K, V)>,
    pub(crate) counters: TaskCounters,
    pub(crate) task_id: usize,
}

impl<K, V> MapContext<K, V> {
    /// Creates a standalone context.  The engine builds contexts itself; this
    /// constructor exists so mapper implementations can be unit-tested in
    /// isolation.
    pub fn new(task_id: usize) -> Self {
        Self {
            emitted: Vec::new(),
            counters: TaskCounters::new(),
            task_id,
        }
    }

    /// Emits an intermediate key/value pair.
    pub fn emit(&mut self, key: K, value: V) {
        self.emitted.push((key, value));
    }

    /// The pairs emitted so far (exposed for unit-testing mappers).
    pub fn emitted(&self) -> &[(K, V)] {
        &self.emitted
    }

    /// This task's counter tally; the engine folds it into the job's
    /// counters when the task ends.
    pub fn counters(&mut self) -> &mut TaskCounters {
        &mut self.counters
    }

    /// Index of the map task executing this context (0-based).
    pub fn task_id(&self) -> usize {
        self.task_id
    }
}

/// Context handed to a reduce task; collects final output pairs.
#[derive(Debug)]
pub struct ReduceContext<K, V> {
    pub(crate) emitted: Vec<(K, V)>,
    pub(crate) counters: TaskCounters,
    pub(crate) task_id: usize,
}

impl<K, V> ReduceContext<K, V> {
    /// Creates a standalone context.  The engine builds contexts itself; this
    /// constructor exists so reducer implementations can be unit-tested in
    /// isolation.
    pub fn new(task_id: usize) -> Self {
        Self {
            emitted: Vec::new(),
            counters: TaskCounters::new(),
            task_id,
        }
    }

    /// Emits a final output pair.
    pub fn emit(&mut self, key: K, value: V) {
        self.emitted.push((key, value));
    }

    /// The pairs emitted so far (exposed for unit-testing reducers).
    pub fn emitted(&self) -> &[(K, V)] {
        &self.emitted
    }

    /// This task's counter tally; the engine folds it into the job's
    /// counters when the task ends.
    pub fn counters(&mut self) -> &mut TaskCounters {
        &mut self.counters
    }

    /// Index of the reduce task executing this context (0-based).
    pub fn task_id(&self) -> usize {
        self.task_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioner_is_deterministic_and_in_range() {
        let p = HashPartitioner;
        for key in 0u64..1000 {
            let a = p.partition(&key, 7);
            let b = p.partition(&key, 7);
            assert_eq!(a, b);
            assert!(a < 7);
        }
    }

    #[test]
    fn hash_partitioner_spreads_keys() {
        let p = HashPartitioner;
        let mut buckets = vec![0usize; 8];
        for key in 0u64..8000 {
            buckets[p.partition(&key, 8)] += 1;
        }
        // Every bucket should receive a reasonable share (no empty buckets).
        assert!(
            buckets.iter().all(|&c| c > 500),
            "skewed buckets: {buckets:?}"
        );
    }

    #[test]
    fn identity_partitioner_uses_key_modulo() {
        let p = IdentityPartitioner;
        assert_eq!(Partitioner::<u32>::partition(&p, &5u32, 4), 1);
        assert_eq!(Partitioner::<u64>::partition(&p, &12u64, 5), 2);
        assert_eq!(Partitioner::<usize>::partition(&p, &9usize, 3), 0);
    }

    #[test]
    fn reduce_context_collects_output() {
        let mut ctx: ReduceContext<String, u32> = ReduceContext::new(3);
        ctx.emit("a".into(), 1);
        ctx.counters().increment("seen");
        assert_eq!(ctx.emitted.len(), 1);
        assert_eq!(ctx.task_id(), 3);
        assert_eq!(ctx.counters().get("seen"), 1);
    }
}
