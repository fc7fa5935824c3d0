//! Hadoop-style named counters.
//!
//! Map and reduce tasks increment named counters (e.g. "distance
//! computations", "replicated S objects"); the driver reads them after the job
//! completes.  The kNN-join crate uses counters to report the paper's
//! *computation selectivity* and *replication* metrics.
//!
//! Like Hadoop, the engine adds task counters up once per task, not once per
//! record: each task tallies into its own lock-free [`TaskCounters`], and the
//! engine folds that tally into the job's shared [`Counters`] when the task
//! ends.

use crate::sync::{ranks, RankedMutex};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Names of the counters the engine itself maintains, alongside whatever
/// user counters the tasks increment.  The `mr.` prefix keeps them from
/// colliding with user counter names.
///
/// These mirror Hadoop's built-in job counters: `REDUCE_SHUFFLE_BYTES` is the
/// number the paper's shuffling-cost analysis reads off the job tracker.
pub mod builtin {
    /// Intermediate pairs that crossed the shuffle.
    pub const SHUFFLE_RECORDS: &str = "mr.shuffle_records";
    /// Bytes that crossed the shuffle, per [`crate::ByteSize`] accounting.
    pub const SHUFFLE_BYTES: &str = "mr.shuffle_bytes";
}

/// A set of named, thread-safe, monotonically increasing counters.
///
/// Cloning a `Counters` handle is cheap and all clones share the same state,
/// mirroring how Hadoop aggregates task counters into job counters.
#[derive(Debug, Clone)]
pub struct Counters {
    inner: Arc<RankedMutex<BTreeMap<String, u64>>>,
}

impl Default for Counters {
    fn default() -> Self {
        Self {
            inner: Arc::new(RankedMutex::new(
                ranks::ENGINE_COUNTERS,
                "engine.counters",
                BTreeMap::new(),
            )),
        }
    }
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name`, creating it at zero if absent.
    pub fn add(&self, name: &str, delta: u64) {
        bump(&mut self.inner.lock(), name, delta);
    }

    /// Increments the counter `name` by one.
    pub fn increment(&self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of the counter `name` (zero if it was never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.inner.lock().get(name).copied().unwrap_or(0)
    }

    /// Snapshot of all counters, sorted by name.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.inner.lock().clone()
    }

    /// Merges another counter set into this one.
    pub fn merge(&self, other: &Counters) {
        let other_snapshot = other.snapshot();
        let mut map = self.inner.lock();
        for (k, v) in &other_snapshot {
            bump(&mut map, k, *v);
        }
    }

    /// Folds one task's tally into this set, taking the lock once.
    pub fn merge_task(&self, task: &TaskCounters) {
        let mut map = self.inner.lock();
        for &(name, delta) in &task.tally {
            bump(&mut map, name, delta);
        }
    }
}

/// Adds `delta` to `name`, allocating the key only when the counter is new.
fn bump(map: &mut BTreeMap<String, u64>, name: &str, delta: u64) {
    match map.get_mut(name) {
        Some(count) => *count += delta,
        None => {
            map.insert(name.to_string(), delta);
        }
    }
}

/// One task's private counter tally.
///
/// A map or reduce task increments these without any lock or allocation per
/// call (names are `&'static str`, and a task touches only a handful, so a
/// linear scan finds them); the engine folds the tally into the job's
/// [`Counters`] once, when the task ends.
#[derive(Debug, Clone, Default)]
pub struct TaskCounters {
    tally: Vec<(&'static str, u64)>,
}

impl TaskCounters {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        match self.tally.iter_mut().find(|(n, _)| *n == name) {
            Some((_, count)) => *count += delta,
            None => self.tally.push((name, delta)),
        }
    }

    /// Increments the counter `name` by one.
    pub fn increment(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Current value of the counter `name` in this tally (zero if untouched).
    pub fn get(&self, name: &str) -> u64 {
        self.tally
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, count)| *count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn add_and_get() {
        let c = Counters::new();
        assert_eq!(c.get("x"), 0);
        c.add("x", 5);
        c.increment("x");
        assert_eq!(c.get("x"), 6);
    }

    #[test]
    fn clones_share_state() {
        let c = Counters::new();
        let c2 = c.clone();
        c2.add("shared", 3);
        assert_eq!(c.get("shared"), 3);
    }

    #[test]
    fn merge_adds_counts() {
        let a = Counters::new();
        let b = Counters::new();
        a.add("x", 1);
        b.add("x", 2);
        b.add("y", 7);
        a.merge(&b);
        assert_eq!(a.get("x"), 3);
        assert_eq!(a.get("y"), 7);
    }

    #[test]
    fn task_tallies_fold_into_the_shared_set() {
        let job = Counters::new();
        job.add("x", 1);
        let mut task = TaskCounters::new();
        task.increment("x");
        task.add("y", 4);
        task.add("x", 2);
        assert_eq!((task.get("x"), task.get("y"), task.get("z")), (3, 4, 0));
        job.merge_task(&task);
        job.merge_task(&task);
        assert_eq!((job.get("x"), job.get("y")), (7, 8));
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        let c = Counters::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                thread::spawn(move || {
                    for _ in 0..1000 {
                        c.increment("n");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get("n"), 8000);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let c = Counters::new();
        c.add("zeta", 1);
        c.add("alpha", 2);
        let keys: Vec<_> = c.snapshot().into_keys().collect();
        assert_eq!(keys, vec!["alpha".to_string(), "zeta".to_string()]);
    }
}
