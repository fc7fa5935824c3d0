//! Job execution metrics.
//!
//! The paper reports running time broken into phases (Figure 6), shuffling
//! cost in bytes (Figures 8c–12c) and algorithm-specific counters.  The engine
//! fills a [`JobMetrics`] for every executed job; drivers combine several of
//! them (e.g. the two MapReduce jobs of PGBJ) into experiment rows.

use crate::counters::Counters;
use std::time::Duration;

/// Wall-clock duration of each phase of a job.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Time spent running map tasks, including the per-partition routing and
    /// byte accounting each map task performs before handing its buffers over.
    pub map: Duration,
    /// Time spent moving the per-task partition buffers to their reduce
    /// partitions (a transpose of already-routed buffers; the per-record work
    /// happens inside the map and reduce phases).
    pub shuffle: Duration,
    /// Time spent running reduce tasks, including each task's group-by-key
    /// merge of the buffers it received.
    pub reduce: Duration,
}

impl PhaseTimings {
    /// Total wall-clock time of the job.
    pub fn total(&self) -> Duration {
        self.map + self.shuffle + self.reduce
    }
}

/// Everything the engine knows about a finished job.
#[derive(Debug, Clone, Default)]
pub struct JobMetrics {
    /// Job name (for experiment reports).
    pub job_name: String,
    /// Number of map tasks executed.
    pub map_tasks: usize,
    /// Number of reduce tasks executed.
    pub reduce_tasks: usize,
    /// Number of input pairs consumed by the map phase.
    pub input_records: u64,
    /// Number of intermediate pairs that crossed the shuffle.
    pub shuffle_records: u64,
    /// Number of bytes that crossed the shuffle (the paper's shuffling cost).
    pub shuffle_bytes: u64,
    /// Number of output pairs produced by the reduce phase.
    pub output_records: u64,
    /// Per-phase wall clock durations.
    pub timings: PhaseTimings,
    /// User counters accumulated by map and reduce tasks.
    pub counters: Counters,
}

impl JobMetrics {
    /// Merges another job's metrics into this one (summing counts and
    /// durations).  Used to report multi-job algorithms such as H-BRJ, whose
    /// cost is the sum of its two MapReduce jobs.
    pub fn absorb(&mut self, other: &JobMetrics) {
        self.map_tasks += other.map_tasks;
        self.reduce_tasks += other.reduce_tasks;
        self.input_records += other.input_records;
        self.shuffle_records += other.shuffle_records;
        self.shuffle_bytes += other.shuffle_bytes;
        self.output_records += other.output_records;
        self.timings.map += other.timings.map;
        self.timings.shuffle += other.timings.shuffle;
        self.timings.reduce += other.timings.reduce;
        self.counters.merge(&other.counters);
    }

    /// Shuffle cost in mebibytes, convenient for experiment tables.
    pub fn shuffle_mib(&self) -> f64 {
        self.shuffle_bytes as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_timings_total() {
        let t = PhaseTimings {
            map: Duration::from_millis(10),
            shuffle: Duration::from_millis(20),
            reduce: Duration::from_millis(30),
        };
        assert_eq!(t.total(), Duration::from_millis(60));
    }

    #[test]
    fn absorb_sums_everything() {
        let mut a = JobMetrics {
            job_name: "a".into(),
            map_tasks: 1,
            reduce_tasks: 2,
            input_records: 10,
            shuffle_records: 20,
            shuffle_bytes: 100,
            output_records: 5,
            timings: PhaseTimings {
                map: Duration::from_millis(1),
                shuffle: Duration::from_millis(2),
                reduce: Duration::from_millis(3),
            },
            counters: Counters::new(),
        };
        a.counters.add("x", 1);
        let mut b = a.clone();
        b.counters = Counters::new();
        b.counters.add("x", 2);
        a.absorb(&b);
        assert_eq!(a.map_tasks, 2);
        assert_eq!(a.shuffle_bytes, 200);
        assert_eq!(a.output_records, 10);
        assert_eq!(a.timings.total(), Duration::from_millis(12));
        assert_eq!(a.counters.get("x"), 3);
    }

    #[test]
    fn shuffle_mib_conversion() {
        let m = JobMetrics {
            shuffle_bytes: 2 * 1024 * 1024,
            ..Default::default()
        };
        assert!((m.shuffle_mib() - 2.0).abs() < 1e-12);
    }
}
