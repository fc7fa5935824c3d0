//! The open-loop load generator and the rate search built on it.
//!
//! Requests are due on a fixed schedule (`i / rate` after the start),
//! whatever the server does: independent users do not wait for each other.
//! One thread submits each request when it falls due and hands the ticket to
//! a second thread, which redeems tickets in submission order and checks the
//! answers.  Every latency is measured from the request's *due* time, so a
//! stall anywhere — in the server or in the generator — is charged to every
//! request it delays.  How late the generator itself ran is reported
//! separately, and a rate the generator cannot keep is reported as such
//! instead of as a server limit.

use crate::stats::{median, quantile};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How an admitted request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Problem {
    /// The server answered, but the answer is wrong.
    Wrong(String),
    /// The server returned an error instead of an answer.
    Error(String),
}

/// Why a submit did not admit the request.
#[derive(Debug, Clone, PartialEq)]
pub enum Refusal {
    /// Typed back-pressure: the queue was full.
    Overloaded,
    /// Any other error.
    Error(String),
}

/// Everything measured over one open-loop run, one entry per request in
/// submission order.
#[derive(Debug, Clone, Default)]
pub struct Run {
    /// Due time to answer, ms; `INFINITY` for a refused or failed request.
    pub latency_ms: Vec<f64>,
    /// Due time to the start of the submit call, ms.
    pub lateness_ms: Vec<f64>,
    /// Duration of the submit call, µs.
    pub admit_us: Vec<f64>,
    /// End of the submit call to the answer, ms (admitted requests only).
    pub wait_ms: Vec<f64>,
    /// First due time to last answer, s.
    pub span_s: f64,
    pub refused: u64,
    pub errors: u64,
    pub wrong: u64,
    pub first_problem: Option<String>,
}

impl Run {
    /// Requests attempted.
    pub fn attempted(&self) -> u64 {
        self.latency_ms.len() as u64
    }

    /// Requests refused, failed or answered wrongly.
    pub fn failed(&self) -> u64 {
        self.refused + self.errors + self.wrong
    }

    /// Appends a later run's requests.
    pub fn append(&mut self, later: Run) {
        self.latency_ms.extend(later.latency_ms);
        self.lateness_ms.extend(later.lateness_ms);
        self.admit_us.extend(later.admit_us);
        self.wait_ms.extend(later.wait_ms);
        self.span_s += later.span_s;
        self.refused += later.refused;
        self.errors += later.errors;
        self.wrong += later.wrong;
        if self.first_problem.is_none() {
            self.first_problem = later.first_problem;
        }
    }
}

struct Sent<T> {
    due: Instant,
    started: Instant,
    admitted: Instant,
    outcome: Result<T, Refusal>,
    index: usize,
}

/// Offers `count` requests at `rate` per second.  `submit(i)` runs on the
/// calling thread when request `i` is due; `redeem(i, ticket)` runs on a
/// second thread, in submission order, and blocks until the answer arrives.
pub fn drive<T, S, R>(rate: f64, count: usize, mut submit: S, redeem: R) -> Run
where
    T: Send,
    S: FnMut(usize) -> Result<T, Refusal>,
    R: Fn(usize, T) -> Result<(), Problem> + Sync,
{
    let (tx, rx) = mpsc::channel::<Sent<T>>();
    let redeem = &redeem;
    let start = Instant::now() + Duration::from_millis(1);
    std::thread::scope(|scope| {
        let redeemer = scope.spawn(move || {
            let mut run = Run::default();
            let mut last = start;
            for sent in rx {
                run.lateness_ms
                    .push(ms(sent.started.saturating_duration_since(sent.due)));
                run.admit_us.push(ms(sent.admitted - sent.started) * 1e3);
                let result = match sent.outcome {
                    Ok(ticket) => redeem(sent.index, ticket),
                    Err(Refusal::Overloaded) => {
                        run.refused += 1;
                        run.latency_ms.push(f64::INFINITY);
                        continue;
                    }
                    Err(Refusal::Error(e)) => Err(Problem::Error(e)),
                };
                let done = Instant::now();
                last = last.max(done);
                match result {
                    Ok(()) => {
                        run.latency_ms.push(ms(done - sent.due));
                        run.wait_ms.push(ms(done - sent.admitted));
                    }
                    Err(problem) => {
                        run.latency_ms.push(f64::INFINITY);
                        let text = match problem {
                            Problem::Wrong(text) => {
                                run.wrong += 1;
                                text
                            }
                            Problem::Error(text) => {
                                run.errors += 1;
                                text
                            }
                        };
                        run.first_problem.get_or_insert(text);
                    }
                }
            }
            run.span_s = (last - start).as_secs_f64();
            run
        });

        for index in 0..count {
            let due = start + Duration::from_secs_f64(index as f64 / rate);
            // Sleep until due; a late wake-up submits the requests that fell
            // due meanwhile back to back, so lateness never accumulates.
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let started = Instant::now();
            let outcome = submit(index);
            let admitted = Instant::now();
            let sent = Sent {
                due,
                started,
                admitted,
                outcome,
                index,
            };
            if tx.send(sent).is_err() {
                break;
            }
        }
        drop(tx);
        redeemer.join().expect("redeemer thread panicked")
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The latency limit of the rate search, on p99.
pub const P99_LIMIT_MS: f64 = 20.0;
/// Generator lateness (p99) above which a rung says nothing about the
/// server: half the latency limit would already be spent before submitting.
pub const LATENESS_LIMIT_MS: f64 = 10.0;

/// The verdict on one rung of the rate search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Met the latency limit with nothing refused, failed or piling up.
    pub pass: bool,
    /// The generator ran later than [`LATENESS_LIMIT_MS`].
    pub generator_limited: bool,
    /// Requests answered per second, first due time to last answer.
    pub throughput: f64,
}

impl Verdict {
    /// Judges a rung.  The backlog is growing when the last fifth of the
    /// requests waited more than twice as long as the first fifth, plus
    /// 2 ms of slack for a rung that starts with an empty queue.  A late
    /// generator only limits a rung the server kept up with: one that
    /// refuses requests or piles them up is over capacity whatever the
    /// generator did.
    pub fn of(run: &Run) -> Self {
        let n = run.latency_ms.len();
        let fifth = (n / 5).max(1);
        let growing = n >= 10
            && median(&run.latency_ms[n - fifth..]) > 2.0 * median(&run.latency_ms[..fifth]) + 2.0;
        Self {
            pass: run.failed() == 0 && quantile(&run.latency_ms, 0.99) <= P99_LIMIT_MS && !growing,
            generator_limited: run.refused == 0
                && !growing
                && quantile(&run.lateness_ms, 0.99) > LATENESS_LIMIT_MS,
            throughput: run.wait_ms.len() as f64 / run.span_s,
        }
    }
}

/// Outcome of a rate search.
#[derive(Debug, Clone, PartialEq)]
pub struct Search {
    /// Highest offered rate that passed (0 when none did).
    pub max_rate: f64,
    /// Throughput achieved at that rate: the highest throughput that met
    /// the limit.  Unlike the offered rates it does not sit on the search
    /// grid.
    pub max_throughput: f64,
    /// The search stopped because the generator could not keep the rate.
    pub generator_limited: bool,
}

/// Finds the highest passing rate: doubles from `start` until a rung fails
/// (halves while nothing has passed), then bisects geometrically until the
/// bracket is narrower than `resolution` (a share of the rate).  Stops
/// early, keeping the best rate so far, on a generator-limited rung.
pub fn search(start: f64, resolution: f64, mut rung: impl FnMut(f64) -> Verdict) -> Search {
    let (mut lo, mut hi, mut best) = (0.0_f64, f64::INFINITY, 0.0);
    let mut rate = start;
    loop {
        let verdict = rung(rate);
        if verdict.generator_limited {
            return Search {
                max_rate: lo,
                max_throughput: best,
                generator_limited: true,
            };
        }
        if verdict.pass {
            lo = rate;
            best = verdict.throughput;
        } else {
            hi = rate;
        }
        rate = if lo == 0.0 {
            rate / 2.0
        } else if hi.is_infinite() {
            rate * 2.0
        } else if hi / lo > 1.0 + resolution {
            (lo * hi).sqrt()
        } else {
            break;
        };
        if rate < 1.0 {
            break;
        }
    }
    Search {
        max_rate: lo,
        max_throughput: best,
        generator_limited: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time_and_lateness_is_the_generators() {
        // 1000 req/s; submitting request 5 stalls the generator for 30 ms.
        let run = drive(
            1000.0,
            60,
            |i| {
                if i == 5 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                if i == 7 {
                    return Err(Refusal::Overloaded);
                }
                Ok(i)
            },
            |i, ticket| {
                assert_eq!(i, ticket);
                Ok(())
            },
        );
        assert_eq!(run.attempted(), 60);
        assert_eq!(run.refused, 1);
        assert_eq!(run.failed(), 1);
        // The stalled request waited through its own submit.
        assert!(run.latency_ms[5] >= 30.0, "{}", run.latency_ms[5]);
        assert!(run.admit_us[5] >= 30_000.0);
        // The next request was due 1 ms later but could only start after
        // the stall: the generator was ~29 ms late, and its latency
        // includes that.
        assert!(run.lateness_ms[6] >= 28.0, "{}", run.lateness_ms[6]);
        assert!(run.latency_ms[6] >= run.lateness_ms[6]);
        // A refused request misses every latency limit.
        assert_eq!(run.latency_ms[7], f64::INFINITY);
        // The schedule is absolute, so the backlog is worked off and the
        // generator is back on time by the end.
        assert!(run.lateness_ms[59] < 10.0, "{}", run.lateness_ms[59]);
        // A refusal puts the rung over capacity, late generator or not.
        assert!(!Verdict::of(&run).pass);
        assert!(!Verdict::of(&run).generator_limited);
    }

    #[test]
    fn a_late_generator_limits_a_rung_the_server_kept_up_with() {
        let run = drive(
            1000.0,
            60,
            |i| {
                if i == 5 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                Ok(())
            },
            |_, ()| Ok(()),
        );
        let verdict = Verdict::of(&run);
        assert!(verdict.generator_limited);
        assert!(!verdict.pass);
    }

    #[test]
    fn wrong_answers_and_errors_are_failures() {
        let run = drive(10_000.0, 4, Ok, |i, _| match i {
            1 => Err(Problem::Wrong("bad distance".into())),
            2 => Err(Problem::Error("boom".into())),
            _ => Ok(()),
        });
        assert_eq!((run.wrong, run.errors, run.failed()), (1, 1, 2));
        assert_eq!(run.first_problem.as_deref(), Some("bad distance"));
        assert_eq!(run.wait_ms.len(), 2);
    }

    fn verdict(rate: f64, capacity: f64) -> Verdict {
        Verdict {
            pass: rate <= capacity,
            generator_limited: false,
            throughput: rate * 0.99,
        }
    }

    #[test]
    fn search_brackets_then_bisects_to_the_resolution() {
        let capacity = 13_700.0;
        let mut tried = Vec::new();
        let s = search(1000.0, 0.03, |rate| {
            tried.push(rate);
            verdict(rate, capacity)
        });
        assert!(!s.generator_limited);
        assert_eq!(s.max_throughput, s.max_rate * 0.99);
        assert!(s.max_rate <= capacity);
        assert!(s.max_rate >= capacity / 1.03, "{}", s.max_rate);
        assert_eq!(&tried[..5], &[1000.0, 2000.0, 4000.0, 8000.0, 16000.0]);

        // A start above capacity searches downwards.
        let s = search(1000.0, 0.03, |rate| verdict(rate, 300.0));
        assert!(s.max_rate <= 300.0 && s.max_rate >= 300.0 / 1.03);

        // Nothing passes: the search gives up below 1/s.
        let s = search(1000.0, 0.03, |rate| verdict(rate, 0.5));
        assert_eq!((s.max_rate, s.max_throughput), (0.0, 0.0));
    }

    #[test]
    fn search_stops_when_the_generator_falls_behind() {
        let mut rungs = 0;
        let s = search(1000.0, 0.03, |rate| {
            rungs += 1;
            Verdict {
                pass: true,
                generator_limited: rate > 5000.0,
                throughput: rate,
            }
        });
        assert!(s.generator_limited);
        assert_eq!(s.max_rate, 4000.0);
        assert_eq!(s.max_throughput, 4000.0);
        assert_eq!(rungs, 4);
    }
}
