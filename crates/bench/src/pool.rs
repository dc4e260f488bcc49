//! A small deterministic job pool for independent simulation runs.
//!
//! `repro` and `sweep` execute many *independent deterministic* simulations
//! (one per scenario, one per sweep point). The pool fans those jobs out
//! across worker threads while guaranteeing that everything observable —
//! consumption order, and therefore stdout, artifacts, and exit codes — is
//! identical to a sequential run:
//!
//! * jobs are claimed from a shared counter, so every job runs exactly once;
//! * results flow back over a channel tagged with their job index;
//! * the caller's `consume` callback runs **on the calling thread, in job
//!   order** — a result that finishes early is buffered until its turn.
//!
//! With `jobs <= 1` the pool degenerates to a plain sequential loop on the
//! calling thread (no threads spawned, no channels) — the pre-existing code
//! path, kept intact so `--jobs 1` is trivially identical to the historical
//! behaviour and CI can diff the two modes.
//!
//! Built on [`std::thread::scope`]: no external dependencies, and borrowed
//! job data (`&F`) flows into workers without `'static` gymnastics.

use std::collections::{BTreeMap, HashMap};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Resolves a user-supplied `--jobs` value: `0` means "one worker per
/// available core".
pub fn resolve_jobs(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// Runs `count` jobs (`run(0) .. run(count-1)`) on up to `jobs` worker
/// threads, delivering each result to `consume` **in job-index order** on
/// the calling thread.
///
/// `run` must be a pure function of its index: jobs may execute on any
/// worker in any order.
///
/// # Panics
///
/// A panic inside `run` propagates to the caller once the scope joins —
/// but only after every result the other workers already produced has
/// been delivered to `consume` (in index order, possibly with gaps where
/// jobs died). Use [`run_supervised`] to turn panics into per-job results
/// instead. A raw `run_ordered` panic still loses in-flight jobs.
pub fn run_ordered<T, F, C>(jobs: usize, count: usize, run: F, mut consume: C)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    C: FnMut(usize, T),
{
    if jobs <= 1 || count <= 1 {
        // Sequential path: exactly the historical one-job-after-another loop.
        for i in 0..count {
            let result = run(i);
            consume(i, result);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(count) {
            let tx = tx.clone();
            let next = &next;
            let run = &run;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                // A closed channel means the consumer is gone (it panicked);
                // stop claiming work.
                if tx.send((i, run(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Reorder: results arrive in completion order, the caller sees them
        // in presentation order.
        let mut pending: BTreeMap<usize, T> = BTreeMap::new();
        let mut want = 0usize;
        for (i, result) in rx {
            pending.insert(i, result);
            while let Some(r) = pending.remove(&want) {
                consume(want, r);
                want += 1;
            }
        }
        // A worker that panicked drops its sender without delivering its
        // job, so the in-order cursor never advances past the gap. Drain
        // what the surviving workers finished before the scope join
        // re-raises the panic: completed work is never silently discarded.
        for (i, r) in std::mem::take(&mut pending) {
            consume(i, r);
        }
    });
}

/// Convenience wrapper: runs the jobs and collects all results into a
/// `Vec` in job order.
pub fn run_collect<T, F>(jobs: usize, count: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(count);
    run_ordered(jobs, count, run, |_, r| out.push(r));
    out
}

/// How one supervised job ended.
#[derive(Debug)]
pub enum JobOutcome<T> {
    /// The job ran to completion.
    Completed(T),
    /// The job panicked; the payload is the panic message.
    Panicked(String),
    /// The job exceeded the per-job wall-clock budget. Its worker thread
    /// is abandoned (still running, detached); any result it eventually
    /// produces is discarded.
    TimedOut {
        /// The budget that was exceeded.
        limit: Duration,
    },
}

impl<T> JobOutcome<T> {
    /// The completed value, if the job succeeded.
    pub fn completed(self) -> Option<T> {
        match self {
            JobOutcome::Completed(v) => Some(v),
            _ => None,
        }
    }

    /// A stable one-line description of the failure, if any.
    pub fn failure(&self) -> Option<String> {
        match self {
            JobOutcome::Completed(_) => None,
            JobOutcome::Panicked(msg) => Some(format!("panicked: {msg}")),
            JobOutcome::TimedOut { limit } => Some(format!("timed out after {limit:?}")),
        }
    }
}

/// Renders a panic payload as a string (the two shapes `panic!` produces,
/// with a fallback for exotic payloads).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Like [`run_ordered`], but crash-isolated: each job runs under
/// [`std::panic::catch_unwind`] and (optionally) a wall-clock budget, and
/// `consume` receives a [`JobOutcome`] per job — the pass always covers
/// all `count` jobs, whatever individual jobs do.
///
/// Jobs run on detached threads (required so a hung job can be abandoned
/// on timeout), hence the `'static` bounds. As with [`run_ordered`],
/// `consume` runs on the calling thread in job-index order, so output
/// determinism is preserved: a deterministic failure produces the same
/// outcome sequence on every run and any `--jobs` value.
pub fn run_supervised<T, F, C>(
    jobs: usize,
    count: usize,
    timeout: Option<Duration>,
    run: F,
    mut consume: C,
) where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
    C: FnMut(usize, JobOutcome<T>),
{
    if count == 0 {
        return;
    }
    let run = Arc::new(run);
    let next = Arc::new(AtomicUsize::new(0));
    // The supervisor holds the master sender for the whole pass so it can
    // spawn replacement workers; termination comes from outcome counting,
    // not channel disconnection.
    let (tx, rx) = mpsc::channel::<SupMsg<T>>();
    for _ in 0..jobs.min(count).max(1) {
        spawn_supervised_worker(&run, &next, &tx, count);
    }

    let mut started: HashMap<usize, Instant> = HashMap::new();
    let mut expired: Vec<usize> = Vec::new();
    let mut pending: BTreeMap<usize, JobOutcome<T>> = BTreeMap::new();
    let mut want = 0usize;
    while want < count {
        while let Some(out) = pending.remove(&want) {
            consume(want, out);
            want += 1;
        }
        if want >= count {
            break;
        }
        let msg = match timeout {
            None => rx.recv().ok(),
            Some(limit) => {
                let now = Instant::now();
                // Wait until the earliest running job would exceed its
                // budget (or poll periodically while none has started).
                let wait = started
                    .values()
                    .map(|&s| (s + limit).saturating_duration_since(now))
                    .min()
                    .unwrap_or(Duration::from_millis(25));
                match rx.recv_timeout(wait) {
                    Ok(m) => Some(m),
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        let now = Instant::now();
                        let mut abandoned = 0usize;
                        started.retain(|&i, &mut s| {
                            if now.duration_since(s) >= limit {
                                expired.push(i);
                                pending.insert(i, JobOutcome::TimedOut { limit });
                                abandoned += 1;
                                false
                            } else {
                                true
                            }
                        });
                        // Each expired job strands the worker running it;
                        // spawn replacements so the rest of the queue
                        // still drains even if every original worker is
                        // stuck.
                        for _ in 0..abandoned {
                            spawn_supervised_worker(&run, &next, &tx, count);
                        }
                        continue;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => None,
                }
            }
        };
        match msg {
            Some(SupMsg::Started(i)) => {
                started.insert(i, Instant::now());
            }
            Some(SupMsg::Done(i, result)) => {
                // A late result from an already-expired job is discarded.
                if started.remove(&i).is_some() || !expired.contains(&i) {
                    pending.insert(
                        i,
                        match result {
                            Ok(v) => JobOutcome::Completed(v),
                            Err(msg) => JobOutcome::Panicked(msg),
                        },
                    );
                }
            }
            None => {
                // All senders gone with jobs unaccounted for — cannot
                // happen while the supervisor holds `tx`, but never
                // deadlock on the impossible.
                for i in want..count {
                    pending
                        .entry(i)
                        .or_insert_with(|| JobOutcome::Panicked("worker vanished".to_string()));
                }
            }
        }
    }
}

/// Supervisor-to-worker protocol for [`run_supervised`].
enum SupMsg<T> {
    Started(usize),
    Done(usize, Result<T, String>),
}

/// Spawns one detached claim-loop worker for [`run_supervised`].
fn spawn_supervised_worker<T, F>(
    run: &Arc<F>,
    next: &Arc<AtomicUsize>,
    tx: &mpsc::Sender<SupMsg<T>>,
    count: usize,
) where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    let run = Arc::clone(run);
    let next = Arc::clone(next);
    let tx = tx.clone();
    std::thread::spawn(move || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= count {
            break;
        }
        if tx.send(SupMsg::Started(i)).is_err() {
            break;
        }
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| run(i))).map_err(panic_message);
        if tx.send(SupMsg::Done(i, result)).is_err() {
            break;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn sequential_and_parallel_agree() {
        let f = |i: usize| i * i;
        let seq = run_collect(1, 50, f);
        let par = run_collect(8, 50, f);
        assert_eq!(seq, par);
        assert_eq!(seq[7], 49);
    }

    #[test]
    fn consume_sees_index_order_even_when_jobs_finish_backwards() {
        // Later jobs sleep less, so completion order inverts job order.
        let order = std::sync::Mutex::new(Vec::new());
        run_ordered(
            4,
            8,
            |i| {
                std::thread::sleep(std::time::Duration::from_millis((8 - i as u64) * 3));
                i
            },
            |i, r| {
                assert_eq!(i, r);
                order.lock().unwrap().push(i);
            },
        );
        assert_eq!(order.into_inner().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        let results = run_collect(3, 100, |i| {
            COUNT.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(COUNT.load(Ordering::Relaxed), 100);
        assert_eq!(results, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_one_job_counts() {
        let none: Vec<usize> = run_collect(4, 0, |i| i);
        assert!(none.is_empty());
        let one = run_collect(4, 1, |i| i + 1);
        assert_eq!(one, vec![1]);
    }

    #[test]
    fn resolve_jobs_defaults_to_cores() {
        assert_eq!(resolve_jobs(3), 3);
        assert!(resolve_jobs(0) >= 1);
    }

    #[test]
    fn panicking_worker_still_drains_completed_results() {
        let consumed = std::sync::Mutex::new(Vec::new());
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_ordered(
                4,
                8,
                |i| {
                    if i == 2 {
                        panic!("job 2 dies");
                    }
                    // Give the dying job time to take the channel down first,
                    // so some results are necessarily drained post-loop.
                    std::thread::sleep(Duration::from_millis(10));
                    i
                },
                |i, r| {
                    assert_eq!(i, r);
                    consumed.lock().unwrap().push(i);
                },
            );
        }));
        assert!(caught.is_err(), "worker panic must still propagate");
        let consumed = consumed.into_inner().unwrap();
        let expected: Vec<usize> = (0..8).filter(|&i| i != 2).collect();
        assert_eq!(consumed, expected, "all surviving jobs must be delivered");
    }

    #[test]
    fn supervised_isolates_panics_and_keeps_order() {
        let mut outcomes = Vec::new();
        run_supervised(
            3,
            6,
            None,
            |i| {
                if i % 2 == 1 {
                    panic!("odd job {i}");
                }
                i * 10
            },
            |i, out| outcomes.push((i, out)),
        );
        assert_eq!(outcomes.len(), 6);
        for (idx, (i, out)) in outcomes.into_iter().enumerate() {
            assert_eq!(idx, i);
            if i % 2 == 1 {
                assert_eq!(out.failure().unwrap(), format!("panicked: odd job {i}"));
            } else {
                assert_eq!(out.completed().unwrap(), i * 10);
            }
        }
    }

    #[test]
    fn supervised_times_out_hung_jobs_and_finishes_the_rest() {
        let mut outcomes = Vec::new();
        run_supervised(
            2,
            5,
            Some(Duration::from_millis(40)),
            |i| {
                if i == 1 {
                    // Hangs far past the budget; its worker is abandoned.
                    std::thread::sleep(Duration::from_secs(30));
                }
                i
            },
            |i, out| outcomes.push((i, out)),
        );
        assert_eq!(outcomes.len(), 5);
        for (i, out) in outcomes {
            if i == 1 {
                assert!(
                    matches!(out, JobOutcome::TimedOut { .. }),
                    "job 1 should time out, got {out:?}"
                );
            } else {
                assert_eq!(out.completed().unwrap(), i, "job {i} should complete");
            }
        }
    }

    #[test]
    fn supervised_sequential_matches_parallel() {
        let f = |i: usize| i + 100;
        let mut seq = Vec::new();
        run_supervised(1, 10, None, f, |i, o| seq.push((i, o.completed().unwrap())));
        let mut par = Vec::new();
        run_supervised(8, 10, None, f, |i, o| par.push((i, o.completed().unwrap())));
        assert_eq!(seq, par);
    }
}
