//! Deterministic parallel execution of independent simulation runs.
//!
//! Every `(scheduler, workload, seed)` simulation in the workspace is an
//! independent, deterministic computation: its outcome is a pure function
//! of its inputs. That makes the experiment sweeps embarrassingly
//! parallel — the only requirement is that result *order* stays identical
//! to the sequential path so rendered tables and CSV files are
//! byte-for-byte the same.
//!
//! [`parallel_map`] provides exactly that: items are claimed by worker
//! threads from a shared counter, but each result is written back into the
//! slot of its input index, so the output order never depends on thread
//! scheduling. With one job (or one item) it degenerates to a plain
//! sequential loop with no thread machinery at all.
//!
//! The process-wide job count is a global (set once at binary startup from
//! `--jobs`) so that deeply nested experiment code — `run_all_schedulers`,
//! every `fig*` module, the extensions — picks it up without threading a
//! parameter through every signature.
//!
//! Panics inside jobs are contained: every job runs under `catch_unwind`,
//! so one bad configuration cannot poison the worker pool or take down a
//! whole sweep silently. After all jobs finish, the panics are re-raised
//! as one panic that names each failed job by input index.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// 0 means "unset": use the machine's available parallelism.
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide worker count for [`parallel_map`]. `0` restores
/// the default (all available cores).
pub fn set_jobs(jobs: usize) {
    JOBS.store(jobs, Ordering::SeqCst);
}

/// The worker count [`parallel_map`] will use: the last `set_jobs` value,
/// or the machine's available parallelism when unset.
pub fn configured_jobs() -> usize {
    match JOBS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    }
}

/// Map `f` over `items` using the configured number of worker threads,
/// returning results in input order (bit-identical to the sequential map).
///
/// A panicking job does not abort the rest of the sweep: every remaining
/// job still runs, then the panics are re-raised as a single panic whose
/// message lists each failed job's input index and payload.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with_jobs(configured_jobs(), items, f)
}

/// [`parallel_map`] with an explicit worker count (used by tests so they
/// don't mutate the process-wide setting).
pub fn parallel_map_with_jobs<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let panics: Mutex<Vec<(usize, String)>> = Mutex::new(Vec::new());
    let run_job = |i: usize, item: T| -> Option<R> {
        match catch_unwind(AssertUnwindSafe(|| f(item))) {
            Ok(r) => Some(r),
            Err(payload) => {
                panics
                    .lock()
                    .expect("panic list poisoned")
                    .push((i, panic_message(&*payload)));
                None
            }
        }
    };
    let results: Vec<Option<R>> = if jobs <= 1 || n <= 1 {
        items
            .into_iter()
            .enumerate()
            .map(|(i, item)| run_job(i, item))
            .collect()
    } else {
        // Per-slot mutexes rather than one shared queue: claiming is a
        // single atomic increment, and each slot is locked exactly twice
        // (take input, store output), so contention is negligible next to
        // a simulation run.
        let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let out: Vec<Mutex<Option<Option<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let run_job = &run_job;
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(n) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = work[i]
                        .lock()
                        .expect("work slot poisoned")
                        .take()
                        .expect("work item claimed twice");
                    let result = run_job(i, item);
                    *out[i].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });
        out.into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker exited without storing a result")
            })
            .collect()
    };
    let mut failed = panics.into_inner().expect("panic list poisoned");
    if !failed.is_empty() {
        failed.sort_by_key(|&(i, _)| i);
        let detail: Vec<String> = failed
            .iter()
            .map(|(i, msg)| format!("job {i}: {msg}"))
            .collect();
        panic!(
            "parallel_map: {} job(s) panicked — {}",
            failed.len(),
            detail.join("; ")
        );
    }
    results
        .into_iter()
        .map(|r| r.expect("non-panicking job produced no result"))
        .collect()
}

/// Best-effort extraction of a panic payload's message (`&str` and
/// `String` payloads cover everything `panic!` produces).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Fallible variant: runs every item (in parallel), then returns the first
/// error by input order, matching what the sequential `?`-chain would have
/// surfaced.
pub fn parallel_try_map<T, R, E, F>(items: Vec<T>, f: F) -> Result<Vec<R>, E>
where
    T: Send,
    R: Send,
    E: Send,
    F: Fn(T) -> Result<R, E> + Sync,
{
    parallel_map(items, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 7, 64] {
            let got = parallel_map_with_jobs(jobs, items.clone(), |x| x * 3 + 1);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map_with_jobs(8, empty, |x| x).is_empty());
        assert_eq!(parallel_map_with_jobs(8, vec![9], |x| x + 1), vec![10]);
    }

    #[test]
    fn try_map_returns_first_error_by_index() {
        let r: Result<Vec<u32>, String> = parallel_try_map((0..16).collect(), |x| {
            if x % 5 == 3 {
                Err(format!("e{x}"))
            } else {
                Ok(x)
            }
        });
        assert_eq!(r.unwrap_err(), "e3");
        let ok: Result<Vec<u32>, String> = parallel_try_map((0..4).collect(), Ok);
        assert_eq!(ok.unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn configured_jobs_defaults_to_cores() {
        // Whatever the machine, the default is at least one.
        assert!(configured_jobs() >= 1);
    }

    #[test]
    fn panicking_job_surfaces_its_input_index() {
        for jobs in [1, 4] {
            let err = std::panic::catch_unwind(|| {
                parallel_map_with_jobs(jobs, (0u32..8).collect(), |x| {
                    if x == 3 {
                        panic!("boom on {x}");
                    }
                    x
                })
            })
            .expect_err("a panicking job must fail the map");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .expect("aggregate panic carries a String message");
            assert!(msg.contains("1 job(s) panicked"), "jobs={jobs}: {msg}");
            assert!(msg.contains("job 3: boom on 3"), "jobs={jobs}: {msg}");
        }
    }

    #[test]
    fn all_panics_reported_in_index_order() {
        let err = std::panic::catch_unwind(|| {
            parallel_map_with_jobs(4, (0u32..8).collect(), |x| {
                if x % 3 == 1 {
                    panic!("bad {x}");
                }
                x
            })
        })
        .expect_err("panics expected");
        let msg = err.downcast_ref::<String>().cloned().unwrap();
        assert!(msg.contains("3 job(s) panicked"), "{msg}");
        let (i1, i4, i7) = (
            msg.find("job 1:").unwrap(),
            msg.find("job 4:").unwrap(),
            msg.find("job 7:").unwrap(),
        );
        assert!(i1 < i4 && i4 < i7, "{msg}");
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Make late indices fast and early ones slow so the completion
        // order inverts the input order.
        let got = parallel_map_with_jobs(4, (0u64..32).collect(), |x| {
            std::thread::sleep(std::time::Duration::from_micros((32 - x) * 50));
            x
        });
        assert_eq!(got, (0..32).collect::<Vec<_>>());
    }
}
