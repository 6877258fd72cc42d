//! Deterministic parallel execution layer for the FTOA workspace.
//!
//! The experiment harness grinds through embarrassingly-parallel cell
//! matrices — (algorithm × backend × replicate × sweep-point) — where each
//! cell is a pure function of its inputs. This crate provides the one
//! primitive that workload needs: [`JobPool::par_map_indexed`], a scoped
//! fork/join map whose results are **merged in submission order regardless
//! of completion order**. Because every cell is deterministic and the
//! reduction is order-preserving, the output of a parallel run is
//! byte-identical to the serial run at any thread count — which is what
//! lets the repository's golden-metrics CI gate pin parallel correctness
//! without any parallel-specific golden files.
//!
//! The pool is zero-dependency (`std::thread::scope` only; no work-stealing
//! runtime) and is created per call site:
//!
//! ```
//! use ftoa_runtime::JobPool;
//!
//! let pool = JobPool::new(4);
//! let squares = pool.par_map_indexed((0..100u64).collect(), |_, x| x * x);
//! assert_eq!(squares[7], 49);
//! ```
//!
//! Thread-count resolution honours the `FTOA_JOBS` environment variable
//! (`JobPool::new(0)` / [`available_jobs`]): set `FTOA_JOBS=1` to force any
//! auto-parallel code path serial, or `FTOA_JOBS=N` to cap fan-out below the
//! machine's available parallelism.
//!
//! **`FTOA_JOBS` contract**: unset or empty means automatic; a positive
//! integer is an explicit cap; *anything else* — including `0`, negative
//! numbers and non-numeric text — is a hard error, the same strictness
//! `FTOA_KERNEL` applies. A typo'd knob must
//! abort the run, not silently fall back to a thread count the user did not
//! ask for. CLIs can surface the error eagerly (with their own exit code)
//! through [`jobs_env_override`]; automatic pools reaching a bad value via
//! [`available_jobs`] panic with the same message.

#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Name of the environment variable overriding the automatic thread count.
pub const JOBS_ENV_VAR: &str = "FTOA_JOBS";

/// Resolve an explicit `FTOA_JOBS`-style override value. `Ok(None)` for
/// unset or empty (automatic), `Ok(Some(n))` for a positive integer, and
/// `Err` with a diagnostic for everything else — zero included, since a
/// zero-thread pool is not a meaningful request.
fn parse_jobs(value: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = value else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(format!("{JOBS_ENV_VAR} must be a positive integer, got {raw:?}")),
    }
}

/// The `FTOA_JOBS` override currently in the environment: `Ok(None)` when
/// unset/empty, `Ok(Some(n))` for a positive integer, `Err` with the
/// diagnostic otherwise. Entry point for CLIs that validate the environment
/// eagerly instead of panicking mid-run.
pub fn jobs_env_override() -> Result<Option<usize>, String> {
    parse_jobs(std::env::var(JOBS_ENV_VAR).ok().as_deref())
}

/// The number of jobs automatic (`threads = 0`) pools use: the `FTOA_JOBS`
/// environment override if set to a positive integer, otherwise
/// [`std::thread::available_parallelism`] (1 if unknown).
///
/// Panics if `FTOA_JOBS` is set to anything that is not a positive integer
/// (see the crate docs for the contract).
#[allow(clippy::disallowed_methods, reason = "the one place that sizes a pool from the host")]
pub fn available_jobs() -> usize {
    match jobs_env_override() {
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Err(message) => panic!("{message}"),
    }
}

/// A fixed-width fork/join pool over OS threads with deterministic, ordered
/// reduction. See the crate docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobPool {
    threads: usize,
}

impl Default for JobPool {
    /// An automatic pool: `FTOA_JOBS` or the available hardware parallelism.
    fn default() -> Self {
        Self::new(0)
    }
}

impl JobPool {
    /// A pool running `threads` jobs concurrently. `0` means automatic
    /// ([`available_jobs`]); `1` means strictly serial execution on the
    /// calling thread (no threads are spawned).
    pub fn new(threads: usize) -> Self {
        Self { threads: if threads == 0 { available_jobs() } else { threads } }
    }

    /// The concurrency this pool runs at.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f` to every item, in parallel, and return the results **in
    /// submission order**: `out[i] == f(i, items[i])` exactly as a serial
    /// `map` would produce, regardless of which worker finished first.
    ///
    /// Items are handed out dynamically (one shared cursor), so uneven cell
    /// costs load-balance across workers. If any invocation of `f` panics,
    /// the remaining queue is abandoned — workers stop pulling new items as
    /// soon as they finish their current one — and the panic is propagated
    /// on the calling thread after the scope joins.
    #[allow(clippy::disallowed_methods, reason = "the one pool; its reduction is ordered")]
    pub fn par_map_indexed<I, R, F>(&self, items: Vec<I>, f: F) -> Vec<R>
    where
        I: Send,
        R: Send,
        F: Fn(usize, I) -> R + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }
        let queue = Mutex::new(items.into_iter().enumerate());
        let abort = AtomicBool::new(false);
        let queue = &queue;
        let abort = &abort;
        let f = &f;
        let mut tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            if abort.load(Ordering::Relaxed) {
                                return local;
                            }
                            // Take the lock only to pull the next cell; the
                            // (potentially long) computation runs unlocked.
                            // Cell panics are caught below, so the lock can
                            // never be poisoned.
                            let next = queue.lock().expect("job queue poisoned").next();
                            match next {
                                Some((index, item)) => {
                                    match catch_unwind(AssertUnwindSafe(|| f(index, item))) {
                                        Ok(result) => local.push((index, result)),
                                        Err(payload) => {
                                            abort.store(true, Ordering::Relaxed);
                                            resume_unwind(payload);
                                        }
                                    }
                                }
                                None => return local,
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
                .collect()
        });
        tagged.sort_unstable_by_key(|&(index, _)| index);
        tagged.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn parse_jobs_accepts_positive_integers_only() {
        assert_eq!(parse_jobs(Some("4")), Ok(Some(4)));
        assert_eq!(parse_jobs(Some(" 12 ")), Ok(Some(12)));
        assert_eq!(parse_jobs(Some("")), Ok(None));
        assert_eq!(parse_jobs(Some("   ")), Ok(None));
        assert_eq!(parse_jobs(None), Ok(None));
    }

    /// Garbage values — including `0`, which previously fell back to auto —
    /// are hard errors carrying the variable name and the offending value.
    #[test]
    fn parse_jobs_hard_errors_on_garbage() {
        for bad in ["0", "-3", "many", "4.5", "1 2"] {
            let err = parse_jobs(Some(bad)).expect_err(bad);
            assert!(err.contains(JOBS_ENV_VAR), "diagnostic names the variable: {err}");
            assert!(err.contains(bad), "diagnostic echoes the value: {err}");
        }
    }

    #[test]
    fn zero_threads_resolves_to_at_least_one() {
        assert!(JobPool::new(0).threads() >= 1);
        assert_eq!(JobPool::new(7).threads(), 7);
    }

    #[test]
    fn results_arrive_in_submission_order_at_any_thread_count() {
        let items: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * 31 + 7).collect();
        for threads in [1, 2, 3, 4, 16, 64] {
            // Skew the per-item cost so completion order differs wildly from
            // submission order: early items are the slowest.
            let out = JobPool::new(threads).par_map_indexed(items.clone(), |i, x| {
                let mut acc = 0u64;
                for k in 0..((257 - i) * 50) as u64 {
                    acc = acc.wrapping_mul(31).wrapping_add(k);
                }
                std::hint::black_box(acc);
                x * 31 + 7
            });
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = JobPool::new(8).par_map_indexed((0..1000usize).collect(), |i, x| {
            counter.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, x);
            x
        });
        assert_eq!(out.len(), 1000);
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn empty_and_singleton_inputs_stay_on_the_calling_thread() {
        let pool = JobPool::new(32);
        let none: Vec<u8> = pool.par_map_indexed(Vec::<u8>::new(), |_, x| x);
        assert!(none.is_empty());
        let caller = std::thread::current().id();
        let one = pool.par_map_indexed(vec![5u8], |_, x| {
            assert_eq!(std::thread::current().id(), caller);
            x + 1
        });
        assert_eq!(one, vec![6]);
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            JobPool::new(4).par_map_indexed((0..64usize).collect(), |_, x| {
                if x == 13 {
                    panic!("boom");
                }
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn a_panicking_cell_abandons_the_remaining_queue() {
        /// Set when the worker thread that ran cell 0 exits, which is after
        /// the pool raised its abort flag for that cell's panic. The store
        /// is `Release` and the waiting cells load it `Acquire`, so a worker
        /// whose cell saw the mark also sees the abort flag.
        static CELL_ZERO_WORKER_GONE: AtomicBool = AtomicBool::new(false);
        struct MarkOnDrop;
        impl Drop for MarkOnDrop {
            fn drop(&mut self) {
                CELL_ZERO_WORKER_GONE.store(true, Ordering::Release);
            }
        }
        thread_local! {
            static EXIT_GUARD: std::cell::RefCell<Option<MarkOnDrop>> =
                const { std::cell::RefCell::new(None) };
        }

        let ran = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(|| {
            JobPool::new(4).par_map_indexed((0..500usize).collect(), |_, x| {
                if x == 0 {
                    // The worker thread holds the guard, not the cell: a
                    // guard local to the cell drops during the unwind, before
                    // the pool raises its abort flag, so a cell released by
                    // it could let its worker pull one more.
                    EXIT_GUARD.with(|guard| *guard.borrow_mut() = Some(MarkOnDrop));
                    panic!("first cell fails");
                }
                // Hold every other cell until cell 0's worker is gone (at
                // most 10 s), so no worker can finish a cell and pull the
                // next one before the abort flag is up.
                for _ in 0..10_000 {
                    if CELL_ZERO_WORKER_GONE.load(Ordering::Acquire) {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                ran.fetch_add(1, Ordering::Relaxed);
                x
            })
        });
        assert!(result.is_err());
        // Each of the three other workers finishes at most the cell it held
        // when cell 0 failed, and pulls no other.
        let ran = ran.load(Ordering::Relaxed);
        assert!(ran <= 3, "panic did not stop the pool: {ran} cells still ran");
    }
}
