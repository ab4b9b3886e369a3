//! Device-task scheduling on the kernel worker pool.
//!
//! Fleet work units (one device's shard scan or training run) are
//! scheduled across [`kinet_tensor::pool::num_threads`] scoped workers —
//! the same `KINET_THREADS` knob that sizes the GEMM workers, so one
//! environment variable governs all parallelism. Each worker pulls the
//! next task index from a shared counter; inside a worker the kernel
//! thread count is pinned to one (a device fit is the unit of parallelism;
//! nesting GEMM workers under task workers would oversubscribe the host).
//!
//! Observability: workers run under the spawning thread's
//! [`kinet_obs::ThreadMark`], so a task records into the session its
//! caller belongs to, and into none when the caller belongs to none.
//!
//! Determinism: every task derives its randomness from its own index, and
//! results are returned **in index order** regardless of which worker ran
//! them or in what order they finished, so a fleet report is bit-identical
//! for every `KINET_THREADS` value.

use crossbeam::channel;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f(0..n)` across the kernel worker pool and returns the results in
/// index order. Falls back to a plain sequential loop (with the ambient
/// kernel thread count, so a lone task still parallelizes its GEMMs) when
/// one worker suffices.
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing task.
///
/// # Panics
///
/// Panics if a task panics (the panic is propagated).
pub fn run_indexed<T, E, F>(n: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let settled = run_indexed_settled(n, f);
    let mut out = Vec::with_capacity(n);
    let mut first_err = None;
    for result in settled {
        match result {
            Ok(v) => out.push(v),
            Err(e) => {
                // Index order means the first error seen is the
                // lowest-indexed one.
                first_err.get_or_insert(e);
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Runs `f(0..n)` across the kernel worker pool and returns **every**
/// task's outcome in index order, without short-circuiting on failure —
/// the settled variant quorum aggregation needs: a fault on device 0 must
/// not discard the work of devices 1..n.
///
/// Same scheduling and determinism contract as [`run_indexed`]; the
/// sequential fallback keeps the ambient kernel thread count.
///
/// # Panics
///
/// Panics if a task panics (the panic is propagated).
pub fn run_indexed_settled<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = kinet_tensor::pool::num_threads().clamp(1, n.max(1));
    if workers <= 1 || n <= 1 {
        return (0..n).map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = channel::unbounded::<(usize, T)>();
    let mark = kinet_obs::thread_mark();
    crossbeam::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            s.spawn(move |_| {
                kinet_obs::with_thread_mark(mark, || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    // Pin the kernel layer to one thread inside a task
                    // worker: the task is the unit of parallelism here.
                    // Results are bit-identical either way (kernel
                    // determinism contract).
                    let result = kinet_tensor::pool::with_threads(1, || f(i));
                    if tx.send((i, result)).is_err() {
                        return;
                    }
                })
            });
        }
        drop(tx);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, result) in rx.iter() {
            slots[i] = Some(result);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every task index sent exactly one result"))
            .collect()
    })
    .expect("fleet task worker panicked")
}

#[cfg(test)]
mod tests {
    use super::*;
    use kinet_tensor::pool::with_threads;

    #[test]
    fn results_arrive_in_index_order_for_any_worker_count() {
        for threads in [1, 2, 3, 8] {
            let out: Result<Vec<usize>, String> =
                with_threads(threads, || run_indexed(17, |i| Ok(i * i)));
            let expected: Vec<usize> = (0..17).map(|i| i * i).collect();
            assert_eq!(out.unwrap(), expected, "threads={threads}");
        }
    }

    #[test]
    fn lowest_indexed_error_wins() {
        for threads in [1, 4] {
            let out: Result<Vec<usize>, String> = with_threads(threads, || {
                run_indexed(10, |i| {
                    if i == 7 || i == 3 {
                        Err(format!("task {i} failed"))
                    } else {
                        Ok(i)
                    }
                })
            });
            assert_eq!(out.unwrap_err(), "task 3 failed", "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let none: Result<Vec<usize>, String> = run_indexed(0, Ok);
        assert!(none.unwrap().is_empty());
        let one: Result<Vec<usize>, String> = with_threads(4, || run_indexed(1, |i| Ok(i + 5)));
        assert_eq!(one.unwrap(), vec![5]);
    }

    #[test]
    fn settled_keeps_every_outcome_in_index_order() {
        for threads in [1, 4] {
            let out: Vec<Result<usize, String>> = with_threads(threads, || {
                run_indexed_settled(10, |i| {
                    if i % 3 == 0 {
                        Err(format!("task {i} failed"))
                    } else {
                        Ok(i)
                    }
                })
            });
            assert_eq!(out.len(), 10, "threads={threads}");
            for (i, r) in out.iter().enumerate() {
                match r {
                    Ok(v) => assert_eq!(*v, i),
                    Err(e) => assert_eq!(*e, format!("task {i} failed")),
                }
            }
            assert_eq!(
                out.iter().filter(|r| r.is_err()).count(),
                4,
                "no outcome is discarded"
            );
        }
    }

    #[test]
    fn kernel_threads_pinned_inside_parallel_workers() {
        let counts: Result<Vec<usize>, String> = with_threads(4, || {
            run_indexed(8, |_| Ok(kinet_tensor::pool::num_threads()))
        });
        assert!(counts.unwrap().iter().all(|&c| c == 1));
        // Sequential fallback keeps the ambient count.
        let counts: Result<Vec<usize>, String> = with_threads(1, || {
            run_indexed(3, |_| Ok(kinet_tensor::pool::num_threads()))
        });
        assert!(counts.unwrap().iter().all(|&c| c == 1));
    }
}
