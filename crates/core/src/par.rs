//! A minimal parallel sweep driver.
//!
//! Experiment sweeps (clock-period sweeps, ablations, per-size benchmark
//! series) synthesize many independent design points; [`par_map`] fans them
//! out over `std::thread::scope` worker threads and returns the results in
//! input order, so tables print exactly as the serial driver printed them.
//! Built on the standard library only — the build image has no registry
//! access, so no rayon.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// Maps `f` over `items` on up to [`available_parallelism`] worker threads,
/// returning the results in input order.
///
/// Work is handed out through a shared atomic cursor, so uneven point costs
/// (an n=64 synthesis next to an n=4 one) balance across workers. With one
/// item, zero items, or a single-CPU machine it degrades to a plain serial
/// map with no thread overhead.
///
/// # Panics
/// Once all workers finish, re-raises the payload of the first worker (in
/// spawn order) whose invocation of `f` panicked.
///
/// [`available_parallelism`]: std::thread::available_parallelism
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let (sender, receiver) = mpsc::channel::<(usize, R)>();
    let first_panic = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let sender = sender.clone();
                let cursor = &cursor;
                let f = &f;
                scope.spawn(move || loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(index) else {
                        break;
                    };
                    if sender.send((index, f(item))).is_err() {
                        break;
                    }
                })
            })
            .collect();
        // Join every worker by hand: a scope left to join a panicked worker
        // itself re-panics with a generic message and loses the payload.
        let mut first_panic = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                first_panic.get_or_insert(payload);
            }
        }
        first_panic
    });
    if let Some(payload) = first_panic {
        panic::resume_unwind(payload);
    }
    drop(sender);

    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (index, result) in receiver {
        slots[index] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index produced exactly one result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = par_map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs_work() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs still come back in order.
        let items: Vec<u64> = vec![50_000, 1, 40_000, 2, 30_000, 3];
        let sums = par_map(&items, |&n| (0..n).sum::<u64>());
        let expected: Vec<u64> = items.iter().map(|&n| (0..n).sum()).collect();
        assert_eq!(sums, expected);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..8).collect();
        par_map(&items, |&x| {
            if x == 5 {
                panic!("worker boom");
            }
            x
        });
    }
}
