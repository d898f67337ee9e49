//! Scoped, dynamically-scheduled parallel iteration.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a requested thread count: `None` or `Some(0)` means "all
/// available parallelism", anything else is taken literally.
pub fn effective_threads(requested: Option<usize>) -> usize {
    match requested {
        Some(n) if n > 0 => n,
        _ => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Runs `body` over every sub-range of `0..n`, splitting into `grain`-sized
/// chunks handed to `threads` workers through a shared cursor.
///
/// With `threads == 1` the body runs inline on the calling thread in a
/// single deterministic sweep — the mode used by tests that compare against
/// sequential references.
pub fn parallel_for<F>(threads: usize, n: usize, grain: usize, body: F)
where
    F: Fn(Range<usize>) + Sync,
{
    assert!(grain > 0, "grain must be positive");
    if n == 0 {
        return;
    }
    if threads <= 1 {
        body(0..n);
        return;
    }
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n.div_ceil(grain)) {
            scope.spawn(|| loop {
                let start = cursor.fetch_add(grain, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + grain).min(n);
                body(start..end);
            });
        }
    });
}

/// Runs `body` once over every element of `items` with exclusive mutable
/// access, handing elements to `threads` workers through a shared cursor.
///
/// This is the online engine's execution primitive: each element is a
/// shard's private state, or a member of a shard's repair wave, and the
/// shared cursor keeps skewed elements from idling the pool. The calling
/// thread is one of the workers, so a call spawns `threads - 1` threads
/// (fewer for fewer elements) and proceeds alone when they start late.
/// With `threads == 1` the body runs inline in index order — the
/// deterministic mode tests compare against sequential references.
pub fn parallel_for_each_mut<T, F>(threads: usize, items: &mut [T], body: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    if n == 0 {
        return;
    }
    if threads <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            body(i, item);
        }
        return;
    }
    // Hand out elements through an atomic cursor over raw slots: each index
    // is claimed exactly once, so no two workers ever hold the same element.
    let cursor = AtomicUsize::new(0);
    let base = SendPtr(items.as_mut_ptr());
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        // SAFETY: `i < n` is claimed by exactly one worker (the
        // fetch_add is a unique ticket), so this is the only live
        // reference to `items[i]`; the scope outlives no borrow.
        let item = unsafe { &mut *base.get().add(i) };
        body(i, item);
    };
    std::thread::scope(|scope| {
        for _ in 1..threads.min(n) {
            scope.spawn(work);
        }
        work();
    });
}

/// A raw pointer wrapper that is `Sync` so scoped workers can share the
/// slice base; safety rests on the unique-ticket cursor above. Accessed
/// through a method so closures capture the wrapper, not the raw field.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Parallel fold: each worker owns an accumulator created by `init`, feeds it
/// chunks via `fold`, and the per-worker results are combined with `merge`.
///
/// The merge order is unspecified; `merge` must be associative and
/// commutative for deterministic results.
pub fn parallel_fold<A, I, F, M>(
    threads: usize,
    n: usize,
    grain: usize,
    init: I,
    fold: F,
    merge: M,
) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, Range<usize>) + Sync,
    M: Fn(A, A) -> A,
{
    assert!(grain > 0, "grain must be positive");
    if n == 0 {
        return init();
    }
    if threads <= 1 {
        let mut acc = init();
        fold(&mut acc, 0..n);
        return acc;
    }
    let cursor = AtomicUsize::new(0);
    let workers = threads.min(n.div_ceil(grain));
    let accs: Vec<A> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut acc = init();
                    loop {
                        let start = cursor.fetch_add(grain, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + grain).min(n);
                        fold(&mut acc, start..end);
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut iter = accs.into_iter();
    let first = iter.next().expect("at least one worker");
    iter.fold(first, merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn effective_threads_resolution() {
        assert_eq!(effective_threads(Some(3)), 3);
        assert!(effective_threads(None) >= 1);
        assert!(effective_threads(Some(0)) >= 1);
    }

    #[test]
    fn covers_every_index_exactly_once() {
        let n = 10_007; // prime, not a multiple of the grain
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(4, n, 64, |range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_thread_is_one_sweep() {
        let calls = AtomicUsize::new(0);
        parallel_for(1, 1000, 10, |range| {
            assert_eq!(range, 0..1000);
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn empty_range_is_noop() {
        parallel_for(4, 0, 16, |_| panic!("must not be called"));
    }

    #[test]
    fn grain_larger_than_n() {
        let sum = AtomicU64::new(0);
        parallel_for(8, 5, 1000, |range| {
            sum.fetch_add(range.map(|i| i as u64).sum::<u64>(), Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10); // 0+1+2+3+4
    }

    #[test]
    fn for_each_mut_visits_every_element_once() {
        for threads in [1, 2, 8] {
            let mut items: Vec<u64> = (0..257).collect();
            parallel_for_each_mut(threads, &mut items, |i, item| {
                assert_eq!(*item, i as u64, "threads {threads}");
                *item += 1000;
            });
            assert!(items.iter().enumerate().all(|(i, &v)| v == i as u64 + 1000));
        }
    }

    #[test]
    fn for_each_mut_empty_is_noop() {
        let mut items: Vec<u64> = Vec::new();
        parallel_for_each_mut(4, &mut items, |_, _| panic!("must not be called"));
    }

    #[test]
    fn for_each_mut_single_thread_is_in_order() {
        let order = std::sync::Mutex::new(Vec::new());
        let mut items = [0u8; 9];
        parallel_for_each_mut(1, &mut items, |i, _| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn fold_sums_match_sequential() {
        let n = 100_000usize;
        for threads in [1, 2, 8] {
            let total = parallel_fold(
                threads,
                n,
                128,
                || 0u64,
                |acc, range| {
                    for i in range {
                        *acc += i as u64;
                    }
                },
                |a, b| a + b,
            );
            assert_eq!(total, (n as u64 - 1) * n as u64 / 2);
        }
    }

    #[test]
    fn fold_collects_disjoint_chunks() {
        let parts = parallel_fold(
            4,
            1000,
            37,
            Vec::new,
            |acc: &mut Vec<usize>, range| acc.extend(range),
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        let mut sorted = parts;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<_>>());
    }
}
