//! A deterministic host thread pool — `std::thread` + channels, no
//! external dependencies.
//!
//! Built for the bench/driver sweeps (it is re-exported as
//! `wfasic_bench::pool`): the input slice is split into **fixed contiguous
//! chunks** decided only by `(len, threads)`, each worker processes its
//! chunk in order, and results are returned **in input order** regardless
//! of which worker finishes first. A run with `threads = 1` executes inline
//! on the caller's thread — no spawn, no channel — so the sequential path
//! is trivially bit-identical, and any per-item seeding derived from the
//! item index is reproducible at every thread count.
//!
//! Worker panics propagate to the caller (via `std::thread::scope`'s join),
//! so a failing property inside a parallel sweep still fails the test.
//!
//! [`ThreadPool::map_with`] adds per-worker state (scratch that outlives
//! the call) and balances by claiming items from a shared cursor instead
//! of fixed chunks; its results still come back in input order.
//!
//! That cursor is [`Cursor`]: a queue of the indices `0..len` that any
//! number of threads drain together, each claiming the next index in
//! turn. [`ThreadPool::map_with`] drains one with its workers, and the
//! heterogeneous backend drains one of CPU pairs with both its worker
//! and, once its device batch is done, its lane thread.
//!
//! Nesting: every worker thread carries a thread-local marker
//! ([`in_worker`]). [`ThreadPool::map_with`] runs inline when called from
//! inside a worker, so a parallel sweep whose items themselves fan out
//! (a device job aligning its pairs on every core) does not oversubscribe
//! the host.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};

/// Host threads available to this process (>= 1). Read once and cached:
/// `std::thread::available_parallelism` re-reads the cgroup files on every
/// Linux call, and per-job callers ask for it on a hot path.
pub fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Is the current thread running pool work? True inside the spawned
/// workers of [`ThreadPool::map`], on every thread of a parallel
/// [`ThreadPool::map_with`] (the caller's included) while it runs, and on
/// both sides of [`join`].
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Marks the current thread as a pool worker until dropped (also on
/// unwind), restoring whatever it was before.
struct WorkerMark(bool);

impl WorkerMark {
    fn enter() -> Self {
        WorkerMark(IN_WORKER.with(|w| w.replace(true)))
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(self.0));
    }
}

/// Run `a` on the caller's thread and `b` on a scoped worker thread at the
/// same time, both marked as pool workers ([`in_worker`]) so that neither
/// fans out further; returns both results. A panic in `b` propagates.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    std::thread::scope(|scope| {
        let worker = scope.spawn(|| {
            let _mark = WorkerMark::enter();
            b()
        });
        let ra = {
            let _mark = WorkerMark::enter();
            a()
        };
        match worker.join() {
            Ok(rb) => (ra, rb),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// A work queue over the indices `0..len`, shared by any number of
/// drainers: each [`Cursor::drain`] claims the next unclaimed index, one at
/// a time, until none is left, so every index is handed out exactly once
/// and a slow or descheduled drainer simply takes fewer.
#[derive(Debug)]
pub struct Cursor {
    next: AtomicUsize,
    len: usize,
}

impl Cursor {
    /// A queue holding every index of `0..len`.
    pub fn new(len: usize) -> Self {
        Cursor {
            next: AtomicUsize::new(0),
            len,
        }
    }

    /// Claim indices until the queue is empty, returning `(index, f(index))`
    /// for each claimed index in claim (ascending) order.
    pub fn drain<R>(&self, mut f: impl FnMut(usize) -> R) -> Vec<(usize, R)> {
        let mut out = Vec::new();
        loop {
            // The cursor only hands out indices; results travel back
            // through the caller's joins, so `Relaxed` suffices.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return out;
            }
            out.push((i, f(i)));
        }
    }
}

/// Split `0..len` into at most `chunks` contiguous ranges whose sizes
/// differ by at most one (the first `len % chunks` ranges are one longer).
/// Deterministic in `(len, chunks)`; empty ranges are omitted.
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.max(1);
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::new();
    let mut start = 0;
    for c in 0..chunks {
        let size = base + usize::from(c < extra);
        if size == 0 {
            break;
        }
        out.push(start..start + size);
        start += size;
    }
    out
}

/// A fixed-width deterministic thread pool.
///
/// The pool holds no threads between calls; each [`ThreadPool::map`] spawns
/// scoped workers and joins them before returning, keeping lifetimes simple
/// and leaving no idle threads behind in test binaries.
#[derive(Debug, Clone, Copy)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool of `threads` workers (clamped to >= 1).
    pub fn new(threads: usize) -> Self {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// A pool sized to the host ([`available_threads`]).
    pub fn host_sized() -> Self {
        Self::new(available_threads())
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `f(index, &item)` to every item, returning results in input
    /// order. Chunking is fixed by `(items.len(), threads)` — never by
    /// timing — so the output is identical at every thread count.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.threads == 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let ranges = chunk_ranges(items.len(), self.threads);
        let mut parts: Vec<Option<Vec<R>>> = Vec::new();
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            let mut handles = Vec::with_capacity(ranges.len());
            for (ci, range) in ranges.iter().enumerate() {
                let tx = tx.clone();
                let f = &f;
                let start = range.start;
                let slice = &items[range.clone()];
                handles.push(scope.spawn(move || {
                    let _mark = WorkerMark::enter();
                    let out: Vec<R> = slice
                        .iter()
                        .enumerate()
                        .map(|(off, t)| f(start + off, t))
                        .collect();
                    // The receiver outlives every sender; a send can only
                    // fail if a sibling worker panicked and the collector
                    // bailed, in which case the panic is re-raised below.
                    let _ = tx.send((ci, out));
                }));
            }
            drop(tx);
            parts = (0..ranges.len()).map(|_| None).collect();
            for (ci, out) in rx {
                parts[ci] = Some(out);
            }
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        parts
            .into_iter()
            .flat_map(|p| p.expect("every worker delivers exactly one chunk"))
            .collect()
    }

    /// Apply `f(&mut state, index, &item)` to every item, returning results
    /// in input order; each worker owns one of `states` for the whole call.
    ///
    /// The width is `threads` capped at `items.len()`, and 1 when called
    /// from inside a pool worker ([`in_worker`]). `states` grows (with
    /// `S::default()`) to that width and is never shrunk, so a caller that
    /// keeps the vector keeps its per-worker state — scratch buffers, say —
    /// across calls. At width 1 everything runs inline on the caller's
    /// thread with `states[0]`, spawning nothing. Wider, the caller works
    /// too (with `states[0]`), and the workers claim items one at a time
    /// from a shared cursor, so a slow or descheduled worker simply takes
    /// fewer. Which state serves an item therefore depends on timing; the
    /// results do not, as long as `f`'s answer does not depend on the
    /// state it is handed.
    pub fn map_with<S, T, R, F>(&self, states: &mut Vec<S>, items: &[T], f: F) -> Vec<R>
    where
        S: Default + Send,
        T: Sync,
        R: Send,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        let width = if in_worker() {
            1
        } else {
            self.threads.min(items.len()).max(1)
        };
        if states.len() < width {
            states.resize_with(width, S::default);
        }
        let Some((first, rest)) = states.split_first_mut() else {
            return Vec::new();
        };
        if width == 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| f(first, i, t))
                .collect();
        }
        let cursor = Cursor::new(items.len());
        let drain = |state: &mut S| -> Vec<(usize, R)> {
            let _mark = WorkerMark::enter();
            cursor.drain(|i| f(state, i, &items[i]))
        };
        let mut indexed = std::thread::scope(|scope| {
            let drain = &drain;
            let handles: Vec<_> = rest[..width - 1]
                .iter_mut()
                .map(|state| scope.spawn(move || drain(state)))
                .collect();
            let mut out = drain(first);
            for handle in handles {
                match handle.join() {
                    Ok(part) => out.extend(part),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            out
        });
        indexed.sort_unstable_by_key(|&(i, _)| i);
        indexed.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;

    #[test]
    fn chunking_is_contiguous_and_balanced() {
        for len in [0usize, 1, 2, 7, 8, 9, 100] {
            for chunks in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(len, chunks);
                let mut covered = 0;
                for (i, r) in ranges.iter().enumerate() {
                    assert_eq!(r.start, covered, "contiguous at {i}");
                    assert!(!r.is_empty());
                    covered = r.end;
                }
                assert_eq!(covered, len, "len={len} chunks={chunks}");
                if let (Some(first), Some(last)) = (ranges.first(), ranges.last()) {
                    assert!(first.len() - last.len() <= 1, "balanced");
                }
            }
        }
    }

    #[test]
    fn map_preserves_input_order_at_every_width() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = ThreadPool::new(threads).map(&items, |_, &x| x * x + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn index_seeded_work_is_reproducible_across_widths() {
        // The differential-sweep pattern: each item derives its seed from
        // its index, so the result must not depend on worker scheduling.
        let items: Vec<usize> = (0..40).collect();
        let run = |threads| {
            ThreadPool::new(threads).map(&items, |idx, _| {
                let mut rng = SmallRng::seed_from_u64(0xBEEF ^ idx as u64);
                (0..50).map(|_| rng.next_u64() & 0xFF).sum::<u64>()
            })
        };
        let seq = run(1);
        assert_eq!(run(4), seq);
        assert_eq!(run(9), seq);
    }

    #[test]
    fn single_thread_runs_inline() {
        // Inline execution: the closure observes the caller's thread.
        let caller = std::thread::current().id();
        let ids = ThreadPool::new(1).map(&[(); 3], |_, _| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let pool = ThreadPool::new(8);
        assert_eq!(pool.map(&[] as &[u32], |_, &x| x), Vec::<u32>::new());
        assert_eq!(pool.map(&[5u32], |i, &x| (i, x)), vec![(0, 5)]);
    }

    #[test]
    fn map_with_preserves_input_order_at_every_width() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<(usize, u64)> = items.iter().map(|&x| (x as usize, x * 3)).collect();
        for threads in [1, 2, 3, 8] {
            let mut states: Vec<u64> = Vec::new();
            let got = ThreadPool::new(threads).map_with(&mut states, &items, |seen, i, &x| {
                *seen += 1;
                (i, x * 3)
            });
            assert_eq!(got, expect, "threads={threads}");
            assert_eq!(states.len(), threads, "one state per worker");
            assert_eq!(states.iter().sum::<u64>(), 97, "every item ran once");
        }
    }

    #[test]
    fn map_with_reuses_each_workers_state_across_items_and_calls() {
        // Each state records the indices it served. Every item is served
        // once per call, each worker claims in ascending order, and the
        // same vectors keep growing on the next call.
        let items = [(); 10];
        let mut states: Vec<Vec<usize>> = Vec::new();
        let pool = ThreadPool::new(3);
        for call in 1..=2 {
            pool.map_with(&mut states, &items, |seen, i, _| seen.push(i));
            assert_eq!(states.len(), 3);
            let mut all: Vec<usize> = states.iter().flatten().copied().collect();
            all.sort_unstable();
            let expect: Vec<usize> = (0..10).flat_map(|i| std::iter::repeat_n(i, call)).collect();
            assert_eq!(all, expect, "call {call}");
        }
        for seen in &states {
            let mut calls = seen.windows(2).filter(|w| w[1] <= w[0]).count();
            calls += usize::from(!seen.is_empty());
            assert!(calls <= 2, "one ascending run per call: {seen:?}");
        }
        // At width 1 the caller's state serves every item, and a narrower
        // call keeps the wider state vector.
        let before = states[0].len();
        pool.map_with(&mut states, &items[..1], |seen, i, _| seen.push(i));
        assert_eq!(states.len(), 3);
        assert_eq!(states[0].len(), before + 1);
        let mut inline: Vec<u32> = Vec::new();
        ThreadPool::new(1).map_with(&mut inline, &items, |n, _, _| *n += 1);
        assert_eq!(inline, vec![10]);
    }

    #[test]
    fn map_with_nested_inside_a_worker_runs_inline() {
        assert!(!in_worker());
        let outer = ThreadPool::new(2).map_with(&mut Vec::<()>::new(), &[0, 1], |_, _, _| {
            let me = std::thread::current().id();
            let mut inner_states: Vec<u8> = Vec::new();
            let inner = ThreadPool::new(4).map_with(&mut inner_states, &[(); 6], |_, _, _| {
                (std::thread::current().id(), in_worker())
            });
            (
                inner.iter().all(|&(id, marked)| id == me && marked),
                inner_states.len(),
            )
        });
        assert_eq!(outer, vec![(true, 1), (true, 1)]);
        // Plain `map` workers count as workers too.
        let nested = ThreadPool::new(2).map(&[0, 1], |_, _| {
            let mut states: Vec<u8> = Vec::new();
            ThreadPool::new(4).map_with(&mut states, &[(); 6], |_, _, _| ());
            states.len()
        });
        assert_eq!(nested, vec![1, 1]);
        assert!(!in_worker(), "the marker is cleared on the caller");
    }

    #[test]
    fn cursor_hands_every_index_to_exactly_one_of_two_drainers() {
        // One slow item: its drainer stalls while the other keeps claiming,
        // and still no index is skipped or handed out twice.
        let cursor = Cursor::new(40);
        let work = |i: usize| {
            if i == 2 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i * 7
        };
        let (a, b) = join(|| cursor.drain(work), || cursor.drain(work));
        for part in [&a, &b] {
            assert!(part.windows(2).all(|w| w[0].0 < w[1].0), "claims ascend");
            assert!(part.iter().all(|&(i, r)| r == i * 7));
        }
        let mut all: Vec<usize> = a.iter().chain(&b).map(|&(i, _)| i).collect();
        all.sort_unstable();
        assert_eq!(all, (0..40).collect::<Vec<_>>());
        assert!(cursor.drain(work).is_empty(), "a drained queue stays empty");
        assert!(Cursor::new(0).drain(work).is_empty());
    }

    #[test]
    fn join_runs_both_sides_as_workers() {
        let caller = std::thread::current().id();
        let (a, b) = join(
            || (std::thread::current().id(), in_worker()),
            || (std::thread::current().id(), in_worker()),
        );
        assert_eq!(a, (caller, true));
        assert!(b.0 != caller && b.1);
        assert!(!in_worker());
    }

    #[test]
    #[should_panic(expected = "stateful boom")]
    fn map_with_worker_panic_propagates() {
        let items: Vec<i32> = (0..16).collect();
        ThreadPool::new(4).map_with(&mut Vec::<u8>::new(), &items, |_, _, &x| {
            assert!(x != 13, "stateful boom");
            x
        });
    }

    #[test]
    fn map_with_panic_leaves_the_caller_unmarked() {
        let items: Vec<i32> = (0..8).collect();
        let caught = std::panic::catch_unwind(|| {
            ThreadPool::new(2).map_with(&mut Vec::<u8>::new(), &items, |_, _, &x| {
                assert!(x != 0, "first item boom");
                x
            })
        });
        assert!(caught.is_err());
        assert!(!in_worker());
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panic_propagates() {
        ThreadPool::new(4).map(&(0..16).collect::<Vec<_>>(), |_, &x: &i32| {
            assert!(x != 11, "worker boom");
            x
        });
    }
}
