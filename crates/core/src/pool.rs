//! Host threads — `std::thread` + channels, no external dependencies —
//! in two forms, one per kind of caller.
//!
//! **Whole-job sweeps** ([`ThreadPool::map`]) spawn *scoped* threads per
//! call that may borrow the caller's data. The input slice is split into
//! **fixed contiguous chunks** decided only by `(len, threads)`, each worker
//! processes its chunk in order, and the caller joins the workers in chunk
//! order, so results come back **in input order** regardless of which
//! worker finishes first. A run with `threads = 1` executes inline on the
//! caller's thread — no spawn — so the sequential path is trivially
//! bit-identical, and any per-item seeding derived from the item index is
//! reproducible at every thread count.
//!
//! **Per-job splits** ([`share`]) are the one source of host threads inside
//! a job: the `cpu` backend's batch, the device model's phase 1 and the
//! heterogeneous backend's CPU queue. They run on the process's *resident*
//! helpers, spawned once, which work on owned (`Arc`'d) data, so a job
//! pays a wake-up (~15 µs) rather than a spawn and join (36–43 µs). The
//! work is a [`Cursor`]: a queue of the indices `0..len` that the caller
//! and the helpers drain together, each claiming the next index in turn.
//!
//! Panics propagate to the caller (via the scoped worker's join, or a
//! resident helper's reply), so a failing property inside a parallel sweep
//! still fails the test.
//!
//! Nesting: every worker thread carries a thread-local marker
//! ([`in_worker`]). [`share`] runs inline when called from inside a worker,
//! so a parallel sweep whose items themselves fan out (a device job
//! aligning its pairs on every core) does not oversubscribe the host.

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

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
/// workers of [`ThreadPool::map`], on the caller of [`share`] while its
/// `mine` runs, and always on a resident helper.
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
            // through the caller's joins or channels, so `Relaxed`
            // suffices.
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return out;
            }
            out.push((i, f(i)));
        }
    }
}

/// A unit of work for a resident helper.
type Task = Box<dyn FnOnce() + Send>;

/// How long a helper polls for its next task (a closed-loop client's next
/// short job usually comes within it), and a [`share`] caller for a
/// helper's reply (the helper is finishing its last claim), before parking.
const HELPER_SPIN: Duration = Duration::from_micros(60);
const CALLER_SPIN: Duration = Duration::from_micros(30);

/// Poll for up to `spin`, then block, skipping a park and wake-up (~15 µs
/// together on a 2-vCPU VM) when what is awaited is microseconds away.
fn spin_then<T>(
    spin: Duration,
    mut poll: impl FnMut() -> Option<T>,
    block: impl FnOnce() -> T,
) -> T {
    let start = Instant::now();
    loop {
        if let Some(t) = poll() {
            return t;
        }
        if start.elapsed() >= spin {
            return block();
        }
        std::hint::spin_loop();
    }
}

/// The tasks channel of the process's resident helpers, spawning them on
/// first use: `available_threads() - 1` threads that take turns receiving
/// from one channel, run each task marked as pool workers, and never exit.
fn helper_tasks() -> &'static mpsc::Sender<Task> {
    static TASKS: OnceLock<mpsc::Sender<Task>> = OnceLock::new();
    TASKS.get_or_init(|| {
        let (tx, rx) = mpsc::channel::<Task>();
        let rx = Arc::new(Mutex::new(rx));
        for k in 1..available_threads() {
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("pool-helper-{k}"))
                .spawn(move || {
                    let _mark = WorkerMark::enter();
                    let tasks = || rx.lock().unwrap_or_else(PoisonError::into_inner);
                    loop {
                        let task = spin_then(
                            HELPER_SPIN,
                            || tasks().try_recv().ok(),
                            || tasks().recv().expect("the task sender lives in a static"),
                        );
                        task();
                    }
                })
                .expect("spawn a resident pool helper");
        }
        tx
    })
}

/// Share the queue `0..len` between the caller and the process's resident
/// helpers; returns every index's result in input order, plus the report
/// of each helper whose share the caller waited for.
///
/// The caller drains with `mine`; up to `len` helpers (one per spare host
/// thread) drain at the same time with the closure `helper()` builds, which
/// must own its data, and each returns its claims and a report (its
/// tallies, say). `mine` may do other work before it drains (a device
/// batch, say): the helpers are already at the queue. The caller waits only
/// for helpers that claimed an index. A helper's panic is re-raised on the
/// caller; the helper stays up. On one host thread, inside a pool worker
/// ([`in_worker`]) or for an empty queue, `mine` drains everything inline
/// and no helper wakes.
pub fn share<R, T, H>(
    len: usize,
    mine: impl FnOnce(&Cursor) -> Vec<(usize, R)>,
    helper: impl FnOnce() -> H,
) -> (Vec<R>, Vec<T>)
where
    R: Send + 'static,
    T: Send + 'static,
    H: Fn(&Cursor) -> (Vec<(usize, R)>, T) + Send + Sync + 'static,
{
    let wake = if in_worker() {
        0
    } else {
        (available_threads() - 1).min(len)
    };
    let cursor = Arc::new(Cursor::new(len));
    let (tx, rx) = mpsc::channel();
    if wake > 0 {
        let helper = Arc::new(helper());
        let tasks = helper_tasks();
        for _ in 0..wake {
            let (cursor, helper, tx) = (Arc::clone(&cursor), Arc::clone(&helper), tx.clone());
            // Helpers never exit, so the send cannot fail; the reply fails
            // only once the caller holds every result and has hung up.
            let _ = tasks.send(Box::new(move || {
                let _ = tx.send(catch_unwind(AssertUnwindSafe(|| helper(&cursor))));
            }));
        }
    }
    drop(tx);
    let mut got = {
        let _mark = WorkerMark::enter();
        mine(&cursor)
    };
    let mut reports = Vec::new();
    while got.len() < len {
        let reply = spin_then(
            CALLER_SPIN,
            || rx.try_recv().ok(),
            || rx.recv().expect("a helper that claimed an index replies"),
        );
        match reply {
            Ok((part, report)) => {
                got.extend(part);
                reports.push(report);
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    got.sort_unstable_by_key(|&(i, _)| i);
    (got.into_iter().map(|(_, r)| r).collect(), reports)
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
/// scoped workers and joins them before returning, so they may borrow the
/// caller's data.
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
        std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = ranges
                .into_iter()
                .map(|range| {
                    let start = range.start;
                    let slice = &items[range];
                    scope.spawn(move || {
                        let _mark = WorkerMark::enter();
                        let out = slice.iter().enumerate();
                        out.map(|(off, t)| f(start + off, t)).collect::<Vec<R>>()
                    })
                })
                .collect();
            // Join in chunk order, which is input order; a worker's panic
            // re-raises here, on the caller, with its own payload.
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
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
        let (a, b) = std::thread::scope(|scope| {
            let other = scope.spawn(|| cursor.drain(work));
            let mine = cursor.drain(work);
            (mine, other.join().expect("the other drainer finishes"))
        });
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

    /// Wait (up to 10 s) until `flag` is set; true if it was.
    fn wait_for(flag: &std::sync::atomic::AtomicBool) -> bool {
        let start = std::time::Instant::now();
        while !flag.load(Ordering::SeqCst) {
            if start.elapsed() > std::time::Duration::from_secs(10) {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        true
    }

    #[test]
    fn share_claims_every_index_exactly_once() {
        for len in [0usize, 1, 2, 3, 57, 400] {
            for _ in 0..5 {
                let claims: Arc<Vec<AtomicUsize>> =
                    Arc::new((0..len).map(|_| AtomicUsize::new(0)).collect());
                let work = |claims: &[AtomicUsize], i: usize| {
                    claims[i].fetch_add(1, Ordering::SeqCst);
                    i * 3
                };
                let mine_claims = Arc::clone(&claims);
                let (got, reports) = share(
                    len,
                    |q| q.drain(|i| work(&mine_claims, i)),
                    || {
                        let claims = Arc::clone(&claims);
                        move |q: &Cursor| {
                            let part = q.drain(|i| work(&claims, i));
                            let n = part.len();
                            (part, n)
                        }
                    },
                );
                assert_eq!(
                    got,
                    (0..len).map(|i| i * 3).collect::<Vec<_>>(),
                    "len {len}"
                );
                assert!(claims.iter().all(|c| c.load(Ordering::SeqCst) == 1));
                assert!(reports.len() <= len, "at most len helpers wake");
                assert!(reports.len() < available_threads());
            }
        }
        assert!(!in_worker(), "the marker is cleared on the caller");
    }

    #[test]
    fn share_returns_without_waiting_when_helpers_claimed_nothing() {
        // Every helper is held at a gate the test opens only after `share`
        // returns, so the caller drains the whole queue itself and must
        // not wait for a reply.
        let (open, gate) = mpsc::channel::<()>();
        let gate = Arc::new(Mutex::new(gate));
        let start = std::time::Instant::now();
        let (got, reports) = share(
            64,
            |q| q.drain(|i| i),
            || {
                let gate = Arc::clone(&gate);
                move |q: &Cursor| {
                    let held = gate.lock().unwrap_or_else(PoisonError::into_inner);
                    let _ = held.recv_timeout(std::time::Duration::from_secs(10));
                    (q.drain(|i| i), ())
                }
            },
        );
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
        assert_eq!(got, (0..64).collect::<Vec<_>>());
        assert!(reports.is_empty());
        for _ in 1..available_threads() {
            let _ = open.send(());
        }
    }

    #[test]
    fn share_helper_panic_reaches_the_caller_and_the_helper_survives() {
        use std::sync::atomic::AtomicBool;
        if available_threads() < 2 {
            return; // no helpers: nothing can claim but the caller
        }
        // The caller holds back until a helper has claimed an index, so
        // the helper's share is never empty.
        let run = |boom: bool| {
            let claimed = Arc::new(AtomicBool::new(false));
            let seen = Arc::clone(&claimed);
            share(
                32,
                move |q| {
                    assert!(wait_for(&seen), "a helper claimed an index");
                    q.drain(|i| i)
                },
                || {
                    move |q: &Cursor| {
                        let part = q.drain(|i| {
                            claimed.store(true, Ordering::SeqCst);
                            assert!(!boom, "helper boom");
                            std::thread::sleep(std::time::Duration::from_millis(2));
                            i
                        });
                        (part, ())
                    }
                },
            )
        };
        let caught = catch_unwind(|| run(true)).expect_err("the helper's panic surfaces");
        let msg = caught
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| caught.downcast_ref::<&str>().copied());
        assert_eq!(msg, Some("helper boom"));
        assert!(!in_worker());
        let (got, reports) = run(false);
        assert_eq!(got, (0..32).collect::<Vec<_>>());
        assert!(!reports.is_empty(), "a helper answered the later batch");
    }

    #[test]
    fn share_nested_inside_a_worker_runs_inline() {
        use std::sync::atomic::AtomicBool;
        /// Does a share started here run on this thread alone, without
        /// building a helper?
        fn nested(built: &AtomicBool) -> bool {
            let me = std::thread::current().id();
            let (ids, reports) = share(
                8,
                |q| q.drain(|_| std::thread::current().id()),
                || {
                    built.store(true, Ordering::SeqCst);
                    |q: &Cursor| (q.drain(|_| std::thread::current().id()), ())
                },
            );
            ids.iter().all(|&id| id == me) && reports.is_empty()
        }
        let built = AtomicBool::new(false);
        let inline = ThreadPool::new(2).map(&[0, 1], |_, _| nested(&built));
        assert_eq!(inline, vec![true, true]);
        assert!(
            !built.load(Ordering::SeqCst),
            "no helper is built in a worker"
        );
        // A resident helper is a worker too: a share it starts runs inline.
        // The caller holds back until the helper has claimed the queue's
        // one index, which a helper wakes for.
        if available_threads() < 2 {
            return;
        }
        let claimed = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&claimed);
        let (from_helper, reports) = share(
            1,
            move |q| {
                assert!(wait_for(&seen), "a helper claimed an index");
                q.drain(|_| true)
            },
            || {
                move |q: &Cursor| {
                    let part = q.drain(|_| {
                        claimed.store(true, Ordering::SeqCst);
                        let built = AtomicBool::new(false);
                        in_worker() && nested(&built) && !built.load(Ordering::SeqCst)
                    });
                    (part, ())
                }
            },
        );
        assert_eq!(reports.len(), 1, "one helper wakes for one index");
        assert_eq!(from_helper, vec![true]);
    }

    #[test]
    fn a_panicking_item_re_raises_on_the_caller() {
        for threads in [1, 4] {
            let got = catch_unwind(|| {
                ThreadPool::new(threads).map(&(0..16).collect::<Vec<_>>(), |_, &x: &i32| {
                    assert!(x != 11, "item {x} failed");
                    x
                })
            });
            let payload = got.expect_err("the panic reaches the caller");
            let msg = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(msg, Some("item 11 failed"), "threads={threads}");
            assert!(!in_worker(), "the caller is not left marked as a worker");
        }
    }
}
