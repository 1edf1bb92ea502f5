//! # hfl-parallel
//!
//! Minimal, safe-to-call fork-join parallelism for the ABD-HFL
//! reproduction.
//!
//! The workloads we parallelize are coarse but *skewed*: train 64
//! clients' local models (shard sizes and iteration counts differ per
//! client under heterogeneity profiles), fill an O(n²) pairwise-distance
//! matrix for Krum (row `i` has `n − i − 1` pairs under symmetry
//! halving), run Weiszfeld iterations over row chunks. Static chunking
//! starves under that skew — one worker draws the heavy rows while the
//! rest idle — so every entry point here schedules **work-stealing
//! blocks**: threads claim fixed index blocks off one shared iterator
//! and write results only into the output slots of the blocks they
//! claimed.
//!
//! A fork-join runs on the calling thread plus a process-wide set of
//! helper threads that are created on first need and parked in between
//! (see [`par_chunks_mut`] and DESIGN.md §15), so a call costs one
//! wake, not the creation of two OS threads.
//!
//! ## Determinism contract (DESIGN.md §15)
//!
//! *Which thread* executes a block is scheduling-dependent and varies
//! run to run; *what gets written where* is not:
//!
//! * **Output-slot ownership** — block `b` covers a fixed index range
//!   `[b·B, min((b+1)·B, n))` determined by integer arithmetic alone.
//!   The thread that claims `b` (the one that drew it from the iterator)
//!   holds the only `&mut` to exactly those output slots, so the final
//!   output is a pure function of the per-index closure, independent of
//!   the claim order.
//! * **No wall-clock ordering** — nothing here reads time, and no entry
//!   point exposes claim order, worker identity, or completion order to
//!   the caller. Reductions combine partials in index order.
//!
//! All entry points degrade to sequential execution when the requested
//! thread count is 1 or the input is tiny, so unit tests and single-core
//! CI behave identically to parallel runs — and the sequential paths
//! perform no heap allocation beyond the output the caller asked for.

use std::any::Any;
use std::cell::Cell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Most threads any entry point runs a call on, whatever it is asked
/// for: our largest fan-out, a 64-client round, saturates well before
/// that and oversubscription only adds noise to benchmarks.
const MAX_THREADS: usize = 16;

/// Process-wide override for `default_threads()`; 0 means "no override".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces `default_threads()` to return `n` process-wide; pass 0 to
/// restore autodetection. Intended for harnesses that must pin the
/// execution mode — e.g. the allocation-regression gate runs every
/// fixture at 1 and at 2 threads (a fork-join on the parked worker set
/// allocates nothing, so the gate holds at both). Results are
/// byte-identical at any thread count (see the determinism contract
/// above); only the execution strategy changes.
pub fn set_default_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

thread_local! {
    /// [`with_threads`]' count on this thread; 0 means "none in force".
    static SCOPED_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` with `default_threads()` returning `n` on the calling
/// thread, whatever [`set_default_threads`] pinned process-wide, and
/// puts back what was in force before when `f` returns or unwinds
/// (0 lifts an enclosing scope for the length of `f`).
/// `with_threads(1, f)` keeps every fork-join `f` makes on the calling
/// thread: no helper is woken and nothing is waited for, so how long
/// `f` takes does not depend on whether a second core is free. Same
/// bytes, by the determinism contract.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED_THREADS.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SCOPED_THREADS.with(|s| s.replace(n)));
    f()
}

/// Number of worker threads to use by default: the available
/// parallelism, or the value pinned via [`set_default_threads`], or —
/// ahead of both — the count of an enclosing [`with_threads`] on this
/// thread, capped at 16 in every case — the cap every entry point
/// applies to its `threads` argument.
pub fn default_threads() -> usize {
    let scoped = SCOPED_THREADS.with(Cell::get);
    let forced = if scoped > 0 {
        scoped
    } else {
        THREAD_OVERRIDE.load(Ordering::SeqCst)
    };
    let threads = if forced > 0 {
        forced
    } else {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    };
    threads.min(MAX_THREADS)
}

/// Blocks handed out per worker on average. More blocks per worker means
/// finer-grained stealing (better load balance under skew) at the price
/// of more claim traffic; 4 is a comfortable middle for our fan-outs.
const STEAL_GRAIN: usize = 4;

/// Work-stealing block size for `n` items across `threads` workers
/// (`threads` already capped at [`MAX_THREADS`]).
fn block_size(n: usize, threads: usize) -> usize {
    n.div_ceil(threads * STEAL_GRAIN).max(1)
}

/// What a fork-join runs on every participating thread: the claiming
/// loop of one `par_chunks_mut` call.
type Job<'a> = &'a (dyn Fn() + Sync + 'a);

/// The process-wide worker set: helper threads created on demand and
/// parked on `work` between jobs (DESIGN.md §15). At most one job is in
/// flight; a caller that finds the set busy runs its job alone.
struct WorkerSet {
    state: Mutex<SetState>,
    /// Helpers park here; signalled once per invited helper.
    work: Condvar,
    /// The job's caller waits here for the last helper to leave.
    done: Condvar,
}

struct SetState {
    /// The job in flight, its lifetime erased; `Some` exactly while a
    /// caller is between posting and [`WorkerSet::retire`].
    job: Option<Job<'static>>,
    /// Helpers still invited into the job.
    invited: usize,
    /// Helpers inside the job right now.
    inside: usize,
    /// Helper threads created so far.
    helpers: usize,
    /// First panic a helper caught in the job in flight.
    panic: Option<Box<dyn Any + Send>>,
}

static SET: WorkerSet = WorkerSet {
    state: Mutex::new(SetState {
        job: None,
        invited: 0,
        inside: 0,
        helpers: 0,
        panic: None,
    }),
    work: Condvar::new(),
    done: Condvar::new(),
};

impl WorkerSet {
    /// No code panics while holding the state lock (jobs run outside
    /// it, under `catch_unwind`), and every update leaves the counters
    /// consistent, so a poisoned lock is taken over rather than left to
    /// wedge every later call.
    fn lock(&self) -> MutexGuard<'_, SetState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `job` on the calling thread and on up to `threads − 1`
    /// helpers; returns once every thread that entered it has left.
    /// The caller claims from the first instant, so a job it exhausts
    /// before a helper wakes costs one wake and no wait.
    fn fork_join(&'static self, threads: usize, job: Job<'_>) {
        if threads <= 1 {
            return job();
        }
        let mut st = self.lock();
        if st.job.is_some() {
            // Busy — another thread's job, or the job this call is
            // nested in. Never queue behind it: run alone.
            drop(st);
            return job();
        }
        while st.helpers < threads - 1 {
            let name = format!("hfl-parallel-{}", st.helpers);
            // The handle is dropped on purpose: a helper lives, parked,
            // until the process exits, and cannot panic (jobs run under
            // `catch_unwind`). If the OS refuses a thread the job runs
            // on the helpers there are.
            if std::thread::Builder::new()
                .name(name)
                .spawn(move || self.help())
                .is_err()
            {
                break;
            }
            st.helpers += 1;
        }
        let invited = st.helpers.min(threads - 1);
        // SAFETY: only the lifetime changes. The reference is reachable
        // through `st.job` alone, and a helper copies it out only while
        // it raises `inside` under the lock. This function does not
        // return, and does not unwind, past the job while any helper is
        // inside it: its own share runs under `catch_unwind`, and
        // `retire` then withdraws the invitations, waits for `inside`
        // to reach zero and clears `st.job`, all under that lock —
        // before the borrow `job` came from can end. Pinned by
        // `tests/worker_set.rs::caller_outlives_every_helper`.
        st.job = Some(unsafe { std::mem::transmute::<Job<'_>, Job<'static>>(job) });
        st.invited = invited;
        drop(st);
        for _ in 0..invited {
            self.work.notify_one();
        }
        let mine = catch_unwind(AssertUnwindSafe(job));
        let theirs = self.retire();
        if let Some(payload) = mine.err().or(theirs) {
            resume_unwind(payload);
        }
    }

    /// Ends the job in flight: no helper may enter any more, and every
    /// helper that did has left when this returns. Hands back what a
    /// helper's share panicked with.
    fn retire(&self) -> Option<Box<dyn Any + Send>> {
        let mut st = self.lock();
        st.invited = 0;
        while st.inside > 0 {
            st = self.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
        st.panic.take()
    }

    /// A helper thread's whole life: park until invited, run the job's
    /// claiming loop, report, park again. A helper that wakes after the
    /// caller retired the job finds no invitation and parks at once.
    fn help(&self) {
        let mut st = self.lock();
        loop {
            let Some(job) = st.job.filter(|_| st.invited > 0) else {
                st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            st.invited -= 1;
            st.inside += 1;
            drop(st);
            let outcome = catch_unwind(AssertUnwindSafe(job));
            st = self.lock();
            if let Err(payload) = outcome {
                st.panic.get_or_insert(payload);
            }
            st.inside -= 1;
            if st.inside == 0 {
                self.done.notify_one();
            }
        }
    }
}

/// Runs `f` on `0..n` in parallel, collecting results in index order.
///
/// `f` is called exactly once per index. Scheduling is work-stealing
/// (threads claim blocks of indices), but results land in input order
/// regardless of which thread computed them, so callers can rely on
/// positional mapping (client `i` → result `i`). `threads` is capped at
/// 16; 0 means 1.
pub fn par_map_indexed<U, F>(n: usize, threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = threads.clamp(1, MAX_THREADS);
    if threads == 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    par_chunks_mut(&mut out, block_size(n, threads), threads, |base, slots| {
        for (off, slot) in slots.iter_mut().enumerate() {
            *slot = Some(f(base + off));
        }
    });
    out.into_iter()
        .map(|o| o.expect("par_map_indexed slot unfilled"))
        .collect()
}

/// Applies `f` to disjoint mutable chunks of `data` in parallel. Each call
/// receives the chunk and the index of its first element.
///
/// This is the crate's one claiming loop: the calling thread and the
/// worker set's helpers each take the next unclaimed chunk off a shared
/// iterator (work stealing at chunk granularity), so long chunks don't
/// serialize behind one thread; each chunk is processed exactly once
/// and writes stay inside it. A panic in `f` fails the whole call with
/// that panic's payload once every thread has left the loop. Nothing
/// here allocates at any thread count. `threads` is capped at 16; 0
/// means 1. A call made while another is in flight (nested in a
/// closure, or from another OS thread) runs on the calling thread
/// alone — same bytes, by the determinism contract.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let chunks = data.len().div_ceil(chunk_len);
    let unclaimed = Mutex::new(data.chunks_mut(chunk_len).enumerate());
    SET.fork_join(threads.min(MAX_THREADS).min(chunks), &|| loop {
        // The guard is dropped before `f` runs, so a panic in `f`
        // cannot poison the iterator for the other threads.
        let claim = unclaimed
            .lock()
            .expect("never held across a closure call")
            .next();
        let Some((c, chunk)) = claim else { return };
        f(c * chunk_len, chunk);
    });
}

/// Parallel fold-then-reduce: maps every index through `f`, then combines
/// results with `combine`. Returns `identity()` for `n == 0`.
///
/// `combine` must be associative and commute with the identity; partials
/// are folded in index order, so the reduction value is independent of
/// scheduling even for non-commutative-in-floating-point combines.
pub fn par_reduce<U, F, C, I>(n: usize, threads: usize, identity: I, f: F, combine: C) -> U
where
    U: Send,
    F: Fn(usize) -> U + Sync,
    C: Fn(U, U) -> U + Sync,
    I: Fn() -> U,
{
    if n == 0 {
        return identity();
    }
    let partials = par_map_indexed(n, threads, f);
    partials.into_iter().fold(identity(), combine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_indexed_calls_each_once() {
        let count = AtomicUsize::new(0);
        let out = par_map_indexed(1000, 8, |i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(count.load(Ordering::Relaxed), 1000);
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_empty() {
        let out: Vec<usize> = par_map_indexed(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn skewed_workloads_still_place_deterministically() {
        // A triangular workload (index i costs ~i work) is the Krum
        // upper-triangle shape that starves static chunking; under
        // work stealing the result must still be position-exact for
        // every thread count.
        let cost = |i: usize| -> u64 { (0..(i % 97) * 50).map(|k| k as u64).sum::<u64>() ^ i as u64 };
        let expected: Vec<u64> = (0..500).map(cost).collect();
        for threads in [1, 2, 4, 8] {
            let got = par_map_indexed(500, threads, cost);
            assert_eq!(got, expected, "mismatch at {threads} threads");
        }
    }

    #[test]
    fn block_size_is_positive_and_covers() {
        for n in [1usize, 2, 7, 64, 1000] {
            for threads in [1usize, 2, 5, 16] {
                let b = block_size(n, threads);
                assert!(b >= 1);
                assert!(n.div_ceil(b) * b >= n, "blocks must cover 0..n");
            }
        }
    }

    #[test]
    fn par_chunks_mut_touches_everything() {
        let mut data = vec![0u32; 1003];
        par_chunks_mut(&mut data, 64, 4, |base, chunk| {
            for (off, x) in chunk.iter_mut().enumerate() {
                *x = (base + off) as u32;
            }
        });
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x, i as u32);
        }
    }

    #[test]
    fn par_chunks_mut_ragged_tail_has_right_length() {
        let mut data = vec![0usize; 130];
        par_chunks_mut(&mut data, 32, 4, |base, chunk| {
            for x in chunk.iter_mut() {
                *x = base + 1;
            }
        });
        // The last chunk starts at 128 and has 2 elements.
        assert!(data[128..].iter().all(|&x| x == 129));
    }

    #[test]
    fn par_reduce_sums() {
        let total = par_reduce(1000, 4, || 0usize, |i| i, |a, b| a + b);
        assert_eq!(total, 499_500);
    }

    #[test]
    fn par_reduce_empty_is_identity() {
        let total = par_reduce(0, 4, || 42usize, |i| i, |a, b| a + b);
        assert_eq!(total, 42);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn with_threads_is_scoped_to_the_call_and_the_thread() {
        let outside = default_threads();
        let seen = with_threads(3, || {
            let inner = with_threads(1, default_threads);
            let elsewhere = std::thread::scope(|s| s.spawn(default_threads).join().unwrap());
            (default_threads(), inner, elsewhere)
        });
        assert_eq!(seen, (3, 1, outside));
        assert_eq!(default_threads(), outside);

        // Put back on unwind too.
        let unwound = catch_unwind(|| with_threads(5, || panic!("inside the scope")));
        assert!(unwound.is_err());
        assert_eq!(default_threads(), outside);
    }
}
