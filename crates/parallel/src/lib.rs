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
//! blocks**: workers claim fixed-size index blocks off a shared atomic
//! cursor and write results only into the output slots of the blocks
//! they claimed.
//!
//! ## Determinism contract (DESIGN.md §15)
//!
//! *Which worker* executes a block is scheduling-dependent and varies
//! run to run; *what gets written where* is not:
//!
//! * **Output-slot ownership** — block `b` covers a fixed index range
//!   `[b·B, min((b+1)·B, n))` determined by integer arithmetic alone.
//!   The worker that claims `b` (one `fetch_add` winner) writes exactly
//!   those output slots and no others, so the final output is a pure
//!   function of the per-index closure, independent of the claim order.
//! * **No wall-clock ordering** — nothing here reads time, and no entry
//!   point exposes claim order, worker identity, or completion order to
//!   the caller. Reductions combine partials in index order.
//!
//! All entry points degrade to sequential execution when the requested
//! thread count is 1 or the input is tiny, so unit tests and single-core
//! CI behave identically to parallel runs — and the sequential paths
//! perform no heap allocation beyond the output the caller asked for.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide override for `default_threads()`; 0 means "no override".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces `default_threads()` to return `n` process-wide; pass 0 to
/// restore autodetection. Intended for harnesses that must pin the
/// execution mode — e.g. the allocation-regression gate pins 1 thread
/// so every hot path takes its allocation-free sequential form (thread
/// spawning itself allocates). Results are byte-identical at any
/// thread count (see the determinism contract above); only the
/// execution strategy changes.
pub fn set_default_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Number of worker threads to use by default: the available parallelism,
/// capped at 16 (our largest fan-out, a 64-client round, saturates well
/// before that and oversubscription only adds noise to benchmarks), or
/// the value pinned via [`set_default_threads`].
pub fn default_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(16)
}

/// Blocks handed out per worker on average. More blocks per worker means
/// finer-grained stealing (better load balance under skew) at the price
/// of more cursor traffic; 4 is a comfortable middle for our fan-outs.
const STEAL_GRAIN: usize = 4;

/// Work-stealing block size for `n` items across `threads` workers.
fn block_size(n: usize, threads: usize) -> usize {
    n.div_ceil(threads * STEAL_GRAIN).max(1)
}

/// A raw pointer that may cross thread boundaries. Safety is argued at
/// each use site: workers write through it only at indices inside blocks
/// they claimed, and blocks partition the index range disjointly.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Runs `f` on `0..n` in parallel, collecting results in index order.
///
/// `f` is called exactly once per index. Scheduling is work-stealing
/// (workers claim blocks of indices off an atomic cursor), but results
/// land in input order regardless of which worker computed them, so
/// callers can rely on positional mapping (client `i` → result `i`).
pub fn par_map_indexed<U, F>(n: usize, threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = threads.max(1);
    if threads == 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let block = block_size(n, threads);
    let blocks = n.div_ceil(block);
    let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
    let cursor = AtomicUsize::new(0);
    let slots = SendPtr(out.as_mut_ptr());
    std::thread::scope(|s| {
        for _ in 0..threads.min(blocks) {
            let f = &f;
            let cursor = &cursor;
            let slots = &slots;
            s.spawn(move || loop {
                let b = cursor.fetch_add(1, Ordering::Relaxed);
                if b >= blocks {
                    return;
                }
                let lo = b * block;
                let hi = (lo + block).min(n);
                for i in lo..hi {
                    let v = f(i);
                    // SAFETY: this worker won block `b` via the
                    // fetch_add above, blocks partition `0..n`
                    // disjointly, and `out` outlives the scope — so
                    // slot `i` is written exactly once, by this thread.
                    unsafe { *slots.0.add(i) = Some(v) };
                }
            });
        }
    });
    out.into_iter()
        .map(|o| o.expect("par_map_indexed slot unfilled"))
        .collect()
}

/// Parallel map over a slice, preserving order.
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items.len(), threads, |i| f(&items[i]))
}

/// Applies `f` to disjoint mutable chunks of `data` in parallel. Each call
/// receives the chunk and the index of its first element.
///
/// Chunks are claimed off a shared atomic cursor (work stealing at chunk
/// granularity), so long chunks don't serialize behind one worker; each
/// chunk is still processed exactly once and writes stay inside it. The
/// sequential path (threads = 1, or a single chunk) allocates nothing.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let threads = threads.max(1);
    if threads == 1 || data.len() <= chunk_len {
        for (i, c) in data.chunks_mut(chunk_len).enumerate() {
            f(i * chunk_len, c);
        }
        return;
    }
    let n = data.len();
    let chunks = n.div_ceil(chunk_len);
    let cursor = AtomicUsize::new(0);
    let base_ptr = SendPtr(data.as_mut_ptr());
    std::thread::scope(|s| {
        for _ in 0..threads.min(chunks) {
            let f = &f;
            let cursor = &cursor;
            let base_ptr = &base_ptr;
            s.spawn(move || loop {
                let c = cursor.fetch_add(1, Ordering::Relaxed);
                if c >= chunks {
                    return;
                }
                let lo = c * chunk_len;
                let hi = (lo + chunk_len).min(n);
                // SAFETY: chunk `c` was claimed by exactly this worker,
                // chunk ranges partition `0..n` disjointly, and `data`
                // outlives the scope — the reborrow below aliases no
                // other worker's slice.
                let chunk =
                    unsafe { std::slice::from_raw_parts_mut(base_ptr.0.add(lo), hi - lo) };
                f(lo, chunk);
            });
        }
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

/// Fork-join: runs the two closures potentially in parallel and returns
/// both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        let rb = hb.join().expect("join arm panicked");
        (ra, rb)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_preserves_order() {
        let xs: Vec<usize> = (0..100).collect();
        let ys = par_map(&xs, 4, |x| x * 2);
        assert_eq!(ys, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_sequential_fallback_matches() {
        let xs: Vec<usize> = (0..37).collect();
        let seq = par_map(&xs, 1, |x| x + 1);
        let par = par_map(&xs, 8, |x| x + 1);
        assert_eq!(seq, par);
    }

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
    fn join_returns_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string() + "y");
        assert_eq!(a, 2);
        assert_eq!(b, "xy");
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
