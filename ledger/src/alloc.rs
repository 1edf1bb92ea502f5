//! The ledger's global allocator: `hfl_bench::memprobe::CountingAlloc`
//! (live bytes, high-water mark, allocation events) plus a running total
//! of bytes requested, which the per-round allocation metric needs and
//! the bench crate's probe does not keep.

use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering};

use hfl_bench::memprobe::CountingAlloc;

/// Bytes requested from the allocator since process start.
static REQUESTED: AtomicU64 = AtomicU64::new(0);

/// Install with `#[global_allocator]` in the binary (and in a test
/// binary that wants non-zero heap metrics).
pub struct LedgerAlloc;

// SAFETY: every method forwards its arguments unchanged to
// `CountingAlloc` (itself a forwarding wrapper over `System`), so the
// `GlobalAlloc` contract is exactly the inner allocator's; the only
// addition is a relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for LedgerAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { CountingAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, which
        // means from `CountingAlloc` with `layout`.
        unsafe { CountingAlloc.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { CountingAlloc.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live block of the inner
        // allocator and `new_size` is the caller's checked size.
        unsafe { CountingAlloc.realloc(ptr, layout, new_size) }
    }
}

/// Bytes requested since process start (0 unless [`LedgerAlloc`] is the
/// global allocator).
pub fn requested_bytes() -> u64 {
    REQUESTED.load(Ordering::Relaxed)
}
