//! Allocation accounting for the scale benchmarks: a counting
//! [`GlobalAlloc`] wrapper over [`System`] plus a per-round peak probe
//! driving the engine round-by-round.
//!
//! The counters are process-wide statics, so they only observe anything
//! when the *binary* installs the wrapper:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: hfl_bench::memprobe::CountingAlloc = CountingAlloc;
//! ```
//!
//! `repro_scale` uses [`probe_rounds`] to prove the per-round working
//! set depends on the sampled cohort size m, not the population n
//! (DESIGN.md §14); the ledger (`ledger/`) wraps [`CountingAlloc`] for
//! its `peak_heap_mb` and per-round allocation metrics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use abd_hfl_core::engine::cost::CostCounters;
use abd_hfl_core::engine::RoundEngine;
use abd_hfl_core::runner::Experiment;
use hfl_telemetry::Telemetry;

/// Live heap bytes (allocated − freed) since process start.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`LIVE`] since the last [`reset_peak`].
static PEAK: AtomicU64 = AtomicU64::new(0);
/// Allocation *events* since process start (a `realloc` that may move
/// counts as one). The engine's steady-state gate asserts this stays
/// flat across a round, which is strictly stronger than flat bytes.
static COUNT: AtomicU64 = AtomicU64::new(0);

/// A [`System`] allocator that keeps live/peak byte counters. Zero
/// branches beyond the null check; the two relaxed atomics cost a few
/// nanoseconds per (de)allocation — noise next to the allocation
/// itself.
pub struct CountingAlloc;

fn on_alloc(size: usize) {
    COUNT.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Live heap bytes right now (0 unless the binary installed
/// [`CountingAlloc`]).
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current live count and returns
/// that baseline.
pub fn reset_peak() -> u64 {
    let live = live_bytes();
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Peak bytes above `baseline` since the matching [`reset_peak`].
pub fn peak_since(baseline: u64) -> u64 {
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline)
}

/// Allocation events since process start (0 unless the binary installed
/// [`CountingAlloc`]). Bracket a region with two reads and subtract to
/// count its allocations — the steady-state gate in
/// `crates/bench/tests/alloc_regression.rs` does exactly that around
/// one engine round.
pub fn alloc_count() -> u64 {
    COUNT.load(Ordering::Relaxed)
}

/// What [`probe_rounds`] measured over one manual round loop.
pub struct RoundProbe {
    /// Worst over the probed rounds of (heap high-water mark during the
    /// round − live bytes at its start): the round's transient working
    /// set, excluding whatever the prepared experiment already holds.
    pub peak_round_bytes: u64,
    /// Wall time of the whole loop.
    pub elapsed_secs: f64,
    /// Messages charged by the probed rounds.
    pub messages: u64,
}

/// Drives `rounds` engine rounds by hand (no eval, telemetry disabled)
/// and records the per-round allocation peak. The peaks are only
/// meaningful when the binary installs [`CountingAlloc`]; the timing is
/// meaningful regardless.
pub fn probe_rounds(exp: &Experiment, rounds: usize) -> RoundProbe {
    assert!(rounds > 0, "cannot probe zero rounds");
    let telem = Telemetry::disabled();
    let mut engine = RoundEngine::for_experiment(exp);
    let mut global = exp.template.params().to_vec();
    let mut next_global = Vec::with_capacity(global.len());
    let mut cost = CostCounters::default();
    let mut fault_log = Vec::new();
    let mut susp_log = Vec::new();
    let mut peak_round_bytes = 0u64;
    let start = Instant::now();
    for round in 0..rounds {
        fault_log.clear();
        let baseline = reset_peak();
        engine.run_round_into(
            &global,
            round,
            &mut cost,
            &telem,
            &mut fault_log,
            &mut susp_log,
            &mut next_global,
        );
        std::mem::swap(&mut global, &mut next_global);
        peak_round_bytes = peak_round_bytes.max(peak_since(baseline));
    }
    RoundProbe {
        peak_round_bytes,
        elapsed_secs: start.elapsed().as_secs_f64(),
        messages: cost.messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Installing the wrapper for the lib test binary only: every test
    // in this crate then runs under counted allocation, which is
    // exactly the production wiring of the scale binaries.
    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    /// Both tests below move the process-wide peak counter; holding
    /// this keeps one's `reset_peak` out of the other's measuring
    /// window. A poisoned guard is still a held lock.
    static PEAK_COUNTER: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn counters_track_a_visible_allocation() {
        let _serial = PEAK_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
        let baseline = reset_peak();
        let v: Vec<u8> = vec![7; 1 << 20];
        assert!(
            peak_since(baseline) >= 1 << 20,
            "a 1 MiB allocation must raise the peak"
        );
        drop(v);
        let live_after = live_bytes();
        // The vec is freed: live is back near the baseline (other test
        // threads may allocate concurrently, so only bound it).
        assert!(live_after < baseline + (1 << 20));
    }

    #[test]
    fn peak_resets_to_the_current_live_count() {
        let _serial = PEAK_COUNTER.lock().unwrap_or_else(|e| e.into_inner());
        let _big: Vec<u8> = vec![1; 1 << 16];
        let baseline = reset_peak();
        assert_eq!(peak_since(baseline), 0, "fresh baseline has no peak yet");
    }
}
