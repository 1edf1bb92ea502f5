//! Round-scoped buffer arena: every model-vector and index buffer the
//! canonical round needs, owned once by the engine and recycled across
//! rounds so a BRA round — synchronous or deadline-buffered — performs
//! **zero heap allocation in steady state** (the invariant
//! `crates/bench/tests/alloc_regression.rs` pins with the counting
//! allocator).
//!
//! Three pieces:
//!
//! * [`RefPool`] — recycles the *capacity* of `Vec<&[f32]>` input-ref
//!   vectors across rounds. The borrow lifetime changes every round, so
//!   an emptied vector is re-collected into one of the new lifetime:
//!   collecting a `vec::IntoIter` through `map` reuses the allocation
//!   in place, and an empty vector has no element for the map to touch.
//! * [`StepScratch`] — what one cluster step (`super::step`) works in:
//!   the kept slots with their weights and lateness, the deadline
//!   buffer's arrival tables, the aggregation inputs and the shared
//!   [`AggScratch`].
//! * [`RoundWorkspace`] — the engine's per-round state: carried/next
//!   model rows, churn and cohort bindings, member-index scratch, the
//!   step scratch, and the training-loop workspace.

use hfl_robust::AggScratch;

use crate::runner::TrainWorkspace;

/// Recycles the capacity of `Vec<&[f32]>` across borrow lifetimes.
#[derive(Debug, Default)]
pub struct RefPool {
    /// Always empty: only its capacity is kept.
    parked: Vec<&'static [f32]>,
}

/// An empty vector's allocation under another element lifetime.
fn rebind<'a>(mut v: Vec<&[f32]>) -> Vec<&'a [f32]> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector was emptied"))
        .collect()
}

impl RefPool {
    /// An empty ref-vector with recycled capacity, usable for any
    /// borrow lifetime.
    pub fn take<'a>(&mut self) -> Vec<&'a [f32]> {
        rebind(std::mem::take(&mut self.parked))
    }

    /// Parks a ref-vector's capacity for the next round.
    pub fn put(&mut self, v: Vec<&[f32]>) {
        self.parked = rebind(v);
    }
}

/// The buffers of one cluster step, reused by every cluster of every
/// round. `kept` / `weights` / `lateness` are the collect step's result;
/// the rest is working memory.
#[derive(Default)]
pub struct StepScratch {
    /// The admitted slots, ascending.
    pub kept: Vec<usize>,
    /// Deadline policy: the aggregation weight of `kept[i]` (1.0
    /// on-time, staleness-discounted for τ-late arrivals).
    pub weights: Vec<f32>,
    /// Deadline policy: the lateness of `kept[i]` as a fraction of τ
    /// (0 on-time) — staleness evidence for the defense.
    pub lateness: Vec<f64>,
    /// When the collection closed, absolute µs on the round clock.
    pub closed_at: u64,
    /// When its first kept candidate arrived, absolute µs.
    pub first_at: u64,
    /// Deadline buffer: `(arrival µs after opening, candidate position)`.
    pub(super) times: Vec<(u64, usize)>,
    /// Deadline buffer: which candidates stall until just inside τ.
    pub(super) stalled: Vec<bool>,
    /// Deadline buffer: `(slot, weight, lateness fraction)` admitted.
    pub(super) admitted: Vec<(usize, f32, f64)>,
    /// Input-ref recycler for aggregation calls.
    pub(super) refs: RefPool,
    /// Shared aggregator scratch (distance matrix, rows, columns...).
    pub(super) agg: AggScratch,
}

/// All reusable state of one [`super::RoundEngine`]'s round execution.
///
/// The engine `std::mem::take`s the workspace at the top of an
/// aggregation (so layer hooks can borrow the engine freely) and puts
/// it back at the single exit.
#[derive(Default)]
pub struct RoundWorkspace {
    /// Churn presence mask for the round.
    pub active: Vec<bool>,
    /// Global client bound to each cohort slot.
    pub cohort: Vec<usize>,
    /// `carried[slot]`: the model each node carries upward.
    pub carried: Vec<Vec<f32>>,
    /// `ready_at[slot]`: when that model is ready to send, absolute µs
    /// on the round clock — all zero under the lockstep schedule.
    pub ready_at: Vec<u64>,
    /// The next level's carried rows (swapped with `carried` per level).
    pub next: Vec<Vec<f32>>,
    /// The present members of a cluster in arrival order: member
    /// indices while the layers filter and reorder, slots from there on.
    pub order: Vec<usize>,
    /// Global client ids behind the kept slots.
    pub kept_devices: Vec<usize>,
    /// Surviving top-cluster slots for the global aggregation.
    pub final_slots: Vec<usize>,
    /// The cluster step's buffers.
    pub step: StepScratch,
    /// This round's training outputs, one per cohort slot.
    pub updates: Vec<Vec<f32>>,
    /// The local-training loop's per-worker models + SGD buffers.
    pub train: TrainWorkspace,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_pool_recycles_capacity_across_borrows() {
        let mut refs = RefPool::default();
        let rows = [vec![1.0f32; 8], vec![2.0f32; 8]];
        let mut v = refs.take();
        v.extend(rows.iter().map(|r| r.as_slice()));
        let cap = v.capacity();
        refs.put(v);
        drop(rows);
        let other = [vec![3.0f32; 8]];
        let mut v2 = refs.take();
        v2.push(other[0].as_slice());
        assert!(v2.capacity() >= cap.max(1));
        assert_eq!(v2.len(), 1);
    }
}
