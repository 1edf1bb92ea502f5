//! Round-scoped buffer arena: every model-vector and index buffer the
//! canonical round needs, owned once by the engine and recycled across
//! rounds so a BRA round — synchronous or deadline-buffered — performs
//! **zero heap allocation in steady state** (the invariant
//! `crates/bench/tests/alloc_regression.rs` pins with the counting
//! allocator).
//!
//! Four pieces:
//!
//! * [`RefPool`] (`hfl_tensor::ops::RefPool`, shared with the pair
//!   fill's row groups) — recycles the *capacity* of `Vec<&[f32]>`
//!   input-ref vectors across rounds. The borrow lifetime changes every
//!   round, so an emptied vector is re-collected into one of the new
//!   lifetime.
//! * [`StepScratch`] — what one cluster step (`super::step`) works in:
//!   the kept slots with their weights and lateness, the deadline
//!   buffer's arrival tables, the aggregation inputs and the shared
//!   [`AggScratch`].
//! * [`Partials`] — one buffer per cluster leader plus a spare: the
//!   only model rows the level loop writes. Every other row is read
//!   where it is (`Carried`).
//! * [`RoundWorkspace`] — the engine's per-round state: the partials,
//!   churn and cohort bindings, member-index scratch, the step scratch,
//!   and the training-loop workspace.

use hfl_robust::AggScratch;
use hfl_tensor::ops::RefPool;

use crate::runner::TrainWorkspace;

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
    /// The partial aggregates the slots that led a cluster carry upward.
    pub partials: Partials,
    /// `ready_at[slot]`: when the model the slot carries is ready to
    /// send, absolute µs on the round clock — all zero under the
    /// lockstep schedule.
    pub ready_at: Vec<u64>,
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

/// The partial aggregates of one round: `rows[slot]` holds the partial
/// of the last cluster `slot` led this round, once `led[slot]`. A
/// cluster's partial is computed into the spare and swapped into its
/// leader's buffer (`land`), so the leader's previous row —
/// an input of that very cluster — is never written while it is read,
/// and a round copies no row it only reads. Buffers of slots that never
/// lead stay empty.
#[derive(Default)]
pub struct Partials {
    rows: Vec<Vec<f32>>,
    led: Vec<bool>,
    spare: Vec<f32>,
}

impl Partials {
    /// Opens a round over `slots` slots: nobody has led yet.
    pub(super) fn open(&mut self, slots: usize) {
        self.rows.resize_with(slots, Vec::new);
        self.led.clear();
        self.led.resize(slots, false);
    }

    /// The buffer the next partial is computed into.
    pub(super) fn take_spare(&mut self) -> Vec<f32> {
        std::mem::take(&mut self.spare)
    }

    /// Makes `partial` what `leader` carries upward from here on; the
    /// row it replaces becomes the spare.
    pub(super) fn land(&mut self, leader: usize, partial: Vec<f32>) {
        self.spare = std::mem::replace(&mut self.rows[leader], partial);
        self.led[leader] = true;
    }

    /// What every slot carries upward, read in place over `updates`.
    pub(super) fn over<'a>(&'a self, updates: &'a [Vec<f32>]) -> Carried<'a> {
        Carried {
            updates,
            partials: self,
        }
    }
}

/// The one accessor for the model a slot carries upward: the partial of
/// the last cluster it led this round, its update if it has led none.
#[derive(Clone, Copy)]
pub(super) struct Carried<'a> {
    updates: &'a [Vec<f32>],
    partials: &'a Partials,
}

impl<'a> Carried<'a> {
    /// Slot `slot`'s row.
    pub(super) fn row(self, slot: usize) -> &'a [f32] {
        if self.partials.led[slot] {
            &self.partials.rows[slot]
        } else {
            &self.updates[slot]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slot_carries_its_update_until_it_leads() {
        let updates = vec![vec![1.0f32; 4], vec![2.0; 4], vec![3.0; 4]];
        let mut partials = Partials::default();
        for round in 0..3 {
            partials.open(updates.len());
            assert_eq!(partials.over(&updates).row(1), &updates[1][..]);
            let mut partial = partials.take_spare();
            partial.clear();
            partial.extend_from_slice(&[round as f32; 4]);
            partials.land(1, partial);
            assert_eq!(partials.over(&updates).row(1), &[round as f32; 4]);
            assert_eq!(partials.over(&updates).row(0), &updates[0][..]);
            assert!(partials.rows[0].is_empty() && partials.rows[2].is_empty());
        }
    }
}
