//! # hfl-ledger
//!
//! The repository's benchmark. It measures every layer **from outside**,
//! by timing calls into public functions: six workloads, five end-to-end
//! metrics from untraced reps, and a traced pass that attributes a
//! round's wall time to the layers. See `README.md` for the glossary.

pub mod alloc;
pub mod compare;
pub mod e2e;
pub mod kernels;
pub mod layers;
pub mod report;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;
