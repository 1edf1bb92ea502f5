//! # hfl-oracle
//!
//! A deterministic scenario fuzzer plus an invariant-oracle layer over
//! the round engine. The paper's claims (Theorems 1–3) are checked at a
//! handful of hand-picked configs in `tests/`; this crate checks them
//! on *generated* configs drawn across the full composable space the
//! engine exposes — topology × aggregator × attack × fault plan ×
//! suspicion × quorum fraction.
//!
//! The moving parts:
//!
//! * [`scenario::ScenarioSpec`] — a flat, serializable description of
//!   one run; [`ScenarioSpec::to_config`](scenario::ScenarioSpec::to_config)
//!   lowers it to an [`abd_hfl_core::config::HflConfig`].
//! * [`scenario::ScenarioGen`] — a seeded generator drawing valid
//!   specs. Same generator seed ⇒ same scenario stream, so any fuzz
//!   failure is replayable from two integers (`--seed`, iteration).
//! * [`harness`] — [`harness::check_cached`], the one check: runs a
//!   spec through the real entry point
//!   ([`abd_hfl_core::runner::run_prepared_with`], twice, plus a
//!   same-seed clean twin when the Byzantine-bound oracle applies),
//!   collects [`harness::Observations`] and judges them.
//! * [`oracles`] — the seven invariants checked on every run; see
//!   [`oracles::check_all`].
//! * [`harness::Mutation`] — deliberate observation-level corruptions
//!   (e.g. a quorum undershoot) used to prove the oracles *can* fail;
//!   `repro fuzz --mutation quorum` is CI's self-check of the harness.
//! * [`shrink`] — greedy minimization of a failing spec; the result is
//!   persisted as a TOML case under `tests/corpus/` and replayed by
//!   `tests/oracle_corpus.rs`.
//! * [`toml`] — the hand-rolled TOML subset those corpus cases use
//!   (the workspace deliberately has no serialization dependencies).
//!
//! See `DESIGN.md` §10 for the workflow and the invariant catalogue.

#![warn(missing_docs)]

pub mod harness;
pub mod oracles;
pub mod scenario;
pub mod shrink;
pub mod toml;

pub use harness::{check_cached, Mutation, Observations, SnapshotCache};
pub use oracles::{check_all, Violation};
pub use scenario::{ScenarioGen, ScenarioSpec};
