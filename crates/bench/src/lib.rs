//! # hfl-bench
//!
//! Experiment harness reproducing every table and figure of the ABD-HFL
//! paper's evaluation (see DESIGN.md §3 for the experiment index),
//! behind one binary, `repro`:
//!
//! | Subcommand | Reproduces |
//! |---|---|
//! | `repro table5` | Table V — final test accuracy grid |
//! | `repro fig3` | Figure 3 — convergence curves with confidence bands |
//! | `repro tolerance` | Theorem 2 / Corollary 3 — tolerance bounds vs. empirical |
//! | `repro schemes` | Tables III–IV — the four scheme combinations |
//! | `repro attacks` | Table I — per-attack damage under plain averaging |
//! | `repro defenses` | Table II — per-defense robustness head-to-head |
//! | `repro efficiency` | §III-D / Fig. 2 — pipeline efficiency indicator ν |
//! | `repro robustness_ablation` | Vote policy, quorum φ, churn, partial-BRA and model-attack ablations |
//! | `repro async` | Stragglers, lossy channels, Eq. (1) correction, deadline buffers |
//! | `repro acsm` | Appendix C / Theorem 3 — arbitrary cluster sizes, accuracy vs ψ |
//! | `repro faults` | Fault tolerance — availability/accuracy under crash faults × quorum φ |
//! | `repro adaptive` | Adaptive arms race — static vs adaptive attacks × suspicion layer |
//! | `repro combined` | Arms race and infrastructure faults at once |
//! | `repro gallery` | Attack × composed-defense × distribution accuracy grid |
//! | `repro scale` | Population sweep 10³–10⁶ at a fixed cohort: per-round heap stays flat |
//! | `repro all` | Every experiment above, in this order (`repro list` prints it) |
//! | `repro profile <experiment>` | Each round phase's share of the wall time of the experiment's first cell |
//! | `repro fuzz` | Seeded scenario fuzzer held to the seven `hfl-oracle` invariants |
//! | `repro bisect` | First round at which two runs that should agree stop agreeing |
//!
//! Every experiment is a [`sweep::Repro`] in [`experiments`] and takes
//! `--quick` (reduced rounds/repetitions for smoke runs), `--rounds N`,
//! `--reps N`, `--seed S`, `--filter SUBSTR` (run only the cells whose
//! label contains it) and `--out DIR` (output directory, default
//! `results/`); `scale` also takes `--smoke`.
//!
//! Wall-time and allocation measurement lives outside this crate, in
//! `ledger/` (the repository's benchmark); [`memprobe`] is the counting
//! allocator it and `repro scale` share.

pub mod args;
pub mod bisect;
pub mod ci;
pub mod experiments;
pub mod fuzz;
pub mod memprobe;
pub mod report;
pub mod sweep;

pub use args::Args;
pub use ci::Summary;
