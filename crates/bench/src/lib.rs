//! # hfl-bench
//!
//! Experiment harness reproducing every table and figure of the ABD-HFL
//! paper's evaluation (see DESIGN.md §3 for the experiment index):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `repro_table5` | Table V — final test accuracy grid |
//! | `repro_fig3` | Figure 3 — convergence curves with confidence bands |
//! | `repro_tolerance` | Theorem 2 / Corollary 3 — tolerance bounds vs. empirical |
//! | `repro_schemes` | Tables III–IV — the four scheme combinations |
//! | `repro_efficiency` | §III-D / Fig. 2 — pipeline efficiency indicator ν |
//! | `repro_attacks` | Table I — per-attack damage under plain averaging |
//! | `repro_defenses` | Table II — per-defense robustness head-to-head |
//! | `repro_faults` | Fault tolerance — availability/accuracy under crash faults × quorum φ |
//! | `repro_acsm` | Appendix C / Theorem 3 — arbitrary cluster sizes, accuracy vs ψ |
//! | `repro_robustness_ablation` | Vote policy, quorum φ, churn, partial-BRA and model-attack ablations |
//! | `repro_async` | Stragglers, lossy channels, Eq. (1) correction, deadline buffers |
//! | `repro_adaptive` | Adaptive arms race — static vs adaptive attacks × suspicion layer |
//! | `repro_combined` | Arms race and infrastructure faults at once |
//! | `repro_gallery` | Attack × composed-defense × distribution accuracy grid |
//! | `repro_scale` | Population sweep 10³–10⁶ at a fixed cohort: per-round heap stays flat |
//! | `fuzz_oracle` | Seeded scenario fuzzer held to the seven `hfl-oracle` invariants |
//! | `snapshot_resume` | CI gate: capture + resume ≡ straight-through, byte-identical |
//! | `bisect_divergence` | First round at which two runs that should agree stop agreeing |
//!
//! Wall-time and allocation measurement lives outside this crate, in
//! `ledger/` (the repository's benchmark); [`memprobe`] is the counting
//! allocator it and `repro_scale` share.
//!
//! All binaries accept `--quick` (reduced rounds/repetitions for smoke
//! runs), `--rounds N`, `--reps N`, and `--out DIR` (CSV output
//! directory, default `results/`).

pub mod args;
pub mod ci;
pub mod memprobe;
pub mod report;

pub use args::Args;
pub use ci::Summary;
