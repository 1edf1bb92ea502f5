//! # hfl-simnet
//!
//! A discrete-event simulator for partial-synchronous message-passing
//! systems, plus the hierarchical topology builders of ABD-HFL.
//!
//! The paper's Assumption 1 — "message delivery time is arbitrary, finite
//! but unbounded" — is modelled by pluggable per-link [`delay`] models
//! (including heavy-tailed and straggler mixtures). The engine is fully
//! deterministic given a seed: events at equal timestamps are delivered in
//! schedule order.
//!
//! Three layers:
//! * [`delay`] and [`time`] — the delay models and integer sim-time the
//!   round engine's clock draws and counts in (the pipeline quantities
//!   τℓ, τ′ℓ, σw, σp, σg, ν of paper §III-D are measured there).
//! * [`engine`] — generic actors, timers, messages, byte/message
//!   accounting and a [`trace`] timeline.
//! * [`topology`] — ECSM (equal-cluster-size, complete m-ary trees from
//!   Nt roots) and ACSM (arbitrary cluster sizes) hierarchy builders, the
//!   structures the tolerance theory of §IV-B quantifies over.
//!
//! # Example
//!
//! ```
//! use hfl_simnet::Hierarchy;
//!
//! // The paper's evaluation topology: 3 levels, clusters of 4, 4 roots.
//! let h = Hierarchy::ecsm(3, 4, 4);
//! assert_eq!(h.num_clients(), 64);
//! assert_eq!(h.level(0).num_nodes(), 4);        // the top committee
//! assert_eq!(h.descendants(1, 0).len(), 16);    // one subtree's clients
//! ```

pub mod delay;
pub mod engine;
pub mod time;
pub mod topology;
pub mod trace;
pub mod wire;

pub use delay::DelayModel;
pub use engine::{Actor, Ctx, NodeId, Simulation};
pub use time::SimTime;
pub use topology::{Cluster, Hierarchy, Level};
pub use trace::{Trace, TraceEvent};
