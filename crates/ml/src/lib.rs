//! # hfl-ml
//!
//! The machine-learning substrate of the ABD-HFL reproduction: datasets,
//! client partitioners, models with flat parameter vectors, SGD, and
//! evaluation metrics.
//!
//! ## Substitution note (see DESIGN.md §1)
//!
//! The paper evaluates on MNIST with a small DNN. Neither MNIST nor a deep
//! learning framework is available offline, and neither is needed to
//! reproduce the *shape* of the results: the evaluation compares the
//! robustness of aggregation topologies under label poisoning, which only
//! requires a 10-class task where (a) honest SGD converges to a stable
//! accuracy plateau and (b) poisoned updates pull the model toward ~10 %
//! (random-guess) accuracy. [`synth::SyntheticDigits`] provides exactly
//! that: Gaussian class clusters with the same sample counts as MNIST
//! (60 000 train / 10 000 test, ≈937 train samples per client at 64
//! clients).
//!
//! ## Flat parameters
//!
//! Every model implements [`model::Model`], which exposes its parameters
//! as one contiguous `&[f32]`. Federated aggregation, Byzantine attacks
//! and consensus all operate on these flat vectors — the same abstraction
//! level as the paper's algorithms.

pub mod dataset;
pub mod linear;
pub mod loss;
pub mod metrics;
pub mod mlp;
pub mod model;
pub mod partition;
pub mod population;
pub mod rng;
pub mod sgd;
pub mod synth;

pub use dataset::{Dataset, Labelled};
pub use linear::LinearSoftmax;
pub use mlp::Mlp;
pub use model::Model;
pub use population::{ClientPopulation, ShardPlan};
pub use sgd::SgdConfig;
