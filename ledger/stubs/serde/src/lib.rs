//! Offline stand-in for `serde`: the two trait names (never implemented,
//! never used as bounds in this repository) and the no-op derives.

pub use serde_derive::{Deserialize, Serialize};

/// Marker with the real trait's name; nothing in the repository bounds on it.
pub trait Serialize {}

/// Marker with the real trait's name; nothing in the repository bounds on it.
pub trait Deserialize<'de> {}
