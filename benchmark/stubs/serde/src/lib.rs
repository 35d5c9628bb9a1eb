//! Offline stand-in for `serde`.  The workspace's library crates only
//! *derive* `Serialize`/`Deserialize` (nothing the benchmark links ever
//! serialises through them), so marker traits and derives that expand to
//! nothing are enough to build.

/// Marker for `#[derive(Serialize)]`; never implemented by the no-op derive.
pub trait Serialize {}

/// Marker for `#[derive(Deserialize)]`; never implemented by the no-op derive.
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
