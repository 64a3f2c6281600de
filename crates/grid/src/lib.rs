//! # pp-grid — processor grids and distributed data layouts
//!
//! The data-distribution layer of Algorithm 3 of the paper: an order-`N`
//! logical processor grid ([`ProcGrid`]), padded block distributions
//! ([`BlockDist`]), per-rank tensor blocks ([`DistTensor`]), and a rank's
//! place in the dual Q (rows over all ranks) / P (slice-replicated)
//! layouts of a factor matrix ([`DistFactor`]): the caller keeps the P
//! block, and `DistFactor` cuts its Q rows and runs the All-Gather /
//! Reduce-Scatter transitions.

pub mod dist;
pub mod dist_factor;
pub mod dist_tensor;
pub mod grid;

pub use dist::BlockDist;
pub use dist_factor::{DistFactor, FactorLayout};
pub use dist_tensor::DistTensor;
pub use grid::ProcGrid;
