//! # parallel-pp
//!
//! A from-scratch Rust reproduction of *"Efficient parallel CP decomposition
//! with pairwise perturbation and multi-sweep dimension tree"* (Linjian Ma
//! and Edgar Solomonik, IPDPS 2021, arXiv:2010.12056).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`tensor`] — dense tensor substrate (GEMM, TTM, batched TTV,
//!   Khatri-Rao, transposes, SPD solves);
//! * [`comm`] — distributed-memory BSP runtime with MPI-style collectives
//!   behind a pluggable [`comm::Collectives`] backend (rendezvous oracle or
//!   point-to-point channel transport) and an α–β–γ–ν cost model;
//! * [`grid`] — processor grids, padded block distributions, distributed
//!   tensors and factor matrices;
//! * [`dtree`] — dimension-tree engines: the standard dimension tree (DT),
//!   the multi-sweep dimension tree (MSDT), and the pairwise-perturbation
//!   (PP) operator trees and corrections;
//! * [`core`] — sequential and parallel CP-ALS / PP-CP-ALS as resumable
//!   sessions (`AlsSession`, `ParSession`), plus the Cyclops-style
//!   reference PP baseline;
//! * [`datagen`] — the paper's workloads: collinearity tensors, a
//!   quantum-chemistry density-fitting surrogate, COIL-like and
//!   time-lapse-like image tensors;
//! * [`serve`] — the multi-tenant batch scheduler: many concurrent
//!   decompositions as resumable sessions, interleaved sweep-by-sweep over
//!   the shared kernel pool (`ppcp batch`).
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system inventory,
//! and `EXPERIMENTS.md` for the paper-vs-measured record.

pub use pp_comm as comm;
pub use pp_core as core;
pub use pp_datagen as datagen;
pub use pp_dtree as dtree;
pub use pp_grid as grid;
pub use pp_serve as serve;
pub use pp_tensor as tensor;

/// Convenient glob import for examples and downstream users.
pub mod prelude {
    pub use pp_comm::{Backend, Collectives, CommWorld, CostModel, Runtime};
    pub use pp_core::{
        AlsConfig, AlsSession, ParKind, ParSession, SessionKind, SolveStrategy, Step, SweepKind,
    };
    pub use pp_dtree::TreePolicy;
    pub use pp_grid::{DistTensor, ProcGrid};
    pub use pp_tensor::prelude::*;
}
