//! # pp-core — CP-ALS and PP-CP-ALS as resumable sessions
//!
//! The paper's primary contribution, as a library. Every decomposition is
//! a session stepped one sweep at a time and run to the end by one loop:
//!
//! * [`session`] — [`AlsSession`]: sequential CP-ALS (Alg. 1) over the
//!   standard or multi-sweep dimension tree ([`SessionKind::Exact`]),
//!   pairwise-perturbation CP-ALS (Alg. 2, [`SessionKind::Pp`]) and
//!   nonnegative CP ([`SessionKind::NonNeg`]), on dense or sparse input.
//!   `step()` advances one sweep, `run()` steps to the end, `finish()`
//!   seals the report. Sessions are the scheduling unit of the `pp-serve`
//!   batch driver;
//! * [`par_session`] — [`ParSession`]: parallel CP-ALS (Alg. 3,
//!   [`ParKind::Exact`]; with the standard tree and
//!   [`SolveStrategy::Replicated`] it is the PLANC baseline) and the
//!   communication-efficient parallel PP algorithm (Alg. 4,
//!   [`ParKind::Pp`]), one session per rank stepped in lockstep. Each
//!   runs the sequential session's sweep on its tensor block, against
//!   [`par_common`]'s grid context instead of one rank's;
//! * [`ref_pp`] — the Cyclops-style reference PP parallelization the paper
//!   compares against in Table II (per-contraction tensor redistribution,
//!   fully replicated correction collectives);
//! * [`stream`] — streaming/online CP for tensors that grow along one
//!   mode: warm-started factor rows, incremental dimension-tree cache
//!   extension, per-arrival sweep windows;
//! * [`checkpoint`] — the `PPCK` codec sessions are saved and resumed in;
//! * [`fitness`] — the amortized residual formula (Eq. 3);
//! * [`nonneg`] — the HALS column update of nonnegative CP;
//! * [`init`] — the seeded uniform factor initialization;
//! * [`config`] / [`result`] — run configuration and reports.
//!
//! # Example
//!
//! ```
//! use pp_core::{AlsConfig, AlsSession, SessionKind};
//! use pp_datagen::lowrank::noisy_rank;
//! use pp_dtree::TreePolicy;
//!
//! // A 20×20×20 tensor of CP rank 4 plus 5% noise.
//! let t = noisy_rank(&[20, 20, 20], 4, 0.05, 7);
//!
//! // Exact CP-ALS through the multi-sweep dimension tree.
//! let cfg = AlsConfig::new(4)
//!     .with_policy(TreePolicy::MultiSweep)
//!     .with_max_sweeps(50);
//! let exact = AlsSession::new(&t, &cfg, SessionKind::Exact).run();
//!
//! // Pairwise-perturbation CP-ALS reaches the same fitness.
//! let pp = AlsSession::new(&t, &cfg.with_pp_tol(0.3), SessionKind::Pp).run();
//! assert!(exact.report.final_fitness > 0.9);
//! assert!((exact.report.final_fitness - pp.report.final_fitness).abs() < 0.05);
//! ```

pub mod checkpoint;
pub mod config;
pub mod fitness;
pub mod init;
pub mod nonneg;
pub mod par_common;
pub mod par_session;
pub mod ref_pp;
pub mod result;
pub mod session;
pub mod stream;

// End-to-end tests of the paper's algorithms, one module per algorithm,
// each run through the sessions above.
#[cfg(test)]
#[path = "tests/als.rs"]
mod als;
#[cfg(test)]
#[path = "tests/par_als.rs"]
mod par_als;
#[cfg(test)]
#[path = "tests/par_pp.rs"]
mod par_pp;
#[cfg(test)]
#[path = "tests/planc.rs"]
mod planc;
#[cfg(test)]
#[path = "tests/pp_als.rs"]
mod pp_als;

pub use config::{AlsConfig, SolveStrategy};
pub use init::init_factors;
pub use par_session::{ParKind, ParSession};
pub use result::{AlsOutput, AlsReport, SweepKind, SweepRecord};
pub use session::{AlsSession, SessionKind, Step, StopReason};
pub use stream::StreamingSession;
