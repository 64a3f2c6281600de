//! # pp-comm — distributed-memory BSP runtime with pluggable backends
//!
//! Substitute for MPI on the Stampede2 supercomputer: logical ranks run as
//! OS threads with private data and communicate only through MPI-style
//! collectives (the [`comm::Collectives`] trait). Two backends implement
//! the surface — the centralized [`comm::Rendezvous`] slot (the oracle) and
//! the [`p2p::P2p`] channel transport running real collective schedules
//! (dissemination barrier, ring all-gather, distance-doubling all-reduce,
//! binomial trees), bitwise identical to the oracle by construction. Every
//! collective charges an α–β–γ–ν cost ledger ([`cost`]) with the §II-E
//! closed forms, the p2p backend additionally measures its actual wire
//! traffic ([`p2p::TransportCounters`]), and closed-form Table I cost
//! formulas ([`model`]) extrapolate measured runs to paper scale
//! (P = 1024). See DESIGN.md §1 and §1i for why this substitution
//! preserves the paper's observable behaviour.
//!
//! # Example
//!
//! ```
//! use pp_comm::{Backend, Collectives, Runtime};
//!
//! // Four logical ranks sum their rank numbers with an All-Reduce.
//! let out = Runtime::new(4).run(|ctx| {
//!     ctx.comm.all_reduce_sum(&[ctx.rank() as f64])[0]
//! });
//! assert_eq!(out.results, vec![6.0; 4]);
//! // Every collective charged the α–β cost ledger.
//! assert!(out.report.critical.messages > 0);
//!
//! // The same program on the channel backend: identical results, plus
//! // measured wire traffic.
//! let out = Runtime::with_backend(4, Backend::P2p).run(|ctx| {
//!     ctx.comm.all_reduce_sum(&[ctx.rank() as f64])[0]
//! });
//! assert_eq!(out.results, vec![6.0; 4]);
//! assert!(out.transport.expect("measured")[0].msgs_sent > 0);
//! ```

mod abort;
pub mod comm;
pub mod cost;
pub mod model;
pub mod p2p;
pub mod runtime;

pub use comm::{Backend, Collectives, CommWorld, Communicator, Rendezvous};
pub use cost::{CostCounters, CostLedger, CostModel, CostReport};
pub use model::{sweep_cost, Method, SweepCost};
pub use p2p::{P2p, TransportCounters};
pub use runtime::{RankCtx, RunOutput, Runtime};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeled_ordering_holds_at_paper_scale() {
        // The paper's largest order-3 point: s_local = 400 on the 8×8×16
        // grid, so s = 400·1024^{1/3} on P = 1024 processes, R = 400.
        let m = CostModel::stampede2_like();
        let s = 400.0 * 1024f64.cbrt();
        let time = |method| sweep_cost(method, 3, s, 400.0, 1024.0).modeled_time(&m);
        let (dt, ms, pp) = (time(Method::Dt), time(Method::Msdt), time(Method::PpApprox));
        assert!(ms < dt && pp < ms, "dt={dt} ms={ms} pp={pp}");
    }
}
