//! Resumable per-rank sessions for the parallel algorithms: parallel
//! CP-ALS (Algorithm 3) and communication-efficient parallel pairwise
//! perturbation (Algorithm 4).
//!
//! The input tensor is block-distributed over an order-`N` processor grid;
//! each rank runs a *local* dimension tree over its tensor block and
//! slice-replicated factor blocks, so the only communication per exact
//! factor update is one Reduce-Scatter (MTTKRP rows), one All-Reduce (Gram
//! matrix), and one All-Gather (P-block refresh). The dimension-tree
//! policy (DT vs MSDT) plugs straight into the local computation — MSDT
//! changes no communication (§IV). Under PP, both the initialization and
//! the first-order corrections run locally; the pair operators are never
//! communicated. The PLANC baseline (Eswar et al.) is
//! [`ParKind::Exact`] over the standard tree with
//! [`crate::SolveStrategy::Replicated`].
//!
//! A [`ParSession`] runs the same sweep as [`crate::session::AlsSession`]:
//! every rank owns the session of its tensor block (local dimension-tree
//! engine and cache, P blocks, replicated Grams, the trace and — for
//! [`ParKind::Pp`] — the PP regime) and steps it against its
//! [`ParState`], the grid context whose collectives are Algorithms 3 and 4.
//! The block session's factors are the rank's one copy of its P blocks
//! ([`ParSession::factors`]); the grid context holds only their geometry
//! and cuts the Q rows from them where a solve, a Gram or the final
//! gather needs them.
//! Measuring drift is an All-Reduce here; as in the sequential session, no
//! ε lets PP start before an exact sweep has measured drift.
//! [`ParSession::step`] advances exactly one sweep **in
//! lockstep**: all ranks of a grid must step their sessions together,
//! because a sweep issues the same sequence of collectives on every rank.
//! The step boundary is a full BSP superstep, so pausing between steps is
//! always safe. `tests/golden_traces.rs` pins the PP traces bitwise, and a
//! one-rank `ParSession` is the sequential session bit for bit.

use crate::config::AlsConfig;
use crate::par_common::{OnGrid, ParState};
use crate::result::AlsOutput;
use crate::session::{AlsSession, SessionKind, Step};
use pp_comm::RankCtx;
use pp_dtree::pp_tree::{build_pp_operators, PpOperators};
use pp_dtree::InputTensor;
use pp_grid::{DistTensor, ProcGrid};
use pp_tensor::Matrix;

/// Which parallel algorithm the session runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParKind {
    /// Parallel exact CP-ALS (Algorithm 3).
    Exact,
    /// Communication-efficient parallel PP (Algorithm 4 inside Alg. 2).
    Pp,
}

/// A resumable parallel CP-ALS / PP-CP-ALS run on one rank.
pub struct ParSession {
    /// This rank's place on the grid (public so diagnostics can inspect
    /// it, like `ParState` itself).
    pub st: ParState,
    /// The session of this rank's tensor block.
    block: AlsSession,
}

impl ParSession {
    /// Initialize the SPMD state (Alg. 3 lines 1-9). All ranks must call
    /// with the same `grid` and `cfg`, and their own block of one tensor.
    pub fn new(
        ctx: &mut RankCtx,
        grid: &ProcGrid,
        local: &DistTensor,
        cfg: &AlsConfig,
        kind: ParKind,
    ) -> Self {
        let kind = match kind {
            ParKind::Exact => SessionKind::Exact,
            ParKind::Pp => SessionKind::Pp,
        };
        let _threads = cfg.thread_guard();
        let (mut st, p_blocks) = ParState::init(ctx, grid, local, cfg);
        let input = InputTensor::new(local.local().clone());
        let norm_sq = local.local().norm_sq();
        let grid = &mut OnGrid { ctx, st: &mut st };
        let block = AlsSession::from_input(input, norm_sq, cfg, kind, p_blocks, grid);
        ParSession { st, block }
    }

    /// This rank's P blocks of the current factors, one per mode.
    pub fn factors(&self) -> &[Matrix] {
        self.block.factors()
    }

    /// Advance exactly one sweep. Collective-lockstep: every rank of the
    /// grid must call this the same number of times.
    pub fn step(&mut self, ctx: &mut RankCtx) -> Step {
        let st = &mut self.st;
        self.block.step_on(&mut OnGrid { ctx, st })
    }

    /// Run to completion and produce the output.
    pub fn run(mut self, ctx: &mut RankCtx) -> AlsOutput {
        while let Step::Swept(_) = self.step(ctx) {}
        self.finish(ctx)
    }

    /// Gather the global factors (replicated on every rank) and seal the
    /// report; sweep times are this rank's wall clock, fitness values are
    /// identical across ranks.
    pub fn finish(self, ctx: &mut RankCtx) -> AlsOutput {
        let _threads = self.block.config().thread_guard();
        let st = &self.st;
        let factors = (st.dist_factors.iter().zip(self.factors()).enumerate())
            .map(|(n, (f, p))| f.gather_global(p, &ctx.comm, &st.grid, n))
            .collect();
        AlsOutput {
            factors,
            report: self.block.finish().report,
        }
    }

    /// Algorithm 4's PP initialization on this rank: the pair operators of
    /// its tensor block and P blocks, built without communication.
    /// [`crate::ref_pp::ref_pp_init`] is the Cyclops-style counterpart.
    pub fn build_pp_operators(&mut self) -> PpOperators {
        let b = &mut self.block;
        build_pp_operators(&mut b.input, &b.fs, &mut b.engine)
    }
}
