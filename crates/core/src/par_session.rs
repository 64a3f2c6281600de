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
//! A [`ParSession`] is the SPMD analogue of [`crate::session::AlsSession`]:
//! every rank owns one session wrapping its [`ParState`] (local tensor
//! block, dimension-tree engine + cache, distributed factors, replicated
//! Grams) plus the sweep trace and — for [`ParKind::Pp`] — the PP regime,
//! the one crate-private type the sequential session runs too. Its one
//! per-session hook, measuring drift, is an All-Reduce here; as there, no
//! ε lets PP start before an exact sweep has measured drift.
//! [`ParSession::step`] advances exactly one sweep **in
//! lockstep**: all ranks of a grid must step their sessions together,
//! because a sweep issues the same sequence of collectives on every rank.
//! The step boundary is a full BSP superstep, so pausing between steps is
//! always safe. `tests/golden_traces.rs` pins the PP traces bitwise.

use crate::config::AlsConfig;
use crate::par_common::ParState;
use crate::result::{AlsOutput, AlsReport, SweepKind};
use crate::session::{PpRegime, Progress, Step};
use pp_comm::{Collectives, RankCtx};
use pp_dtree::correct::{drifted, first_order_correction, second_order_correction};
use pp_dtree::pp_tree::build_pp_operators;
use pp_dtree::Kernel;
use pp_grid::{DistTensor, ProcGrid};
use pp_tensor::matrix::hadamard_chain_skip;
use pp_tensor::Matrix;
use std::time::Instant;

/// Which parallel algorithm the session runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParKind {
    /// Parallel exact CP-ALS (Algorithm 3).
    Exact,
    /// Communication-efficient parallel PP (Algorithm 4 inside Alg. 2).
    Pp,
}

/// `dS^(i) = A^(i)ᵀ dA^(i)` from Q blocks against the reference Q blocks
/// `q_p`, All-Reduced to global (Eq. 8).
fn d_grams_global(ctx: &mut RankCtx, st: &ParState, q_p: &[Matrix]) -> Vec<Matrix> {
    (0..st.n_modes())
        .map(|i| {
            let dq = st.dist_factors[i].q().sub(&q_p[i]);
            let local = st.dist_factors[i].q().t_matmul(&dq);
            let summed = ctx.comm.all_reduce_sum(local.data());
            Matrix::from_vec(local.rows(), local.cols(), summed)
        })
        .collect()
}

/// Relative factor drift `‖dA^(i)‖F / ‖A^(i)‖F` for every mode.
fn drift(ctx: &mut RankCtx, st: &ParState, q_p: &[Matrix]) -> Vec<f64> {
    (0..st.n_modes())
        .map(|i| {
            let dq = st.dist_factors[i].q().sub(&q_p[i]);
            let num_den = ctx
                .comm
                .all_reduce_sum(&[dq.norm_sq(), st.dist_factors[i].q().norm_sq()]);
            (num_den[0].sqrt()) / num_den[1].sqrt().max(1e-300)
        })
        .collect()
}

/// A resumable parallel CP-ALS / PP-CP-ALS run on one rank.
pub struct ParSession {
    cfg: AlsConfig,
    kind: ParKind,
    /// All rank-local numerical state (public so diagnostics can inspect
    /// it, like `ParState` itself).
    pub st: ParState,
    /// A PP session's regime. Its reference is this rank's P blocks, for
    /// the local first-order corrections, then its Q blocks, for the drift
    /// and the `dS` matrices.
    pp: Option<PpRegime>,
    progress: Progress,
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
        if kind == ParKind::Pp {
            assert!(
                local.global_shape().order() >= 3,
                "pairwise perturbation needs order ≥ 3"
            );
        }
        let _threads = cfg.thread_guard();
        ParSession {
            cfg: cfg.clone(),
            kind,
            st: ParState::init(ctx, grid, local, cfg),
            pp: (kind == ParKind::Pp).then(PpRegime::default),
            progress: Progress::new(),
        }
    }

    /// The session's algorithm.
    pub fn kind(&self) -> ParKind {
        self.kind
    }

    /// Sweeps performed so far.
    pub fn sweeps_done(&self) -> usize {
        self.progress.sweeps_done()
    }

    /// Whether stepping has stopped.
    pub fn is_finished(&self) -> bool {
        self.progress.is_finished(self.cfg.max_sweeps)
    }

    /// The trace accumulated so far.
    pub fn report(&self) -> &AlsReport {
        self.progress.report()
    }

    /// Advance exactly one sweep. Collective-lockstep: every rank of the
    /// grid must call this the same number of times.
    pub fn step(&mut self, ctx: &mut RankCtx) -> Step {
        if let Some(reason) = self.progress.stop(self.cfg.max_sweeps) {
            return Step::Done(reason);
        }
        let _threads = self.cfg.thread_guard();

        let kind = self.pp.as_ref().map_or(SweepKind::Exact, PpRegime::next);
        let q_before = (self.pp.is_some() && kind == SweepKind::Exact).then(|| self.q_blocks());
        let (secs, fitness) = match kind {
            SweepKind::PpApprox => self.pp_approx_sweep(ctx),
            SweepKind::PpInit => self.pp_init(ctx),
            SweepKind::Exact => self.exact_sweep(ctx),
        };
        self.st.engine.end_sweep();
        let rec = self.progress.push(kind, secs, fitness, self.cfg.tol);
        // The drift of an exact sweep is against the Q blocks it started
        // from, of an approximated one against the reference. `drift`
        // issues collectives, and the regime measures only under conditions
        // every rank shares (the sweep kind and the replicated fitness).
        if let Some(pp) = &mut self.pp {
            let (st, eps, n_modes) = (&self.st, self.cfg.pp_tol, self.st.n_modes());
            pp.after(kind, self.progress.converged(), |pp| {
                let q_p = q_before
                    .as_deref()
                    .unwrap_or_else(|| &pp.reference[n_modes..]);
                drift(ctx, st, q_p).iter().all(|&d| d < eps)
            });
        }
        Step::Swept(rec)
    }

    /// This rank's Q blocks.
    fn q_blocks(&self) -> Vec<Matrix> {
        self.st.dist_factors.iter().map(|f| f.q().clone()).collect()
    }

    /// Run to completion and produce the output.
    pub fn run(mut self, ctx: &mut RankCtx) -> AlsOutput {
        while let Step::Swept(_) = self.step(ctx) {}
        self.finish(ctx)
    }

    /// Gather the global factors (replicated on every rank) and seal the
    /// report; sweep times are this rank's wall clock, fitness values are
    /// identical across ranks.
    pub fn finish(mut self, ctx: &mut RankCtx) -> AlsOutput {
        let _threads = self.cfg.thread_guard();
        let factors = self.st.gather_factors(ctx);
        AlsOutput {
            factors,
            report: self.progress.seal(self.st.engine.take_stats()),
        }
    }

    /// One exact sweep (Alg. 3 lines 10-19). Returns the sweep's seconds
    /// and fitness.
    fn exact_sweep(&mut self, ctx: &mut RankCtx) -> (f64, f64) {
        let n_modes = self.st.n_modes();
        let t0 = Instant::now();
        let mut last: Option<(Matrix, Matrix)> = None;
        for n in 0..n_modes {
            let out = self.st.update_mode_exact(ctx, &self.cfg, n);
            if n == n_modes - 1 {
                last = Some(out);
            }
        }
        let (gamma_last, m_q_last) = last.unwrap();
        let fitness = self.st.fitness(ctx, &gamma_last, &m_q_last);
        (t0.elapsed().as_secs_f64(), fitness)
    }

    /// PP initialization (Alg. 4 line 2): local operator construction,
    /// then a barrier so the regime switch is a superstep boundary. It
    /// carries the previous sweep's fitness.
    fn pp_init(&mut self, ctx: &mut RankCtx) -> (f64, f64) {
        let t0 = Instant::now();
        let p_blocks = self.st.dist_factors.iter().map(|f| f.p().clone());
        let reference = p_blocks.chain(self.q_blocks()).collect();
        let st = &mut self.st;
        let pp = self.pp.as_mut().expect("PP-init under PP");
        pp.enter(reference, || {
            build_pp_operators(&mut st.input, &st.fs_local, &mut st.engine)
        });
        ctx.comm.barrier();
        (t0.elapsed().as_secs_f64(), self.progress.last_fitness())
    }

    /// One PP approximated sweep (Alg. 4 lines 3-17): local first-order
    /// corrections, Reduce-Scatter, global second-order correction.
    fn pp_approx_sweep(&mut self, ctx: &mut RankCtx) -> (f64, f64) {
        let n_modes = self.st.n_modes();
        let pp = self.pp.as_ref().expect("approximated sweep under PP");
        let ops = pp.ops.as_ref().expect("PP regime requires operators");
        let (p_p, q_p) = pp.reference.split_at(n_modes);
        let sweep_t0 = Instant::now();
        let mut last: Option<(Matrix, Matrix)> = None;
        for n in 0..n_modes {
            let h0 = Instant::now();
            let gamma = hadamard_chain_skip(&self.st.grams, n);
            self.st
                .engine
                .stats
                .record(Kernel::Hadamard, h0.elapsed(), 0);

            // Local first-order corrections (line 6) + anchor, each against
            // a drift that is not exactly zero.
            let mut m_local = ops.firsts[n].clone();
            for i in (0..n_modes).filter(|&i| i != n) {
                let c0 = Instant::now();
                let d_p = self.st.dist_factors[i].p().sub(&p_p[i]);
                if !drifted(&d_p) {
                    continue;
                }
                let u = first_order_correction(ops, n, i, &d_p);
                m_local.axpy(1.0, &u);
                let flops = 2 * ops.pair(n, i).tensor.len() as u64;
                self.st
                    .engine
                    .stats
                    .record(Kernel::Mttv, c0.elapsed(), flops);
            }

            // Reduce-Scatter the corrected MTTKRP (line 9).
            let r0 = Instant::now();
            let mut m_q = self.st.dist_factors[n].reduce_scatter_rows(&m_local, &self.st.slices[n]);
            self.st.engine.stats.record(Kernel::Other, r0.elapsed(), 0);

            // Second-order correction (lines 10-11) on Q rows.
            let v0 = Instant::now();
            let d_grams = d_grams_global(ctx, &self.st, q_p);
            let v_q =
                second_order_correction(self.st.dist_factors[n].q(), &self.st.grams, &d_grams, n);
            m_q.axpy(1.0, &v_q);
            self.st
                .engine
                .stats
                .record(Kernel::Hadamard, v0.elapsed(), 0);

            let q_new = self.st.solve(ctx, &self.cfg, &gamma, &m_q);
            self.st.commit_update(ctx, n, q_new);
            if n == n_modes - 1 {
                last = Some((gamma, m_q));
            }
        }
        let (gamma_last, m_q_last) = last.unwrap();
        let fitness = self.st.fitness(ctx, &gamma_last, &m_q_last);
        let secs = sweep_t0.elapsed().as_secs_f64();
        (secs, fitness)
    }
}
