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
//! Grams) plus the sweep trace and — for [`ParKind::Pp`] — the PP regime
//! snapshot. [`ParSession::step`] advances exactly one sweep **in
//! lockstep**: all ranks of a grid must step their sessions together,
//! because a sweep issues the same sequence of collectives on every rank.
//! The step boundary is a full BSP superstep, so pausing between steps is
//! always safe. `tests/golden_traces.rs` pins the PP traces bitwise.

use crate::config::AlsConfig;
use crate::par_common::ParState;
use crate::result::{AlsOutput, AlsReport, SweepKind};
use crate::session::{Progress, Step};
use pp_comm::{Collectives, RankCtx};
use pp_dtree::pp_tree::{build_pp_operators, PpOperators};
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

/// Snapshot of the factors at PP initialization (the `A_p` reference).
struct PpSnapshot {
    /// Reference P blocks (for local first-order corrections).
    p_p: Vec<Matrix>,
    /// Reference Q blocks (for dA bookkeeping and norms).
    q_p: Vec<Matrix>,
    /// The local PP operators.
    ops: PpOperators,
}

/// `dS^(i) = A^(i)ᵀ dA^(i)` from Q blocks, All-Reduced to global (Eq. 8).
fn d_grams_global(ctx: &mut RankCtx, st: &ParState, snap: &PpSnapshot) -> Vec<Matrix> {
    (0..st.n_modes())
        .map(|i| {
            let dq = st.dist_factors[i].q().sub(&snap.q_p[i]);
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
    /// Relative drift of the most recent sweep (Alg. 2 line 2 initializes
    /// dA ← A, i.e. drift 1, so PP never fires before the first sweep).
    last_drift: Vec<f64>,
    snap: Option<PpSnapshot>,
    /// Whether the next step is a PP approximated sweep.
    in_pp: bool,
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
        let st = ParState::init(ctx, grid, local, cfg);
        let n_modes = st.n_modes();
        ParSession {
            cfg: cfg.clone(),
            kind,
            st,
            last_drift: vec![1.0; n_modes],
            snap: None,
            in_pp: false,
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

        let (kind, (secs, fitness)) = match self.kind {
            ParKind::Pp if self.in_pp => (SweepKind::PpApprox, self.pp_approx_sweep(ctx)),
            ParKind::Pp if self.pp_gate_open() => (SweepKind::PpInit, self.pp_init(ctx)),
            _ => (SweepKind::Exact, self.exact_sweep(ctx)),
        };
        self.st.engine.end_sweep();
        let rec = self.progress.push(kind, secs, fitness, self.cfg.tol);
        // Post-approx drift gate (Alg. 4 line 17), measured only when the
        // sweep did not converge: `drift` issues collectives, so every rank
        // must reach it under the same condition (fitness is replicated).
        if kind == SweepKind::PpApprox && !self.progress.converged() {
            let snap = self.snap.as_ref().expect("approx sweep requires snapshot");
            self.last_drift = drift(ctx, &self.st, &snap.q_p);
            if !self.pp_gate_open() {
                self.in_pp = false;
            }
        }
        Step::Swept(rec)
    }

    /// The PP activation gate on the last measured drift: every mode's
    /// relative drift below ε.
    fn pp_gate_open(&self) -> bool {
        self.last_drift.iter().all(|&d| d < self.cfg.pp_tol)
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

    /// One exact sweep (Alg. 3 lines 10-19). For PP sessions this also
    /// refreshes the drift against the pre-sweep Q blocks. Returns the
    /// sweep's seconds and fitness.
    fn exact_sweep(&mut self, ctx: &mut RankCtx) -> (f64, f64) {
        let n_modes = self.st.n_modes();
        let q_before: Option<Vec<Matrix>> = if self.kind == ParKind::Pp {
            Some(self.st.dist_factors.iter().map(|f| f.q().clone()).collect())
        } else {
            None
        };
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
        let secs = t0.elapsed().as_secs_f64();
        if let Some(q_before) = q_before {
            self.last_drift = drift(ctx, &self.st, &q_before);
        }
        (secs, fitness)
    }

    /// PP initialization (Alg. 4 line 2): local operator construction,
    /// then a barrier so the regime switch is a superstep boundary. It
    /// carries the previous sweep's fitness.
    fn pp_init(&mut self, ctx: &mut RankCtx) -> (f64, f64) {
        let t0 = Instant::now();
        // The operators of the regime being left go back to the workspace
        // before the build draws from it.
        self.snap = None;
        self.snap = Some(PpSnapshot {
            p_p: self.st.dist_factors.iter().map(|f| f.p().clone()).collect(),
            q_p: self.st.dist_factors.iter().map(|f| f.q().clone()).collect(),
            ops: build_pp_operators(&mut self.st.input, &self.st.fs_local, &mut self.st.engine),
        });
        ctx.comm.barrier();
        let secs = t0.elapsed().as_secs_f64();
        self.in_pp = true;
        (secs, self.progress.last_fitness())
    }

    /// One PP approximated sweep (Alg. 4 lines 3-17): local first-order
    /// corrections, Reduce-Scatter, global second-order correction.
    fn pp_approx_sweep(&mut self, ctx: &mut RankCtx) -> (f64, f64) {
        let n_modes = self.st.n_modes();
        // Taken out for the sweep so the operator reads borrow disjointly
        // from the factor/Gram updates.
        let snap = self.snap.take().expect("approx sweep requires snapshot");
        let sweep_t0 = Instant::now();
        let mut last: Option<(Matrix, Matrix)> = None;
        for n in 0..n_modes {
            let h0 = Instant::now();
            let gamma = hadamard_chain_skip(&self.st.grams, n);
            self.st
                .engine
                .stats
                .record(Kernel::Hadamard, h0.elapsed(), 0);

            // Local first-order corrections (line 6) + anchor.
            let c0 = Instant::now();
            let mut m_local = snap.ops.firsts[n].clone();
            for i in 0..n_modes {
                if i == n {
                    continue;
                }
                let d_p = self.st.dist_factors[i].p().sub(&snap.p_p[i]);
                let u = pp_dtree::correct::first_order_correction(&snap.ops, n, i, &d_p);
                m_local.axpy(1.0, &u);
            }
            self.st.engine.stats.record(Kernel::Mttv, c0.elapsed(), 0);

            // Reduce-Scatter the corrected MTTKRP (line 9).
            let r0 = Instant::now();
            let mut m_q = self.st.dist_factors[n].reduce_scatter_rows(&m_local, &self.st.slices[n]);
            self.st.engine.stats.record(Kernel::Other, r0.elapsed(), 0);

            // Second-order correction (lines 10-11) on Q rows.
            let v0 = Instant::now();
            let d_grams = d_grams_global(ctx, &self.st, &snap);
            let v_q = pp_dtree::correct::second_order_correction(
                self.st.dist_factors[n].q(),
                &self.st.grams,
                &d_grams,
                n,
            );
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
        self.snap = Some(snap);
        let (gamma_last, m_q_last) = last.unwrap();
        let fitness = self.st.fitness(ctx, &gamma_last, &m_q_last);
        let secs = sweep_t0.elapsed().as_secs_f64();
        (secs, fitness)
    }
}
