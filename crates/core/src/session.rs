//! Resumable ALS sessions: the sweep-granular state machine every
//! decomposition runs as.
//!
//! An [`AlsSession`] owns *all* state a CP decomposition needs between
//! sweeps — the input tensor in its one stored layout, the dimension-tree
//! engine with its intermediate cache, the versioned factors, the
//! replicated Gram matrices, the PP regime, and the fitness trace.
//! [`AlsSession::step`] advances **exactly one sweep** (an exact ALS
//! sweep, a PP initialization, or a PP approximated sweep — the same
//! categories as [`crate::result::SweepKind`]), [`AlsSession::run`] steps
//! to the end, and [`AlsSession::finish`] produces the [`AlsOutput`].
//! `tests/golden_traces.rs` pins the traces bitwise and
//! `tests/session_parity.rs` checks arbitrary pause/resume schedules
//! against `run`.
//!
//! The sweeps are written once, here: the exact sweep (DT, MSDT, or the
//! HALS update of nonnegative CP), Alg. 2's PP initialization and
//! approximated sweep, Eq. (3)'s fitness and the drift gate. They run
//! against a crate-private grid context, `Grid`, that says where this
//! rank's rows of each factor live and issues Alg. 3's collectives. A
//! sequential session steps them on `OneRank`, where every collective is
//! the identity and nothing is charged; each rank of a
//! [`crate::par_session::ParSession`] runs the same sweep on the session
//! of its tensor block against its processor grid. A one-rank
//! `ParSession` is therefore the sequential session bit for bit.
//!
//! The trace and the stop rule (the Δ criterion, the sweep budget, the
//! sealed report and their checkpoint bytes) are one crate-private type,
//! `Progress`. Alg. 2's PP regime is another, `PpRegime`: the drift gate,
//! the frozen reference, the pair operators and the decisions between
//! exact sweeps, PP initializations and approximated sweeps. Its gate
//! stays closed until an exact sweep has measured drift, at the start and
//! after every streaming arrival, so no ε lets PP start from the initial
//! `dA ← A`.
//!
//! Sessions are what make decompositions *schedulable*: a session between
//! steps holds no pool resource (every contraction runs to completion
//! inside [`AlsSession::step`]), so a batch scheduler (`crates/serve`) can
//! interleave sweeps from many tenants over the one persistent worker pool
//! with per-job fairness and failure isolation.

use crate::checkpoint::{sparse_fingerprint, tensor_fingerprint, Reader, Writer};
use crate::config::{AlsConfig, SolveStrategy};
use crate::fitness::{fitness_from_residual, residual_from_inners};
use crate::init::init_factors;
use crate::nonneg::hals_update;
use crate::result::{AlsOutput, AlsReport, SweepKind, SweepRecord};
use pp_dtree::correct::{d_gram, drifted, first_order_correction, second_order_correction};
use pp_dtree::pp_tree::{build_pp_operators, PpOperators};
use pp_dtree::{
    DimTreeEngine, FactorState, InputTensor, InterCache, Intermediate, Kernel, KernelStats,
    TreePolicy,
};
use pp_tensor::matrix::hadamard_chain_skip;
use pp_tensor::solve::solve_gram;
use pp_tensor::sparse::SparseTensor;
use pp_tensor::{DenseTensor, Matrix, Workspace};
use std::borrow::Cow;
use std::time::Instant;

/// Which update rule the session runs each sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionKind {
    /// Exact CP-ALS (Alg. 1) — unconstrained normal-equation solves.
    Exact,
    /// Pairwise-perturbation CP-ALS (Alg. 2) — alternates exact sweeps,
    /// PP initializations, and PP approximated sweeps.
    Pp,
    /// Nonnegative CP — HALS column updates in place of the solve.
    NonNeg,
}

/// Why a session stopped stepping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The Δ stopping criterion was met.
    Converged,
    /// The `max_sweeps` budget is exhausted.
    SweepLimit,
}

/// Result of one [`AlsSession::step`] call.
#[derive(Clone, Copy, Debug)]
pub enum Step {
    /// One sweep was performed and appended to the trace.
    Swept(SweepRecord),
    /// No sweep ran: the session is finished (idempotent).
    Done(StopReason),
}

/// The trace and the stop rule of a session: the report being built, the
/// Δ criterion's reference fitness, and whether stepping has stopped.
pub(crate) struct Progress {
    report: AlsReport,
    /// Fitness of the last sweep that carried one (Alg. 2 line 2: −∞).
    fitness_old: f64,
    cumulative: f64,
    converged: bool,
    sweeps_done: usize,
    finished: bool,
}

impl Progress {
    pub(crate) fn new() -> Self {
        Progress {
            report: AlsReport::default(),
            fitness_old: f64::NEG_INFINITY,
            cumulative: 0.0,
            converged: false,
            sweeps_done: 0,
            finished: false,
        }
    }

    /// The head of every `step`: why no sweep may run under a budget of
    /// `max_sweeps`, or `None` when one may. Idempotent once finished.
    pub(crate) fn stop(&mut self, max_sweeps: usize) -> Option<StopReason> {
        if self.finished {
            return Some(if self.converged {
                StopReason::Converged
            } else {
                StopReason::SweepLimit
            });
        }
        if self.sweeps_done >= max_sweeps {
            self.finished = true;
            return Some(StopReason::SweepLimit);
        }
        None
    }

    /// The tail of every `step`: append the sweep to the trace and apply
    /// the Δ criterion (Alg. 1 line 11 / Alg. 2 lines 15 and 21). A PP
    /// initialization carries no fresh fitness, so it neither checks the
    /// criterion nor shifts the reference.
    pub(crate) fn push(
        &mut self,
        kind: SweepKind,
        secs: f64,
        fitness: f64,
        tol: f64,
    ) -> SweepRecord {
        self.cumulative += secs;
        let rec = SweepRecord {
            kind,
            secs,
            fitness,
            cumulative_secs: self.cumulative,
        };
        self.report.sweeps.push(rec);
        self.sweeps_done += 1;
        if kind != SweepKind::PpInit {
            if (fitness - self.fitness_old).abs() < tol {
                self.converged = true;
                self.finished = true;
            } else {
                self.fitness_old = fitness;
            }
        }
        rec
    }

    /// Open a new window of `budget` sweeps after the ones done (a
    /// streaming arrival): the criterion restarts without a reference.
    /// Returns the new sweep limit.
    pub(crate) fn reopen(&mut self, budget: usize) -> usize {
        self.fitness_old = f64::NEG_INFINITY;
        self.converged = false;
        self.finished = false;
        self.sweeps_done + budget
    }

    /// Seal the trace into the run's report.
    pub(crate) fn seal(mut self, stats: KernelStats) -> AlsReport {
        self.report.stats = stats;
        self.report.final_fitness = self.last_fitness();
        self.report.converged = self.converged;
        self.report
    }

    pub(crate) fn last_fitness(&self) -> f64 {
        self.report.sweeps.last().map_or(f64::NAN, |s| s.fitness)
    }

    /// Whether a sweep has carried a fresh fitness since the start or the
    /// last [`Progress::reopen`].
    pub(crate) fn has_reference(&self) -> bool {
        self.fitness_old != f64::NEG_INFINITY
    }

    pub(crate) fn is_finished(&self, max_sweeps: usize) -> bool {
        self.finished || self.sweeps_done >= max_sweeps
    }

    /// The last fields of a session checkpoint.
    pub(crate) fn write(&self, w: &mut Writer) {
        w.usize_(self.report.sweeps.len());
        for rec in &self.report.sweeps {
            w.sweep(rec);
        }
        w.stats(&self.report.stats);
        w.f64_(self.report.final_fitness);
        w.bool_(self.report.converged);
        w.f64_(self.fitness_old);
        w.f64_(self.cumulative);
        w.bool_(self.converged);
        w.usize_(self.sweeps_done);
        w.bool_(self.finished);
    }

    /// The inverse of [`Progress::write`].
    pub(crate) fn read(r: &mut Reader) -> Result<Self, String> {
        let n_sweeps = r.count("sweep", 25)?;
        let mut sweeps = Vec::with_capacity(n_sweeps);
        for _ in 0..n_sweeps {
            sweeps.push(r.sweep()?);
        }
        Ok(Progress {
            report: AlsReport {
                sweeps,
                stats: r.stats()?,
                final_fitness: r.f64_()?,
                converged: r.bool_()?,
            },
            fitness_old: r.f64_()?,
            cumulative: r.f64_()?,
            converged: r.bool_()?,
            sweeps_done: r.usize_()?,
            finished: r.bool_()?,
        })
    }
}

/// Whether a stored intermediate is laid out as its mode set says: modes of
/// an order-`dims.len()` input, each once, extents `dims[m]` in `mode_order`
/// then the rank, and one factor version per mode.
fn laid_out(e: &Intermediate, dims: &[usize], rank: usize) -> bool {
    let mut seen = vec![false; dims.len()];
    let distinct = e
        .mode_order
        .iter()
        .all(|&m| m < dims.len() && !std::mem::replace(&mut seen[m], true));
    let extents = e.mode_order.iter().map(|&m| dims[m]).chain([rank]);
    distinct
        && e.versions.len() == dims.len()
        && e.tensor.shape().dims().iter().copied().eq(extents)
}

/// `Err` naming `what` when `xs` holds a NaN or an infinity: a resumed run
/// would carry it through every later sweep to a silently wrong answer.
fn refuse_non_finite(xs: &[f64], what: impl FnOnce() -> String) -> Result<(), String> {
    match xs.iter().find(|x| !x.is_finite()) {
        None => Ok(()),
        Some(x) => Err(format!(
            "checkpoint {} holds {x}, not a finite value",
            what()
        )),
    }
}

/// Alg. 2's pairwise-perturbation regime, the one encoding every PP
/// session runs: whether it is approximating, the drift gate's last
/// verdict, the frozen reference and the pair operators, and the
/// decisions between them — gate → PP-init, approximated sweeps while the
/// gate holds, exact sweeps once it closes. Drift is measured on the grid
/// the session steps against ([`PpRegime::gate`]).
#[derive(Default)]
pub(crate) struct PpRegime {
    /// Whether the next sweep is approximated.
    approx: bool,
    /// The drift gate's last verdict: every mode's drift under ε. Closed
    /// until an exact sweep has measured drift since the start or the last
    /// reset, so the regime never opens on Alg. 2 line 2's `dA ← A`,
    /// whatever ε.
    open: bool,
    /// `dA^(i)` of the most recent sweep, in the rows the local
    /// contractions read: the whole factor on one rank, this rank's P
    /// block on a grid (Alg. 2 line 2 starts it at `A`).
    pub(crate) drift: Vec<Matrix>,
    /// The frozen reference `A_p` of the current regime, in the same rows.
    pub(crate) reference: Vec<Matrix>,
    /// Pair operators `𝓜p^(i,j)` of the current regime.
    pub(crate) ops: Option<PpOperators>,
}

impl PpRegime {
    /// A regime at its gate whose drift starts from `drift`.
    pub(crate) fn new(drift: Vec<Matrix>) -> Self {
        PpRegime {
            drift,
            ..Self::default()
        }
    }

    /// The kind of sweep the next `step` runs.
    pub(crate) fn next(&self) -> SweepKind {
        match (self.approx, self.open) {
            (true, _) => SweepKind::PpApprox,
            (false, true) => SweepKind::PpInit,
            (false, false) => SweepKind::Exact,
        }
    }

    /// PP initialization (Alg. 2 lines 6-9): freeze `reference`, zero the
    /// drift, build the operators and enter the approximated regime. A
    /// regime re-entered drops the operators it is leaving first: their
    /// buffers go back to the workspace the build draws from.
    pub(crate) fn enter(&mut self, reference: Vec<Matrix>, build: impl FnOnce() -> PpOperators) {
        self.reference = reference;
        self.drift.iter_mut().for_each(Matrix::fill_zero);
        self.ops = None;
        self.ops = Some(build());
        self.approx = true;
    }

    /// The tail of a PP session's `step` once a `kind` sweep ran. Alg. 2
    /// measures drift after every exact sweep (line 20) and after an
    /// approximated sweep that did not converge (line 16), conditions every
    /// rank of a grid shares; `measure` is the gate. A regime whose gate
    /// closed is left, so the next sweep is exact.
    fn after(&mut self, kind: SweepKind, converged: bool, measure: impl FnOnce(&Self) -> bool) {
        if kind == SweepKind::Exact || (kind == SweepKind::PpApprox && !converged) {
            self.open = measure(self);
            self.approx &= self.open;
        }
    }

    /// The drift gate: `‖dA^(i)‖F < ε‖A^(i)‖F` for every mode, from this
    /// rank's rows summed over the grid. Every mode's sum is issued: on a
    /// grid each is a collective, so the gate never stops at the first
    /// failing mode.
    fn gate(&self, grid: &mut impl Grid, fs: &FactorState, eps: f64) -> bool {
        self.drift.iter().enumerate().fold(true, |under, (i, d)| {
            let (d, a) = (grid.own_rows(i, d), grid.own_rows(i, fs.factor(i)));
            let sq = grid.sum(vec![d.norm_sq(), a.norm_sq()]);
            under & (sq[0].sqrt() < eps * sq[1].sqrt())
        })
    }

    /// Back to the gate against a grown tensor (a streaming arrival): the
    /// reference and the operators describe the old one, and the drift
    /// restarts from the extended `factors`.
    pub(crate) fn reset(&mut self, factors: &[Matrix]) {
        *self = Self::new(factors.to_vec());
    }

    /// Elements the pair operators hold beyond the buffers `cache` holds.
    pub(crate) fn memory_elems_beside(&self, cache: &InterCache) -> usize {
        self.ops
            .as_ref()
            .map_or(0, |o| o.memory_elems_beside(cache))
    }

    /// The drift, the reference and the operators, after a checkpoint's
    /// Grams. The phase byte sits beside the session kind, and the gate's
    /// verdict is not stored: the reader re-measures it.
    fn write(&self, w: &mut Writer) {
        w.matrices(&self.drift);
        w.matrices(&self.reference);
        match &self.ops {
            None => w.bool_(false),
            Some(ops) => {
                w.bool_(true);
                let mut keys: Vec<(usize, usize)> = ops.pairs.keys().copied().collect();
                keys.sort_unstable();
                w.usize_(keys.len());
                for (i, j) in keys {
                    w.usize_(i);
                    w.usize_(j);
                    w.intermediate(&ops.pairs[&(i, j)]);
                }
                w.matrices(&ops.firsts);
                w.usize_(ops.fresh_ttms);
            }
        }
    }

    /// The inverse of [`PpRegime::write`], for a regime whose phase byte
    /// read `approx`.
    fn read(r: &mut Reader, approx: bool) -> Result<Self, String> {
        let (drift, reference) = (r.matrices()?, r.matrices()?);
        let ops = if r.bool_()? {
            let n_pairs = r.count("PP pair operator", 16)?;
            let mut pairs = std::collections::HashMap::with_capacity(n_pairs);
            for _ in 0..n_pairs {
                let i = r.usize_()?;
                let j = r.usize_()?;
                let pair = r.intermediate()?.ok_or("PP pair operator is not dense")?;
                pairs.insert((i, j), pair);
            }
            let firsts = r.matrices()?;
            let fresh_ttms = r.usize_()?;
            Some(PpOperators {
                pairs,
                firsts,
                fresh_ttms,
            })
        } else {
            None
        };
        Ok(PpRegime {
            approx,
            open: false,
            drift,
            reference,
            ops,
        })
    }
}

/// The grid context a sweep runs against: which rows of each factor this
/// rank owns, and the collectives of Algorithms 3 and 4. On one rank
/// ([`OneRank`]) every collective is the identity; a rank of a processor
/// grid runs [`crate::par_common::OnGrid`].
pub(crate) trait Grid {
    /// The element-wise sum of `v` over every rank (All-Reduce).
    fn sum(&mut self, v: Vec<f64>) -> Vec<f64>;
    /// Mode `n`'s local MTTKRP summed over its slice, this rank's rows of
    /// it kept (Reduce-Scatter, Alg. 3 line 14).
    fn reduce_scatter(&mut self, n: usize, m: Matrix) -> Matrix;
    /// This rank's rows of `local`, a mode-`n` matrix in the rows the
    /// local contractions read.
    fn own_rows<'a>(&self, n: usize, local: &'a Matrix) -> Cow<'a, Matrix>;
    /// Install this rank's new rows of mode `n`'s factor: returns the
    /// global Gram (All-Reduce) and the new local rows (All-Gather), Alg. 3
    /// lines 17-18.
    fn commit(&mut self, n: usize, rows: Matrix) -> (Matrix, Matrix);
    /// Charge a normal-equation solve of `rows` rows, synchronizing when
    /// the solve is distributed.
    fn solve_cost(&mut self, cfg: &AlsConfig, rows: usize);
    /// Synchronize every rank.
    fn barrier(&mut self);
    /// Forward the kernel flops in `stats` not yet charged to the rank's
    /// cost ledger.
    fn charge(&mut self, stats: &KernelStats);
}

/// The one-rank grid context: this rank owns every row, every collective
/// is the identity, and there is no cost ledger to charge.
pub(crate) struct OneRank;

impl Grid for OneRank {
    fn sum(&mut self, v: Vec<f64>) -> Vec<f64> {
        v
    }

    fn reduce_scatter(&mut self, _: usize, m: Matrix) -> Matrix {
        m
    }

    fn own_rows<'a>(&self, _: usize, local: &'a Matrix) -> Cow<'a, Matrix> {
        Cow::Borrowed(local)
    }

    fn commit(&mut self, _: usize, rows: Matrix) -> (Matrix, Matrix) {
        (rows.gram(), rows)
    }

    fn solve_cost(&mut self, _: &AlsConfig, _: usize) {}

    fn barrier(&mut self) {}

    fn charge(&mut self, _: &KernelStats) {}
}

/// `m` summed over every rank.
fn sum_matrix(grid: &mut impl Grid, m: &Matrix) -> Matrix {
    Matrix::from_vec(m.rows(), m.cols(), grid.sum(m.data().to_vec()))
}

/// A resumable CP-ALS / PP-CP-ALS / NNCP run. See the module docs.
///
/// The fields are the crate's: a streaming arrival
/// ([`crate::stream::StreamingSession::arrive`]) rewrites several of them
/// as one transaction, and the invariants between them (Gram ↔ factor,
/// cache ↔ versions) are the crate's to keep.
pub struct AlsSession {
    pub(crate) cfg: AlsConfig,
    pub(crate) kind: SessionKind,
    /// The tensor, or on a grid this rank's block of it.
    pub(crate) input: InputTensor,
    pub(crate) engine: DimTreeEngine,
    /// The factors, or on a grid this rank's P blocks of them.
    pub(crate) fs: FactorState,
    /// The global Gram matrices `S^(i)`.
    pub(crate) grams: Vec<Matrix>,
    /// The global `‖T‖²_F`.
    pub(crate) t_norm_sq: f64,
    /// A PP session's regime, its drift starting from `A` (Alg. 2 line 2).
    pub(crate) pp: Option<PpRegime>,
    pub(crate) progress: Progress,
}

/// The dense input a session sweeps over: one layout for either tree, led
/// by `evolving` when the tensor will grow along that mode (streaming).
fn dense_input(t: &DenseTensor, evolving: Option<usize>) -> InputTensor {
    match evolving {
        Some(e) => InputTensor::evolving(t, e),
        None => InputTensor::new(t.clone()),
    }
}

impl AlsSession {
    /// New session with the default seeded uniform factor initialization.
    pub fn new(t: &DenseTensor, cfg: &AlsConfig, kind: SessionKind) -> Self {
        Self::new_dense(t, cfg, kind, None)
    }

    /// [`AlsSession::new`], over a tensor that will grow along `evolving`
    /// when one is named (see [`crate::stream::StreamingSession`]).
    pub(crate) fn new_dense(
        t: &DenseTensor,
        cfg: &AlsConfig,
        kind: SessionKind,
        evolving: Option<usize>,
    ) -> Self {
        let init = init_factors(t.shape().dims(), cfg.rank, cfg.seed);
        let _threads = cfg.thread_guard();

        // ‖T‖² is the tensor's own: remembered when its writer handed it
        // over or an earlier session asked. Else it is one serial pass,
        // which rides beside the layout construction and is remembered.
        let (input, t_norm_sq) = match t.remembered_norm_sq() {
            Some(norm_sq) => (dense_input(t, evolving), norm_sq),
            None => rayon::join(|| dense_input(t, evolving), || t.norm_sq()),
        };
        Self::from_input(input, t_norm_sq, cfg, kind, init, &mut OneRank)
    }

    /// The one place a fresh session is assembled: `input` is whatever the
    /// caller's tensor kind and tree policy produced (the input-specific
    /// asserts stay with the callers), `init` its rows of the initial
    /// factors and `norm_sq` its share of `‖T‖²`. The Grams (Alg. 3 line
    /// 7) and `‖T‖²` are summed over `grid`.
    pub(crate) fn from_input(
        input: InputTensor,
        norm_sq: f64,
        cfg: &AlsConfig,
        kind: SessionKind,
        init: Vec<Matrix>,
        grid: &mut impl Grid,
    ) -> Self {
        assert!(init.len() >= 2);
        let pp_order = kind != SessionKind::Pp || init.len() >= 3;
        assert!(pp_order, "pairwise perturbation needs order ≥ 3");
        let engine = DimTreeEngine::new(cfg.policy, init.len());
        let fs = FactorState::new(init);
        let grams = (0..fs.order())
            .map(|i| {
                let local = grid.own_rows(i, fs.factor(i)).gram();
                sum_matrix(grid, &local)
            })
            .collect();
        let t_norm_sq = grid.sum(vec![norm_sq])[0];
        let pp = (kind == SessionKind::Pp).then(|| PpRegime::new(fs.factors().to_vec()));

        AlsSession {
            cfg: cfg.clone(),
            kind,
            input,
            engine,
            fs,
            grams,
            t_norm_sq,
            pp,
            progress: Progress::new(),
        }
    }

    /// New session over a **sparse** input with the default seeded factor
    /// initialization. Three method combinations are admitted:
    ///
    /// * `Exact` + [`TreePolicy::Standard`] (the `dt` method): every MTTKRP
    ///   routes through the direct CSF kernel over the input's forest.
    /// * `Exact` + [`TreePolicy::MultiSweep`] (the `msdt` method): the same
    ///   kernel, bit for bit — MSDT amortizes dense first-level TTMs, and
    ///   the CSF MTTKRP leaves nothing to amortize.
    /// * `Pp` + [`TreePolicy::MultiSweep`] (the `pp` method): exact sweeps
    ///   run the direct CSF kernel, as `dt` does, and each PP pair operator
    ///   is one walk of a fiber tree of the same forest; only the
    ///   operator-sized pair tensors are dense.
    ///
    /// The input is never densified. Non-negative ALS is not supported on
    /// sparse inputs. Sparse PP keeps the multi-sweep policy its jobs have
    /// always carried.
    pub fn new_sparse(sp: &SparseTensor, cfg: &AlsConfig, kind: SessionKind) -> Self {
        assert_ne!(
            kind,
            SessionKind::NonNeg,
            "sparse inputs support methods dt, pp, and msdt (not nncp)"
        );
        if kind == SessionKind::Pp {
            assert_eq!(
                cfg.policy,
                TreePolicy::MultiSweep,
                "sparse PP runs over the multi-sweep tree policy"
            );
        }
        let init = init_factors(sp.dims(), cfg.rank, cfg.seed);
        let _threads = cfg.thread_guard();
        let input = InputTensor::new_sparse(sp.clone());
        Self::from_input(input, sp.norm_sq(), cfg, kind, init, &mut OneRank)
    }

    /// Stored nonzeros of a sparse input; `None` over a dense tensor.
    pub fn input_nnz(&self) -> Option<usize> {
        self.input.sparse().map(SparseTensor::nnz)
    }

    /// The session's update rule.
    pub fn kind(&self) -> SessionKind {
        self.kind
    }

    /// The run configuration.
    pub fn config(&self) -> &AlsConfig {
        &self.cfg
    }

    /// Sweeps performed so far (PP initializations count, as in Alg. 2).
    pub fn sweeps_done(&self) -> usize {
        self.progress.sweeps_done
    }

    /// Whether stepping has stopped (converged or out of budget).
    pub fn is_finished(&self) -> bool {
        self.progress.is_finished(self.cfg.max_sweeps)
    }

    /// Whether the Δ criterion has been met.
    pub fn converged(&self) -> bool {
        self.progress.converged
    }

    /// Fitness after the most recent sweep (NaN before the first).
    pub fn last_fitness(&self) -> f64 {
        self.progress.last_fitness()
    }

    /// Eq. (3)'s fitness of the current factors, exactly: one exact
    /// last-mode MTTKRP on a scratch engine with caching disabled (as a
    /// streaming arrival's warm start runs), with the session's ‖T‖².
    /// Neither the session's cache, nor its workspace, nor its kernel
    /// ledger sees that MTTKRP, so stepping on runs bit for bit as
    /// without the call. After an exact sweep it is
    /// [`AlsSession::last_fitness`] up to rounding; after a PP-approx sweep
    /// that value is an estimate from the approximated MTTKRP, and this is
    /// the fitness it estimates.
    pub fn exact_fitness(&mut self) -> f64 {
        let _threads = self.cfg.thread_guard();
        let n = self.fs.order() - 1;
        let mut scratch = DimTreeEngine::new(TreePolicy::Standard, n + 1).with_caching_disabled();
        let m = scratch.mttkrp(&mut self.input, &self.fs, n);
        let gamma = hadamard_chain_skip(&self.grams, n);
        self.fitness(&mut OneRank, &gamma, &m)
    }

    /// The trace accumulated so far.
    pub fn report(&self) -> &AlsReport {
        &self.progress.report
    }

    /// The kernel ledger so far: what [`AlsSession::finish`] seals into
    /// the report.
    pub fn stats(&self) -> &KernelStats {
        &self.engine.stats
    }

    /// Current factor matrices.
    pub fn factors(&self) -> &[Matrix] {
        self.fs.factors()
    }

    /// The pool the session's intermediates are drawn from (a handle: its
    /// counters stay readable after the session is gone).
    pub fn workspace(&self) -> &Workspace {
        self.engine.workspace()
    }

    /// The engine's intermediate cache.
    pub fn cache(&self) -> &InterCache {
        self.engine.cache()
    }

    /// Suspend point: a no-op. A session between steps already holds no
    /// pool resource, since every contraction finishes inside
    /// [`AlsSession::step`]; the call stays for embedders that mark where
    /// they set a session aside.
    pub fn park(&mut self) {}

    /// Auxiliary memory this session currently holds, in f64 elements:
    /// the engine's intermediate cache, the buffers its workspace holds
    /// for reuse, and any PP operators — each buffer once, though a dense
    /// pair operator sits in the cache too. This is the Table I
    /// cache-memory metric the batch scheduler's admission control budgets
    /// against.
    pub fn cache_memory_elems(&self) -> usize {
        let cache = self.engine.cache();
        self.engine.cache_memory_elems()
            + self
                .pp
                .as_ref()
                .map_or(0, |pp| pp.memory_elems_beside(cache))
    }

    /// Serialize the complete sweep-to-sweep state as a `PPCK` checkpoint
    /// (versioned binary format with an FNV-1a integrity check — see
    /// [`crate::checkpoint`], whose `write_file` stores it). `tag` is an
    /// opaque caller fingerprint (e.g. of the job spec) returned verbatim
    /// by [`AlsSession::resume_from_bytes`]. Of the cached intermediates
    /// only the valid ones are written: a stale one can never be read
    /// again, since versions only move forward.
    pub fn checkpoint_bytes(&self, tag: u64) -> Vec<u8> {
        let mut entries = self.engine.cache().entries_sorted();
        entries.retain(|e| e.valid_for(self.fs.versions()));
        self.checkpoint_with(tag, &entries)
    }

    /// [`AlsSession::checkpoint_bytes`] with the given cache `entries`.
    fn checkpoint_with(&self, tag: u64, entries: &[&Intermediate]) -> Vec<u8> {
        // A session without PP writes the fields of a regime never entered.
        let off = PpRegime::default();
        let pp = self.pp.as_ref().unwrap_or(&off);
        let mut w = Writer::new();
        w.u64_(tag);
        // Config.
        w.usize_(self.cfg.rank);
        w.f64_(self.cfg.tol);
        w.usize_(self.cfg.max_sweeps);
        w.u8_(match self.cfg.policy {
            TreePolicy::Standard => 0,
            TreePolicy::MultiSweep => 1,
        });
        w.u8_(match self.cfg.solve {
            SolveStrategy::Distributed => 0,
            SolveStrategy::Replicated => 1,
        });
        w.f64_(self.cfg.pp_tol);
        w.u64_(self.cfg.seed);
        w.u64_(self.cfg.threads.map_or(0, |t| t as u64));
        // Kind and phase.
        w.u8_(match self.kind {
            SessionKind::Exact => 0,
            SessionKind::Pp => 1,
            SessionKind::NonNeg => 2,
        });
        w.bool_(pp.approx);
        // Input binding: the tensor itself is rebuilt from its dataset
        // spec at resume; only its fingerprint travels. Sparse inputs use
        // a domain-separated fingerprint so a dense checkpoint can never
        // resume against a sparse tensor (or vice versa).
        w.u64_(match self.input.sparse() {
            Some(sp) => sparse_fingerprint(sp),
            None => tensor_fingerprint(&self.input.canonical()),
        });
        w.f64_(self.t_norm_sq);
        // Factors with versions, Grams, PP regime state.
        w.matrices(self.fs.factors());
        w.u64s(self.fs.versions());
        w.matrices(&self.grams);
        pp.write(&mut w);
        // The engine's intermediate cache: restoring it is what keeps the
        // resumed run's contraction schedule (and hence its flop trace)
        // identical to the uninterrupted one.
        w.usize_(entries.len());
        for e in entries {
            w.intermediate(e);
        }
        w.stats(&self.engine.stats);
        self.progress.write(&mut w);
        w.frame()
    }

    /// Read a `PPCK` checkpoint and continue the run it captured.
    /// `t` must be the same input tensor the checkpointed session ran on
    /// (rebuilt deterministically from its dataset spec); its fingerprint
    /// is verified. Returns the session and the caller `tag` stored by
    /// [`AlsSession::checkpoint_bytes`].
    pub fn resume_from_bytes(bytes: &[u8], t: &DenseTensor) -> Result<(AlsSession, u64), String> {
        Self::resume_dense(bytes, t, None)
    }

    /// [`AlsSession::resume_from_bytes`] for a session made by
    /// [`AlsSession::new_dense`] with the same `evolving`: the input is
    /// laid out as the cached intermediates in the checkpoint expect.
    pub(crate) fn resume_dense(
        bytes: &[u8],
        t: &DenseTensor,
        evolving: Option<usize>,
    ) -> Result<(AlsSession, u64), String> {
        Self::resume_core(bytes, tensor_fingerprint(t), t.shape().dims(), || {
            dense_input(t, evolving)
        })
    }

    /// [`AlsSession::resume_from_bytes`] for a **sparse** input. The
    /// domain-separated sparse fingerprint refuses dense checkpoints and
    /// mismatched sparse tensors alike.
    pub fn resume_from_bytes_sparse(
        bytes: &[u8],
        sp: &SparseTensor,
    ) -> Result<(AlsSession, u64), String> {
        Self::resume_core(bytes, sparse_fingerprint(sp), sp.dims(), || {
            InputTensor::new_sparse(sp.clone())
        })
    }

    /// Shared resume path: decode the checkpoint, verify the expected
    /// input fingerprint and that every stored matrix fits the input's
    /// `dims` and the rank, and rebuild the runtime-only pieces with the
    /// caller-supplied input constructor.
    fn resume_core(
        bytes: &[u8],
        fp_expected: u64,
        dims: &[usize],
        build_input: impl FnOnce() -> InputTensor,
    ) -> Result<(AlsSession, u64), String> {
        let mut r = Reader::open(bytes)?;
        let tag = r.u64_()?;
        let rank = r.usize_()?;
        let tol = r.f64_()?;
        let max_sweeps = r.usize_()?;
        let policy = match r.u8_()? {
            0 => TreePolicy::Standard,
            1 => TreePolicy::MultiSweep,
            v => return Err(format!("invalid tree policy {v}")),
        };
        let solve = match r.u8_()? {
            0 => SolveStrategy::Distributed,
            1 => SolveStrategy::Replicated,
            v => return Err(format!("invalid solve strategy {v}")),
        };
        let pp_tol = r.f64_()?;
        let seed = r.u64_()?;
        let threads = match r.u64_()? {
            0 => None,
            n => Some(n as usize),
        };
        let cfg = AlsConfig {
            rank,
            tol,
            max_sweeps,
            policy,
            solve,
            pp_tol,
            seed,
            threads,
        };
        let kind = match r.u8_()? {
            0 => SessionKind::Exact,
            1 => SessionKind::Pp,
            2 => SessionKind::NonNeg,
            v => return Err(format!("invalid session kind {v}")),
        };
        let approx = r.bool_()?;
        let fp = r.u64_()?;
        if fp != fp_expected {
            return Err("input tensor does not match the checkpoint (fingerprint mismatch)".into());
        }
        let t_norm_sq = r.f64_()?;
        if !(t_norm_sq.is_finite() && t_norm_sq >= 0.0) {
            return Err(format!(
                "checkpoint norm {t_norm_sq} is not a squared norm (finite, ≥ 0)"
            ));
        }
        let (factors, versions, grams) = (r.matrices()?, r.u64s()?, r.matrices()?);
        let mut pp = PpRegime::read(&mut r, approx)?;
        // Factor i is dims[i] × R and each Gram R × R. A PP list is empty or
        // holds one factor-shaped matrix per mode, and not empty where the
        // session's phase reads it. Operators, present wherever the phase
        // reads them, are one `Mp^(i)` per mode and all N(N−1)/2 pairs,
        // each laid out as its two modes say.
        let n = dims.len();
        let fit = |m: &Matrix, rows: usize| (m.rows(), m.cols()) == (rows, rank);
        let fits = |ms: &[Matrix], empty: bool| {
            empty && ms.is_empty() || ms.len() == n && ms.iter().zip(dims).all(|(m, &d)| fit(m, d))
        };
        let ops_fit = |ops: &PpOperators| {
            fits(&ops.firsts, false)
                && ops.pairs.len() == n * (n - 1) / 2
                && ops.pairs.iter().all(|(&(i, j), e)| {
                    i < j
                        && matches!(e.mode_order[..], [a, b] if (a.min(b), a.max(b)) == (i, j))
                        && laid_out(e, dims, rank)
                })
        };
        let (is_pp, approx) = (kind == SessionKind::Pp, kind == SessionKind::Pp && approx);
        if !fits(&factors, false)
            || versions.len() != n
            || grams.len() != n
            || grams.iter().any(|g| !fit(g, rank))
            || !fits(&pp.drift, !is_pp)
            || !fits(&pp.reference, !approx)
            || approx && pp.ops.is_none()
            || !pp.ops.as_ref().is_none_or(ops_fit)
        {
            return Err("checkpoint matrices do not fit the tensor's dims and the rank".into());
        }
        let lists = [
            ("factor", &factors),
            ("Gram", &grams),
            ("PP drift", &pp.drift),
            ("PP reference", &pp.reference),
        ];
        for (what, ms) in lists {
            for (i, m) in ms.iter().enumerate() {
                refuse_non_finite(m.data(), || format!("{what} {i}"))?;
            }
        }
        if let Some(ops) = &pp.ops {
            for (i, m) in ops.firsts.iter().enumerate() {
                refuse_non_finite(m.data(), || format!("PP operator Mp^({i})"))?;
            }
            let mut pairs: Vec<_> = ops.pairs.iter().collect();
            pairs.sort_unstable_by_key(|&(&key, _)| key);
            for ((i, j), e) in pairs {
                refuse_non_finite(e.tensor.data(), || format!("PP pair operator ({i}, {j})"))?;
            }
        }
        let fs = FactorState::from_parts(factors, versions);
        let n_cached = r.count("cached entry", 17)?;
        let mut cached = Vec::with_capacity(n_cached);
        for _ in 0..n_cached {
            // A retired entry reads as `None` and is dropped (see
            // `Reader::intermediate`).
            if let Some(e) = r.intermediate()? {
                if !laid_out(&e, dims, rank) {
                    return Err("a cached intermediate does not fit its mode set".into());
                }
                refuse_non_finite(e.tensor.data(), || {
                    format!("cached intermediate of modes {:?}", e.mode_order)
                })?;
                cached.push(e);
            }
        }
        let engine_stats = r.stats()?;
        let progress = Progress::read(&mut r)?;
        if !r.exhausted() {
            return Err("checkpoint has trailing bytes".into());
        }
        // The gate's verdict is not stored: it is the gate over the stored
        // drift once a sweep of this window has measured one, which is when
        // the Δ criterion holds a reference fitness.
        pp.open = progress.has_reference() && pp.gate(&mut OneRank, &fs, cfg.pp_tol);

        // Rebuild the runtime-only pieces (the input layout, or a sparse
        // input over the tensor's own forest; the engine) exactly as
        // construction does, then reinstall the cached intermediates and
        // stats the checkpoint captured.
        let input = build_input();
        let mut engine = DimTreeEngine::new(cfg.policy, n);
        for e in cached {
            engine.cache_mut().insert(e);
        }
        engine.stats = engine_stats;

        Ok((
            AlsSession {
                cfg,
                kind,
                input,
                engine,
                fs,
                grams,
                t_norm_sq,
                pp: (kind == SessionKind::Pp).then_some(pp),
                progress,
            },
            tag,
        ))
    }

    /// Advance exactly one sweep. Idempotent once the session is finished.
    pub fn step(&mut self) -> Step {
        self.step_on(&mut OneRank)
    }

    /// [`AlsSession::step`] against `grid`: the one sweep body. On a
    /// processor grid every rank steps together, since a sweep issues the
    /// same collectives on every rank; the regime measures drift only
    /// under conditions every rank shares (the sweep kind and the
    /// replicated fitness).
    pub(crate) fn step_on(&mut self, grid: &mut impl Grid) -> Step {
        if let Some(reason) = self.progress.stop(self.cfg.max_sweeps) {
            return Step::Done(reason);
        }
        let _threads = self.cfg.thread_guard();

        let kind = self.pp.as_ref().map_or(SweepKind::Exact, PpRegime::next);
        let t0 = Instant::now();
        let fitness = match kind {
            SweepKind::PpApprox => self.pp_approx_sweep(grid),
            SweepKind::PpInit => self.pp_init(grid),
            SweepKind::Exact => self.exact_sweep(grid),
        };
        let secs = t0.elapsed().as_secs_f64();
        self.engine.end_sweep();
        grid.charge(&self.engine.stats);
        let rec = self.progress.push(kind, secs, fitness, self.cfg.tol);
        if let Some(pp) = &mut self.pp {
            let (fs, eps) = (&self.fs, self.cfg.pp_tol);
            pp.after(kind, self.progress.converged, |pp| pp.gate(grid, fs, eps));
        }
        Step::Swept(rec)
    }

    /// Run the session to completion and produce the output.
    pub fn run(mut self) -> AlsOutput {
        while let Step::Swept(_) = self.step() {}
        self.finish()
    }

    /// Seal the report and return the output.
    pub fn finish(mut self) -> AlsOutput {
        AlsOutput {
            factors: self.fs.factors().to_vec(),
            report: self.progress.seal(self.engine.take_stats()),
        }
    }

    /// Eq. (3) fitness from the last mode's `Γ` and this rank's rows of its
    /// `M`; `⟨M, A⟩` is summed over the grid.
    fn fitness(&self, grid: &mut impl Grid, gamma_last: &Matrix, m_last: &Matrix) -> f64 {
        let n = self.fs.order() - 1;
        let cross = m_last.inner(&grid.own_rows(n, self.fs.factor(n)));
        let cross = grid.sum(vec![cross])[0];
        let model = gamma_last.inner(&self.grams[n]);
        fitness_from_residual(residual_from_inners(self.t_norm_sq, model, cross))
    }

    /// Update mode `n` from `Γ` and this rank's rows of `M` — the normal
    /// equations, or the HALS columns of nonnegative CP — and install the
    /// result on the grid. A PP session refreshes `dA^(n)`: against the
    /// reference in an approximated sweep (Alg. 2 line 14), against the
    /// factor it replaces in an exact one (line 20).
    fn update_mode(&mut self, grid: &mut impl Grid, n: usize, gamma: &Matrix, m: &Matrix) {
        let s0 = Instant::now();
        let rows = match self.kind {
            SessionKind::NonNeg => hals_update(&grid.own_rows(n, self.fs.factor(n)), m, gamma, 2),
            _ => {
                grid.solve_cost(&self.cfg, m.rows());
                solve_gram(gamma, m).0
            }
        };
        self.engine.stats.record(Kernel::Solve, s0.elapsed(), 0);

        let c0 = Instant::now();
        let (gram, local) = grid.commit(n, rows);
        self.grams[n] = gram;
        self.engine.stats.record(Kernel::Other, c0.elapsed(), 0);
        if let Some(pp) = &mut self.pp {
            let from = if pp.approx {
                &pp.reference[n]
            } else {
                self.fs.factor(n)
            };
            pp.drift[n] = local.sub(from);
        }
        self.fs.update(n, local);
    }

    /// One exact sweep (Alg. 1 lines 5-10, Alg. 3 lines 10-19), shared by
    /// every kind. Returns the sweep's fitness.
    fn exact_sweep(&mut self, grid: &mut impl Grid) -> f64 {
        let mut last = None;
        for n in 0..self.fs.order() {
            let h0 = Instant::now();
            let gamma = hadamard_chain_skip(&self.grams, n);
            self.engine.stats.record(Kernel::Hadamard, h0.elapsed(), 0);

            let m = self.engine.mttkrp(&mut self.input, &self.fs, n);
            let r0 = Instant::now();
            let m = grid.reduce_scatter(n, m);
            self.engine.stats.record(Kernel::Other, r0.elapsed(), 0);
            self.update_mode(grid, n, &gamma, &m);
            last = Some((gamma, m));
        }
        let (gamma, m) = last.expect("a tensor has modes");
        self.fitness(grid, &gamma, &m)
    }

    /// PP initialization (Alg. 2 lines 6-9, Alg. 4 line 2) on the current
    /// factors: the operators are built locally, then a barrier makes the
    /// regime switch a superstep boundary. It carries the previous sweep's
    /// fitness.
    fn pp_init(&mut self, grid: &mut impl Grid) -> f64 {
        let pp = self.pp.as_mut().expect("PP-init under PP");
        pp.enter(self.fs.factors().to_vec(), || {
            build_pp_operators(&mut self.input, &self.fs, &mut self.engine)
        });
        grid.barrier();
        self.progress.last_fitness()
    }

    /// This rank's share of `dS^(k) = A^(k)ᵀ dA^(k)` (Eq. 8).
    fn d_gram_local(&self, grid: &impl Grid, k: usize) -> Matrix {
        let drift = &self.pp.as_ref().expect("PP regime").drift[k];
        d_gram(
            &grid.own_rows(k, self.fs.factor(k)),
            &grid.own_rows(k, drift),
        )
    }

    /// One PP approximated sweep (Alg. 2 lines 10-17, Alg. 4 lines 3-17):
    /// Eq. (5)'s first-order corrections on the local rows, summed over the
    /// slice, plus the second-order correction on this rank's rows.
    /// Returns the sweep's fitness.
    fn pp_approx_sweep(&mut self, grid: &mut impl Grid) -> f64 {
        let n_modes = self.fs.order();
        // Each local `dS^(k)` depends only on mode k's factor and drift, so
        // the N of them are formed once and mode n's is refreshed after its
        // update; every mode step sums all N over the grid.
        let h0 = Instant::now();
        let mut d_local: Vec<Matrix> = (0..n_modes).map(|k| self.d_gram_local(grid, k)).collect();
        self.engine.stats.record(Kernel::Hadamard, h0.elapsed(), 0);
        let mut last = None;
        for n in 0..n_modes {
            let h0 = Instant::now();
            let gamma = hadamard_chain_skip(&self.grams, n);
            self.engine.stats.record(Kernel::Hadamard, h0.elapsed(), 0);

            // The anchor plus one first-order correction per mode whose
            // drift is not exactly zero.
            let pp = self.pp.as_ref().expect("approximated sweep under PP");
            let ops = pp.ops.as_ref().expect("PP regime requires operators");
            let mut m = ops.firsts[n].clone();
            for (i, d) in pp.drift.iter().enumerate() {
                if i == n || !drifted(d) {
                    continue;
                }
                let c0 = Instant::now();
                m.axpy(1.0, &first_order_correction(ops, n, i, d));
                let flops = 2 * ops.pair(n, i).tensor.len() as u64;
                self.engine.stats.record(Kernel::Mttv, c0.elapsed(), flops);
            }
            let r0 = Instant::now();
            let mut m = grid.reduce_scatter(n, m);
            self.engine.stats.record(Kernel::Other, r0.elapsed(), 0);

            let v0 = Instant::now();
            let d_grams: Vec<Matrix> = d_local.iter().map(|d| sum_matrix(grid, d)).collect();
            let a = grid.own_rows(n, self.fs.factor(n));
            let v = second_order_correction(&a, &self.grams, &d_grams, n);
            m.axpy(1.0, &v);
            self.engine.stats.record(Kernel::Hadamard, v0.elapsed(), 0);

            self.update_mode(grid, n, &gamma, &m);
            let h0 = Instant::now();
            d_local[n] = self.d_gram_local(grid, n);
            self.engine.stats.record(Kernel::Hadamard, h0.elapsed(), 0);
            last = Some((gamma, m));
        }
        let (gamma, m) = last.expect("a tensor has modes");
        self.fitness(grid, &gamma, &m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint;
    use crate::fitness::relative_residual;
    use pp_datagen::collinearity::{collinearity_tensor, CollinearityConfig};
    use pp_datagen::lowrank::noisy_rank;

    fn assert_bitwise(a: &AlsOutput, b: &AlsOutput) {
        assert_eq!(a.report.sweeps.len(), b.report.sweeps.len());
        for (x, y) in a.report.sweeps.iter().zip(b.report.sweeps.iter()) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.fitness.to_bits(), y.fitness.to_bits());
        }
        assert_eq!(a.report.converged, b.report.converged);
        for (fa, fb) in a.factors.iter().zip(b.factors.iter()) {
            assert_eq!(fa.data(), fb.data());
        }
    }

    #[test]
    fn park_is_a_no_op_between_steps() {
        // `park` stays callable for embedders; stepping on after it
        // changes nothing.
        let t = noisy_rank(&[8, 6, 7], 3, 0.05, 13);
        let cfg = AlsConfig::new(3)
            .with_policy(TreePolicy::MultiSweep)
            .with_max_sweeps(8)
            .with_tol(0.0);
        let a = AlsSession::new(&t, &cfg, SessionKind::Exact).run();
        let mut s = AlsSession::new(&t, &cfg, SessionKind::Exact);
        while let Step::Swept(_) = s.step() {
            s.park();
        }
        let b = s.finish();
        assert_bitwise(&a, &b);
    }

    #[test]
    fn a_session_reads_the_remembered_norm_and_leaves_it_for_the_next() {
        // The collinearity generator hands no norm over; the first session
        // computes it in the caller's tensor, with the serial pass's bits,
        // and later sessions read it from there.
        let cc = CollinearityConfig {
            s: 9,
            r: 3,
            order: 3,
            lo: 0.6,
            hi: 0.8,
        };
        let (t, _, _) = collinearity_tensor(&cc, 5);
        assert_eq!(t.remembered_norm_sq(), None);
        let serial: f64 = t.data().iter().map(|x| x * x).sum();
        let cfg = AlsConfig::new(3).with_max_sweeps(2);
        let first = AlsSession::new(&t, &cfg, SessionKind::Exact);
        assert_eq!(first.t_norm_sq.to_bits(), serial.to_bits());
        assert_eq!(
            t.remembered_norm_sq().map(f64::to_bits),
            Some(serial.to_bits())
        );
        let second = AlsSession::new(&t, &cfg, SessionKind::Pp);
        assert_eq!(second.t_norm_sq.to_bits(), serial.to_bits());
    }

    #[test]
    fn a_session_sweeps_the_callers_buffer() {
        // No copy at construction or resume, and none later: a write would
        // have moved the session onto a store of its own.
        let t = noisy_rank(&[8, 6, 7], 3, 0.05, 13);
        let cfg = AlsConfig::new(3).with_max_sweeps(6).with_tol(0.0);
        let msdt = cfg.clone().with_policy(TreePolicy::MultiSweep);
        for (kind, cfg) in [
            (SessionKind::Exact, &cfg),
            (SessionKind::Exact, &msdt),
            (SessionKind::Pp, &msdt.clone().with_pp_tol(0.5)),
            (SessionKind::NonNeg, &cfg),
        ] {
            let mut s = AlsSession::new(&t, cfg, kind);
            s.step();
            let bytes = s.checkpoint_bytes(0);
            let (mut resumed, _) = AlsSession::resume_from_bytes(&bytes, &t).unwrap();
            for s in [&mut s, &mut resumed] {
                while let Step::Swept(_) = s.step() {}
                assert_eq!(s.input.canonical().data().as_ptr(), t.data().as_ptr());
            }
        }
    }

    #[test]
    fn step_is_idempotent_after_finish() {
        let (t, _) = pp_datagen::lowrank::exact_rank(&[6, 6, 6], 2, 3);
        let cfg = AlsConfig::new(2).with_max_sweeps(300).with_tol(1e-5);
        let mut s = AlsSession::new(&t, &cfg, SessionKind::Exact);
        while let Step::Swept(_) = s.step() {}
        assert!(s.is_finished());
        let sweeps = s.sweeps_done();
        for _ in 0..3 {
            match s.step() {
                Step::Done(StopReason::Converged) => {}
                other => panic!("expected Done(Converged), got {other:?}"),
            }
        }
        assert_eq!(s.sweeps_done(), sweeps, "no extra sweeps after finish");
        let out = s.finish();
        assert!(out.report.converged);
    }

    #[test]
    fn zero_sweep_budget_is_empty_run() {
        let t = noisy_rank(&[5, 5, 5], 2, 0.05, 3);
        let cfg = AlsConfig::new(2).with_max_sweeps(0);
        let mut s = AlsSession::new(&t, &cfg, SessionKind::Exact);
        assert!(matches!(s.step(), Step::Done(StopReason::SweepLimit)));
        let out = s.finish();
        assert!(out.report.sweeps.is_empty());
        assert!(out.report.final_fitness.is_nan());
        assert!(!out.report.converged);
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_identical() {
        // Interrupt a PP run at several cut points (before, at, and inside
        // the approximated regime), serialize, resume from bytes, and
        // compare the completed run against the uninterrupted one.
        let ccfg = CollinearityConfig {
            s: 12,
            r: 3,
            order: 3,
            lo: 0.5,
            hi: 0.7,
        };
        let (t, _, _) = collinearity_tensor(&ccfg, 3);
        let cfg = AlsConfig::new(3)
            .with_policy(TreePolicy::MultiSweep)
            .with_pp_tol(0.3)
            .with_max_sweeps(30)
            .with_tol(1e-9);
        let a = AlsSession::new(&t, &cfg, SessionKind::Pp).run();
        for cut in [1, 3, 7, 12] {
            let mut s = AlsSession::new(&t, &cfg, SessionKind::Pp);
            for _ in 0..cut {
                let _ = s.step();
            }
            let bytes = s.checkpoint_bytes(0xDEC0DE);
            let (mut resumed, tag) = AlsSession::resume_from_bytes(&bytes, &t).unwrap();
            assert_eq!(tag, 0xDEC0DE);
            assert_eq!(resumed.sweeps_done(), cut.min(a.report.sweeps.len()));
            while let Step::Swept(_) = resumed.step() {}
            let b = resumed.finish();
            assert_bitwise(&a, &b);
        }
    }

    #[test]
    fn disk_roundtrip_and_integrity_checks() {
        let t = noisy_rank(&[8, 7, 6], 3, 0.05, 11);
        let cfg = AlsConfig::new(3)
            .with_policy(TreePolicy::MultiSweep)
            .with_max_sweeps(10)
            .with_tol(0.0);
        let a = AlsSession::new(&t, &cfg, SessionKind::Exact).run();
        let dir = std::env::temp_dir().join(format!("ppck-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.ppck");
        let mut s = AlsSession::new(&t, &cfg, SessionKind::Exact);
        let _ = s.step();
        let _ = s.step();
        checkpoint::write_file(&path, &s.checkpoint_bytes(7)).unwrap();
        assert!(
            !path.with_extension("ppck.tmp").exists(),
            "the temp file is renamed"
        );
        // A resumed session continues bit-identically.
        let bytes = checkpoint::read_file(&path).unwrap();
        let (mut resumed, tag) = AlsSession::resume_from_bytes(&bytes, &t).unwrap();
        assert_eq!(tag, 7);
        while let Step::Swept(_) = resumed.step() {}
        assert_bitwise(&a, &resumed.finish());
        let resume_err = |res: Result<(AlsSession, u64), String>| match res {
            Err(e) => e,
            Ok(_) => panic!("expected a resume error"),
        };
        // The wrong input tensor is refused by fingerprint.
        let other = noisy_rank(&[8, 7, 6], 3, 0.05, 12);
        let err = resume_err(AlsSession::resume_from_bytes(&bytes, &other));
        assert!(err.contains("fingerprint"), "{err}");
        // Corruption is refused by checksum.
        let mut bytes = bytes;
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let err = resume_err(AlsSession::resume_from_bytes(&bytes, &t));
        assert!(err.contains("checksum"), "{err}");
        // A missing file is an error naming it.
        std::fs::remove_dir_all(&dir).unwrap();
        let err = checkpoint::read_file(&path).unwrap_err();
        assert!(err.contains("job.ppck"), "{err}");
    }

    #[test]
    fn resume_refuses_matrices_that_do_not_fit_the_input() {
        // Well-formed checkpoints (valid frame and checksum) whose
        // matrices do not fit the tensor and the rank are refused at
        // resume, not resumed into a panic in `step`.
        let t = noisy_rank(&[7, 6, 5], 3, 0.05, 13);
        let cfg = AlsConfig::new(3)
            .with_policy(TreePolicy::MultiSweep)
            .with_pp_tol(0.5)
            .with_max_sweeps(8)
            .with_tol(0.0);
        type Edit = fn(&mut AlsSession);
        let forge = |edit: Edit| {
            let mut s = AlsSession::new(&t, &cfg, SessionKind::Pp);
            let _ = s.step();
            edit(&mut s);
            s.checkpoint_bytes(0)
        };
        let cases: [(&str, Edit); 5] = [
            ("a Gram dropped", |s| drop(s.grams.pop())),
            ("a 3 × 3 factor for a 7-row mode", |s| {
                let mut factors = s.fs.factors().to_vec();
                factors[0] = Matrix::zeros(3, 3);
                s.fs = FactorState::from_parts(factors, s.fs.versions().to_vec());
            }),
            ("a drift dropped", |s| {
                drop(s.pp.as_mut().unwrap().drift.pop());
            }),
            ("a reference of the wrong shape", |s| {
                s.pp.as_mut().unwrap().reference = vec![Matrix::zeros(3, 3); 3];
            }),
            ("an approximated sweep without operators", |s| {
                s.pp.as_mut().unwrap().approx = true;
            }),
        ];
        for (what, edit) in cases {
            match AlsSession::resume_from_bytes(&forge(edit), &t) {
                Err(e) => assert!(e.contains("checkpoint"), "{what}: {e}"),
                Ok(_) => panic!("{what}: resumed"),
            }
        }
        // The unedited checkpoint resumes.
        assert!(AlsSession::resume_from_bytes(&forge(|_| {}), &t).is_ok());
    }

    /// Step `s` to its end, calling [`AlsSession::exact_fitness`] after
    /// every sweep when `probe` is set: the output, and each probed sweep's
    /// kind, traced fitness and exact fitness.
    fn run_probed(mut s: AlsSession, probe: bool) -> (AlsOutput, Vec<(SweepKind, f64, f64)>) {
        let mut rows = Vec::new();
        while let Step::Swept(rec) = s.step() {
            if probe {
                rows.push((rec.kind, rec.fitness, s.exact_fitness()));
            }
        }
        (s.finish(), rows)
    }

    /// `probed` ran as `plain` did: every bit of the trace and factors, and
    /// the kernel ledger's counts.
    fn assert_unprobed(plain: &AlsOutput, probed: &AlsOutput) {
        assert_bitwise(plain, probed);
        let (a, b) = (&plain.report.stats, &probed.report.stats);
        assert_eq!(
            (a.ttm_flops, a.ttm_count, a.mttv_flops, a.mttv_count),
            (b.ttm_flops, b.ttm_count, b.mttv_flops, b.mttv_count)
        );
    }

    #[test]
    fn exact_fitness_changes_no_bit_of_the_run_and_is_the_exact_sweeps_fitness() {
        // After every sweep of dt, msdt and pp; on the exact methods it
        // agrees with the traced fitness, which came from another
        // contraction of the same MTTKRP.
        let t = noisy_rank(&[9, 8, 7], 4, 0.05, 21);
        let dt = AlsConfig::new(4).with_max_sweeps(12).with_tol(0.0);
        let msdt = dt.clone().with_policy(TreePolicy::MultiSweep);
        let pp = msdt.clone().with_pp_tol(0.5);
        for (cfg, kind) in [
            (&dt, SessionKind::Exact),
            (&msdt, SessionKind::Exact),
            (&pp, SessionKind::Pp),
        ] {
            let what = format!("{kind:?} {:?}", cfg.policy);
            let (plain, _) = run_probed(AlsSession::new(&t, cfg, kind), false);
            let (probed, rows) = run_probed(AlsSession::new(&t, cfg, kind), true);
            assert_unprobed(&plain, &probed);
            assert_eq!(rows.len(), 12, "{what}");
            if kind == SessionKind::Pp {
                let approx = rows.iter().filter(|r| r.0 == SweepKind::PpApprox).count();
                assert!(approx > 0, "{what}: no approximated sweep");
                continue;
            }
            for (sweep, &(_, traced, exact)) in rows.iter().enumerate() {
                assert!(
                    (traced - exact).abs() <= 1e-12,
                    "{what} sweep {sweep}: traced {traced}, exact {exact}"
                );
            }
        }
    }

    #[test]
    fn exact_fitness_beside_the_pp_estimates_at_collinearity_0_6_to_0_8() {
        // Measured, not asserted (ROADMAP 1(a)): the run that stops 0.12
        // below DT in the Fig. 4 record (s 40, R 8, tensor seed 1004, seed
        // 4, `pp_tol` 0.2, tol 1e-5). Each sweep's traced fitness beside
        // the exact one; at a PP-approx sweep the traced value is Eq. (3)
        // fed the approximated MTTKRP. The probe changes no bit of the run.
        let cc = CollinearityConfig {
            s: 40,
            r: 8,
            order: 3,
            lo: 0.6,
            hi: 0.8,
        };
        let (t, _, _) = collinearity_tensor(&cc, 1004);
        let cfg = AlsConfig::new(8)
            .with_policy(TreePolicy::MultiSweep)
            .with_tol(1e-5)
            .with_max_sweeps(200)
            .with_seed(4)
            .with_pp_tol(0.2);
        let (plain, _) = run_probed(AlsSession::new(&t, &cfg, SessionKind::Pp), false);
        let (probed, rows) = run_probed(AlsSession::new(&t, &cfg, SessionKind::Pp), true);
        assert_unprobed(&plain, &probed);
        println!("sweep kind traced exact traced-exact");
        for (sweep, (kind, traced, exact)) in rows.iter().enumerate() {
            println!(
                "{sweep} {kind:?} {traced:.9} {exact:.9} {:+.3e}",
                traced - exact
            );
        }
    }

    #[test]
    fn resume_refuses_a_stored_norm_that_is_not_a_squared_norm() {
        // A checksum-valid checkpoint whose ‖T‖² is negative or not finite
        // is refused at resume: every fitness of the run divides by it.
        let t = noisy_rank(&[7, 6, 5], 3, 0.05, 13);
        let cfg = AlsConfig::new(3).with_max_sweeps(6).with_tol(0.0);
        let mut s = AlsSession::new(&t, &cfg, SessionKind::Exact);
        s.step();
        let forge = |norm_sq: f64| {
            let (mut s, _) = AlsSession::resume_from_bytes(&s.checkpoint_bytes(0), &t).unwrap();
            s.t_norm_sq = norm_sq;
            s.checkpoint_bytes(0)
        };
        for bad in [-1.0, -1e-300, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            match AlsSession::resume_from_bytes(&forge(bad), &t) {
                Err(e) => assert!(e.contains("norm"), "‖T‖² {bad}: {e}"),
                Ok(_) => panic!("‖T‖² {bad}: resumed"),
            }
        }
        // Zero is a squared norm (of the zero tensor), as is the one stored.
        for good in [0.0, -0.0, t.norm_sq()] {
            assert!(AlsSession::resume_from_bytes(&forge(good), &t).is_ok());
        }
    }

    #[test]
    fn resume_refuses_operators_and_intermediates_that_do_not_fit() {
        // Mid-regime checkpoints with a valid checksum whose PP operators
        // or cached intermediates are misshapen are refused at resume, not
        // resumed into a panic in the first `step`.
        let t = noisy_rank(&[7, 6, 5], 3, 0.05, 13);
        let cfg = AlsConfig::new(3)
            .with_policy(TreePolicy::MultiSweep)
            .with_pp_tol(0.5)
            .with_max_sweeps(30)
            .with_tol(0.0);
        let mut mid = AlsSession::new(&t, &cfg, SessionKind::Pp);
        while mid.pp.as_ref().unwrap().ops.is_none() {
            assert!(
                matches!(mid.step(), Step::Swept(_)),
                "the regime never opened"
            );
        }
        let bytes = mid.checkpoint_bytes(0);
        type Edit = fn(&mut AlsSession);
        let forge = |edit: Edit| {
            let (mut s, _) = AlsSession::resume_from_bytes(&bytes, &t).unwrap();
            edit(&mut s);
            // Every entry, as a writer that did not check validity would.
            s.checkpoint_with(0, &s.engine.cache().entries_sorted())
        };
        fn ops(s: &mut AlsSession) -> &mut PpOperators {
            s.pp.as_mut().unwrap().ops.as_mut().unwrap()
        }
        fn cached(s: &AlsSession) -> Intermediate {
            s.engine.cache().entries_sorted()[0].clone()
        }
        let cases: [(&str, Edit); 8] = [
            ("a 2 × 3 Mp^(0) for a 7-row mode", |s| {
                ops(s).firsts[0] = Matrix::zeros(2, 3)
            }),
            ("an Mp^(n) dropped", |s| drop(ops(s).firsts.pop())),
            ("a pair operator dropped", |s| {
                drop(ops(s).pairs.remove(&(0, 1)));
            }),
            ("pair (0, 2) filed under (0, 1)", |s| {
                let pair = ops(s).pairs[&(0, 2)].clone();
                ops(s).pairs.insert((0, 1), pair);
            }),
            ("a pair operator of swapped extents", |s| {
                let pair = ops(s).pairs.get_mut(&(1, 2)).unwrap();
                pair.tensor = std::sync::Arc::new(DenseTensor::zeros(vec![5, 6, 3]));
                pair.mode_order = vec![1, 2];
            }),
            ("a cached intermediate one row short", |s| {
                let mut e = cached(s);
                let mut dims = e.tensor.shape().dims().to_vec();
                dims[0] -= 1;
                e.tensor = std::sync::Arc::new(DenseTensor::zeros(dims));
                s.engine.cache_mut().insert(e);
            }),
            ("a cached intermediate over a mode the input lacks", |s| {
                let mut e = cached(s);
                e.mode_order[0] = 3;
                s.engine.cache_mut().insert(e);
            }),
            ("a cached intermediate without one factor's version", |s| {
                let mut e = cached(s);
                e.versions.pop();
                s.engine.cache_mut().insert(e);
            }),
        ];
        for (what, edit) in cases {
            match AlsSession::resume_from_bytes(&forge(edit), &t) {
                Err(e) => assert!(
                    e.contains("checkpoint") || e.contains("cached"),
                    "{what}: {e}"
                ),
                Ok(_) => panic!("{what}: resumed"),
            }
        }
        // The unedited checkpoint resumes and runs to the end as the
        // uninterrupted session does.
        let (mut resumed, _) = AlsSession::resume_from_bytes(&forge(|_| {}), &t).unwrap();
        while let Step::Swept(_) = resumed.step() {}
        assert_bitwise(
            &resumed.finish(),
            &AlsSession::new(&t, &cfg, SessionKind::Pp).run(),
        );
    }

    #[test]
    fn resume_refuses_state_that_is_not_finite() {
        // A mid-regime checkpoint with a valid checksum and a NaN or ±Inf in
        // any stored matrix is refused at resume, naming the matrix; before,
        // it resumed and ran to a silently wrong answer.
        let t = noisy_rank(&[7, 6, 5], 3, 0.05, 13);
        let cfg = AlsConfig::new(3)
            .with_policy(TreePolicy::MultiSweep)
            .with_pp_tol(0.5)
            .with_max_sweeps(30)
            .with_tol(0.0);
        let mut mid = AlsSession::new(&t, &cfg, SessionKind::Pp);
        while mid.pp.as_ref().unwrap().ops.is_none() {
            assert!(
                matches!(mid.step(), Step::Swept(_)),
                "the regime never opened"
            );
        }
        let regime = mid.pp.as_ref().unwrap();
        assert!(!regime.reference.is_empty() && !regime.drift.is_empty());
        assert!(!mid.engine.cache().is_empty(), "no cached intermediate");
        let bytes = mid.checkpoint_bytes(0);
        type Edit = fn(&mut AlsSession, f64);
        let forge = |edit: Edit, bad: f64| {
            let (mut s, _) = AlsSession::resume_from_bytes(&bytes, &t).unwrap();
            edit(&mut s, bad);
            s.checkpoint_with(0, &s.engine.cache().entries_sorted())
        };
        fn pp(s: &mut AlsSession) -> &mut PpRegime {
            s.pp.as_mut().unwrap()
        }
        let cases: [(&str, Edit); 7] = [
            ("factor 1", |s, bad| {
                let mut m = s.fs.factor(1).clone();
                m.data_mut()[4] = bad;
                s.fs.overwrite_same_version(1, m);
            }),
            ("Gram 2", |s, bad| s.grams[2].data_mut()[3] = bad),
            ("PP drift 0", |s, bad| pp(s).drift[0].data_mut()[5] = bad),
            ("PP reference 1", |s, bad| {
                pp(s).reference[1].data_mut()[0] = bad
            }),
            ("PP operator Mp^(2)", |s, bad| {
                pp(s).ops.as_mut().unwrap().firsts[2].data_mut()[2] = bad
            }),
            ("PP pair operator (0, 2)", |s, bad| {
                let ops = pp(s).ops.as_mut().unwrap();
                let pair = ops.pairs.get_mut(&(0, 2)).unwrap();
                std::sync::Arc::make_mut(&mut pair.tensor).data_mut()[1] = bad;
            }),
            ("cached intermediate of modes", |s, bad| {
                let mut e = s.engine.cache().entries_sorted()[0].clone();
                let mut tensor = (*e.tensor).clone();
                tensor.data_mut()[7] = bad;
                e.tensor = std::sync::Arc::new(tensor);
                s.engine.cache_mut().insert(e);
            }),
        ];
        for (what, edit) in cases {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                match AlsSession::resume_from_bytes(&forge(edit, bad), &t) {
                    Err(e) => assert!(
                        e.contains(what) && e.contains("not a finite value"),
                        "{what} {bad}: {e}"
                    ),
                    Ok(_) => panic!("{what} {bad}: resumed"),
                }
            }
        }
        // The same edit with a finite value resumes.
        for (what, edit) in cases {
            let resumed = AlsSession::resume_from_bytes(&forge(edit, 0.5), &t);
            assert!(resumed.is_ok(), "{what} 0.5: {:?}", resumed.err());
        }
    }

    #[test]
    fn checkpoints_carry_only_valid_intermediates() {
        // Inside an approximated regime the cache still holds what the
        // factor updates made stale (at order 3, the pair operators, which
        // `ops` writes too). A checkpoint leaves those out, and the resumed
        // run is the uninterrupted one.
        let t = noisy_rank(&[7, 6, 5], 3, 0.05, 13);
        let cfg = AlsConfig::new(3)
            .with_policy(TreePolicy::MultiSweep)
            .with_pp_tol(0.5)
            .with_max_sweeps(30)
            .with_tol(0.0);
        let mut mid = AlsSession::new(&t, &cfg, SessionKind::Pp);
        while mid.report().sweeps.last().map(|r| r.kind) != Some(SweepKind::PpApprox) {
            assert!(
                matches!(mid.step(), Step::Swept(_)),
                "the regime never opened"
            );
        }
        let cached = mid.engine.cache().entries_sorted();
        let valid = cached
            .iter()
            .filter(|e| e.valid_for(mid.fs.versions()))
            .count();
        assert!(valid < cached.len(), "nothing went stale");
        let (mut resumed, _) = AlsSession::resume_from_bytes(&mid.checkpoint_bytes(0), &t).unwrap();
        assert_eq!(resumed.engine.cache().len(), valid);
        while let Step::Swept(_) = resumed.step() {}
        assert_bitwise(
            &resumed.finish(),
            &AlsSession::new(&t, &cfg, SessionKind::Pp).run(),
        );
    }

    #[test]
    fn sparse_session_matches_pointwise_oracle_bitwise() {
        // A sparse exact session must reproduce — bit for bit — a manual
        // exact ALS over the densified tensor using the dense pointwise
        // oracle kernel (the parity contract of the CSF MTTKRP).
        use pp_datagen::sparse::powerlaw_sparse;
        use pp_tensor::kernels::naive::mttkrp_pointwise;
        let sp = powerlaw_sparse(&[9, 8, 7], 120, 1.5, 21);
        let dense = sp.to_dense();
        let sweeps = 6;
        let cfg = AlsConfig::new(3).with_max_sweeps(sweeps).with_tol(0.0);
        let out = AlsSession::new_sparse(&sp, &cfg, SessionKind::Exact).run();

        let mut factors = init_factors(sp.dims(), cfg.rank, cfg.seed);
        let mut grams: Vec<Matrix> = factors.iter().map(|a| a.gram()).collect();
        let t_norm_sq = dense.norm_sq();
        let mut fits = Vec::new();
        for _ in 0..sweeps {
            let mut last = None;
            for n in 0..3 {
                let gamma = hadamard_chain_skip(&grams, n);
                let m = mttkrp_pointwise(&dense, &factors, n);
                let a_new = solve_gram(&gamma, &m).0;
                grams[n] = a_new.gram();
                factors[n] = a_new;
                if n == 2 {
                    last = Some((gamma, m));
                }
            }
            let (gamma, m) = last.unwrap();
            let r = relative_residual(t_norm_sq, &gamma, &grams[2], &m, &factors[2]);
            fits.push(fitness_from_residual(r));
        }
        assert_eq!(out.report.sweeps.len(), sweeps);
        for (rec, want) in out.report.sweeps.iter().zip(&fits) {
            assert_eq!(rec.fitness.to_bits(), want.to_bits());
        }
        for (a, b) in out.factors.iter().zip(&factors) {
            assert_eq!(a.data(), b.data());
        }
        // The sparse path never materializes tree intermediates: every
        // MTTKRP is one CSF MTTKRP of nnz·R·N flops.
        let stats = &out.report.stats;
        assert_eq!(stats.mttv_count, 0);
        assert_eq!(stats.ttm_count, 3 * sweeps as u64);
        assert_eq!(stats.ttm_flops, stats.ttm_count * sp.nnz() as u64 * 3 * 3);
    }

    #[test]
    fn sparse_checkpoint_roundtrip_and_fingerprint() {
        let (sp, _) = pp_datagen::sparse::sparse_lowrank(&[10, 9, 8], 2, 0.2, 7);
        let cfg = AlsConfig::new(2).with_max_sweeps(8).with_tol(0.0);
        let a = AlsSession::new_sparse(&sp, &cfg, SessionKind::Exact).run();
        for cut in [1, 4] {
            let mut s = AlsSession::new_sparse(&sp, &cfg, SessionKind::Exact);
            for _ in 0..cut {
                let _ = s.step();
            }
            let bytes = s.checkpoint_bytes(0xBEEF);
            let (mut resumed, tag) = AlsSession::resume_from_bytes_sparse(&bytes, &sp).unwrap();
            assert_eq!(tag, 0xBEEF);
            assert_eq!(resumed.sweeps_done(), cut);
            while let Step::Swept(_) = resumed.step() {}
            let b = resumed.finish();
            assert_bitwise(&a, &b);
        }
        let mut s = AlsSession::new_sparse(&sp, &cfg, SessionKind::Exact);
        let _ = s.step();
        let bytes = s.checkpoint_bytes(1);
        let resume_err = |res: Result<(AlsSession, u64), String>| match res {
            Err(e) => e,
            Ok(_) => panic!("expected a resume error"),
        };
        // A different sparse tensor is refused by fingerprint.
        let (other, _) = pp_datagen::sparse::sparse_lowrank(&[10, 9, 8], 2, 0.2, 8);
        let err = resume_err(AlsSession::resume_from_bytes_sparse(&bytes, &other));
        assert!(err.contains("fingerprint"), "{err}");
        // Domain separation: a sparse checkpoint refuses a dense resume
        // even against the element-for-element densified tensor.
        let err = resume_err(AlsSession::resume_from_bytes(&bytes, &sp.to_dense()));
        assert!(err.contains("fingerprint"), "{err}");
        // And a dense checkpoint refuses a sparse resume.
        let dense = sp.to_dense();
        let mut d = AlsSession::new(&dense, &cfg, SessionKind::Exact);
        let _ = d.step();
        let dense_bytes = d.checkpoint_bytes(2);
        let err = resume_err(AlsSession::resume_from_bytes_sparse(&dense_bytes, &sp));
        assert!(err.contains("fingerprint"), "{err}");
    }

    /// The forest a sparse session sweeps over.
    fn forest_of(s: &AlsSession) -> *const pp_tensor::CsfTensor {
        s.input.sparse().expect("a sparse input").csf()
    }

    #[test]
    fn sparse_sessions_read_the_tensors_one_forest() {
        // Sessions over a tensor and over a clone of it, of every sparse
        // method, and one resumed from a checkpoint, all sweep the forest
        // the tensor keeps: no set-up builds another.
        let (sp, _) = pp_datagen::sparse::sparse_lowrank(&[12, 10, 9], 2, 0.2, 5);
        let forest: *const pp_tensor::CsfTensor = sp.csf();
        let clone = sp.clone();
        let exact = AlsConfig::new(2).with_max_sweeps(4).with_tol(0.0);
        let multi = exact.clone().with_policy(TreePolicy::MultiSweep);
        let mut sessions = vec![
            AlsSession::new_sparse(&sp, &exact, SessionKind::Exact),
            AlsSession::new_sparse(&clone, &exact, SessionKind::Exact),
            AlsSession::new_sparse(&clone, &multi, SessionKind::Exact),
            AlsSession::new_sparse(&sp, &multi.clone().with_pp_tol(0.5), SessionKind::Pp),
        ];
        for s in &mut sessions {
            assert!(std::ptr::eq(forest_of(s), forest));
            let _ = s.step();
        }
        let bytes = sessions[0].checkpoint_bytes(0);
        let (resumed, _) = AlsSession::resume_from_bytes_sparse(&bytes, &clone).unwrap();
        assert!(std::ptr::eq(forest_of(&resumed), forest), "resumed");
        assert_eq!(sp.norm_sq().to_bits(), resumed.t_norm_sq.to_bits());
    }

    #[test]
    fn sessions_opened_at_once_on_one_tensor_build_one_forest() {
        // Two threads open sessions on one tensor at once, at pool widths 1
        // and 2: neither waits forever, both sweep one forest, and each
        // run's trace is a lone run's bit for bit, over a forest of its own.
        let dims = [40, 36, 32];
        let cfg = AlsConfig::new(4).with_max_sweeps(5).with_tol(0.0);
        for width in [1, 2] {
            let cfg = cfg.clone().with_threads(width);
            let (sp, _) = pp_datagen::sparse::sparse_lowrank(&dims, 4, 0.05, 21);
            let (lone_tensor, _) = pp_datagen::sparse::sparse_lowrank(&dims, 4, 0.05, 21);
            let lone = AlsSession::new_sparse(&lone_tensor, &cfg, SessionKind::Exact).run();
            let barrier = std::sync::Barrier::new(2);
            let runs: Vec<(usize, AlsOutput)> = std::thread::scope(|s| {
                let open = || {
                    barrier.wait();
                    let mut session = AlsSession::new_sparse(&sp, &cfg, SessionKind::Exact);
                    let forest = forest_of(&session) as usize;
                    while let Step::Swept(_) = session.step() {}
                    (forest, session.finish())
                };
                let handles = [s.spawn(open), s.spawn(open)];
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(runs[0].0, runs[1].0, "width {width}: two forests");
            assert_eq!(runs[0].0, sp.csf() as *const _ as usize);
            for (_, run) in &runs {
                assert_bitwise(run, &lone);
            }
        }
    }

    #[test]
    #[should_panic(expected = "nncp")]
    fn sparse_session_rejects_nonneg_kind() {
        let (sp, _) = pp_datagen::sparse::sparse_lowrank(&[6, 6, 6], 2, 0.3, 3);
        let cfg = AlsConfig::new(2);
        let _ = AlsSession::new_sparse(&sp, &cfg, SessionKind::NonNeg);
    }

    #[test]
    #[should_panic(expected = "multi-sweep")]
    fn sparse_pp_requires_multisweep_policy() {
        let (sp, _) = pp_datagen::sparse::sparse_lowrank(&[6, 6, 6], 2, 0.3, 3);
        let cfg = AlsConfig::new(2); // Standard policy
        let _ = AlsSession::new_sparse(&sp, &cfg, SessionKind::Pp);
    }

    #[test]
    fn sparse_pp_exact_sweeps_match_sparse_dt_bitwise() {
        // PP on a sparse input runs its exact sweeps on the CSF forest, as
        // DT does: up to the first PP initialization the two sessions (same
        // rank and seed) give the same trace and factors, bit for bit. The
        // pair operators are fiber walks of the same forest.
        let (sp, _) = pp_datagen::sparse::sparse_lowrank(&[9, 8, 7], 2, 0.2, 29);
        let cfg = AlsConfig::new(2)
            .with_policy(TreePolicy::MultiSweep)
            .with_pp_tol(0.5)
            .with_max_sweeps(20)
            .with_tol(0.0);
        let pp = AlsSession::new_sparse(&sp, &cfg, SessionKind::Pp).run();
        assert!(
            pp.report.count(SweepKind::PpApprox) >= 1,
            "PP regime never entered — pp_tol too tight for the test"
        );
        let exact = pp
            .report
            .sweeps
            .iter()
            .position(|r| r.kind == SweepKind::PpInit)
            .expect("regime must open");
        let dt_cfg = cfg
            .clone()
            .with_policy(TreePolicy::Standard)
            .with_max_sweeps(exact);
        let dt = AlsSession::new_sparse(&sp, &dt_cfg, SessionKind::Exact).run();
        let mut s = AlsSession::new_sparse(&sp, &cfg, SessionKind::Pp);
        for _ in 0..exact {
            let _ = s.step();
        }
        let head = AlsOutput {
            factors: s.factors().to_vec(),
            report: s.report().clone(),
        };
        assert_bitwise(&dt, &head);
        // Before the regime opens only the forest's MTTKRPs ran.
        let (nnz, rank) = (s.input_nnz().unwrap() as u64, cfg.rank as u64);
        assert_eq!(s.stats().ttm_count, 3 * exact as u64);
        assert_eq!(s.stats().ttm_flops, s.stats().ttm_count * nnz * rank * 3);
    }

    #[test]
    fn sparse_pp_checkpoint_mid_regime_is_bit_identical() {
        // Stop inside the PP regime, serialize (the dense pair operators
        // travel; the forest caches nothing), resume, finish:
        // the completed run must match the uninterrupted one bit for bit.
        let (sp, _) = pp_datagen::sparse::sparse_lowrank(&[9, 8, 7], 2, 0.2, 29);
        let cfg = AlsConfig::new(2)
            .with_policy(TreePolicy::MultiSweep)
            .with_pp_tol(0.5)
            .with_max_sweeps(20)
            .with_tol(0.0);
        let a = AlsSession::new_sparse(&sp, &cfg, SessionKind::Pp).run();
        let first_approx = a
            .report
            .sweeps
            .iter()
            .position(|r| r.kind == SweepKind::PpApprox)
            .expect("regime must open");
        for cut in [first_approx, first_approx + 1] {
            let mut s = AlsSession::new_sparse(&sp, &cfg, SessionKind::Pp);
            for _ in 0..cut {
                let _ = s.step();
            }
            let bytes = s.checkpoint_bytes(0xFACADE);
            let (mut resumed, tag) = AlsSession::resume_from_bytes_sparse(&bytes, &sp).unwrap();
            assert_eq!(tag, 0xFACADE);
            while let Step::Swept(_) = resumed.step() {}
            assert_bitwise(&a, &resumed.finish());
        }
    }

    #[test]
    fn sweep_records_expose_progress() {
        let t = noisy_rank(&[6, 5, 7], 2, 0.05, 9);
        let cfg = AlsConfig::new(2).with_max_sweeps(5).with_tol(0.0);
        let mut s = AlsSession::new(&t, &cfg, SessionKind::Exact);
        let mut n = 0;
        while let Step::Swept(rec) = s.step() {
            n += 1;
            assert_eq!(s.sweeps_done(), n);
            assert_eq!(rec.fitness.to_bits(), s.last_fitness().to_bits());
        }
        assert_eq!(n, 5);
    }

    /// A forged count at each of the three session-level sites — sweeps,
    /// PP pair operators, cached entries — that the checksum lets through
    /// is an `Err` naming the field, not an allocation that aborts the
    /// process.
    #[test]
    fn forged_session_counts_are_errors() {
        let forged = 1u64 << 40;
        let mut w = checkpoint::Writer::new();
        w.u64_(forged);
        let bytes = w.frame();
        let mut r = checkpoint::Reader::open(&bytes).unwrap();
        let err = Progress::read(&mut r).err().expect("sweep count");
        assert!(err.contains("sweep count"), "{err}");

        let mut w = checkpoint::Writer::new();
        w.matrices(&[]);
        w.matrices(&[]);
        w.bool_(true);
        w.u64_(forged);
        let bytes = w.frame();
        let mut r = checkpoint::Reader::open(&bytes).unwrap();
        let err = PpRegime::read(&mut r, true).err().expect("pair count");
        assert!(err.contains("PP pair operator count"), "{err}");

        // A fresh session caches nothing, so its cached-entry count sits
        // right before the kernel stats and the progress, which end the
        // payload.
        let t = noisy_rank(&[8, 6, 7], 3, 0.05, 13);
        let cfg = AlsConfig::new(3).with_max_sweeps(3).with_tol(0.0);
        let s = AlsSession::new(&t, &cfg, SessionKind::Exact);
        let mut bytes = s.checkpoint_bytes(0);
        let mut tail = checkpoint::Writer::new();
        tail.stats(&s.engine.stats);
        s.progress.write(&mut tail);
        let at = bytes.len() - (tail.frame().len() - 24) - 8;
        bytes[at..at + 8].copy_from_slice(&forged.to_le_bytes());
        let sum = checkpoint::fnv1a(&bytes[24..]);
        bytes[16..24].copy_from_slice(&sum.to_le_bytes());
        let err = AlsSession::resume_from_bytes(&bytes, &t)
            .err()
            .expect("cached count");
        assert!(err.contains("cached entry count"), "{err}");
    }
}
