//! Resumable ALS sessions: the sweep-granular state machine every
//! decomposition runs as.
//!
//! An [`AlsSession`] owns *all* state a CP decomposition needs between
//! sweeps — the input tensor in its one stored layout, the dimension-tree
//! engine with its intermediate cache, the versioned factors, the
//! replicated Gram matrices, the PP regime state (`A_p` reference, `dA`
//! drifts, pair operators), and the fitness trace.
//! [`AlsSession::step`] advances **exactly one sweep** (an exact ALS
//! sweep, a PP initialization, or a PP approximated sweep — the same
//! categories as [`crate::result::SweepKind`]), [`AlsSession::run`] steps
//! to the end, and [`AlsSession::finish`] produces the [`AlsOutput`].
//! `tests/golden_traces.rs` pins the traces bitwise and
//! `tests/session_parity.rs` checks arbitrary pause/resume schedules
//! against `run`.
//!
//! The trace and the stop rule (the Δ criterion, the sweep budget, the
//! sealed report and their checkpoint bytes) are one crate-private type,
//! `Progress`, shared with [`crate::par_session::ParSession`] and, through
//! its inner session, [`crate::stream::StreamingSession`].
//!
//! Sessions are what make decompositions *schedulable*: a session between
//! steps holds no pool resource (every contraction runs to completion
//! inside [`AlsSession::step`]), so a batch scheduler (`crates/serve`) can
//! interleave sweeps from many tenants over the one persistent worker pool
//! with per-job fairness and failure isolation.

use crate::checkpoint::{sparse_fingerprint, tensor_fingerprint, Reader, Writer};
use crate::config::{AlsConfig, SolveStrategy};
use crate::fitness::{fitness_from_residual, relative_residual};
use crate::init::init_factors;
use crate::nonneg::hals_update;
use crate::result::{AlsOutput, AlsReport, SweepKind, SweepRecord};
use pp_dtree::correct::{approx_mttkrp, correction_flops, d_gram};
use pp_dtree::pp_tree::{build_pp_operators, PpOperators};
use pp_dtree::{DimTreeEngine, FactorState, InputTensor, Kernel, KernelStats, TreePolicy};
use pp_tensor::matrix::hadamard_chain_skip;
use pp_tensor::solve::solve_gram;
use pp_tensor::sparse::SparseTensor;
use pp_tensor::{DenseTensor, Matrix, Workspace};
use std::time::{Duration, Instant};

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

    pub(crate) fn report(&self) -> &AlsReport {
        &self.report
    }

    pub(crate) fn last_fitness(&self) -> f64 {
        self.report.sweeps.last().map_or(f64::NAN, |s| s.fitness)
    }

    pub(crate) fn sweeps_done(&self) -> usize {
        self.sweeps_done
    }

    pub(crate) fn converged(&self) -> bool {
        self.converged
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
        let n_sweeps = r.usize_()?;
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

/// Phase of the PP regime between steps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PpPhase {
    /// Top of Alg. 2's outer loop: evaluate the dA gate; a step either
    /// performs the PP initialization (gate open) or an exact sweep.
    Gate,
    /// Inside the approximated regime: a step performs one PP sweep.
    Approx,
}

/// The sweep-to-sweep state a streaming arrival mutates, borrowed
/// disjointly so [`crate::stream`] can extend the input, factors, Grams,
/// and dimension-tree cache in one coherent transaction.
pub(crate) struct StreamParts<'a> {
    pub(crate) cfg: &'a mut AlsConfig,
    pub(crate) kind: SessionKind,
    pub(crate) input: &'a mut InputTensor,
    pub(crate) engine: &'a mut DimTreeEngine,
    pub(crate) fs: &'a mut FactorState,
    pub(crate) grams: &'a mut Vec<Matrix>,
    pub(crate) t_norm_sq: &'a mut f64,
    pub(crate) d_factors: &'a mut Vec<Matrix>,
    pub(crate) factors_p: &'a mut Vec<Matrix>,
    pub(crate) ops: &'a mut Option<PpOperators>,
    pub(crate) phase: &'a mut PpPhase,
    pub(crate) progress: &'a mut Progress,
}

/// A resumable CP-ALS / PP-CP-ALS / NNCP run. See the module docs.
pub struct AlsSession {
    cfg: AlsConfig,
    kind: SessionKind,
    input: InputTensor,
    engine: DimTreeEngine,
    fs: FactorState,
    grams: Vec<Matrix>,
    t_norm_sq: f64,
    /// `dA^(i)` over the most recent sweep (PP only; Alg. 2 line 2
    /// initializes it to `A` so PP never fires before the first sweep).
    d_factors: Vec<Matrix>,
    /// The frozen `A_p` reference of the current PP regime.
    factors_p: Vec<Matrix>,
    /// Pair operators `𝓜p^(i,j)` of the current PP regime.
    ops: Option<PpOperators>,
    phase: PpPhase,
    progress: Progress,
}

/// The dense input a session sweeps over: one layout for either tree, led
/// by `evolving` when the tensor will grow along that mode (streaming).
fn dense_input(t: &DenseTensor, evolving: Option<usize>) -> InputTensor {
    match evolving {
        Some(e) => InputTensor::evolving(t, e),
        None => InputTensor::new(t.clone()),
    }
}

/// The sparse input a session sweeps over, at construction and at resume
/// alike: the semi-sparse chain's TTM plans for exact ALS on the
/// multi-sweep tree (`msdt`), the CSF forest otherwise — `dt`'s direct
/// MTTKRP, and `pp`'s, whose pair operators are walks of the same trees.
fn sparse_input(sp: &SparseTensor, policy: TreePolicy, kind: SessionKind) -> InputTensor {
    match (policy, kind) {
        (TreePolicy::MultiSweep, SessionKind::Exact) => InputTensor::new_sparse_chained(sp.clone()),
        _ => InputTensor::new_sparse(sp.clone()),
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
        Self::build(t, cfg, kind, init, evolving)
    }

    /// New session from caller-provided initial factors.
    pub fn with_init(
        t: &DenseTensor,
        cfg: &AlsConfig,
        kind: SessionKind,
        init: Vec<Matrix>,
    ) -> Self {
        Self::build(t, cfg, kind, init, None)
    }

    fn build(
        t: &DenseTensor,
        cfg: &AlsConfig,
        kind: SessionKind,
        init: Vec<Matrix>,
        evolving: Option<usize>,
    ) -> Self {
        let n_modes = t.order();
        assert!(n_modes >= 2);
        if kind == SessionKind::Pp {
            assert!(n_modes >= 3, "pairwise perturbation needs order ≥ 3");
        }
        assert_eq!(init.len(), n_modes);
        let _threads = cfg.thread_guard();

        // ‖T‖² is one serial pass; it rides beside the layout construction.
        let (input, t_norm_sq) = rayon::join(|| dense_input(t, evolving), || t.norm_sq());
        Self::from_input(input, t_norm_sq, cfg, kind, init)
    }

    /// The one place a fresh session is assembled: `input` is whatever the
    /// caller's tensor kind and tree policy produced (the input-specific
    /// asserts stay with the callers).
    fn from_input(
        input: InputTensor,
        t_norm_sq: f64,
        cfg: &AlsConfig,
        kind: SessionKind,
        init: Vec<Matrix>,
    ) -> Self {
        let engine = DimTreeEngine::new(cfg.policy, init.len());
        let fs = FactorState::new(init);
        let grams: Vec<Matrix> = fs.factors().iter().map(|a| a.gram()).collect();
        let d_factors = if kind == SessionKind::Pp {
            fs.factors().to_vec()
        } else {
            Vec::new()
        };

        AlsSession {
            cfg: cfg.clone(),
            kind,
            input,
            engine,
            fs,
            grams,
            t_norm_sq,
            d_factors,
            factors_p: Vec::new(),
            ops: None,
            phase: PpPhase::Gate,
            progress: Progress::new(),
        }
    }

    /// New session over a **sparse** input with the default seeded factor
    /// initialization. Three method combinations are admitted:
    ///
    /// * `Exact` + [`TreePolicy::Standard`] (the `dt` method): every MTTKRP
    ///   routes through the direct CSF kernel.
    /// * `Exact` + [`TreePolicy::MultiSweep`] (the `msdt` method): the
    ///   dimension tree runs over **semi-sparse** intermediates (dense rank
    ///   panels on the surviving fiber structure) — the input is never
    ///   densified.
    /// * `Pp` + [`TreePolicy::MultiSweep`] (the `pp` method): exact sweeps
    ///   run the direct CSF kernel, as `dt` does, and each PP pair operator
    ///   is one walk of a fiber tree of the same forest; only the
    ///   operator-sized pair tensors are dense.
    ///
    /// Non-negative ALS is not supported on sparse inputs. Sparse PP keeps
    /// the multi-sweep policy its jobs have always carried; a checkpoint's
    /// policy and kind determine how the input is rebuilt at resume.
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
            assert!(sp.order() >= 3, "pairwise perturbation needs order ≥ 3");
        }
        let init = init_factors(sp.dims(), cfg.rank, cfg.seed);
        let n_modes = sp.order();
        assert!(n_modes >= 2);
        let _threads = cfg.thread_guard();
        let input = sparse_input(sp, cfg.policy, kind);
        Self::from_input(input, sp.norm_sq(), cfg, kind, init)
    }

    /// Stored nonzeros of a sparse input; `None` over a dense tensor.
    pub fn input_nnz(&self) -> Option<usize> {
        self.input.sparse().map(|sp| sp.coo.nnz())
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
        self.progress.sweeps_done()
    }

    /// Whether stepping has stopped (converged or out of budget).
    pub fn is_finished(&self) -> bool {
        self.progress.is_finished(self.cfg.max_sweeps)
    }

    /// Whether the Δ criterion has been met.
    pub fn converged(&self) -> bool {
        self.progress.converged()
    }

    /// Fitness after the most recent sweep (NaN before the first).
    pub fn last_fitness(&self) -> f64 {
        self.progress.last_fitness()
    }

    /// The trace accumulated so far.
    pub fn report(&self) -> &AlsReport {
        self.progress.report()
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

    /// Suspend point: a no-op. A session between steps already holds no
    /// pool resource, since every contraction finishes inside
    /// [`AlsSession::step`]; the call stays for embedders that mark where
    /// they set a session aside.
    pub fn park(&mut self) {}

    /// Auxiliary memory this session currently holds, in f64 elements:
    /// the engine's intermediate cache, the buffers its workspace holds
    /// for reuse, and any PP pair operators. This is the Table I
    /// cache-memory metric the batch scheduler's admission control budgets
    /// against.
    pub fn cache_memory_elems(&self) -> usize {
        self.engine.cache_memory_elems() + self.ops.as_ref().map_or(0, |o| o.memory_elems())
    }

    /// Serialize the complete sweep-to-sweep state as a `PPCK` checkpoint
    /// (versioned binary format with an FNV-1a integrity check — see
    /// [`crate::checkpoint`], whose `write_file` stores it). `tag` is an
    /// opaque caller fingerprint (e.g. of the job spec) returned verbatim
    /// by [`AlsSession::resume_from_bytes`].
    pub fn checkpoint_bytes(&self, tag: u64) -> Vec<u8> {
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
        w.u8_(match self.phase {
            PpPhase::Gate => 0,
            PpPhase::Approx => 1,
        });
        // Input binding: the tensor itself is rebuilt from its dataset
        // spec at resume; only its fingerprint travels. Sparse inputs use
        // a domain-separated fingerprint so a dense checkpoint can never
        // resume against a sparse tensor (or vice versa).
        w.u64_(match self.input.sparse() {
            Some(sp) => sparse_fingerprint(&sp.coo),
            None => tensor_fingerprint(&self.input.canonical()),
        });
        w.f64_(self.t_norm_sq);
        // Factors with versions, Grams, PP regime state.
        w.matrices(self.fs.factors());
        w.u64s(self.fs.versions());
        w.matrices(&self.grams);
        w.matrices(&self.d_factors);
        w.matrices(&self.factors_p);
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
        // The engine's intermediate cache: restoring it is what keeps the
        // resumed run's contraction schedule (and hence its flop trace)
        // identical to the uninterrupted one.
        let entries = self.engine.cache().entries_sorted();
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
        Self::resume_core(bytes, tensor_fingerprint(t), t.order(), |_, _| {
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
        Self::resume_core(bytes, sparse_fingerprint(sp), sp.order(), |cfg, kind| {
            sparse_input(sp, cfg.policy, kind)
        })
    }

    /// Shared resume path: decode the checkpoint, verify the expected
    /// input fingerprint and order, and rebuild the runtime-only pieces
    /// with the caller-supplied input constructor.
    fn resume_core(
        bytes: &[u8],
        fp_expected: u64,
        order: usize,
        build_input: impl FnOnce(&AlsConfig, SessionKind) -> InputTensor,
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
        let phase = match r.u8_()? {
            0 => PpPhase::Gate,
            1 => PpPhase::Approx,
            v => return Err(format!("invalid PP phase {v}")),
        };
        let fp = r.u64_()?;
        if fp != fp_expected {
            return Err("input tensor does not match the checkpoint (fingerprint mismatch)".into());
        }
        let t_norm_sq = r.f64_()?;
        let factors = r.matrices()?;
        let versions = r.u64s()?;
        let n_modes = factors.len();
        if n_modes != order || n_modes != versions.len() {
            return Err("checkpoint factor count does not match the tensor order".into());
        }
        let fs = FactorState::from_parts(factors, versions);
        let grams = r.matrices()?;
        let d_factors = r.matrices()?;
        let factors_p = r.matrices()?;
        let ops = if r.bool_()? {
            let n_pairs = r.usize_()?;
            let mut pairs = std::collections::HashMap::with_capacity(n_pairs);
            for _ in 0..n_pairs {
                let i = r.usize_()?;
                let j = r.usize_()?;
                pairs.insert((i, j), r.intermediate()?);
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
        let n_cached = r.usize_()?;
        let mut cached = Vec::with_capacity(n_cached);
        for _ in 0..n_cached {
            cached.push(r.intermediate()?);
        }
        let engine_stats = r.stats()?;
        let progress = Progress::read(&mut r)?;
        if !r.exhausted() {
            return Err("checkpoint has trailing bytes".into());
        }

        // Rebuild the runtime-only pieces (input layout / CSF trees,
        // engine) exactly as construction does, then reinstall the cached
        // intermediates and stats the checkpoint captured.
        let input = build_input(&cfg, kind);
        let mut engine = DimTreeEngine::new(cfg.policy, n_modes);
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
                d_factors,
                factors_p,
                ops,
                phase,
                progress,
            },
            tag,
        ))
    }

    /// Disjoint mutable borrows of everything a streaming arrival rewrites
    /// (see [`crate::stream::StreamingSession::arrive`]). Kept out of the
    /// public API: the invariants between these fields (Gram ↔ factor,
    /// cache ↔ versions) are the session's to maintain.
    pub(crate) fn stream_parts(&mut self) -> StreamParts<'_> {
        StreamParts {
            cfg: &mut self.cfg,
            kind: self.kind,
            input: &mut self.input,
            engine: &mut self.engine,
            fs: &mut self.fs,
            grams: &mut self.grams,
            t_norm_sq: &mut self.t_norm_sq,
            d_factors: &mut self.d_factors,
            factors_p: &mut self.factors_p,
            ops: &mut self.ops,
            phase: &mut self.phase,
            progress: &mut self.progress,
        }
    }

    /// Advance exactly one sweep. Idempotent once the session is finished.
    pub fn step(&mut self) -> Step {
        if let Some(reason) = self.progress.stop(self.cfg.max_sweeps) {
            return Step::Done(reason);
        }
        let _threads = self.cfg.thread_guard();

        let (kind, (secs, fitness)) = match (self.kind, self.phase) {
            (SessionKind::Pp, PpPhase::Approx) => (SweepKind::PpApprox, self.pp_approx_sweep()),
            (SessionKind::Pp, PpPhase::Gate) if self.pp_gate_open() => {
                (SweepKind::PpInit, self.pp_init())
            }
            _ => (SweepKind::Exact, self.exact_sweep()),
        };
        self.engine.end_sweep();
        let rec = self.progress.push(kind, secs, fitness, self.cfg.tol);
        // Drift gate after an approximated sweep that did not converge
        // (Alg. 2 line 16): leaving the regime falls through to an exact
        // sweep, which is exactly what `PpPhase::Gate` does next step (the
        // gate re-evaluates the same condition that just failed).
        if kind == SweepKind::PpApprox && !self.progress.converged() && !self.pp_gate_open() {
            self.phase = PpPhase::Gate;
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

    /// The PP activation gate: `‖dA^(i)‖F < ε‖A^(i)‖F` for every mode.
    fn pp_gate_open(&self) -> bool {
        (0..self.fs.order())
            .all(|i| self.d_factors[i].norm() < self.cfg.pp_tol * self.fs.factor(i).norm())
    }

    /// Eq. (3) fitness from the last mode's `Γ` and `M`.
    fn trace_fitness(&self, gamma_last: &Matrix, m_last: &Matrix) -> f64 {
        let n = self.fs.order() - 1;
        let r = relative_residual(
            self.t_norm_sq,
            gamma_last,
            &self.grams[n],
            m_last,
            self.fs.factor(n),
        );
        fitness_from_residual(r)
    }

    /// One exact sweep (Alg. 1 lines 5-10), shared by every kind. For PP
    /// sessions it additionally refreshes `dA` against the pre-sweep
    /// factors (Alg. 2 line 20). Returns the sweep's seconds and fitness.
    fn exact_sweep(&mut self) -> (f64, f64) {
        let n_modes = self.fs.order();
        let sweep_t0 = Instant::now();
        let before: Option<Vec<Matrix>> = if self.kind == SessionKind::Pp {
            Some(self.fs.factors().to_vec())
        } else {
            None
        };
        let mut last_gamma: Option<Matrix> = None;
        let mut last_m: Option<Matrix> = None;
        for n in 0..n_modes {
            let h0 = Instant::now();
            let gamma = hadamard_chain_skip(&self.grams, n);
            self.engine.stats.record(Kernel::Hadamard, h0.elapsed(), 0);

            let m = self.engine.mttkrp(&mut self.input, &self.fs, n);

            let s0 = Instant::now();
            let a_new = match self.kind {
                SessionKind::NonNeg => hals_update(self.fs.factor(n), &m, &gamma, 2),
                _ => solve_gram(&gamma, &m).0,
            };
            self.engine.stats.record(Kernel::Solve, s0.elapsed(), 0);

            let g0 = Instant::now();
            self.grams[n] = a_new.gram();
            self.engine.stats.record(Kernel::Other, g0.elapsed(), 0);
            self.fs.update(n, a_new);
            if n == n_modes - 1 {
                last_gamma = Some(gamma);
                last_m = Some(m);
            }
        }
        if let Some(before) = before {
            for (n, b) in before.iter().enumerate() {
                self.d_factors[n] = self.fs.factor(n).sub(b);
            }
        }
        let secs = sweep_t0.elapsed().as_secs_f64();
        let fitness = self.trace_fitness(last_gamma.as_ref().unwrap(), last_m.as_ref().unwrap());
        (secs, fitness)
    }

    /// The ledger of mode `n`'s approximated MTTKRP, which took `elapsed`:
    /// one mTTV call per first-order correction that ran, with its flops,
    /// sharing the time; with none run, the time is the second-order
    /// correction's Hadamard work.
    fn record_corrections(&mut self, ops: &PpOperators, n: usize, elapsed: Duration) {
        let flops: Vec<u64> = correction_flops(ops, &self.d_factors, n).collect();
        match flops.len() {
            0 => self.engine.stats.record(Kernel::Hadamard, elapsed, 0),
            k => {
                for f in flops {
                    self.engine
                        .stats
                        .record(Kernel::Mttv, elapsed / k as u32, f);
                }
            }
        }
    }

    /// PP initialization (Alg. 2 lines 6-9): freeze `A_p`, zero `dA`,
    /// build the pair operators, and enter the approximated regime. It
    /// carries the previous sweep's fitness.
    fn pp_init(&mut self) -> (f64, f64) {
        let t0 = Instant::now();
        self.factors_p = self.fs.factors().to_vec();
        for d in self.d_factors.iter_mut() {
            d.fill_zero();
        }
        // A regime re-entered drops the operators it is leaving first:
        // their buffers go back to the workspace the build draws from.
        self.ops = None;
        self.ops = Some(build_pp_operators(
            &mut self.input,
            &self.fs,
            &mut self.engine,
        ));
        let secs = t0.elapsed().as_secs_f64();
        self.phase = PpPhase::Approx;
        (secs, self.progress.last_fitness())
    }

    /// One PP approximated sweep (Alg. 2 lines 10-17): Eq. (5) first- plus
    /// second-order corrections in place of tensor contractions.
    fn pp_approx_sweep(&mut self) -> (f64, f64) {
        let n_modes = self.fs.order();
        // Taken out for the duration so the borrow checker sees the reads
        // of `ops` as disjoint from the factor/Gram updates.
        let ops = self.ops.take().expect("PP regime requires operators");
        let sweep_t0 = Instant::now();
        let mut last_gamma: Option<Matrix> = None;
        let mut last_m: Option<Matrix> = None;
        // Each `dS^(k)` depends only on mode k's factor and update, so the
        // N of them are formed once and mode n's is refreshed after its
        // update, not all N at every mode step.
        let h0 = Instant::now();
        let mut d_grams: Vec<Matrix> = self
            .fs
            .factors()
            .iter()
            .zip(self.d_factors.iter())
            .map(|(a, d)| d_gram(a, d))
            .collect();
        self.engine.stats.record(Kernel::Hadamard, h0.elapsed(), 0);
        for n in 0..n_modes {
            let h0 = Instant::now();
            let gamma = hadamard_chain_skip(&self.grams, n);
            self.engine.stats.record(Kernel::Hadamard, h0.elapsed(), 0);

            let c0 = Instant::now();
            let m = approx_mttkrp(
                &ops,
                &self.d_factors,
                self.fs.factors(),
                &self.grams,
                &d_grams,
                n,
            );
            self.record_corrections(&ops, n, c0.elapsed());

            let s0 = Instant::now();
            let a_new = match self.kind {
                SessionKind::NonNeg => hals_update(self.fs.factor(n), &m, &gamma, 2),
                _ => solve_gram(&gamma, &m).0,
            };
            self.engine.stats.record(Kernel::Solve, s0.elapsed(), 0);

            self.d_factors[n] = a_new.sub(&self.factors_p[n]);
            self.grams[n] = a_new.gram();
            let h0 = Instant::now();
            d_grams[n] = d_gram(&a_new, &self.d_factors[n]);
            self.engine.stats.record(Kernel::Hadamard, h0.elapsed(), 0);
            self.fs.update(n, a_new);
            if n == n_modes - 1 {
                last_gamma = Some(gamma);
                last_m = Some(m);
            }
        }
        self.ops = Some(ops);
        let secs = sweep_t0.elapsed().as_secs_f64();
        let fitness = self.trace_fitness(last_gamma.as_ref().unwrap(), last_m.as_ref().unwrap());
        (secs, fitness)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint;
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
        // The sparse path never materializes tree intermediates.
        assert_eq!(out.report.stats.mttv_count, 0);
        assert!(out.report.stats.sparse_mttkrp_flops > 0);
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
    fn sparse_msdt_session_matches_densified_bitwise() {
        // MSDT over the semi-sparse chain must reproduce — bit for bit —
        // the dense MSDT session on the densified tensor, while never
        // densifying the input (dense-volume GEMM flops stay absent).
        let (sp, _) = pp_datagen::sparse::sparse_lowrank(&[10, 9, 8], 2, 0.15, 17);
        let cfg = AlsConfig::new(2)
            .with_policy(TreePolicy::MultiSweep)
            .with_max_sweeps(7)
            .with_tol(0.0);
        let a = AlsSession::new(&sp.to_dense(), &cfg, SessionKind::Exact).run();
        let b = AlsSession::new_sparse(&sp, &cfg, SessionKind::Exact).run();
        assert_bitwise(&a, &b);
        let s = &b.report.stats;
        assert!(s.semisparse_ttm_flops > 0, "first levels must be sparse");
        assert!(s.semisparse_ttv_flops > 0, "lower levels must be sparse");
        assert_eq!(s.sparse_mttkrp_flops, 0, "direct CSF kernel not used");
    }

    #[test]
    fn sparse_pp_exact_sweeps_match_sparse_dt_bitwise() {
        // PP on a sparse input runs its exact sweeps on the CSF forest, as
        // DT does: up to the first PP initialization the two sessions (same
        // rank and seed) give the same trace and factors, bit for bit. The
        // pair operators are fiber walks of the same forest; nothing runs
        // on the semi-sparse chain.
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
        let s = &pp.report.stats;
        assert!(s.sparse_mttkrp_flops > 0);
        assert_eq!(s.semisparse_ttm_flops + s.semisparse_ttv_flops, 0);
    }

    #[test]
    fn sparse_pp_checkpoint_mid_regime_is_bit_identical() {
        // Stop inside the PP regime, serialize (semi-sparse cache
        // entries and dense pair operators both travel), resume, finish:
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
}
