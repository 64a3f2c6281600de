//! The one file that names a `pp_*` item.
//!
//! Everything the benchmark knows about the program goes through here, so a
//! refactor of the program's public API breaks this file and nothing else.
//! `benchmark/README.md` ("API surface") lists what is used. Timers in this
//! file exist only where the measured calls run on threads the program
//! spawns (rank programs); everywhere else the callers time the wrappers.

use pp_comm::{Backend, Collectives, Runtime};
use pp_core::{AlsSession, ParKind, ParSession, SessionKind, Step, StreamingSession, SweepKind};
use pp_datagen::timelapse::{TimelapseStream, TIME_MODE};
use pp_dtree::correct::{approx_mttkrp, d_gram};
use pp_dtree::pp_tree::{build_pp_operators, PpOperators};
use pp_dtree::{CacheUpdate, DimTreeEngine, FactorState, InputTensor, TreePolicy};
use pp_grid::{DistTensor, ProcGrid};
use pp_serve::{JobSpec, JobStatus, ServeConfig};
use pp_tensor::kernels::mttv::mttv;
use pp_tensor::kernels::ttm::{ttm_first, ttm_last};
use pp_tensor::matrix::hadamard_chain_skip;
use pp_tensor::semisparse::{csf_ttm, ss_mttv};
use pp_tensor::solve::solve_gram;
use pp_tensor::sparse::sparse_mttkrp;
use pp_tensor::transpose::move_mode_last;
use pp_tensor::{CsfTensor, DenseTensor, Matrix, SemiSparseTensor, SparseTensor, TtmPlan};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub type Mat = Matrix;
pub type Dense = DenseTensor;
pub type Sparse = SparseTensor;
pub type Csf = CsfTensor;
pub type Plan = TtmPlan;
pub type SemiSparse = SemiSparseTensor;
pub type Spec = JobSpec;

// ---------------------------------------------------------------------------
// Fingerprints: the benchmark's correctness gates compare these, never pinned
// constants, so an intentional golden change does not break the benchmark.
// ---------------------------------------------------------------------------

fn fnv1a(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn factors_fnv(factors: &[Mat]) -> u64 {
    let mut h = FNV_OFFSET;
    for f in factors {
        fnv1a(&mut h, f.rows() as u64);
        for v in f.data() {
            fnv1a(&mut h, v.to_bits());
        }
    }
    h
}

/// What kind of sweep one `step()` performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Exact,
    PpInit,
    PpApprox,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Exact => "exact",
            Kind::PpInit => "pp_init",
            Kind::PpApprox => "pp_approx",
        }
    }

    /// Sweeps that contract the input tensor (everything but PP-approx).
    pub fn touches_tensor(self) -> bool {
        self != Kind::PpApprox
    }
}

fn kind_of(k: SweepKind) -> Kind {
    match k {
        SweepKind::Exact => Kind::Exact,
        SweepKind::PpInit => Kind::PpInit,
        SweepKind::PpApprox => Kind::PpApprox,
    }
}

/// One sweep as the user-facing trace reports it.
#[derive(Clone, Copy, Debug)]
pub struct Swept {
    pub kind: Kind,
    pub fitness: f64,
}

/// What a finished decomposition returned, reduced to what the gates compare.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// FNV-1a over every factor's bits.
    pub factors: u64,
    /// FNV-1a over the per-sweep kinds and fitness bits.
    pub trace_fnv: u64,
    pub trace: Vec<Swept>,
}

/// Equal when every factor bit and every (kind, fitness bits) pair agree.
impl PartialEq for Outcome {
    fn eq(&self, other: &Outcome) -> bool {
        self.factors == other.factors && self.trace_fnv == other.trace_fnv
    }
}

fn outcome(factors: &[Mat], sweeps: &[pp_core::SweepRecord]) -> Outcome {
    let trace: Vec<Swept> = sweeps
        .iter()
        .map(|s| Swept {
            kind: kind_of(s.kind),
            fitness: s.fitness,
        })
        .collect();
    let mut h = FNV_OFFSET;
    for s in &trace {
        fnv1a(&mut h, s.kind as u64);
        fnv1a(&mut h, s.fitness.to_bits());
    }
    Outcome {
        factors: factors_fnv(factors),
        trace_fnv: h,
        trace,
    }
}

// ---------------------------------------------------------------------------
// Manifest → spec → inputs
// ---------------------------------------------------------------------------

pub fn parse_manifest(text: &str) -> Result<Vec<Spec>, String> {
    pp_serve::parse_manifest(text)
}

/// The generated dataset of a batch spec.
pub enum Input {
    Dense(Dense),
    Sparse(Sparse),
}

impl Input {
    pub fn dims(&self) -> Vec<usize> {
        match self {
            Input::Dense(t) => t.shape().dims().to_vec(),
            Input::Sparse(sp) => sp.dims().to_vec(),
        }
    }

    pub fn dense(&self) -> Option<&Dense> {
        match self {
            Input::Dense(t) => Some(t),
            Input::Sparse(_) => None,
        }
    }
}

pub fn build_input(spec: &Spec) -> Input {
    if spec.dataset.is_sparse() {
        Input::Sparse(spec.dataset.build_sparse())
    } else {
        Input::Dense(spec.dataset.build())
    }
}

pub fn spec_rank(spec: &Spec) -> usize {
    spec.rank
}

pub fn spec_is_pp(spec: &Spec) -> bool {
    spec.method.session_kind() == SessionKind::Pp
}

pub fn spec_is_multisweep(spec: &Spec) -> bool {
    spec.method.policy() == TreePolicy::MultiSweep
}

pub fn spec_is_stream(spec: &Spec) -> bool {
    spec.stream.is_some()
}

/// The same job with no sweeps to run: what is left is its set-up.
pub fn spec_zero_sweeps(spec: &Spec) -> Spec {
    let mut s = spec.clone();
    s.max_sweeps = 0;
    s
}

/// The same job with another sweep budget (the convergence lap).
pub fn spec_with_sweeps(spec: &Spec, sweeps: usize) -> Spec {
    let mut s = spec.clone();
    s.max_sweeps = sweeps;
    s
}

pub fn init_factors(spec: &Spec, dims: &[usize]) -> Vec<Mat> {
    pp_core::init_factors(dims, spec.rank, spec.seed)
}

// ---------------------------------------------------------------------------
// Pool width
// ---------------------------------------------------------------------------

/// Run `f` with the kernel pool pinned to `n` threads.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = rayon::scoped_num_threads(n);
    f()
}

// ---------------------------------------------------------------------------
// Sessions
// ---------------------------------------------------------------------------

pub struct Session(AlsSession);

impl Session {
    /// `AlsSession::new` / `new_sparse` under the spec's own method.
    pub fn new(spec: &Spec, input: &Input, threads: usize) -> Session {
        Session::with_kind(spec, input, threads, spec.method.session_kind())
    }

    /// The same tree policy run as plain exact ALS: the replay's parity
    /// partner (exact sweeps are one code path for every session kind).
    pub fn new_exact(spec: &Spec, input: &Input, threads: usize) -> Session {
        Session::with_kind(spec, input, threads, SessionKind::Exact)
    }

    fn with_kind(spec: &Spec, input: &Input, threads: usize, kind: SessionKind) -> Session {
        let cfg = spec.als_config().with_threads(threads);
        Session(match input {
            Input::Dense(t) => AlsSession::new(t, &cfg, kind),
            Input::Sparse(sp) => AlsSession::new_sparse(sp, &cfg, kind),
        })
    }

    pub fn step(&mut self) -> Option<Swept> {
        match self.0.step() {
            Step::Swept(rec) => Some(Swept {
                kind: kind_of(rec.kind),
                fitness: rec.fitness,
            }),
            Step::Done(_) => None,
        }
    }

    pub fn finish(self) -> Outcome {
        let out = self.0.finish();
        outcome(&out.factors, &out.report.sweeps)
    }

    pub fn factors_fnv(&self) -> u64 {
        factors_fnv(self.0.factors())
    }

    /// Dimension-tree cache plus PP operators, in f64 elements.
    pub fn cache_elems(&self) -> usize {
        self.0.cache_memory_elems()
    }

    pub fn park(&mut self) {
        self.0.park();
    }

    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        self.0.checkpoint_bytes(0)
    }

    pub fn resume(bytes: &[u8], input: &Input) -> Result<Session, String> {
        match input {
            Input::Dense(t) => AlsSession::resume_from_bytes(bytes, t),
            Input::Sparse(sp) => AlsSession::resume_from_bytes_sparse(bytes, sp),
        }
        .map(|(s, _tag)| Session(s))
    }
}

// ---------------------------------------------------------------------------
// Streaming
// ---------------------------------------------------------------------------

pub struct Feed(TimelapseStream);

impl Feed {
    pub fn new(spec: &Spec) -> Result<Feed, String> {
        spec.build_stream().map(Feed)
    }

    pub fn initial(&self) -> Dense {
        self.0.initial()
    }

    pub fn n_arrivals(&self) -> usize {
        self.0.n_arrivals()
    }

    pub fn slice(&self, i: usize) -> Dense {
        self.0.slice(i)
    }

    pub fn full(&self) -> &Dense {
        self.0.full()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Update {
    Incremental,
    Recompute,
}

pub struct Stream(StreamingSession);

impl Stream {
    pub fn new(spec: &Spec, initial: &Dense, threads: usize, update: Update) -> Stream {
        let st = spec.stream.expect("stream workload has a stream schedule");
        let cfg = spec.als_config().with_threads(threads);
        Stream(StreamingSession::new(
            initial,
            &cfg,
            spec.method.session_kind(),
            TIME_MODE,
            st.sweeps_per_arrival,
            match update {
                Update::Incremental => CacheUpdate::Incremental,
                Update::Recompute => CacheUpdate::Recompute,
            },
        ))
    }

    pub fn run_window(&mut self) {
        self.0.run_window();
    }

    pub fn arrive(&mut self, slice: &Dense) {
        self.0.arrive(slice);
    }

    pub fn sweeps_done(&self) -> usize {
        self.0.sweeps_done()
    }

    pub fn cache_elems(&self) -> usize {
        self.0.cache_memory_elems()
    }

    pub fn finish(self) -> Outcome {
        let out = self.0.finish();
        outcome(&out.factors, &out.report.sweeps)
    }
}

/// `InputTensor::extend_mode` on the last arriving slice: the append the
/// roadmap wants made O(slice). One shot (the input grows), so build anew
/// per repetition.
pub struct ExtendProbe {
    input: InputTensor,
    slice: Dense,
}

impl ExtendProbe {
    pub fn new(feed: &Feed, multisweep: bool) -> ExtendProbe {
        let last = feed.n_arrivals() - 1;
        let slice = feed.slice(last);
        let extent = feed.full().dim(TIME_MODE) - slice.dim(TIME_MODE);
        let prefix = feed.0.prefix(extent);
        let input = if multisweep {
            InputTensor::with_msdt_copies(prefix)
        } else {
            InputTensor::new(prefix)
        };
        ExtendProbe { input, slice }
    }

    pub fn run(&mut self) {
        self.input.extend_mode(TIME_MODE, &self.slice);
    }
}

// ---------------------------------------------------------------------------
// Distributed: one rank program per lap
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wire {
    P2p,
    Rendezvous,
}

impl Wire {
    fn backend(self) -> Backend {
        match self {
            Wire::P2p => Backend::P2p,
            Wire::Rendezvous => Backend::Rendezvous,
        }
    }
}

/// One distributed lap, reduced over ranks (slowest rank for walls).
pub struct DistLap {
    /// `DistTensor::from_global` + `ParSession::new` + barrier.
    pub setup_s: f64,
    pub from_global_s: f64,
    pub new_s: f64,
    /// First `step` → `finish` returned.
    pub solve_s: f64,
    pub finish_s: f64,
    /// Per sweep, slowest rank.
    pub step_s: Vec<f64>,
    pub outcome: Outcome,
    /// Model ledger of the critical rank and wire traffic summed over ranks,
    /// over the sweeps only.
    pub ledger_msgs: u64,
    pub ledger_words: u64,
    pub wire_msgs: u64,
    pub wire_words: u64,
}

struct RankLap {
    from_global: Duration,
    new: Duration,
    setup: Duration,
    solve: Duration,
    finish: Duration,
    steps: Vec<Duration>,
    outcome: Outcome,
    ledger: (u64, u64),
    wire: (u64, u64),
}

fn secs_max(ranks: &[RankLap], f: impl Fn(&RankLap) -> Duration) -> f64 {
    ranks.iter().map(|r| f(r).as_secs_f64()).fold(0.0, f64::max)
}

/// Run the spec as exact parallel ALS on `grid` (one OS thread per rank,
/// `threads` pool threads each). Each rank cuts its own block out of the
/// shared global tensor, as the `ppcp --ranks` path does.
pub fn dist_lap(
    spec: &Spec,
    t: &Arc<Dense>,
    grid: &[usize],
    wire: Wire,
    threads: usize,
) -> DistLap {
    let grid = ProcGrid::new(grid.to_vec());
    let cfg = spec.als_config().with_threads(threads);
    let t = Arc::clone(t);
    let g = grid.clone();
    let out = Runtime::with_backend(grid.size(), wire.backend()).run(move |ctx| {
        let t0 = Instant::now();
        let local = DistTensor::from_global(&t, &g, ctx.rank());
        let from_global = t0.elapsed();
        let t1 = Instant::now();
        let mut s = ParSession::new(ctx, &g, &local, &cfg, ParKind::Exact);
        let new = t1.elapsed();
        ctx.comm.barrier();
        let setup = t0.elapsed();

        let ledger0 = ctx.comm.ledger().snapshot();
        let wire0 = ctx.comm.transport_stats().unwrap_or_default();
        let solve0 = Instant::now();
        let mut steps = Vec::new();
        loop {
            let a = Instant::now();
            match s.step(ctx) {
                Step::Swept(_) => steps.push(a.elapsed()),
                Step::Done(_) => break,
            }
        }
        let ledger1 = ctx.comm.ledger().snapshot();
        let wire1 = ctx.comm.transport_stats().unwrap_or_default();
        let f0 = Instant::now();
        let done = s.finish(ctx);
        RankLap {
            from_global,
            new,
            setup,
            solve: solve0.elapsed(),
            finish: f0.elapsed(),
            steps,
            outcome: outcome(&done.factors, &done.report.sweeps),
            ledger: (
                ledger1.messages - ledger0.messages,
                ledger1.comm_words - ledger0.comm_words,
            ),
            wire: (
                wire1.msgs_sent - wire0.msgs_sent,
                wire1.words_sent - wire0.words_sent,
            ),
        }
    });
    let ranks = out.results;
    let n_sweeps = ranks[0].steps.len();
    let step_s = (0..n_sweeps)
        .map(|i| secs_max(&ranks, |r| r.steps[i]))
        .collect();
    DistLap {
        setup_s: secs_max(&ranks, |r| r.setup),
        from_global_s: secs_max(&ranks, |r| r.from_global),
        new_s: secs_max(&ranks, |r| r.new),
        solve_s: secs_max(&ranks, |r| r.solve),
        finish_s: secs_max(&ranks, |r| r.finish),
        step_s,
        ledger_msgs: ranks.iter().map(|r| r.ledger.0).max().unwrap_or(0),
        ledger_words: ranks.iter().map(|r| r.ledger.1).max().unwrap_or(0),
        wire_msgs: ranks.iter().map(|r| r.wire.0).sum(),
        wire_words: ranks.iter().map(|r| r.wire.1).sum(),
        outcome: ranks.into_iter().next().expect("at least one rank").outcome,
    }
}

/// The local block of rank 0: the operand the rank-level kernels see.
pub fn local_block(t: &Dense, grid: &[usize]) -> Dense {
    DistTensor::from_global(t, &ProcGrid::new(grid.to_vec()), 0)
        .local()
        .clone()
}

/// Mean microseconds per collective at the given payloads, slowest rank.
pub struct CommLadder {
    pub allreduce_us: f64,
    pub reduce_scatter_us: f64,
    pub allgather_us: f64,
    pub barrier_us: f64,
}

/// Time each collective `iters` times on `ranks` ranks: all-reduce of
/// `gram_words`, reduce-scatter of `rows_words` down to even shares, and
/// all-gather of one share back up.
pub fn comm_ladder(
    ranks: usize,
    wire: Wire,
    gram_words: usize,
    rows_words: usize,
    iters: usize,
) -> CommLadder {
    let out = Runtime::with_backend(ranks, wire.backend()).run(move |ctx| {
        let p = ctx.size();
        let rank = ctx.rank();
        let fill = |n: usize| -> Vec<f64> {
            (0..n)
                .map(|i| ((rank * 31 + i) as f64 * 0.731).sin())
                .collect()
        };
        let gram = fill(gram_words);
        let rows = fill(rows_words);
        let mut counts = vec![rows_words / p; p];
        counts[p - 1] += rows_words % p;
        let share = fill(rows_words / p);
        let comm = &ctx.comm;
        let per_op = |op: &dyn Fn()| -> f64 {
            op(); // warm-up, and lines the ranks up
            let t0 = Instant::now();
            for _ in 0..iters {
                op();
            }
            t0.elapsed().as_secs_f64() / iters as f64
        };
        [
            per_op(&|| drop(std::hint::black_box(comm.all_reduce_sum(&gram)))),
            per_op(&|| {
                drop(std::hint::black_box(
                    comm.reduce_scatter_sum(&rows, &counts),
                ))
            }),
            per_op(&|| drop(std::hint::black_box(comm.all_gather(&share)))),
            per_op(&|| comm.barrier()),
        ]
    });
    let us = |k: usize| out.results.iter().map(|r| r[k]).fold(0.0, f64::max) * 1e6;
    CommLadder {
        allreduce_us: us(0),
        reduce_scatter_us: us(1),
        allgather_us: us(2),
        barrier_us: us(3),
    }
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

pub struct JobOut {
    pub name: String,
    /// `JobStatus::Completed`; anything else counts as failed.
    pub completed: bool,
    /// `JobResult::secs`: wall inside this tenant's own turns.
    pub secs: f64,
    pub outcome: Option<Outcome>,
}

pub struct BatchOut {
    pub wall_s: f64,
    pub jobs: Vec<JobOut>,
    /// Length of the schedule trace: one turn per performed sweep.
    pub turns: usize,
}

fn batch_out(report: pp_serve::BatchReport, wall_s: f64) -> BatchOut {
    BatchOut {
        wall_s,
        turns: report.schedule.len(),
        jobs: report
            .jobs
            .into_iter()
            .map(|j| JobOut {
                completed: matches!(j.status, JobStatus::Completed { .. }),
                outcome: j
                    .output
                    .as_ref()
                    .map(|o| outcome(&o.factors, &o.report.sweeps)),
                name: j.name,
                secs: j.secs,
            })
            .collect(),
    }
}

/// `run_batch` with admission window `window` and `drivers` driver threads.
pub fn run_batch(specs: &[Spec], window: usize, drivers: usize) -> Result<BatchOut, String> {
    let cfg = ServeConfig::new(window).with_drivers(drivers);
    let t0 = Instant::now();
    let report = pp_serve::run_batch(specs, &cfg)?;
    Ok(batch_out(report, t0.elapsed().as_secs_f64()))
}

/// `run_sequential`: every tenant alone, back to back — the solo oracle.
pub fn run_sequential(specs: &[Spec]) -> BatchOut {
    let t0 = Instant::now();
    let report = pp_serve::run_sequential(specs);
    batch_out(report, t0.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------------------
// Replay: a sweep driven from engine-level public calls
// ---------------------------------------------------------------------------

pub struct ReplayInput(InputTensor);

/// The `InputTensor` constructor the spec's method uses (it owns its input,
/// so the clone is part of the cost, as it is in the session constructors).
pub fn replay_input(spec: &Spec, input: &Input) -> ReplayInput {
    let multisweep = spec_is_multisweep(spec);
    ReplayInput(match (input, multisweep) {
        (Input::Dense(t), false) => InputTensor::new(t.clone()),
        (Input::Dense(t), true) => InputTensor::with_msdt_copies(t.clone()),
        (Input::Sparse(sp), false) => InputTensor::new_sparse(sp.clone()),
        (Input::Sparse(sp), true) => InputTensor::new_sparse_chained(sp.clone()),
    })
}

pub struct Replay {
    input: InputTensor,
    engine: DimTreeEngine,
    fs: FactorState,
    grams: Vec<Mat>,
    ops: Option<PpOperators>,
    factors_p: Vec<Mat>,
    d_factors: Vec<Mat>,
}

impl Replay {
    /// `init_factors` + `FactorState::new` + the Grams + a fresh engine.
    pub fn start(spec: &Spec, input: ReplayInput, dims: &[usize]) -> Replay {
        let fs = FactorState::new(init_factors(spec, dims));
        let grams = fs.factors().iter().map(|a| a.gram()).collect();
        Replay {
            engine: DimTreeEngine::new(spec.method.policy(), dims.len()),
            input: input.0,
            fs,
            grams,
            ops: None,
            factors_p: Vec::new(),
            d_factors: Vec::new(),
        }
    }

    pub fn order(&self) -> usize {
        self.fs.order()
    }

    pub fn hadamard(&self, n: usize) -> Mat {
        hadamard_chain_skip(&self.grams, n)
    }

    pub fn mttkrp(&mut self, n: usize) -> Mat {
        self.engine.mttkrp(&mut self.input, &self.fs, n)
    }

    pub fn solve(&self, gamma: &Mat, m: &Mat) -> Mat {
        solve_gram(gamma, m).0
    }

    pub fn gram(&self, a: &Mat) -> Mat {
        a.gram()
    }

    pub fn update(&mut self, n: usize, a: Mat, gram: Mat) {
        if !self.factors_p.is_empty() {
            self.d_factors[n] = a.sub(&self.factors_p[n]);
        }
        self.grams[n] = gram;
        self.fs.update(n, a);
    }

    pub fn factors_fnv(&self) -> u64 {
        factors_fnv(self.fs.factors())
    }

    pub fn cache_elems(&self) -> usize {
        self.engine.cache_memory_elems()
    }

    /// PP initialization: freeze `A_p`, zero `dA`, `build_pp_operators`.
    /// Returns the operators' size in f64 elements.
    pub fn pp_build(&mut self) -> usize {
        self.factors_p = self.fs.factors().to_vec();
        self.d_factors = self
            .factors_p
            .iter()
            .map(|f| Mat::zeros(f.rows(), f.cols()))
            .collect();
        let ops = build_pp_operators(&mut self.input, &self.fs, &mut self.engine);
        let elems = ops.memory_elems();
        self.ops = Some(ops);
        elems
    }

    /// `dS^(i) = A^(i)ᵀ dA^(i)` for every mode.
    pub fn pp_d_grams(&self) -> Vec<Mat> {
        self.fs
            .factors()
            .iter()
            .zip(&self.d_factors)
            .map(|(a, d)| d_gram(a, d))
            .collect()
    }

    /// `approx_mttkrp` for mode `n` against the frozen operators.
    pub fn pp_correct(&self, n: usize, d_grams: &[Mat]) -> Mat {
        let ops = self.ops.as_ref().expect("pp_build ran first");
        approx_mttkrp(
            ops,
            &self.d_factors,
            self.fs.factors(),
            &self.grams,
            d_grams,
            n,
        )
    }
}

// ---------------------------------------------------------------------------
// Kernel ladder: the public kernels, standalone
// ---------------------------------------------------------------------------

pub mod kernels {
    use super::*;

    pub fn ttm_last(t: &Dense, a: &Mat) -> Dense {
        super::ttm_last(t, a)
    }

    pub fn ttm_first(t: &Dense, a: &Mat) -> Dense {
        super::ttm_first(t, a)
    }

    /// Batched TTV contracting position `pos` of a rank-trailing intermediate.
    pub fn mttv(inter: &Dense, pos: usize, a: &Mat) -> Dense {
        super::mttv(inter, pos, a).tensor
    }

    /// The transpose MSDT's layout copies and off-end contractions pay.
    pub fn move_mode_last(t: &Dense, mode: usize) -> Dense {
        super::move_mode_last(t, mode)
    }

    pub fn solve_gram(gamma: &Mat, m: &Mat) -> Mat {
        super::solve_gram(gamma, m).0
    }

    pub fn hadamard_chain_skip(grams: &[Mat], skip: usize) -> Mat {
        super::hadamard_chain_skip(grams, skip)
    }

    pub fn gram(a: &Mat) -> Mat {
        a.gram()
    }

    pub fn csf_build(sp: &Sparse) -> Csf {
        Csf::build(sp)
    }

    pub fn sparse_mttkrp(csf: &Csf, factors: &[Mat], n: usize) -> Mat {
        super::sparse_mttkrp(csf, factors, n)
    }

    pub fn ttmplan_build(sp: &Sparse, mode: usize) -> Plan {
        Plan::build(sp, mode)
    }

    pub fn csf_ttm(sp: &Sparse, plan: &Plan, a: &Mat) -> SemiSparse {
        super::csf_ttm(sp, plan, a)
    }

    pub fn ss_mttv(ss: &SemiSparse, pos: usize, a: &Mat) -> SemiSparse {
        super::ss_mttv(ss, pos, a)
    }
}
