//! The work-conserving multi-tenant batch scheduler.
//!
//! **Scheduling model.** A pool of [`ServeConfig::drivers`] driver threads
//! pulls runnable sessions from a shared ready queue and steps several
//! tenants' sweeps *concurrently* over the one persistent kernel pool; a
//! driver never idles while any admitted session is runnable
//! (work-conserving). The scheduler admits up to `J = max_concurrent` jobs
//! (subject to the cache-memory budget below), a driver claims the
//! highest-scoring ready session, steps it **one sweep** outside the lock,
//! and re-enqueues it. A finished job (converged or out of budget) is
//! sealed and its slot re-filled from the pending queue. Construction,
//! stepping, and sealing all run under `catch_unwind`, so one tenant's
//! panic becomes a `Failed` result instead of killing the batch.
//!
//! **Selection.** Each ready job is scored `base + age`, where `age` is
//! the number of scheduler turns (performed sweeps, batch-wide) since the
//! job last stepped, and `base` depends on its [`crate::job::SchedPolicy`]:
//! `rr` → 0, `priority` → the job's priority, `deadline` → a large
//! constant minus the deadline (earliest-deadline-first, ranked above any
//! plausible priority). Ties go to the least recently scheduled job.
//! Because `age` grows without bound every class is starvation-free, and
//! with all-default `rr` jobs the rule degenerates to exact round-robin.
//!
//! **Determinism.** Kernel results are bit-identical for any pool width
//! and each session owns all sweep-to-sweep state, so every job's fitness
//! trace and factors are bit-identical to running that job alone —
//! regardless of driver count. With `drivers = 1` (the golden path) the
//! schedule trace itself is also deterministic; with more drivers, which
//! *turn* a given sweep lands on depends on thread timing, and the trace
//! is driver-stamped ([`ScheduleEvent::driver`]) rather than globally
//! reproducible.
//!
//! **Admission control.** With [`ServeConfig::cache_budget_elems`] set,
//! a pending job is admitted only while the live cache memory (summed
//! [`pp_core::AlsSession::cache_memory_elems`] over admitted sessions)
//! plus the candidate's [`crate::job::JobSpec::est_cache_elems`] estimate
//! fits the budget — jobs queue rather than OOM. When nothing is admitted
//! the head job is admitted unconditionally, so the batch always makes
//! progress.
//!
//! **Checkpoint/restore.** With [`ServeConfig::checkpoint_dir`] set,
//! every swept turn rewrites `job<idx>.ppck` ([`Tenant::park_to_disk`]:
//! the session's [`pp_core::AlsSession::checkpoint_bytes`] through
//! [`pp_core::checkpoint::write_file`]); the file carries a fingerprint
//! of the job spec and is removed when the job reaches a terminal status.
//! Re-running the same manifest against the same directory resumes every
//! in-flight job from its checkpoint, bit-identically. A graceful drain
//! ([`ServeConfig::stop_after_turns`], the `--stop-after-turns` CLI flag)
//! parks all in-flight jobs to disk mid-batch and reports them as
//! [`JobStatus::Parked`].
//!
//! **Shared sparse datasets.** Jobs of one batch that name the same
//! sparse dataset (a rank sweep, restarts from several seeds, dt beside
//! pp) open their sessions over one built [`SparseTensor`], and so over
//! one CSF forest, one ‖T‖² and one fingerprint: the tensor is generated
//! and indexed by whichever of them opens first, fresh or resumed. The
//! batch keeps it until the last of those jobs is completed, failed or
//! parked. A live tenant's session holds the same entries, so the kept
//! tensor costs memory of its own only while no job of the group has a
//! live session (one has finished, the next is not yet admitted). A
//! sparse dataset named once, and every dense or streaming one, is built
//! by its own job as before.
//!
//! **Fairness.** A tenant between turns holds no pool slot: every
//! contraction of a sweep finishes inside its [`Tenant::step`], so there
//! is nothing to settle when a turn ends.

use crate::job::{JobSpec, SchedPolicy};
use pp_core::checkpoint::{self, fnv1a};
use pp_core::{AlsConfig, AlsOutput, AlsSession, Step, StreamingSession, SweepKind};
use pp_datagen::timelapse::{TimelapseStream, TIME_MODE};
use pp_tensor::sparse::SparseTensor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, Once};
use std::time::Instant;

/// Threads currently driving a batch. A panic **on one of these threads**
/// is an isolated job failure the scheduler will catch and report through
/// [`JobStatus::Failed`], so the default hook's crash printout is muted
/// for them. Pool workers are muted too while any batch is live — kernels
/// fan out to the pool from inside a sweep, and a worker-side panic is
/// caught there and re-thrown on the driver — but only then: panics on
/// unrelated threads of the embedding process keep their full diagnostics.
static BATCH_THREADS: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
static HOOK_INSTALL: Once = Once::new();

fn batch_threads() -> std::sync::MutexGuard<'static, Vec<std::thread::ThreadId>> {
    BATCH_THREADS.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII guard muting the default panic hook on this thread for the
/// batch's duration.
struct HookSilence(std::thread::ThreadId);

fn silence_panic_hook() -> HookSilence {
    HOOK_INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let muted = {
                let g = batch_threads();
                g.contains(&std::thread::current().id())
                    || (!g.is_empty() && rayon::is_pool_worker())
            };
            if !muted {
                prev(info);
            }
        }));
    });
    let id = std::thread::current().id();
    batch_threads().push(id);
    HookSilence(id)
}

/// Install the batch panic-hook muting for the caller's lifetime without
/// running a batch (stderr-capture tests only).
#[doc(hidden)]
pub fn quiet_hook_for_tests() -> impl Drop {
    silence_panic_hook()
}

impl Drop for HookSilence {
    fn drop(&mut self) {
        let mut g = batch_threads();
        if let Some(pos) = g.iter().position(|&t| t == self.0) {
            g.remove(pos);
        }
    }
}

/// Batch-level scheduling knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Admission window `J`: how many jobs hold sessions at once.
    pub max_concurrent: usize,
    /// Driver threads stepping tenants concurrently. 1 (the default) is
    /// the deterministic golden path; results are bit-identical either way.
    pub drivers: usize,
    /// Cache-memory admission budget in f64 elements (None = unlimited).
    pub cache_budget_elems: Option<usize>,
    /// Directory for per-job `PPCK` checkpoints (None = no checkpointing).
    pub checkpoint_dir: Option<PathBuf>,
    /// Graceful drain: stop scheduling after this many batch-wide turns,
    /// park in-flight jobs (to disk when `checkpoint_dir` is set), and
    /// report them as [`JobStatus::Parked`].
    pub stop_after_turns: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_concurrent: 4,
            drivers: 1,
            cache_budget_elems: None,
            checkpoint_dir: None,
            stop_after_turns: None,
        }
    }
}

impl ServeConfig {
    /// A config with the given admission window. Invalid values (e.g. 0)
    /// are reported by [`ServeConfig::validate`] / [`run_batch`], not
    /// panicked on.
    pub fn new(max_concurrent: usize) -> Self {
        ServeConfig {
            max_concurrent,
            ..Default::default()
        }
    }

    pub fn with_drivers(mut self, drivers: usize) -> Self {
        self.drivers = drivers;
        self
    }

    pub fn with_cache_budget_elems(mut self, elems: usize) -> Self {
        self.cache_budget_elems = Some(elems);
        self
    }

    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    pub fn with_stop_after_turns(mut self, turns: usize) -> Self {
        self.stop_after_turns = Some(turns);
        self
    }

    /// Reject unusable configurations with a message instead of a panic.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_concurrent == 0 {
            return Err("admission window must be non-empty (max_concurrent >= 1)".into());
        }
        if self.drivers == 0 {
            return Err("driver count must be at least 1".into());
        }
        if self.cache_budget_elems == Some(0) {
            return Err("cache budget must be positive".into());
        }
        Ok(())
    }
}

/// One entry of the schedule trace: which job swept when, on which driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleEvent {
    /// Global turn counter (0-based, one per performed sweep).
    pub turn: usize,
    /// Driver thread (0-based) that performed the sweep.
    pub driver: usize,
    /// Job index in submission order.
    pub job: usize,
    /// Job-local sweep index (0-based).
    pub sweep: usize,
    /// What kind of sweep ran.
    pub kind: SweepKind,
}

/// Terminal status of one job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Ran to completion (`converged` distinguishes Δ-stop from budget).
    Completed { converged: bool },
    /// Panicked during construction, stepping, or sealing.
    Failed { error: String },
    /// Stopped mid-flight by a graceful drain; resumable from the
    /// checkpoint directory when one was configured.
    Parked,
}

/// One job's outcome.
pub struct JobResult {
    /// `JobSpec::name`.
    pub name: String,
    pub status: JobStatus,
    /// Factors and trace (None for failed or parked jobs).
    pub output: Option<AlsOutput>,
    /// Wall-clock seconds spent inside this job's turns (construction +
    /// sweeps + sealing), excluding other tenants' turns.
    pub secs: f64,
}

impl JobResult {
    pub fn failed(&self) -> bool {
        matches!(self.status, JobStatus::Failed { .. })
    }

    pub fn parked(&self) -> bool {
        matches!(self.status, JobStatus::Parked)
    }
}

/// Outcome of a whole batch.
pub struct BatchReport {
    /// Per-job results, in submission order.
    pub jobs: Vec<JobResult>,
    /// The schedule trace, sorted by turn (deterministic for one driver).
    pub schedule: Vec<ScheduleEvent>,
    /// Wall-clock seconds for the whole batch.
    pub total_secs: f64,
}

impl BatchReport {
    pub fn completed(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| matches!(j.status, JobStatus::Completed { .. }))
            .count()
    }

    pub fn failed(&self) -> usize {
        self.jobs.iter().filter(|j| j.failed()).count()
    }

    pub fn parked(&self) -> usize {
        self.jobs.iter().filter(|j| j.parked()).count()
    }

    /// Completed jobs per second of batch wall time.
    pub fn jobs_per_sec(&self) -> f64 {
        self.completed() as f64 / self.total_secs.max(1e-12)
    }
}

/// Extract a human-readable message from a panic payload.
fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic (non-string payload)".to_string()
    }
}

/// Fingerprint binding a checkpoint file to the spec that produced it, so
/// a resume refuses checkpoints from a different manifest or command line.
fn spec_fingerprint(spec: &JobSpec) -> u64 {
    fnv1a(format!("{spec:?}").as_bytes())
}

/// Checkpoint path for job `idx` (submission order names the file, the
/// stored fingerprint verifies the spec).
fn checkpoint_path(dir: &Path, idx: usize) -> PathBuf {
    dir.join(format!("job{idx}.ppck"))
}

/// EDF base: deadline scores rank above any plausible priority so a
/// deadline-class job is only ever aged past, never priority-beaten.
const DEADLINE_BASE: u64 = 1 << 40;

/// One job's live session — the one road from a [`JobSpec`] to something
/// that sweeps: the scheduler's tenants, a `ppcp` run and `ppcp stream`
/// all open and drive this type.
pub enum Tenant {
    /// A dense or sparse session over the fully materialized tensor.
    Batch(AlsSession),
    /// A streaming session together with its arrival feed.
    Stream {
        session: StreamingSession,
        feed: TimelapseStream,
    },
}

impl Tenant {
    /// Build `spec`'s input and open its session under `als_cfg` (normally
    /// [`JobSpec::als_config`]; callers adjust run-only fields such as the
    /// pool width) — or, when `checkpoint` names an existing file, resume
    /// from it. Checkpoint failures are plain `Err`s: an unreadable file, a
    /// corrupt or truncated `PPCK` payload, a fingerprint from a different
    /// spec — a bad checkpoint never partially resumes. Generator and
    /// session panics (degenerate parameters) propagate.
    pub fn open(
        spec: &JobSpec,
        als_cfg: &AlsConfig,
        checkpoint: Option<&Path>,
    ) -> Result<Tenant, String> {
        Tenant::open_over(spec, als_cfg, checkpoint, None)
    }

    /// [`Tenant::open`], over `built` — `spec`'s sparse dataset, already
    /// built — when there is one.
    fn open_over(
        spec: &JobSpec,
        als_cfg: &AlsConfig,
        checkpoint: Option<&Path>,
        built: Option<SparseTensor>,
    ) -> Result<Tenant, String> {
        let kind = spec.method.session_kind();
        let resume = checkpoint.filter(|p| p.exists());
        let tenant = if let Some(stream) = spec.stream {
            let feed = spec.build_stream()?;
            let session = match resume {
                Some(path) => resumed(path, spec, |bytes| {
                    StreamingSession::resume_from_bytes(bytes, |extent| feed.prefix(extent))
                })?,
                None => StreamingSession::new(
                    &feed.initial(),
                    als_cfg,
                    kind,
                    TIME_MODE,
                    stream.sweeps_per_arrival,
                    stream.update,
                ),
            };
            Tenant::Stream { session, feed }
        } else if spec.dataset.is_sparse() {
            // The tensor never densifies: every method runs on the CSF
            // forest (dt and msdt the direct kernel, pp its exact sweeps
            // too and its pair operators as walks of the same trees).
            let sp = built.unwrap_or_else(|| spec.dataset.build_sparse());
            Tenant::Batch(match resume {
                Some(path) => resumed(path, spec, |bytes| {
                    AlsSession::resume_from_bytes_sparse(bytes, &sp)
                })?,
                None => AlsSession::new_sparse(&sp, als_cfg, kind),
            })
        } else {
            let tensor = spec.dataset.build();
            Tenant::Batch(match resume {
                Some(path) => resumed(path, spec, |bytes| {
                    AlsSession::resume_from_bytes(bytes, &tensor)
                })?,
                None => AlsSession::new(&tensor, als_cfg, kind),
            })
        };
        Ok(tenant)
    }

    /// One sweep of the tenant. A streaming tenant whose window has closed
    /// consumes its next arrival first (on its own turn, so arrivals
    /// interleave with other tenants at sweep granularity); `Done` means
    /// the whole arrival schedule is spent.
    pub fn step(&mut self) -> Step {
        match self {
            Tenant::Batch(s) => s.step(),
            Tenant::Stream { session, feed } => {
                if session.is_finished() && session.arrivals_done() < feed.n_arrivals() {
                    session.arrive(&feed.slice(session.arrivals_done()));
                }
                session.step()
            }
        }
    }

    /// Sweeps performed so far (a stream: across all windows).
    pub fn sweeps_done(&self) -> usize {
        match self {
            Tenant::Batch(s) => s.sweeps_done(),
            Tenant::Stream { session, .. } => session.sweeps_done(),
        }
    }

    /// Write the checkpoint [`Tenant::open`] resumes from,
    /// stamped with `spec`'s fingerprint.
    pub fn park_to_disk(&self, path: &Path, spec: &JobSpec) -> Result<(), String> {
        let tag = spec_fingerprint(spec);
        let bytes = match self {
            Tenant::Batch(s) => s.checkpoint_bytes(tag),
            Tenant::Stream { session, .. } => session.checkpoint_bytes(tag),
        };
        checkpoint::write_file(path, &bytes)
            .map_err(|e| format!("checkpoint {}: {e}", path.display()))
    }

    /// Auxiliary memory currently held (cache + PP operators), in f64
    /// elements — the admission-control metric.
    pub fn cache_memory_elems(&self) -> usize {
        match self {
            Tenant::Batch(s) => s.cache_memory_elems(),
            Tenant::Stream { session, .. } => session.cache_memory_elems(),
        }
    }

    /// Seal the session into its output (factors plus the whole trace).
    pub fn finish(self) -> AlsOutput {
        match self {
            Tenant::Batch(s) => s.finish(),
            Tenant::Stream { session, .. } => session.finish(),
        }
    }
}

/// The session `from_bytes` resumes from the checkpoint file at `path`,
/// once its stored tag matches `spec`'s fingerprint.
fn resumed<S>(
    path: &Path,
    spec: &JobSpec,
    from_bytes: impl FnOnce(&[u8]) -> Result<(S, u64), String>,
) -> Result<S, String> {
    let (session, tag) = checkpoint::read_file(path)
        .and_then(|bytes| from_bytes(&bytes))
        .map_err(|e| format!("checkpoint {}: {e}", path.display()))?;
    if tag != spec_fingerprint(spec) {
        return Err(format!(
            "checkpoint {} was written by a different job spec",
            path.display()
        ));
    }
    Ok(session)
}

/// The sparse datasets that more than one job of a batch names, each
/// built once and shared by those jobs (module docs, "Shared sparse
/// datasets").
struct Shelf {
    /// Job index → its group, when another job names the same sparse
    /// dataset.
    group: Vec<Option<usize>>,
    groups: Vec<Group>,
}

struct Group {
    /// The built dataset, from the first open of any of the group's jobs
    /// until the last of them settles.
    tensor: Mutex<Option<SparseTensor>>,
    /// Jobs of the group not yet settled.
    unsettled: AtomicUsize,
}

impl Shelf {
    fn new(specs: &[JobSpec]) -> Shelf {
        let mut group = vec![None; specs.len()];
        let mut groups = Vec::new();
        let named = |j: usize| specs[j].stream.is_none() && specs[j].dataset.is_sparse();
        for i in 0..specs.len() {
            if !named(i) || group[i].is_some() {
                continue;
            }
            let same: Vec<usize> = (i..specs.len())
                .filter(|&j| named(j) && specs[j].dataset == specs[i].dataset)
                .collect();
            if same.len() > 1 {
                for &j in &same {
                    group[j] = Some(groups.len());
                }
                groups.push(Group {
                    tensor: Mutex::new(None),
                    unsettled: AtomicUsize::new(same.len()),
                });
            }
        }
        Shelf { group, groups }
    }

    /// Job `idx`'s dataset, built on the group's first request (a job of
    /// the same group asking meanwhile waits for it), or `None` when no
    /// other job names it.
    fn tensor(&self, idx: usize, spec: &JobSpec) -> Option<SparseTensor> {
        let group = &self.groups[self.group[idx]?];
        let mut kept = group.tensor.lock().unwrap_or_else(|e| e.into_inner());
        Some(
            kept.get_or_insert_with(|| spec.dataset.build_sparse())
                .clone(),
        )
    }

    /// Job `idx` reached a terminal status: the last of its group lets
    /// the dataset go. No job of the group is opening then, so the lock is
    /// free.
    fn settle(&self, idx: usize) {
        if let Some(g) = self.group[idx] {
            let group = &self.groups[g];
            if group.unsettled.fetch_sub(1, Ordering::AcqRel) == 1 {
                *group.tensor.lock().unwrap_or_else(|e| e.into_inner()) = None;
            }
        }
    }
}

/// An admitted job holding a live session, waiting for its next turn.
struct ReadyJob {
    idx: usize,
    session: Tenant,
    secs: f64,
    /// Global turn when this job last stepped (admission turn initially).
    last_turn: usize,
    /// Monotonic schedule sequence, bumped on admission and every step —
    /// the round-robin tie-breaker (least recently scheduled first).
    seq: u64,
    /// Cache elements charged against the admission budget: the spec's
    /// a-priori estimate, raised to the observed footprint once live.
    /// The estimate stays charged even while the lazily-built cache is
    /// still small — it is a *reservation* for the job's steady state.
    cache_elems: usize,
}

/// Scheduler state shared by the driver threads.
struct SchedState {
    next_pending: usize,
    ready: Vec<ReadyJob>,
    /// Jobs currently being stepped by a driver.
    running: usize,
    /// Jobs currently being constructed by a driver.
    admitting: usize,
    /// Cache elements attributed to running jobs (last observed values).
    running_elems: usize,
    results: Vec<Option<JobResult>>,
    schedule: Vec<ScheduleEvent>,
    /// Performed sweeps, batch-wide (the scheduler's virtual clock).
    turn: usize,
    seq: u64,
    stopping: bool,
}

struct Shared<'a> {
    specs: &'a [JobSpec],
    cfg: &'a ServeConfig,
    shelf: Shelf,
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl Shared<'_> {
    /// Record job `idx`'s terminal result.
    fn settle(&self, st: &mut SchedState, idx: usize, result: JobResult) {
        st.results[idx] = Some(result);
        self.shelf.settle(idx);
    }
}

impl SchedState {
    fn admitted(&self) -> usize {
        self.ready.len() + self.running + self.admitting
    }

    fn live_cache_elems(&self) -> usize {
        self.ready.iter().map(|j| j.cache_elems).sum::<usize>() + self.running_elems
    }

    /// Score of a ready job under the aging rule (see module docs).
    fn score(&self, job: &ReadyJob, spec: &JobSpec) -> u64 {
        let age = (self.turn - job.last_turn) as u64;
        let base = match spec.policy {
            SchedPolicy::Rr => 0,
            SchedPolicy::Priority => spec.priority,
            SchedPolicy::Deadline => DEADLINE_BASE.saturating_sub(spec.deadline),
        };
        base.saturating_add(age)
    }

    /// Index into `ready` of the next job to step: maximal score, ties to
    /// the least recently scheduled (smallest `seq`, which is unique).
    fn pick(&self, specs: &[JobSpec]) -> Option<usize> {
        (0..self.ready.len()).max_by_key(|&i| {
            let job = &self.ready[i];
            (self.score(job, &specs[job.idx]), std::cmp::Reverse(job.seq))
        })
    }
}

/// Open (or resume) job `idx`'s tenant. Generator/session panics are
/// caught here and checkpoint failures are [`Tenant::open`]'s plain
/// `Err`s, so neither can take a driver thread down.
fn construct(sh: &Shared<'_>, idx: usize) -> Result<(Tenant, usize), String> {
    let spec = &sh.specs[idx];
    let mut als_cfg = spec.als_config();
    if sh.cfg.drivers > 1 {
        // Concurrent per-job pool pins of different widths would
        // contradict each other; the width is a pure perf knob, so
        // dropping the pin is numerically safe.
        als_cfg.threads = None;
    }
    let ckpt = sh
        .cfg
        .checkpoint_dir
        .as_ref()
        .map(|d| checkpoint_path(d, idx));
    catch_unwind(AssertUnwindSafe(|| {
        let built = sh.shelf.tensor(idx, spec);
        Tenant::open_over(spec, &als_cfg, ckpt.as_deref(), built)
    }))
    .map_err(panic_message)
    .and_then(|r| r)
    .map(|session| {
        let elems = session.cache_memory_elems().max(spec.est_cache_elems());
        (session, elems)
    })
}

/// Admit pending jobs while the window and cache budget allow. Drops and
/// reacquires the lock around session construction, so other drivers keep
/// stepping while a tensor is built.
fn admit_loop<'g>(
    sh: &'g Shared<'_>,
    mut st: std::sync::MutexGuard<'g, SchedState>,
) -> std::sync::MutexGuard<'g, SchedState> {
    loop {
        if st.stopping
            || st.admitted() >= sh.cfg.max_concurrent
            || st.next_pending >= sh.specs.len()
        {
            return st;
        }
        let idx = st.next_pending;
        if let Some(budget) = sh.cfg.cache_budget_elems {
            let est = sh.specs[idx].est_cache_elems();
            // Progress guarantee: with nothing admitted the head job goes
            // in regardless, otherwise it queues until memory frees.
            if st.admitted() > 0 && st.live_cache_elems() + est > budget {
                return st;
            }
        }
        st.next_pending += 1;
        st.admitting += 1;
        drop(st);
        let t0 = Instant::now();
        let outcome = construct(sh, idx);
        let secs = t0.elapsed().as_secs_f64();
        st = lock_state(sh);
        st.admitting -= 1;
        match outcome {
            Ok((session, cache_elems)) => {
                st.seq += 1;
                let job = ReadyJob {
                    idx,
                    session,
                    secs,
                    last_turn: st.turn,
                    seq: st.seq,
                    cache_elems,
                };
                st.ready.push(job);
            }
            Err(error) => {
                let result = JobResult {
                    name: sh.specs[idx].name.clone(),
                    status: JobStatus::Failed { error },
                    output: None,
                    secs,
                };
                sh.settle(&mut st, idx, result);
            }
        }
        sh.cv.notify_all();
    }
}

fn lock_state<'g>(sh: &'g Shared<'_>) -> std::sync::MutexGuard<'g, SchedState> {
    sh.state.lock().unwrap_or_else(|e| e.into_inner())
}

/// Drain mode: park every ready job (to disk when checkpointing, else just
/// report it), mark pending jobs parked, and return once no job is in
/// flight anywhere.
fn drain<'g>(
    sh: &'g Shared<'_>,
    mut st: std::sync::MutexGuard<'g, SchedState>,
) -> std::sync::MutexGuard<'g, SchedState> {
    // Pending jobs never started; they resume from scratch.
    while st.next_pending < sh.specs.len() {
        let idx = st.next_pending;
        st.next_pending += 1;
        let result = JobResult {
            name: sh.specs[idx].name.clone(),
            status: JobStatus::Parked,
            output: None,
            secs: 0.0,
        };
        sh.settle(&mut st, idx, result);
    }
    loop {
        if let Some(job) = st.ready.pop() {
            st.running += 1;
            drop(st);
            let parked = catch_unwind(AssertUnwindSafe(|| -> Result<(), String> {
                match &sh.cfg.checkpoint_dir {
                    Some(dir) => job
                        .session
                        .park_to_disk(&checkpoint_path(dir, job.idx), &sh.specs[job.idx]),
                    None => Ok(()),
                }
            }));
            let status = match parked.map_err(panic_message).and_then(|r| r) {
                Ok(()) => JobStatus::Parked,
                Err(error) => JobStatus::Failed { error },
            };
            st = lock_state(sh);
            st.running -= 1;
            let result = JobResult {
                name: sh.specs[job.idx].name.clone(),
                status,
                output: None,
                secs: job.secs,
            };
            sh.settle(&mut st, job.idx, result);
            sh.cv.notify_all();
        } else if st.running > 0 || st.admitting > 0 {
            st = sh.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        } else {
            return st;
        }
    }
}

/// One driver thread: admit, pick, step, settle — until no work remains.
fn drive(sh: &Shared<'_>, driver: usize) {
    let mut st = lock_state(sh);
    loop {
        if let Some(limit) = sh.cfg.stop_after_turns {
            if st.turn >= limit && !st.stopping {
                st.stopping = true;
                sh.cv.notify_all();
            }
        }
        if st.stopping {
            drop(drain(sh, st));
            sh.cv.notify_all();
            return;
        }
        st = admit_loop(sh, st);
        if st.stopping {
            continue;
        }
        let Some(pos) = st.pick(sh.specs) else {
            if st.running == 0 && st.admitting == 0 && st.next_pending >= sh.specs.len() {
                sh.cv.notify_all();
                return;
            }
            st = sh.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            continue;
        };
        let mut job = st.ready.remove(pos);
        let prev_elems = job.cache_elems;
        st.running += 1;
        st.running_elems += prev_elems;
        drop(st);

        let spec = &sh.specs[job.idx];
        let t0 = Instant::now();
        let stepped = catch_unwind(AssertUnwindSafe(|| -> Result<Step, String> {
            let step = job.session.step();
            if let Some(n) = spec.fail_after {
                if matches!(step, Step::Swept(_)) && job.session.sweeps_done() > n {
                    panic!("injected failure after sweep {n}");
                }
            }
            if let (Step::Swept(_), Some(dir)) = (&step, &sh.cfg.checkpoint_dir) {
                job.session
                    .park_to_disk(&checkpoint_path(dir, job.idx), spec)?;
            }
            Ok(step)
        }));
        job.secs += t0.elapsed().as_secs_f64();

        match stepped.map_err(panic_message).and_then(|r| r) {
            Ok(Step::Swept(rec)) => {
                job.cache_elems = job
                    .session
                    .cache_memory_elems()
                    .max(sh.specs[job.idx].est_cache_elems());
                let sweep = job.session.sweeps_done() - 1;
                st = lock_state(sh);
                st.running -= 1;
                st.running_elems -= prev_elems;
                let turn = st.turn;
                st.turn += 1;
                st.schedule.push(ScheduleEvent {
                    turn,
                    driver,
                    job: job.idx,
                    sweep,
                    kind: rec.kind,
                });
                st.seq += 1;
                job.last_turn = st.turn;
                job.seq = st.seq;
                st.ready.push(job);
                sh.cv.notify_all();
            }
            Ok(Step::Done(_)) => {
                let idx = job.idx;
                let mut secs = job.secs;
                let t0 = Instant::now();
                let sealed = catch_unwind(AssertUnwindSafe(|| job.session.finish()));
                secs += t0.elapsed().as_secs_f64();
                if let Some(dir) = &sh.cfg.checkpoint_dir {
                    // Terminal: a leftover checkpoint must not shadow a
                    // completed job on the next run.
                    let _ = std::fs::remove_file(checkpoint_path(dir, idx));
                }
                let result = match sealed {
                    Ok(output) => JobResult {
                        name: spec.name.clone(),
                        status: JobStatus::Completed {
                            converged: output.report.converged,
                        },
                        output: Some(output),
                        secs,
                    },
                    Err(p) => JobResult {
                        name: spec.name.clone(),
                        status: JobStatus::Failed {
                            error: panic_message(p),
                        },
                        output: None,
                        secs,
                    },
                };
                st = lock_state(sh);
                st.running -= 1;
                st.running_elems -= prev_elems;
                sh.settle(&mut st, idx, result);
                sh.cv.notify_all();
            }
            Err(error) => {
                if let Some(dir) = &sh.cfg.checkpoint_dir {
                    let _ = std::fs::remove_file(checkpoint_path(dir, job.idx));
                }
                let result = JobResult {
                    name: spec.name.clone(),
                    status: JobStatus::Failed { error },
                    output: None,
                    secs: job.secs,
                };
                st = lock_state(sh);
                st.running -= 1;
                st.running_elems -= prev_elems;
                sh.settle(&mut st, job.idx, result);
                sh.cv.notify_all();
            }
        }
    }
}

/// Run a batch of jobs to completion (or to a graceful drain). See the
/// module docs for the scheduling, determinism, and fairness contracts.
/// Errors on an invalid [`ServeConfig`] or an unusable checkpoint
/// directory; per-job panics are isolated into [`JobStatus::Failed`].
pub fn run_batch(specs: &[JobSpec], cfg: &ServeConfig) -> Result<BatchReport, String> {
    cfg.validate()?;
    if let Some(dir) = &cfg.checkpoint_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("checkpoint dir {}: {e}", dir.display()))?;
    }
    let batch_t0 = Instant::now();
    let sh = Shared {
        specs,
        cfg,
        shelf: Shelf::new(specs),
        state: Mutex::new(SchedState {
            next_pending: 0,
            ready: Vec::new(),
            running: 0,
            admitting: 0,
            running_elems: 0,
            results: (0..specs.len()).map(|_| None).collect(),
            schedule: Vec::new(),
            turn: 0,
            seq: 0,
            stopping: false,
        }),
        cv: Condvar::new(),
    };
    if cfg.drivers == 1 {
        // Golden path: run on the calling thread, fully deterministic.
        let _quiet = silence_panic_hook();
        drive(&sh, 0);
    } else {
        // Drivers run at the caller's pool width (widths are per thread).
        let width = rayon::current_num_threads();
        std::thread::scope(|scope| {
            let drivers: Vec<_> = (0..cfg.drivers)
                .map(|driver| {
                    let sh = &sh;
                    scope.spawn(move || {
                        let _width = rayon::scoped_num_threads(width);
                        let _quiet = silence_panic_hook();
                        drive(sh, driver);
                    })
                })
                .collect();
            // Join the OS threads, not just their closures: the scope's own
            // wait ends when the last closure returns, while that thread is
            // still tearing down. A batch started right after (serve loops,
            // the benchmark's laps) then spawns its drivers before the old
            // one has handed its malloc arena back, glibc gives the new
            // thread a fresh arena, and the process keeps one more 64 MiB
            // heap of freed session memory resident from then on.
            for d in drivers {
                if let Err(panic) = d.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
    }
    let st = sh.state.into_inner().unwrap_or_else(|e| e.into_inner());
    let mut schedule = st.schedule;
    schedule.sort_by_key(|e| e.turn);
    Ok(BatchReport {
        jobs: st.results.into_iter().map(Option::unwrap).collect(),
        schedule,
        total_secs: batch_t0.elapsed().as_secs_f64(),
    })
}

/// Run the same jobs back-to-back (J = 1, one driver, no interleaving):
/// the baseline batch throughput is compared against.
pub fn run_sequential(specs: &[JobSpec]) -> BatchReport {
    run_batch(specs, &ServeConfig::new(1)).expect("sequential config is always valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{DatasetSpec, JobMethod};

    fn quick_job(name: &str, method: JobMethod, sweeps: usize) -> JobSpec {
        let mut j = JobSpec::new(name);
        j.method = method;
        j.rank = 3;
        j.max_sweeps = sweeps;
        j.tol = 0.0;
        j.dataset = DatasetSpec::Lowrank {
            dims: vec![10, 9, 8],
            gen_rank: 3,
            noise: 0.05,
            seed: 11,
        };
        j
    }

    fn batch(specs: &[JobSpec], cfg: &ServeConfig) -> BatchReport {
        run_batch(specs, cfg).expect("valid config")
    }

    #[test]
    fn round_robin_schedule_is_deterministic() {
        let jobs: Vec<JobSpec> = (0..3)
            .map(|i| quick_job(&format!("j{i}"), JobMethod::Msdt, 3))
            .collect();
        let report = batch(&jobs, &ServeConfig::new(3));
        let order: Vec<(usize, usize)> = report.schedule.iter().map(|e| (e.job, e.sweep)).collect();
        assert_eq!(
            order,
            vec![
                (0, 0),
                (1, 0),
                (2, 0),
                (0, 1),
                (1, 1),
                (2, 1),
                (0, 2),
                (1, 2),
                (2, 2)
            ]
        );
        assert_eq!(report.completed(), 3);
        assert_eq!(report.failed(), 0);
        for (i, e) in report.schedule.iter().enumerate() {
            assert_eq!(e.turn, i);
            assert_eq!(e.driver, 0, "single-driver trace is driver-0 only");
        }
    }

    #[test]
    fn admission_window_limits_concurrency() {
        // J=2 over 3 jobs: job 2 must not appear before a slot frees.
        let jobs: Vec<JobSpec> = (0..3)
            .map(|i| quick_job(&format!("j{i}"), JobMethod::Msdt, 2))
            .collect();
        let report = batch(&jobs, &ServeConfig::new(2));
        let first_j2 = report.schedule.iter().position(|e| e.job == 2).unwrap();
        let last_j0 = report.schedule.iter().rposition(|e| e.job == 0).unwrap();
        assert!(
            first_j2 > last_j0,
            "job 2 admitted before job 0 finished: {:?}",
            report.schedule
        );
        assert_eq!(report.completed(), 3);
    }

    #[test]
    fn invalid_configs_error_instead_of_panicking() {
        let jobs = vec![quick_job("a", JobMethod::Msdt, 1)];
        for bad in [
            ServeConfig::new(0),
            ServeConfig::new(2).with_drivers(0),
            ServeConfig::new(2).with_cache_budget_elems(0),
        ] {
            let err = run_batch(&jobs, &bad).err().expect("must be rejected");
            assert!(!err.is_empty());
        }
        assert!(ServeConfig::new(4).validate().is_ok());
    }

    #[test]
    fn priority_jobs_step_first_but_age_out() {
        // One high-priority job monopolizes turns until it finishes, but
        // the rr job still runs to completion afterwards.
        let mut hi = quick_job("hi", JobMethod::Msdt, 4);
        hi.policy = SchedPolicy::Priority;
        hi.priority = 1_000;
        let jobs = vec![quick_job("lo", JobMethod::Msdt, 4), hi];
        let report = batch(&jobs, &ServeConfig::new(2));
        assert_eq!(report.completed(), 2);
        // All of hi's sweeps precede all of lo's: base 1000 dwarfs any
        // age the 8-turn batch can accumulate.
        let last_hi = report.schedule.iter().rposition(|e| e.job == 1).unwrap();
        let first_lo = report.schedule.iter().position(|e| e.job == 0).unwrap();
        assert!(last_hi < first_lo, "{:?}", report.schedule);
    }

    #[test]
    fn aging_prevents_starvation() {
        // Priority 2 vs priority 0: ages of the waiting rr job grow by
        // one per turn, so it must step within `priority + 1` turns even
        // while the priority job is still live.
        let mut hi = quick_job("hi", JobMethod::Msdt, 10);
        hi.policy = SchedPolicy::Priority;
        hi.priority = 2;
        let jobs = vec![hi, quick_job("lo", JobMethod::Msdt, 10)];
        let report = batch(&jobs, &ServeConfig::new(2));
        let first_lo = report.schedule.iter().position(|e| e.job == 1).unwrap();
        assert!(
            first_lo <= 3,
            "rr job starved for {first_lo} turns: {:?}",
            report.schedule
        );
        assert_eq!(report.completed(), 2);
    }

    #[test]
    fn deadline_jobs_run_edf() {
        let mut d30 = quick_job("d30", JobMethod::Msdt, 3);
        d30.policy = SchedPolicy::Deadline;
        d30.deadline = 30;
        let mut d5 = quick_job("d5", JobMethod::Msdt, 3);
        d5.policy = SchedPolicy::Deadline;
        d5.deadline = 5;
        let jobs = vec![d30, d5];
        let report = batch(&jobs, &ServeConfig::new(2));
        // The tighter deadline steps first despite later submission.
        assert_eq!(report.schedule[0].job, 1, "{:?}", report.schedule);
        assert_eq!(report.completed(), 2);
    }

    #[test]
    fn cache_budget_queues_jobs() {
        let jobs: Vec<JobSpec> = (0..3)
            .map(|i| quick_job(&format!("j{i}"), JobMethod::Msdt, 2))
            .collect();
        // Budget fits roughly one job's estimate: others must queue, and
        // the schedule serializes instead of interleaving.
        let est = jobs[0].est_cache_elems();
        let report = batch(
            &jobs,
            &ServeConfig::new(3).with_cache_budget_elems(est + est / 2),
        );
        assert_eq!(report.completed(), 3, "budget must queue, not reject");
        for j in 0..3 {
            let first = report.schedule.iter().position(|e| e.job == j).unwrap();
            let last = report.schedule.iter().rposition(|e| e.job == j).unwrap();
            assert_eq!(
                last - first,
                1,
                "job {j} interleaved: {:?}",
                report.schedule
            );
        }
    }

    #[test]
    fn failed_construction_is_isolated() {
        // PP on an order-2 tensor panics at session construction.
        let mut bad = quick_job("bad", JobMethod::Pp, 5);
        bad.dataset = DatasetSpec::Lowrank {
            dims: vec![8, 8],
            gen_rank: 2,
            noise: 0.0,
            seed: 1,
        };
        let jobs = vec![
            quick_job("a", JobMethod::Msdt, 3),
            bad,
            quick_job("c", JobMethod::Dt, 3),
        ];
        let report = batch(&jobs, &ServeConfig::new(2));
        assert_eq!(report.failed(), 1);
        assert_eq!(report.completed(), 2);
        assert!(report.jobs[1].failed());
        match &report.jobs[1].status {
            JobStatus::Failed { error } => {
                assert!(error.contains("order"), "unexpected error: {error}")
            }
            other => panic!("expected failure, got {other:?}"),
        }
        assert!(report.jobs[0].output.is_some());
        assert!(report.jobs[2].output.is_some());
        assert_eq!(
            report.jobs[0].output.as_ref().unwrap().report.sweeps.len(),
            3
        );
    }

    #[test]
    fn early_convergence_frees_the_slot() {
        // An exactly-representable tensor converges almost immediately,
        // freeing its slot for the queued third job.
        // A very loose Δ makes the fast job converge within a few sweeps.
        let mut fast = quick_job("fast", JobMethod::Msdt, 50);
        fast.tol = 0.2;
        fast.dataset = DatasetSpec::Lowrank {
            dims: vec![8, 8, 8],
            gen_rank: 2,
            noise: 0.0,
            seed: 5,
        };
        fast.rank = 2;
        let jobs = vec![
            fast,
            quick_job("slow", JobMethod::Msdt, 12),
            quick_job("queued", JobMethod::Msdt, 3),
        ];
        let report = batch(&jobs, &ServeConfig::new(2));
        assert_eq!(report.completed(), 3);
        assert!(matches!(
            report.jobs[0].status,
            JobStatus::Completed { converged: true }
        ));
        let fast_sweeps = report.jobs[0].output.as_ref().unwrap().report.sweeps.len();
        assert!(fast_sweeps < 12, "fast job should converge early");
        // The queued job is admitted only once some slot frees: its first
        // event must come after the earliest job completion.
        let first_queued = report.schedule.iter().position(|e| e.job == 2).unwrap();
        let earliest_done = (0..2)
            .map(|j| report.schedule.iter().rposition(|e| e.job == j).unwrap())
            .min()
            .unwrap();
        assert!(first_queued > earliest_done, "{:?}", report.schedule);
        // And the fast convergence is what freed it.
        let last_fast = report.schedule.iter().rposition(|e| e.job == 0).unwrap();
        assert!(first_queued > last_fast, "{:?}", report.schedule);
    }

    #[test]
    fn jobs_per_sec_counts_completed_only() {
        let mut bad = quick_job("bad", JobMethod::Pp, 5);
        bad.dataset = DatasetSpec::Lowrank {
            dims: vec![6, 6],
            gen_rank: 2,
            noise: 0.0,
            seed: 1,
        };
        let report = batch(
            &[quick_job("a", JobMethod::Msdt, 2), bad],
            &ServeConfig::new(2),
        );
        assert_eq!(report.completed(), 1);
        assert!(report.jobs_per_sec() > 0.0);
        assert!(report.total_secs > 0.0);
    }

    #[test]
    fn injected_step_failure_is_isolated() {
        let mut doomed = quick_job("doomed", JobMethod::Msdt, 6);
        doomed.fail_after = Some(2);
        let jobs = vec![quick_job("a", JobMethod::Msdt, 3), doomed];
        let report = batch(&jobs, &ServeConfig::new(2));
        assert_eq!(report.completed(), 1);
        assert_eq!(report.failed(), 1);
        match &report.jobs[1].status {
            JobStatus::Failed { error } => {
                assert!(error.contains("injected failure"), "{error}")
            }
            other => panic!("expected failure, got {other:?}"),
        }
        // The doomed job swept exactly twice before its panic.
        assert_eq!(report.schedule.iter().filter(|e| e.job == 1).count(), 2);
    }

    /// Fresh per-test scratch directory under the system temp dir.
    fn temp_dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pp-serve-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// A small streaming tenant over the 12×10×8×7 timelapse: 3 initial
    /// time points, two 2-thick arrivals, `spa` sweeps per window.
    fn stream_job(name: &str, method: JobMethod, spa: usize) -> JobSpec {
        let mut j = quick_job(name, method, 50);
        j.rank = 4;
        j.dataset = DatasetSpec::Timelapse {
            height: 12,
            width: 10,
            bands: 8,
            times: 7,
            materials: 3,
            noise: 1e-3,
            seed: 17,
        };
        j.stream = Some(crate::job::StreamSpec {
            initial: 3,
            arrive: 2,
            sweeps_per_arrival: spa,
            update: pp_dtree::CacheUpdate::Incremental,
        });
        j
    }

    #[test]
    fn stream_jobs_interleave_with_batch_tenants() {
        // A streaming tenant and a batch tenant share the window: the
        // stream spends (1 initial + 2 arrivals) × 3 sweeps, arrivals
        // riding on its own turns, while the batch job round-robins.
        let jobs = vec![stream_job("live", JobMethod::Msdt, 3), {
            let mut b = quick_job("batch", JobMethod::Msdt, 9);
            b.tol = 0.0;
            b
        }];
        let report = batch(&jobs, &ServeConfig::new(2));
        assert_eq!(report.completed(), 2, "{:?}", report.jobs[0].status);
        let out = report.jobs[0].output.as_ref().unwrap();
        assert_eq!(out.report.sweeps.len(), 9, "3 windows x 3 sweeps");
        // The time-mode factor reached the full horizon.
        assert_eq!(out.factors[TIME_MODE].rows(), 7);
        // Round-robin actually interleaved the two tenants.
        let order: Vec<usize> = report.schedule.iter().map(|e| e.job).collect();
        assert_eq!(
            order,
            vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1]
        );
        // And the streamed result is bit-identical to driving the session
        // alone — scheduling changes nothing numerically.
        let spec = &jobs[0];
        let feed = spec.build_stream().unwrap();
        let mut alone = StreamingSession::new(
            &feed.initial(),
            &spec.als_config(),
            spec.method.session_kind(),
            TIME_MODE,
            3,
            pp_dtree::CacheUpdate::Incremental,
        );
        alone.run_window();
        for i in 0..feed.n_arrivals() {
            alone.arrive(&feed.slice(i));
            alone.run_window();
        }
        let alone = alone.finish();
        assert_eq!(alone.report.sweeps.len(), out.report.sweeps.len());
        for (a, b) in alone.report.sweeps.iter().zip(out.report.sweeps.iter()) {
            assert_eq!(a.fitness.to_bits(), b.fitness.to_bits());
        }
        for (fa, fb) in alone.factors.iter().zip(out.factors.iter()) {
            assert_eq!(fa.data(), fb.data());
        }
    }

    #[test]
    fn stream_drain_and_resume_is_bit_identical() {
        // Drain a streaming PP tenant mid-arrival into a checkpoint, then
        // re-run the same spec against the same directory: the stitched
        // trace must equal an uninterrupted run bitwise.
        let jobs = vec![stream_job("live", JobMethod::Pp, 4)];
        let straight = batch(&jobs, &ServeConfig::new(1));
        let full = straight.jobs[0].output.as_ref().unwrap();

        let dir = temp_dir("stream-drain");
        let cut = batch(
            &jobs,
            &ServeConfig::new(1)
                .with_checkpoint_dir(&dir)
                .with_stop_after_turns(6),
        );
        assert_eq!(cut.parked(), 1, "{:?}", cut.jobs[0].status);
        assert!(checkpoint_path(&dir, 0).exists());
        let resumed = batch(&jobs, &ServeConfig::new(1).with_checkpoint_dir(&dir));
        assert_eq!(resumed.completed(), 1, "{:?}", resumed.jobs[0].status);
        let out = resumed.jobs[0].output.as_ref().unwrap();
        // The checkpoint carries the trace accumulated before the cut, so
        // the stitched run reproduces the uninterrupted one bitwise.
        assert_eq!(out.report.sweeps.len(), full.report.sweeps.len());
        for (a, b) in full.report.sweeps.iter().zip(out.report.sweeps.iter()) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.fitness.to_bits(), b.fitness.to_bits());
        }
        for (fa, fb) in full.factors.iter().zip(out.factors.iter()) {
            assert_eq!(fa.data(), fb.data());
        }
        assert!(
            !checkpoint_path(&dir, 0).exists(),
            "terminal jobs must remove their checkpoint"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_checkpoint_path_fails_the_job_not_the_batch() {
        // A directory squatting on job0's checkpoint path makes the
        // temp-file rename fail. That I/O error must surface as a Failed
        // status for job 0 only — never a driver-thread crash, and never
        // a silent loss of the other tenants.
        let dir = temp_dir("unwritable-path");
        std::fs::create_dir_all(checkpoint_path(&dir, 0)).unwrap();
        let jobs = vec![
            quick_job("blocked", JobMethod::Msdt, 3),
            quick_job("fine", JobMethod::Msdt, 3),
        ];
        let report = batch(&jobs, &ServeConfig::new(2).with_checkpoint_dir(&dir));
        assert_eq!(report.failed(), 1);
        assert_eq!(report.completed(), 1);
        match &report.jobs[0].status {
            JobStatus::Failed { error } => {
                assert!(error.contains("checkpoint"), "{error}");
                assert!(error.contains("job0.ppck"), "{error}");
            }
            other => panic!("expected failure, got {other:?}"),
        }
        assert!(matches!(report.jobs[1].status, JobStatus::Completed { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unusable_checkpoint_dir_is_a_batch_error() {
        // A plain file where the checkpoint directory should be: the whole
        // batch is rejected up front with a clean error, before any job
        // construction happens.
        let dir = temp_dir("dir-is-file");
        let path = dir.join("ckpt");
        std::fs::write(&path, b"not a directory").unwrap();
        let jobs = vec![quick_job("a", JobMethod::Msdt, 2)];
        let err = run_batch(&jobs, &ServeConfig::new(1).with_checkpoint_dir(&path))
            .err()
            .expect("file-as-dir must be rejected");
        assert!(err.contains("checkpoint dir"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoints_fail_resume_cleanly() {
        // Garbage, truncated, and bit-flipped checkpoint files must all
        // surface as Failed with the decoder's message — no panic, no
        // partial resume. Exercised for both tenant kinds.
        let dir = temp_dir("corrupt-ckpt");
        let jobs = vec![
            quick_job("garbage", JobMethod::Msdt, 3),
            stream_job("stream-trunc", JobMethod::Msdt, 3),
            quick_job("flipped", JobMethod::Msdt, 3),
        ];
        // Seed real checkpoints for jobs 1 and 2 by draining a batch.
        let cut = batch(
            &jobs,
            &ServeConfig::new(3)
                .with_checkpoint_dir(&dir)
                .with_stop_after_turns(5),
        );
        assert_eq!(cut.parked(), 3);
        // Job 0: overwrite with garbage. Job 1: truncate. Job 2: flip.
        std::fs::write(checkpoint_path(&dir, 0), b"PPCKnot really").unwrap();
        let p1 = checkpoint_path(&dir, 1);
        let b1 = std::fs::read(&p1).unwrap();
        std::fs::write(&p1, &b1[..b1.len() / 2]).unwrap();
        let p2 = checkpoint_path(&dir, 2);
        let mut b2 = std::fs::read(&p2).unwrap();
        let mid = b2.len() / 2;
        b2[mid] ^= 0x40;
        std::fs::write(&p2, &b2).unwrap();

        let report = batch(&jobs, &ServeConfig::new(3).with_checkpoint_dir(&dir));
        assert_eq!(report.failed(), 3, "{:?}", report.schedule);
        for (i, needles) in [
            vec!["checkpoint"],
            vec!["checkpoint", "length mismatch"],
            vec!["checkpoint", "checksum"],
        ]
        .iter()
        .enumerate()
        {
            match &report.jobs[i].status {
                JobStatus::Failed { error } => {
                    for needle in needles {
                        assert!(error.contains(needle), "job {i}: {error}");
                    }
                }
                other => panic!("job {i}: expected failure, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_from_a_different_spec_is_refused() {
        // A checkpoint written under one spec must not resume a job whose
        // spec differs (here: a different rank) — fingerprint mismatch is
        // a clean Failed, not a corrupted-state resume.
        let dir = temp_dir("foreign-spec");
        let jobs = vec![quick_job("a", JobMethod::Msdt, 4)];
        let cut = batch(
            &jobs,
            &ServeConfig::new(1)
                .with_checkpoint_dir(&dir)
                .with_stop_after_turns(2),
        );
        assert_eq!(cut.parked(), 1);
        let mut changed = jobs.clone();
        changed[0].rank = 5;
        let report = batch(&changed, &ServeConfig::new(1).with_checkpoint_dir(&dir));
        match &report.jobs[0].status {
            JobStatus::Failed { error } => {
                assert!(error.contains("different job spec"), "{error}")
            }
            other => panic!("expected failure, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_after_turns_parks_in_flight_jobs() {
        let jobs: Vec<JobSpec> = (0..3)
            .map(|i| quick_job(&format!("j{i}"), JobMethod::Msdt, 4))
            .collect();
        let report = batch(&jobs, &ServeConfig::new(2).with_stop_after_turns(3));
        assert_eq!(report.schedule.len(), 3, "exactly 3 turns before drain");
        assert_eq!(report.completed(), 0);
        assert_eq!(report.parked(), 3);
        for j in &report.jobs {
            assert!(j.parked(), "{}: {:?}", j.name, j.status);
            assert!(j.output.is_none());
        }
    }

    #[test]
    fn jobs_naming_one_sparse_dataset_share_one_build_until_the_last_settles() {
        let sparse = |name: &str, seed: u64| {
            let mut j = quick_job(name, JobMethod::Dt, 2);
            j.dataset = DatasetSpec::SparseLowrank {
                dims: vec![12, 10, 8],
                gen_rank: 3,
                density: 0.1,
                seed,
            };
            j
        };
        let jobs = vec![
            sparse("a", 5),
            quick_job("dense", JobMethod::Dt, 2),
            sparse("a-again", 5),
            sparse("b", 6),
            stream_job("live", JobMethod::Msdt, 1),
            sparse("a-third", 5),
        ];
        let shelf = Shelf::new(&jobs);
        assert_eq!(shelf.group, [Some(0), None, Some(0), None, None, Some(0)]);
        assert!(
            shelf.tensor(3, &jobs[3]).is_none(),
            "named once: its own build"
        );
        let first = shelf.tensor(0, &jobs[0]).unwrap();
        for idx in [2, 5] {
            let again = shelf.tensor(idx, &jobs[idx]).unwrap();
            assert!(std::ptr::eq(again.csf(), first.csf()), "job {idx}");
        }
        let kept = || shelf.groups[0].tensor.lock().unwrap().is_some();
        shelf.settle(0);
        shelf.settle(5);
        assert!(kept(), "job 2 has not settled");
        // A resume between settles reads the same build.
        let resumed = shelf.tensor(2, &jobs[2]).unwrap();
        assert!(std::ptr::eq(resumed.csf(), first.csf()));
        shelf.settle(2);
        assert!(!kept(), "the last settle lets the dataset go");
    }
}
