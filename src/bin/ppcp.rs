//! `ppcp` — command-line CP decomposition driver.
//!
//! A run *is* a one-job manifest: every job key of [`parallel_pp::serve::job`]
//! (`method`, `rank`, `sweeps`, `tol`, `pp-tol`, `seed`, `dataset` and
//! its keys, the stream schedule — the table is in that
//! module's docs) is `--key value` here and `key=value` there, read by the
//! same `JobSpec::from_tokens`. This file adds the presets each mode lays
//! under the user's keys, and the run-only flags, which are not properties
//! of a job:
//!
//! ```text
//! ppcp [--key value]...           one decomposition. Presets: rank 16, 100 sweeps,
//!                                 data-seed = seed; 60³ lowrank, 80³ collinearity,
//!                                 48×64×33×9 timelapse, 512×256×64 / 256×256×64
//!                                 sparse, generated at rank max(rank, 4)
//!   --ranks P                     P > 1: the in-process distributed runtime
//!                                 (dense dt|msdt|pp only)
//!   --backend rendezvous|p2p      its collectives; bit-identical either way
//! ppcp stream [--key value]...    online CP of a timelapse growing along time.
//!                                 Presets: rank 8, 24×24×16×9, 3 initial time
//!                                 points, arrivals of 2, 5 sweeps per arrival
//!   --checkpoint FILE             park to FILE after each window; a re-run resumes
//!                                 mid-stream, a corrupt or foreign file exits 2
//!   --stop-after-arrivals N       graceful drain after N arrivals
//! ppcp batch --manifest PATH      multi-tenant batch mode
//!   --jobs J --drivers N          admission window (4); driver threads (all
//!                                 cores; 1 is the deterministic golden path)
//!   --cache-budget-mb MB          jobs queue rather than OOM
//!   --checkpoint-dir DIR          persist each job every sweep; re-running the
//!                                 same manifest resumes
//!   --stop-after-turns N          graceful drain after N batch-wide sweeps
//! all modes: --threads T  --trace  --help  --version
//! ```
//!
//! `--help` and `--version` short-circuit all other validation. Argument
//! errors (unknown flags or values, unparsable numbers, malformed manifests,
//! unusable checkpoints) exit 2 — no silent fallbacks. A failed batch *job*
//! does not abort the batch; the exit status is then 1.

use parallel_pp::comm::{Backend, Runtime};
use parallel_pp::core::{
    AlsConfig, AlsReport, ParKind, ParSession, Step, StreamingSession, SweepKind,
};
use parallel_pp::datagen::timelapse::TimelapseStream;
use parallel_pp::grid::{DistTensor, ProcGrid};
use parallel_pp::serve::{JobMethod, JobSpec, JobStatus, ServeConfig, Tenant};
use parallel_pp::tensor::{DenseTensor, Shape};
use std::path::Path;
use std::sync::Arc;

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Mode {
    #[default]
    Run,
    Batch,
    Stream,
}

/// A parsed command line: the job (absent in batch mode and under
/// `--help`/`--version`) and the run-only flags of all three modes.
#[derive(Debug, Default)]
struct Cli {
    mode: Mode,
    job: Option<JobSpec>,
    threads: Option<usize>,
    trace: bool,
    help: bool,
    version: bool,
    // ppcp
    ranks: usize,
    backend: Backend,
    // ppcp batch
    manifest: String,
    jobs: usize,
    drivers: usize,
    cache_budget_mb: Option<usize>,
    checkpoint_dir: Option<String>,
    stop_after_turns: Option<usize>,
    // ppcp stream
    checkpoint: Option<String>,
    stop_after_arrivals: Option<usize>,
}

/// What `ppcp stream` lays under the user's keys.
const STREAM_PRESET: &str = "dataset=timelapse stream=on rank=8 height=24 width=24 bands=16 \
     times=9 materials=6 noise=5e-3 data-seed=42 initial-times=3 arrive=2 sweeps-per-arrival=5";

/// What plain `ppcp` lays under the user's keys: the dataset's size in use,
/// generated at the run's rank (at least 4) from the run's seed.
fn run_preset(dataset: &str, rank: usize, seed: u64) -> String {
    let gen_rank = rank.max(4);
    let data = match dataset {
        "lowrank" => format!("dims=60x60x60 gen-rank={gen_rank} noise=0.05"),
        "collinearity" => format!("s=80 r={gen_rank} order=3 lo=0.6 hi=0.8"),
        "timelapse" => "height=48 width=64 bands=33 times=9 materials=12 noise=5e-3".into(),
        "sparse-powerlaw" => "dims=512x256x64 nnz=100000 skew=2.0".into(),
        "sparse-lowrank" => format!("dims=256x256x64 gen-rank={gen_rank} density=0.005"),
        _ => String::new(), // fixed-size, or unknown and rejected by the reader
    };
    format!("rank=16 sweeps=100 data-seed={seed} {data}")
}

fn num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value
        .parse()
        .map_err(|e| format!("invalid value for {flag}: {e}"))
}

fn positive(flag: &str, value: &str) -> Result<usize, String> {
    match num(flag, value)? {
        0 => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

/// Default driver count: every available core (work-conserving serving).
fn default_drivers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parse and validate a command line (without the program name): one walk
/// over `argv` for all three modes. A run-only flag lands in its [`Cli`]
/// field; any other `--key value` is the job token `key=value`.
fn parse(argv: &[String]) -> Result<Cli, String> {
    let (mode, argv) = match argv.first().map(String::as_str) {
        Some("batch") => (Mode::Batch, &argv[1..]),
        Some("stream") => (Mode::Stream, &argv[1..]),
        _ => (Mode::Run, argv),
    };
    let mut cli = Cli {
        mode,
        help: argv.iter().any(|a| a == "--help" || a == "-h"),
        version: argv.iter().any(|a| a == "--version" || a == "-V"),
        ranks: 1,
        jobs: 4,
        drivers: default_drivers(),
        ..Cli::default()
    };
    if cli.help || cli.version {
        return Ok(cli);
    }
    let mut user: Vec<String> = Vec::new();
    let mut args = argv.iter();
    while let Some(flag) = args.next() {
        let flag = flag.as_str();
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match (flag, mode) {
            ("--threads", _) => cli.threads = Some(positive(flag, value()?)?),
            ("--trace", _) => cli.trace = true,
            ("--ranks", Mode::Run) => cli.ranks = positive(flag, value()?)?,
            ("--backend", Mode::Run) => cli.backend = value()?.parse()?,
            ("--manifest", Mode::Batch) => cli.manifest = value()?.clone(),
            ("--jobs", Mode::Batch) => cli.jobs = positive(flag, value()?)?,
            ("--drivers", Mode::Batch) => cli.drivers = positive(flag, value()?)?,
            ("--cache-budget-mb", Mode::Batch) => {
                cli.cache_budget_mb = Some(positive(flag, value()?)?)
            }
            ("--checkpoint-dir", Mode::Batch) => cli.checkpoint_dir = Some(value()?.clone()),
            ("--stop-after-turns", Mode::Batch) => {
                cli.stop_after_turns = Some(num(flag, value()?)?)
            }
            ("--checkpoint", Mode::Stream) => cli.checkpoint = Some(value()?.clone()),
            ("--stop-after-arrivals", Mode::Stream) => {
                cli.stop_after_arrivals = Some(num(flag, value()?)?)
            }
            (_, Mode::Run | Mode::Stream) => match flag.strip_prefix("--") {
                // Job keys, but the scheduler's. (`threads` is one too; on a
                // command line it is the run flag above.)
                Some("name" | "policy" | "priority" | "deadline" | "fail-after" | "stream") => {
                    return Err(format!("{flag} only means something in a batch manifest"))
                }
                Some(key) if JobSpec::knows_key(key) => user.push(format!("{key}={}", value()?)),
                _ => return Err(format!("unknown flag {flag}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if mode == Mode::Batch {
        if cli.manifest.is_empty() {
            return Err("batch mode requires --manifest <path>".into());
        }
        return Ok(cli);
    }
    // The presets depend on three of the user's own keys; an unparsable one
    // falls back here and is reported by the reader below.
    let given = |key: &str| -> Option<&str> {
        let mut values = user.iter().rev();
        values.find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
    };
    let preset = match mode {
        Mode::Stream => STREAM_PRESET.to_string(),
        _ => run_preset(
            given("dataset").unwrap_or("lowrank"),
            given("rank").and_then(|v| v.parse().ok()).unwrap_or(16),
            given("seed").and_then(|v| v.parse().ok()).unwrap_or(42),
        ),
    };
    let tokens = preset
        .split_whitespace()
        .chain(user.iter().map(String::as_str));
    let job = JobSpec::from_tokens("ppcp", tokens)?;
    if cli.ranks > 1 && job.dataset.is_sparse() {
        return Err(format!(
            "dataset '{}' is sequential-only (--ranks 1)",
            job.dataset.name()
        ));
    }
    if cli.ranks > 1 && job.method == JobMethod::Nncp {
        return Err("method nncp is sequential-only (--ranks 1)".into());
    }
    cli.job = Some(job);
    Ok(cli)
}

impl Cli {
    /// The job's `AlsConfig` under this run's `--threads`. The width is a
    /// run flag, not a job property: it stays out of the fingerprinted spec
    /// (a checkpoint resumes under any width) and routes through
    /// `AlsConfig::threads`, whose scoped pin is released when the run
    /// returns.
    fn als_config(&self, job: &JobSpec) -> AlsConfig {
        let mut cfg = job.als_config();
        cfg.threads = self.threads;
        cfg
    }

    fn threads_shown(&self) -> usize {
        self.threads.unwrap_or_else(rayon::current_num_threads)
    }
}

/// `N sweeps (… exact, … PP-init, … PP-approx), fitness F` — the summary
/// every mode prints.
fn sweep_summary(report: &AlsReport) -> String {
    format!(
        "{} sweeps ({} exact, {} PP-init, {} PP-approx), fitness {:.5}",
        report.sweeps.len(),
        report.count(SweepKind::Exact),
        report.count(SweepKind::PpInit),
        report.count(SweepKind::PpApprox),
        report.final_fitness,
    )
}

/// The end-of-run report of a single decomposition: summary, the kernel
/// ledger's counts, and under `--trace` the fitness trace.
fn print_report(report: &AlsReport, job: &JobSpec, trace: bool) {
    let stream = job.stream.is_some();
    println!(
        "finished: {}, {:.2}s total{}",
        sweep_summary(report),
        report.total_secs(),
        match (stream, report.converged) {
            (true, _) => "", // a stream ends with its schedule, not a criterion
            (false, true) => " (converged)",
            (false, false) => " (sweep limit)",
        },
    );
    let stats = &report.stats;
    println!(
        "kernel ledger: TTM {} flops in {} calls, mTTV {} flops in {} calls",
        stats.ttm_flops, stats.ttm_count, stats.mttv_flops, stats.mttv_count,
    );
    if trace {
        for s in &report.sweeps {
            println!(
                "  {:9} t={:8.3}s fitness={:.6}",
                s.kind.label(),
                s.cumulative_secs,
                s.fitness
            );
        }
    }
}

/// Run `ppcp batch`: parse the manifest, schedule the jobs, report.
/// Like the other two modes: `Ok` is the process exit code, `Err` an
/// argument-class error (exit 2).
fn run_batch_mode(cli: &Cli) -> Result<i32, String> {
    let path = &cli.manifest;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read manifest {path}: {e}"))?;
    let jobs = parallel_pp::serve::parse_manifest(&text).map_err(|e| format!("{path}: {e}"))?;
    if jobs.is_empty() {
        return Err(format!("manifest {path} declares no jobs"));
    }
    // `--threads` is the batch-wide pin; per-job `threads=` pins nest inside
    // per turn (single-driver only — concurrent drivers drop per-job pins).
    println!(
        "batch: {} jobs, window {}, drivers {}, threads={}{}{}",
        jobs.len(),
        cli.jobs,
        cli.drivers,
        cli.threads_shown(),
        cli.cache_budget_mb
            .map(|mb| format!(", cache-budget {mb} MB"))
            .unwrap_or_default(),
        cli.checkpoint_dir
            .as_deref()
            .map(|d| format!(", checkpoints in {d}"))
            .unwrap_or_default(),
    );
    let mut cfg = ServeConfig::new(cli.jobs).with_drivers(cli.drivers);
    if let Some(mb) = cli.cache_budget_mb {
        // MB of f64 cache elements (8 bytes each).
        cfg = cfg.with_cache_budget_elems(mb * 1024 * 1024 / 8);
    }
    if let Some(dir) = &cli.checkpoint_dir {
        cfg = cfg.with_checkpoint_dir(dir);
    }
    if let Some(turns) = cli.stop_after_turns {
        cfg = cfg.with_stop_after_turns(turns);
    }
    let report = parallel_pp::serve::run_batch(&jobs, &cfg)?;

    for (spec, res) in jobs.iter().zip(report.jobs.iter()) {
        let outcome = match &res.status {
            JobStatus::Completed { converged } => format!(
                "ok: {}, {:.3}s{}",
                sweep_summary(
                    &res.output
                        .as_ref()
                        .expect("a completed job has output")
                        .report
                ),
                res.secs,
                if *converged {
                    " (converged)"
                } else {
                    " (sweep limit)"
                },
            ),
            JobStatus::Failed { error } => format!("FAILED: {error}"),
            JobStatus::Parked if cli.checkpoint_dir.is_some() => {
                "parked (resumable from checkpoint dir)".into()
            }
            JobStatus::Parked => "parked".into(),
        };
        println!("  {:<12} {:<5} {outcome}", res.name, spec.method.label());
    }
    println!(
        "batch finished: {} completed, {} failed, {} parked, {:.3}s total ({:.2} jobs/s)",
        report.completed(),
        report.failed(),
        report.parked(),
        report.total_secs,
        report.jobs_per_sec(),
    );
    if cli.trace {
        for e in &report.schedule {
            println!(
                "  turn {:4}  drv {}  job {} ({})  sweep {:3}  {}",
                e.turn,
                e.driver,
                e.job,
                report.jobs[e.job].name,
                e.sweep,
                e.kind.label()
            );
        }
    }
    // A drained (parked) batch is a successful graceful stop, not a
    // failure: only failed jobs flip the exit code.
    Ok(i32::from(report.failed() > 0))
}

/// Run `ppcp stream`: an online CP decomposition of the timelapse tensor,
/// slices arriving along the time mode.
fn run_stream_mode(cli: &Cli, job: &JobSpec) -> Result<i32, String> {
    fn parts(tenant: &Tenant) -> (&StreamingSession, &TimelapseStream) {
        match tenant {
            Tenant::Stream { session, feed } => (session, feed),
            Tenant::Batch(_) => unreachable!("a stream job opens a stream tenant"),
        }
    }
    let ckpt = cli.checkpoint.as_deref().map(Path::new);
    let resumed = ckpt.is_some_and(Path::exists);
    let mut tenant = Tenant::open(job, &cli.als_config(job), ckpt)?;
    let (session, feed) = parts(&tenant);
    if resumed {
        println!(
            "resumed {} at extent {} ({} arrivals, {} sweeps done)",
            cli.checkpoint.as_deref().unwrap_or_default(),
            session.extent(),
            session.arrivals_done(),
            session.sweeps_done(),
        );
    }
    let schedule = job.stream.expect("the stream preset sets a schedule");
    println!(
        "stream: timelapse {} → {} initial time points + {} arrivals of {}, \
         method {}, R={}, {} sweeps/arrival, update {:?}, threads={}",
        Shape::new(job.dataset.dims()),
        schedule.initial,
        feed.n_arrivals(),
        schedule.arrive,
        job.method.label(),
        job.rank,
        schedule.sweeps_per_arrival,
        schedule.update,
        cli.threads_shown(),
    );

    // Sweep until a window closes; there checkpoint and report it, and stop
    // when the schedule is spent or the drain point reached. Stepping past
    // a closed window takes the next arrival first.
    let drained = loop {
        if parts(&tenant).0.is_finished() {
            if let Some(path) = ckpt {
                if let Err(e) = tenant.park_to_disk(path, job) {
                    eprintln!("error: {e}");
                    return Ok(1);
                }
            }
            let (session, feed) = parts(&tenant);
            println!(
                "  window {:2}: extent {:3}, {:3} sweeps, fitness {:.5}",
                session.arrivals_done(),
                session.extent(),
                session.sweeps_done(),
                session.last_fitness(),
            );
            let done = session.arrivals_done();
            if done >= feed.n_arrivals() {
                break false;
            }
            if cli.stop_after_arrivals.is_some_and(|n| done >= n) {
                break true;
            }
        }
        tenant.step();
    };
    if drained {
        println!(
            "drained after {} arrivals{}",
            parts(&tenant).0.arrivals_done(),
            if ckpt.is_some() {
                " (resumable from checkpoint)"
            } else {
                ""
            },
        );
        return Ok(0);
    }
    print_report(&tenant.finish().report, job, cli.trace);
    if let Some(path) = ckpt {
        // The run is complete; a stale checkpoint would otherwise resume
        // a finished session on the next invocation.
        let _ = std::fs::remove_file(path);
    }
    Ok(0)
}

/// Run plain `ppcp`: one decomposition, sequential through a [`Tenant`]
/// (dense and sparse alike) or, at `--ranks P > 1`, on the in-process
/// distributed runtime.
fn run_mode(cli: &Cli, job: &JobSpec) -> Result<i32, String> {
    let cfg = cli.als_config(job);
    let shape = Shape::new(job.dataset.dims());
    let dense_header = || {
        println!(
            "dataset {} → tensor {} ({} elements), method {}, R={}, P={}, threads={}",
            job.dataset.name(),
            shape,
            shape.len(),
            job.method.label(),
            job.rank,
            cli.ranks,
            cli.threads_shown(),
        )
    };
    let report = if cli.ranks > 1 {
        let t = job.dataset.build();
        dense_header();
        let grid = grid_for(&t, cli.ranks);
        println!(
            "processor grid: {:?}, backend: {}",
            grid.dims(),
            cli.backend
        );
        let kind = match job.method {
            JobMethod::Pp => ParKind::Pp,
            _ => ParKind::Exact,
        };
        let t = Arc::new(t);
        let out = Runtime::with_backend(cli.ranks, cli.backend).run(move |ctx| {
            let local = DistTensor::from_global(&t, &grid, ctx.rank());
            ParSession::new(ctx, &grid, &local, &cfg, kind)
                .run(ctx)
                .report
        });
        out.results.into_iter().next().expect("P > 1 ranks ran")
    } else {
        let mut tenant = Tenant::open(job, &cfg, None)?;
        match &tenant {
            Tenant::Batch(session) if job.dataset.is_sparse() => {
                let nnz = session.input_nnz().unwrap_or(0);
                println!(
                    "dataset {} → sparse tensor {} ({} nnz, density {:.4}%), method {}, R={}, \
                     threads={}",
                    job.dataset.name(),
                    shape,
                    nnz,
                    nnz as f64 / shape.len() as f64 * 100.0,
                    job.method.label(),
                    job.rank,
                    cli.threads_shown(),
                );
            }
            _ => dense_header(),
        }
        while let Step::Swept(_) = tenant.step() {}
        tenant.finish().report
    };
    print_report(&report, job, cli.trace);
    Ok(0)
}

fn grid_for(t: &DenseTensor, p: usize) -> ProcGrid {
    // Greedy near-balanced factorization of P over the tensor modes,
    // preferring to split the largest remaining mode extents.
    let n = t.order();
    let mut dims = vec![1usize; n];
    let mut rem = p;
    let mut f = 2;
    let mut factors = Vec::new();
    while rem > 1 {
        while rem.is_multiple_of(f) {
            factors.push(f);
            rem /= f;
        }
        f += 1;
    }
    factors.sort_unstable_by(|a, b| b.cmp(a));
    for f in factors {
        // Assign to the mode with the largest extent-per-current-split.
        let k = (0..n)
            .max_by_key(|&m| t.dim(m) / dims[m])
            .expect("order ≥ 1");
        dims[k] *= f;
    }
    ProcGrid::new(dims)
}

const USAGE: &str = "\
ppcp        [--key value]... [--ranks P] [--backend rendezvous|p2p]
ppcp stream [--key value]... [--checkpoint FILE] [--stop-after-arrivals N]
ppcp batch  --manifest PATH [--jobs J] [--drivers N] [--cache-budget-mb MB]
            [--checkpoint-dir DIR] [--stop-after-turns N]
all modes:  [--threads T] [--trace] [--help] [--version]
`--key value` is a job key of the pp-serve `job` module docs (`key=value` in a manifest):
--dataset NAME, --method dt|msdt|pp|nncp, --rank R, --sweeps N, --tol D, --pp-tol E, --seed S, ...";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let fail = |e: String| -> ! {
        eprintln!("error: {e}");
        std::process::exit(2)
    };
    let cli = parse(&argv).unwrap_or_else(|e| fail(e));
    if cli.version {
        println!("ppcp {}", env!("CARGO_PKG_VERSION"));
        return;
    }
    if cli.help {
        println!("{USAGE}");
        return;
    }
    // Dataset generation runs outside any session, so `--threads` also pins
    // the pool for the whole process here.
    let _threads = cli.threads.map(rayon::scoped_num_threads);
    let code = match (cli.mode, &cli.job) {
        (Mode::Batch, _) => run_batch_mode(&cli),
        (Mode::Stream, Some(job)) => run_stream_mode(&cli, job),
        (Mode::Run, Some(job)) => run_mode(&cli, job),
        (_, None) => unreachable!("parse builds the job outside batch mode"),
    };
    std::process::exit(code.unwrap_or_else(|e| fail(e)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallel_pp::dtree::CacheUpdate;
    use parallel_pp::serve::{DatasetSpec, DATASET_NAMES};

    /// Parse a command line written as one string.
    fn cli(line: &str) -> Result<Cli, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&argv)
    }

    fn job(line: &str) -> JobSpec {
        cli(line).unwrap().job.unwrap()
    }

    /// `line` is a parse error whose message contains `needle`.
    fn rejects(line: &str, needle: &str) {
        let err = cli(line).expect_err(line);
        assert!(err.contains(needle), "{line}: {err}");
    }

    #[test]
    fn batch_args_parse() {
        let a = cli("batch --manifest jobs.txt").unwrap();
        assert_eq!((a.mode, a.manifest.as_str()), (Mode::Batch, "jobs.txt"));
        assert_eq!(a.jobs, 4, "default window");
        assert!(!a.trace && a.job.is_none());
        let a = cli("batch --manifest m.txt --jobs 2 --trace --threads 3").unwrap();
        assert_eq!((a.jobs, a.trace), (2, true));
        assert_eq!(a.threads, Some(3));
    }

    #[test]
    fn batch_scheduler_flags_parse() {
        let a = cli("batch --manifest m.txt").unwrap();
        assert_eq!(a.drivers, default_drivers(), "default is all cores");
        assert_eq!((a.cache_budget_mb, a.stop_after_turns), (None, None));
        assert_eq!(a.checkpoint_dir, None);
        let a = cli("batch --manifest m.txt --drivers 4 --cache-budget-mb 64 \
                     --checkpoint-dir /tmp/ckpt --stop-after-turns 12")
        .unwrap();
        assert_eq!((a.drivers, a.cache_budget_mb), (4, Some(64)));
        assert_eq!(a.checkpoint_dir.as_deref(), Some("/tmp/ckpt"));
        assert_eq!(a.stop_after_turns, Some(12));
    }

    #[test]
    fn zero_and_garbage_scheduler_flags_are_rejected() {
        // Exit-2 paths: zero or unparsable values must be argument errors,
        // never a panic inside the scheduler.
        rejects(
            "batch --manifest m --drivers 0",
            "--drivers must be at least 1",
        );
        rejects(
            "batch --manifest m --drivers many",
            "invalid value for --drivers",
        );
        rejects(
            "batch --manifest m --cache-budget-mb 0",
            "--cache-budget-mb must be",
        );
        rejects(
            "batch --manifest m --cache-budget-mb big",
            "invalid value for",
        );
        rejects(
            "batch --manifest m --stop-after-turns soon",
            "--stop-after-turns",
        );
    }

    #[test]
    fn batch_args_rejected() {
        rejects("batch", "requires --manifest");
        rejects("batch --manifest", "missing value for --manifest");
        rejects("batch --manifest m --jobs 0", "--jobs must be at least 1");
        rejects(
            "batch --manifest m --frobnicate",
            "unknown flag --frobnicate",
        );
        // Job keys and the other modes' run flags are not batch flags.
        rejects("batch --manifest m --rank 3", "unknown flag --rank");
        rejects("batch --manifest m --ranks 2", "unknown flag --ranks");
    }

    #[test]
    fn stream_args_parse() {
        let a = cli("stream").unwrap();
        assert!(a.checkpoint.is_none() && a.stop_after_arrivals.is_none());
        let j = a.job.unwrap();
        assert_eq!((j.method, j.rank, j.seed), (JobMethod::Msdt, 8, 42));
        assert_eq!(j.dataset.dims(), [24, 24, 16, 9]);
        let s = j.stream.unwrap();
        assert_eq!((s.initial, s.arrive, s.sweeps_per_arrival), (3, 2, 5));
        assert_eq!(s.update, CacheUpdate::Incremental);

        let a = cli(
            "stream --method pp --rank 6 --height 12 --width 10 --bands 8 --times 11 \
                     --materials 3 --noise 1e-3 --data-seed 7 --initial-times 5 --arrive 3 \
                     --sweeps-per-arrival 4 --update recompute --checkpoint s.ppck \
                     --stop-after-arrivals 1 --threads 2 --trace",
        )
        .unwrap();
        assert_eq!(a.checkpoint.as_deref(), Some("s.ppck"));
        assert_eq!((a.stop_after_arrivals, a.threads), (Some(1), Some(2)));
        assert!(a.trace);
        let j = a.job.unwrap();
        assert_eq!((j.method, j.rank), (JobMethod::Pp, 6));
        assert_eq!(j.dataset.dims(), [12, 10, 8, 11]);
        let timelapse = "dataset=timelapse height=12 width=10 bands=8 times=11 materials=3 \
                         noise=1e-3 data-seed=7";
        let same = JobSpec::from_tokens("m", timelapse.split_whitespace()).unwrap();
        assert_eq!(j.dataset, same.dataset);
        let s = j.stream.unwrap();
        assert_eq!((s.initial, s.arrive, s.sweeps_per_arrival), (5, 3, 4));
        assert_eq!(s.update, CacheUpdate::Recompute);
        assert_eq!(j.threads, None, "--threads stays out of the spec");
    }

    #[test]
    fn stream_args_rejected() {
        rejects("stream --method nncp", "dt|pp|msdt");
        rejects("stream --method gradient", "unknown method");
        rejects("stream --sweeps-per-arrival 0", "at least 1");
        rejects("stream --update lazy", "incremental|recompute");
        rejects("stream --rank 0", "rank must be at least 1");
        rejects("stream --arrive", "missing value for --arrive");
        rejects("stream --arrive 4", "do not divide");
        rejects("stream --dataset lowrank", "requires dataset=timelapse");
        rejects("stream --frobnicate", "unknown flag");
        // The flag that did nothing is gone; `--ranks` never was one here.
        rejects("stream --backend p2p", "unknown flag --backend");
        rejects("stream --ranks 2", "unknown flag --ranks");
    }

    #[test]
    fn defaults_parse() {
        let a = cli("").unwrap();
        assert_eq!((a.mode, a.ranks, a.threads), (Mode::Run, 1, None));
        let j = a.job.unwrap();
        assert_eq!((j.method, j.rank, j.max_sweeps), (JobMethod::Msdt, 16, 100));
        assert_eq!((j.tol, j.pp_tol, j.seed), (1e-5, 0.1, 42));
        // The lowrank preset: 60³, generated at the run's rank from its seed.
        let lowrank = |gen_rank, seed| DatasetSpec::Lowrank {
            dims: vec![60, 60, 60],
            gen_rank,
            noise: 0.05,
            seed,
        };
        assert_eq!(j.dataset, lowrank(16, 42));
        assert_eq!(job("--rank 3 --seed 7").dataset, lowrank(4, 7));
        // A preset is a default: the user's own key still wins.
        assert_eq!(job("--gen-rank 9 --data-seed 1").dataset, lowrank(9, 1));
    }

    #[test]
    fn lookahead_and_park_flags_are_rejected() {
        rejects("--no-lookahead", "unknown flag --no-lookahead");
        rejects("--lookahead off", "unknown flag --lookahead");
        rejects("batch --manifest m --no-park", "unknown flag --no-park");
    }

    #[test]
    fn threads_flag_routes_into_config_not_a_global() {
        // Parsing must not leave a process-global width behind: `--threads`
        // becomes `AlsConfig::threads`, whose scoped guard is released when
        // each run returns.
        let before = rayon::current_num_threads();
        let a = cli("--threads 3").unwrap();
        assert_eq!(a.als_config(a.job.as_ref().unwrap()).threads, Some(3));
        assert_eq!(rayon::current_num_threads(), before);
    }

    #[test]
    fn full_flag_set_parses() {
        let a = cli(
            "--dataset chemistry --method pp --rank 24 --sweeps 50 --tol 1e-4 \
                     --pp-tol 0.2 --ranks 4 --backend p2p --threads 8 --seed 7 \
                     --trace",
        )
        .unwrap();
        assert_eq!((a.ranks, a.backend, a.threads), (4, Backend::P2p, Some(8)));
        assert!(a.trace);
        let j = a.job.unwrap();
        assert_eq!(j.dataset, DatasetSpec::Chemistry { seed: 7 });
        assert_eq!((j.method, j.rank, j.max_sweeps), (JobMethod::Pp, 24, 50));
        assert_eq!((j.tol, j.pp_tol, j.seed), (1e-4, 0.2, 7));
    }

    /// `flag` anywhere on the line wins in `mode`, even next to arguments
    /// that would otherwise be rejected (a missing manifest included).
    fn assert_short_circuits(mode: &str, flag: &str, seen: fn(&Cli) -> bool) {
        for rest in ["{}", "{} --method x", "--rank abc {}", "{} --frob"] {
            let line = format!("{mode} {}", rest.replace("{}", flag));
            assert!(seen(&cli(&line).unwrap()), "{line}");
        }
    }

    #[test]
    fn help_short_circuits_validation() {
        assert_short_circuits("", "--help", |a| a.help);
        assert_short_circuits("", "-h", |a| a.help);
    }

    #[test]
    fn version_flag_parses_and_short_circuits() {
        assert_short_circuits("", "--version", |a| a.version);
        assert_short_circuits("", "-V", |a| a.version);
        assert!(!cli("").unwrap().version);
    }

    #[test]
    fn batch_help_and_version_short_circuit() {
        assert_short_circuits("batch", "--help", |a| a.help);
        assert_short_circuits("batch", "-V", |a| a.version);
    }

    #[test]
    fn stream_help_and_version_short_circuit() {
        assert_short_circuits("stream", "-h", |a| a.help);
        assert_short_circuits("stream", "--version", |a| a.version);
    }

    #[test]
    fn version_must_be_exact_flag() {
        // A typo'd version flag is still an argument error (exit 2), not
        // a silent fallback into a run.
        for bad in ["--versio", "--versions", "-v"] {
            rejects(bad, "unknown flag");
        }
    }

    #[test]
    fn backend_defaults_to_rendezvous_and_parses_both_names() {
        assert_eq!(cli("").unwrap().backend, Backend::Rendezvous);
        assert_eq!(
            cli("--backend rendezvous").unwrap().backend,
            Backend::Rendezvous
        );
        assert_eq!(cli("--backend p2p").unwrap().backend, Backend::P2p);
    }

    #[test]
    fn unknown_backend_is_rejected_enumerating_names() {
        rejects("--backend mpi", "unknown backend 'mpi'");
        rejects("--backend mpi", "rendezvous|p2p");
    }

    #[test]
    fn unknown_method_is_rejected_not_defaulted() {
        rejects("--method turbo", "unknown method 'turbo'");
        rejects("--method turbo", "dt|msdt|pp|nncp");
    }

    #[test]
    fn unknown_dataset_is_rejected() {
        // The rejection enumerates every valid dataset name — the manifest's
        // own vocabulary, sparse and fixed-size ones included.
        rejects("--dataset netflix", "unknown dataset 'netflix'");
        rejects("--dataset netflix", DATASET_NAMES);
        for name in DATASET_NAMES.split('|') {
            assert_eq!(job(&format!("--dataset {name}")).dataset.name(), name);
        }
    }

    #[test]
    fn sparse_datasets_admit_dt_pp_msdt_and_reject_nncp() {
        for ds in ["sparse-powerlaw", "sparse-lowrank"] {
            for m in ["dt", "pp", "msdt"] {
                let line = format!("--dataset {ds} --method {m}");
                let j = job(&line);
                assert_eq!((j.dataset.name(), j.method.label()), (ds, m));
                // Sparse runs are sequential-only, whatever the method.
                rejects(&format!("{line} --ranks 4"), "--ranks 1");
            }
            assert_eq!(job(&format!("--dataset {ds}")).method, JobMethod::Msdt);
            let nncp = format!("--dataset {ds} --method nncp");
            rejects(&nncp, "method=dt|pp|msdt");
        }
        let dims = |ds: &str| job(&format!("--dataset {ds}")).dataset.dims();
        assert_eq!(dims("sparse-powerlaw"), [512, 256, 64]);
        assert_eq!(dims("sparse-lowrank"), [256, 256, 64]);
    }

    #[test]
    fn nncp_on_several_ranks_is_rejected_not_swapped_for_dt() {
        rejects("--method nncp --ranks 2", "sequential-only (--ranks 1)");
        assert_eq!(job("--method nncp --ranks 1").method, JobMethod::Nncp);
    }

    #[test]
    fn unknown_flag_is_rejected() {
        rejects("--frobnicate", "unknown flag --frobnicate");
        rejects("--frobnicate 1", "unknown flag --frobnicate");
        rejects("rank=3", "unknown flag rank=3");
        // Scheduler keys are job keys, but not of a single run.
        rejects("--policy rr", "--policy only means something in a batch");
        rejects("--stream on", "--stream only means");
        rejects("--fail-after 2", "--fail-after only means");
    }

    #[test]
    fn bad_numbers_and_missing_values_are_rejected() {
        rejects("--rank abc", "invalid value for rank");
        rejects("--ranks two", "invalid value for --ranks");
        rejects("--ranks 0", "--ranks must be at least 1");
        rejects("--seed", "missing value for --seed");
        rejects("--threads 0", "--threads must be at least 1");
        rejects("--dims 7", "invalid dims");
    }
}
