//! One lap of each workload family, and the untraced run that yields the
//! end-to-end metrics.
//!
//! Closed loop, one client: a lap starts when the previous one returned.
//! A run generates its inputs once from the seed, spends one oracle lap (the
//! reference the gates compare against) and a warm-up, then laps at full
//! width for `--seconds`.

use crate::adapter::{
    self, BatchOut, Dense, DistLap, Feed, Input, Kind, Outcome, Session, Spec, Stream, Update, Wire,
};
use crate::catalog::{self, Better, Family, Workload};
use crate::sheet::{mean, Sheet};
use crate::trace::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A workload's parsed manifest and generated inputs.
pub struct Prepared {
    pub specs: Vec<Spec>,
    pub data: Data,
    /// Wall of generating the inputs: never program time.
    pub datagen_s: f64,
}

pub enum Data {
    Batch(Input),
    /// The global tensor every rank cuts its block from.
    Global(Arc<Dense>),
    /// The arrival feed, pre-carved so slicing stays out of the laps.
    Feed {
        feed: Feed,
        initial: Dense,
        slices: Vec<Dense>,
    },
    /// Serve tenants build their own datasets inside the scheduler.
    Tenants,
}

pub fn prepare(w: &Workload, seed: u64) -> Result<Prepared, String> {
    let text = crate::catalog::instantiate(w.manifest, seed);
    let specs = adapter::parse_manifest(&text)?;
    let first = specs.first().ok_or("manifest declares no job")?;
    let t0 = Instant::now();
    let data = match w.family {
        Family::Session => Data::Batch(adapter::build_input(first)),
        Family::Dist { .. } => match adapter::build_input(first) {
            Input::Dense(t) => Data::Global(Arc::new(t)),
            Input::Sparse(_) => return Err("distributed workloads are dense".into()),
        },
        Family::Stream => {
            let feed = Feed::new(first)?;
            let initial = feed.initial();
            let slices = (0..feed.n_arrivals()).map(|i| feed.slice(i)).collect();
            Data::Feed {
                feed,
                initial,
                slices,
            }
        }
        Family::Serve { .. } => Data::Tenants,
    };
    Ok(Prepared {
        specs,
        data,
        datagen_s: t0.elapsed().as_secs_f64(),
    })
}

// ---------------------------------------------------------------------------
// Session family
// ---------------------------------------------------------------------------

pub struct StepWall {
    pub kind: Kind,
    pub wall_s: f64,
}

pub struct SessionLap {
    pub setup_s: f64,
    /// First `step` → `finish` returned.
    pub solve_s: f64,
    pub finish_s: f64,
    pub steps: Vec<StepWall>,
    pub outcome: Outcome,
    /// Largest cache + operator footprint seen between steps (traced laps).
    pub cache_elems: usize,
}

impl SessionLap {
    /// Mean wall of this lap's sweeps of one kind (mean, not median: MSDT's
    /// cost has a period of N−1 sweeps).
    pub fn kind_mean(&self, kind: Kind) -> Option<f64> {
        let walls: Vec<f64> = self
            .steps
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.wall_s)
            .collect();
        (!walls.is_empty()).then(|| mean(&walls))
    }
}

/// One session lap: construct, step to the spec's sweep budget, finish.
/// Spans (when the tracer records): `core.session_new`, `core.step{kind}`,
/// `core.finish`.
pub fn session_lap(spec: &Spec, input: &Input, threads: usize, tr: &mut Tracer) -> SessionLap {
    tr.next_lap();
    let (lap, _) = tr.time("lap", |tr| {
        let (mut s, setup_s) = tr.time("core.session_new", |_| Session::new(spec, input, threads));
        let solve0 = Instant::now();
        let mut steps = Vec::new();
        let mut cache_elems = 0;
        loop {
            let (swept, wall_s) = tr.time("core.step", |_| s.step());
            let Some(swept) = swept else { break };
            tr.retag_last(&format!("{{{}}}", swept.kind.label()));
            steps.push(StepWall {
                kind: swept.kind,
                wall_s,
            });
            if tr.recording() {
                cache_elems = cache_elems.max(s.cache_elems());
            }
        }
        let (outcome, finish_s) = tr.time("core.finish", |_| s.finish());
        SessionLap {
            setup_s,
            solve_s: solve0.elapsed().as_secs_f64(),
            finish_s,
            steps,
            outcome,
            cache_elems,
        }
    });
    lap
}

// ---------------------------------------------------------------------------
// Stream family
// ---------------------------------------------------------------------------

pub struct StreamLap {
    pub setup_s: f64,
    pub solve_s: f64,
    pub arrive_s: Vec<f64>,
    pub window_s: Vec<f64>,
    pub finish_s: f64,
    pub sweeps: usize,
    pub outcome: Outcome,
    pub cache_elems: usize,
}

/// One streaming lap over the fixed arrival schedule. Spans:
/// `core.stream_new`, `core.run_window`, `core.arrive`, `core.finish`.
pub fn stream_lap(
    spec: &Spec,
    initial: &Dense,
    slices: &[Dense],
    threads: usize,
    update: Update,
    tr: &mut Tracer,
) -> StreamLap {
    tr.next_lap();
    let (lap, _) = tr.time("lap", |tr| {
        let (mut s, setup_s) = tr.time("core.stream_new", |_| {
            Stream::new(spec, initial, threads, update)
        });
        let solve0 = Instant::now();
        let mut arrive_s = Vec::new();
        let mut cache_elems = 0;
        let mut window_s = vec![tr.time("core.run_window", |_| s.run_window()).1];
        for slice in slices {
            arrive_s.push(tr.time("core.arrive", |_| s.arrive(slice)).1);
            window_s.push(tr.time("core.run_window", |_| s.run_window()).1);
            if tr.recording() {
                cache_elems = cache_elems.max(s.cache_elems());
            }
        }
        let sweeps = s.sweeps_done();
        let (outcome, finish_s) = tr.time("core.finish", |_| s.finish());
        StreamLap {
            setup_s,
            finish_s,
            solve_s: solve0.elapsed().as_secs_f64(),
            arrive_s,
            window_s,
            sweeps,
            outcome,
            cache_elems,
        }
    });
    lap
}

// ---------------------------------------------------------------------------
// Serve family
// ---------------------------------------------------------------------------

/// The zero-sweep copy of a manifest: batch tenants with nothing to sweep,
/// stream tenants dropped (an arrival schedule cannot be empty). What is
/// left of `run_batch` is dataset build, session set-up and scheduling.
pub fn zero_sweep_copy(specs: &[Spec]) -> Vec<Spec> {
    specs
        .iter()
        .filter(|s| !adapter::spec_is_stream(s))
        .map(adapter::spec_zero_sweeps)
        .collect()
}

/// Tenants of `got` that did not complete or differ from their solo run (a
/// tenant whose solo run failed has nothing to equal, so it fails too).
pub fn tenants_failed(got: &BatchOut, solo: &BatchOut) -> u64 {
    got.jobs
        .iter()
        .zip(&solo.jobs)
        .filter(|(g, s)| !g.completed || g.outcome.is_none() || g.outcome != s.outcome)
        .count() as u64
}

// ---------------------------------------------------------------------------
// The untraced run
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Width {
    /// Pool threads / ranks / drivers = what the workload is defined with.
    Full,
    /// The plain single-width baseline of the same problem.
    One,
}

/// What the lap's family measured beyond set-up and solve walls.
pub enum Detail {
    Session(SessionLap),
    Dist(DistLap),
    Stream(StreamLap),
    Batch(BatchOut),
}

pub struct LapOut {
    pub setup_s: f64,
    pub solve_s: f64,
    /// Operations this lap attempted and how many failed a gate.
    pub attempted: u64,
    pub failed: u64,
    pub detail: Detail,
}

impl LapOut {
    /// The end-to-end readings of this lap that only its family has, by
    /// metric name: per-lap mean walls by sweep kind, of an arrival, and the
    /// batch's tenants per second.
    pub fn readings(&self) -> Vec<(&'static str, f64)> {
        match &self.detail {
            Detail::Session(l) => [
                (Kind::Exact, "sweep_exact_s"),
                (Kind::PpInit, "sweep_pp_init_s"),
                (Kind::PpApprox, "sweep_pp_approx_s"),
            ]
            .into_iter()
            .filter_map(|(kind, name)| Some((name, l.kind_mean(kind)?)))
            .collect(),
            Detail::Dist(l) => vec![("sweep_exact_s", mean(&l.step_s))],
            Detail::Stream(l) => vec![
                ("arrive_s", mean(&l.arrive_s)),
                (
                    "sweep_exact_s",
                    l.window_s.iter().sum::<f64>() / l.sweeps.max(1) as f64,
                ),
            ],
            Detail::Batch(b) => vec![("jobs_per_s", b.jobs.len() as f64 / b.wall_s)],
        }
    }

    // The family's detail; a lap only ever carries its own family's.
    pub fn session(&self) -> &SessionLap {
        match &self.detail {
            Detail::Session(l) => l,
            _ => unreachable!("not a session lap"),
        }
    }

    pub fn dist(&self) -> &DistLap {
        match &self.detail {
            Detail::Dist(l) => l,
            _ => unreachable!("not a distributed lap"),
        }
    }

    pub fn stream(&self) -> &StreamLap {
        match &self.detail {
            Detail::Stream(l) => l,
            _ => unreachable!("not a streaming lap"),
        }
    }

    pub fn batch(&self) -> &BatchOut {
        match &self.detail {
            Detail::Batch(l) => l,
            _ => unreachable!("not a batch lap"),
        }
    }
}

pub struct RunOut {
    pub sheet: Sheet,
    pub attempted: u64,
    pub failed: u64,
}

/// Laps discarded before timing starts. The first second of a process runs
/// at about single-thread speed on this container (the "cold first lap").
const WARM_S: f64 = 1.5;
/// Consecutive laps one sample is the best of.
pub const WINDOW: usize = 3;

/// Samples for a timing from its per-lap values: the best lap of each block
/// of `WINDOW` consecutive laps (a trailing partial block is dropped). This
/// container slows down by bursts of seconds, which only ever adds time; the
/// best of a few neighbouring laps reads through a short burst, and blocks
/// that share no lap keep the samples — and so the quartiles the record
/// carries — independent. The reported value is their median.
pub fn window_best(laps: &[f64], better: Better) -> Vec<f64> {
    let best = |w: &[f64]| match better {
        Better::Lower => w.iter().copied().fold(f64::MAX, f64::min),
        Better::Higher => w.iter().copied().fold(f64::MIN, f64::max),
    };
    if laps.is_empty() {
        Vec::new()
    } else if laps.len() < WINDOW {
        vec![best(laps)]
    } else {
        laps.chunks_exact(WINDOW).map(best).collect()
    }
}

/// Reset the process's peak-RSS mark to its current RSS (Linux ≥ 4.0).
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Run `lap` and count its operations; a lap that panics is one failed
/// operation and yields no timing.
pub fn lap_counted(out: &mut RunOut, lap: impl FnOnce() -> LapOut) -> Option<LapOut> {
    match catch_unwind(AssertUnwindSafe(lap)) {
        Ok(l) => {
            out.attempted += l.attempted;
            out.failed += l.failed;
            Some(l)
        }
        Err(_) => {
            out.attempted += 1;
            out.failed += 1;
            None
        }
    }
}

/// Full-width laps until `WARM_S` have passed; discarded.
pub fn warm_up(out: &mut RunOut, lap: &mut LapFn) {
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < WARM_S {
        if lap_counted(out, || lap(Width::Full, &mut Tracer::off())).is_none() {
            break;
        }
    }
}

/// Warm up, then lap at full width for `seconds` (at least `WINDOW` laps).
fn measure(seconds: f64, mut lap: Box<LapFn>) -> RunOut {
    let mut out = RunOut {
        sheet: Sheet::default(),
        attempted: 0,
        failed: 0,
    };
    let mut off = Tracer::off();
    warm_up(&mut out, &mut lap);
    // Metric → one value per timed lap.
    let mut per_lap = Sheet::default();
    let t0 = Instant::now();
    let mut k = 0usize;
    while k < WINDOW || t0.elapsed().as_secs_f64() < seconds {
        k += 1;
        // A mark that can be reset gives one peak per lap.
        let per_lap_rss = reset_peak_rss();
        let Some(l) = lap_counted(&mut out, || lap(Width::Full, &mut off)) else {
            continue;
        };
        if let (true, Some(mb)) = (per_lap_rss, peak_rss_mb()) {
            per_lap.push("peak_rss_mb", mb);
        }
        per_lap.push("setup_s", l.setup_s);
        per_lap.push("solve_s", l.solve_s);
        for (name, value) in l.readings() {
            per_lap.push(name, value);
        }
    }
    for (name, laps) in per_lap.iter() {
        match name {
            // Memory does not come in slow phases: every lap is a sample.
            "peak_rss_mb" => out.sheet.extend(name, laps.iter().copied()),
            _ => out.sheet.extend(name, window_best(laps, better_of(name))),
        }
    }
    if per_lap.samples("peak_rss_mb").is_empty() {
        // No resettable mark: the whole process's peak is all there is.
        out.sheet.extend("peak_rss_mb", peak_rss_mb());
    }
    out
}

pub fn better_of(name: &str) -> Better {
    catalog::metric(name).map_or(Better::Lower, |(d, _)| d.better)
}

/// A lap's outcome against the reference of its width; the first lap of a
/// width sets that reference. Width never changes a bit of the result, so
/// the two references must agree too where `cross` says so.
struct Gate {
    full: Option<Outcome>,
    one: Option<Outcome>,
    cross: bool,
    fit_floor: f64,
}

impl Gate {
    fn new(reference: Outcome, cross: bool, fit_floor: f64) -> Gate {
        Gate {
            full: Some(reference),
            one: None,
            cross,
            fit_floor,
        }
    }

    /// Whether this lap passes: same bits as the reference, fitness above
    /// the workload's floor.
    fn passes(&mut self, width: Width, got: &Outcome) -> bool {
        let best = got.trace.iter().map(|s| s.fitness).fold(f64::MIN, f64::max);
        let fit_ok = best.is_finite() && best >= self.fit_floor;
        let reference = match (width, self.cross) {
            (Width::Full, _) | (Width::One, true) => &mut self.full,
            (Width::One, false) => &mut self.one,
        };
        fit_ok && reference.get_or_insert_with(|| got.clone()) == got
    }
}

/// One gated lap at the asked width, spans into the given tracer (families
/// whose laps run on other threads leave span-making to the caller).
pub type LapFn<'a> = dyn FnMut(Width, &mut Tracer) -> LapOut + 'a;

pub struct Laps<'a> {
    /// `solve_s` of the process's first lap (`core.cold_lap_ratio`).
    pub cold_solve_s: f64,
    /// `serve-mix`: every tenant alone, back to back.
    pub solo: Option<Rc<BatchOut>>,
    pub lap: Box<LapFn<'a>>,
}

/// The laps of a workload. The oracle lap — which is also the process's cold
/// lap — runs here; every later lap is gated against it.
pub fn lap_fn<'a>(w: &'a Workload, p: &'a Prepared) -> Laps<'a> {
    let n = nproc();
    let threads = move |width: Width| if width == Width::Full { n } else { 1 };
    let spec = &p.specs[0];
    match (&w.family, &p.data) {
        (Family::Session, Data::Batch(input)) => {
            let cold = session_lap(spec, input, n, &mut Tracer::off());
            let mut gate = Gate::new(cold.outcome, true, w.fit_floor);
            Laps {
                cold_solve_s: cold.solve_s,
                solo: None,
                lap: Box::new(move |width, tr| {
                    let l = session_lap(spec, input, threads(width), tr);
                    LapOut {
                        setup_s: l.setup_s,
                        solve_s: l.solve_s,
                        attempted: 1,
                        failed: u64::from(!gate.passes(width, &l.outcome)),
                        detail: Detail::Session(l),
                    }
                }),
            }
        }
        (Family::Dist { grid }, Data::Global(t)) => {
            // The rendezvous lap is cold lap and parity oracle in one. The
            // single-rank baseline sums in another order, so it has its own
            // reference.
            let oracle = adapter::dist_lap(spec, t, grid, Wire::Rendezvous, 1);
            let mut gate = Gate::new(oracle.outcome, false, w.fit_floor);
            let one_rank = vec![1; grid.len()];
            Laps {
                cold_solve_s: oracle.solve_s,
                solo: None,
                lap: Box::new(move |width, _| {
                    let l = match width {
                        Width::Full => adapter::dist_lap(spec, t, grid, Wire::P2p, 1),
                        Width::One => adapter::dist_lap(spec, t, &one_rank, Wire::P2p, 1),
                    };
                    LapOut {
                        setup_s: l.setup_s,
                        solve_s: l.solve_s,
                        attempted: 1,
                        failed: u64::from(!gate.passes(width, &l.outcome)),
                        detail: Detail::Dist(l),
                    }
                }),
            }
        }
        (
            Family::Stream,
            Data::Feed {
                initial, slices, ..
            },
        ) => {
            // The recompute lap is cold lap and bitwise oracle in one.
            let off = &mut Tracer::off();
            let oracle = stream_lap(spec, initial, slices, n, Update::Recompute, off);
            let mut gate = Gate::new(oracle.outcome, true, w.fit_floor);
            let arrivals = slices.len() as u64;
            Laps {
                cold_solve_s: oracle.solve_s,
                solo: None,
                lap: Box::new(move |width, tr| {
                    let update = Update::Incremental;
                    let l = stream_lap(spec, initial, slices, threads(width), update, tr);
                    let passed = gate.passes(width, &l.outcome);
                    LapOut {
                        setup_s: l.setup_s,
                        solve_s: l.solve_s,
                        attempted: arrivals,
                        failed: if passed { 0 } else { arrivals },
                        detail: Detail::Stream(l),
                    }
                }),
            }
        }
        (Family::Serve { window }, Data::Tenants) => {
            let solo = Rc::new(adapter::run_sequential(&p.specs));
            let zero = zero_sweep_copy(&p.specs);
            let oracle = Rc::clone(&solo);
            Laps {
                cold_solve_s: solo.wall_s,
                solo: Some(solo),
                lap: Box::new(move |width, _| {
                    let drivers = threads(width);
                    let setup = adapter::run_batch(&zero, *window, drivers)
                        .expect("window and drivers are positive");
                    let batch = adapter::run_batch(&p.specs, *window, drivers)
                        .expect("window and drivers are positive");
                    LapOut {
                        setup_s: setup.wall_s,
                        solve_s: batch.wall_s,
                        attempted: batch.jobs.len() as u64,
                        failed: tenants_failed(&batch, &oracle),
                        detail: Detail::Batch(batch),
                    }
                }),
            }
        }
        _ => unreachable!("prepare() builds the data its family laps over"),
    }
}

/// The pool width every lap of a workload runs under besides its own pin:
/// serve tenants run `threads=1` with `drivers` doing the parallel work.
pub fn under_workload_width<R>(w: &Workload, f: impl FnOnce() -> R) -> R {
    match w.family {
        Family::Serve { .. } => adapter::with_threads(1, f),
        _ => f(),
    }
}

pub fn run_end_to_end(w: &Workload, p: &Prepared, seconds: f64) -> RunOut {
    under_workload_width(w, || measure(seconds, lap_fn(w, p).lap))
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
