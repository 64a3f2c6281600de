//! The traced run: the per-layer metrics and the span file.
//!
//! After untraced laps (which give the workload-specific timings and the
//! baseline of `trace_overhead_frac`) one lap runs with spans recorded, then
//! the replay — the first 2·(N−1) exact sweeps driven from engine-level
//! public calls, one span each — then the kernel ladder. Every layer is timed
//! from outside the program; spans inside it are a later issue.

use crate::adapter::{self, DistLap, ExtendProbe, Input, Kind, Replay, Session, Spec, Wire};
use crate::catalog::{Better, Family, Workload};
use crate::json::Json;
use crate::ladder;
use crate::laps::{
    self, better_of, lap_counted, nproc, session_lap, window_best, Data, LapOut, Laps, Prepared,
    RunOut, SessionLap, StreamLap, Width,
};
use crate::sheet::{mean, median, quantile, Sheet};
use crate::trace::Tracer;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

/// Share of `--seconds` the untraced laps get; the rest is the traced lap,
/// the replay and the ladder.
const UNTRACED_SHARE: f64 = 0.35;
/// Laps run with spans recorded. One lap is one sample of a noisy machine,
/// so `trace_overhead_frac` compares the best of these with the untraced
/// laps' steady reading.
const TRACED_LAPS: usize = 3;
/// Laps run with the long budget, each one sample of `time_to_fit_s`.
const FIT_LAPS: usize = 3;

fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::MAX, f64::min)
}

/// Laps in rounds of (full, full, one) for `seconds`; at least one round.
fn rounds<L>(seconds: f64, mut lap: impl FnMut(Width) -> Option<L>) -> (Vec<L>, Vec<L>) {
    let (mut full, mut one) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut k = 0usize;
    while k < 3 || t0.elapsed().as_secs_f64() < seconds {
        let width = if k % 3 == 2 { Width::One } else { Width::Full };
        k += 1;
        if let Some(l) = lap(width) {
            match width {
                Width::Full => full.push(l),
                Width::One => one.push(l),
            }
        }
    }
    (full, one)
}

/// What every family's traced run shares.
struct Ctx<'a> {
    w: &'a Workload,
    p: &'a Prepared,
    seconds: f64,
    t0: Instant,
    out: RunOut,
    tr: Tracer,
    /// Facts for the span file's header.
    notes: Vec<(&'static str, Json)>,
    /// Total wall of the replay's `mttkrp` calls (when parity held).
    replay_mttkrp_s: Option<f64>,
}

impl Ctx<'_> {
    fn remaining(&self) -> f64 {
        (self.seconds - self.t0.elapsed().as_secs_f64()).max(0.0)
    }

    /// Seconds each of `rungs` ladder rungs may spend.
    fn slot(&self, rungs: usize) -> f64 {
        (self.remaining() / rungs as f64).clamp(0.02, 1.0)
    }

    fn push(&mut self, name: &str, v: f64) {
        self.out.sheet.push(name, v);
    }

    /// Push the steady reading of per-lap values (see `laps::window_best`).
    fn push_laps(&mut self, name: &str, per_lap: &[f64], scale: f64) {
        let samples = window_best(per_lap, better_of(name));
        self.out
            .sheet
            .extend(name, samples.into_iter().map(|v| v * scale));
    }
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

/// One replayed exact sweep: per mode, the five engine-level calls a session
/// makes, one span each under sweep → mode parents.
fn replay_sweep(tr: &mut Tracer, rp: &mut Replay) {
    tr.time("replay.sweep", |tr| {
        for n in 0..rp.order() {
            tr.time(&format!("replay.mode{n}"), |tr| {
                let (gamma, _) = tr.time("tensor.hadamard_chain_skip", |_| rp.hadamard(n));
                let (m, _) = tr.time(&format!("dtree.mttkrp{n}"), |_| rp.mttkrp(n));
                let (a, _) = tr.time("tensor.solve_gram", |_| rp.solve(&gamma, &m));
                let (g, _) = tr.time("tensor.gram", |_| rp.gram(&a));
                tr.time("dtree.factor_update", |_| rp.update(n, a, g));
            });
        }
    });
}

/// The replay over `spec` on `input`: `dtree.*` metrics, parity against a
/// session stopped at the same sweep, and (PP) one operator build and one
/// approximated sweep. Returns the mean wall of a replayed exact sweep.
fn replay(cx: &mut Ctx, spec: &Spec, input: &Input, width: usize) -> Option<f64> {
    let dims = input.dims();
    let order = dims.len();
    let n_sweeps = 2 * (order - 1);
    let tr = &mut cx.tr;
    tr.next_lap();
    let (sweep_s, rp, input_build_s) = adapter::with_threads(width, || {
        tr.time("replay", |tr| {
            let (rin, input_build_s) =
                tr.time("dtree.input_build", |_| adapter::replay_input(spec, input));
            let (mut rp, _) = tr.time("core.init_factors", |_| Replay::start(spec, rin, &dims));
            let t0 = Instant::now();
            for _ in 0..n_sweeps {
                replay_sweep(tr, &mut rp);
            }
            (
                t0.elapsed().as_secs_f64() / n_sweeps as f64,
                rp,
                input_build_s,
            )
        })
        .0
    });

    // The repo's own lookahead/driver contract: a session (lookahead on)
    // stopped at the same sweep holds the same factor bits.
    let mut partner = Session::new_exact(&adapter::spec_with_sweeps(spec, n_sweeps), input, width);
    while partner.step().is_some() {}
    let parity = partner.factors_fnv() == rp.factors_fnv();
    drop(partner);
    cx.notes.push(("replay_parity", Json::Bool(parity)));
    cx.push("replay_parity", f64::from(u8::from(parity)));
    cx.push("replay_sweeps", n_sweeps as f64);
    // The spans around actual calls must account for (nearly) all of every
    // replayed sweep.
    let coverage = cx.tr.min_leaf_coverage("replay.sweep").unwrap_or(0.0);
    cx.push("replay_coverage", coverage);
    cx.notes.push(("replay_coverage", Json::Num(coverage)));
    if !parity {
        // Withheld: numbers from a replay that is not the session's
        // computation would describe something else.
        return None;
    }

    cx.push("dtree.input_build_s", input_build_s);
    let mut all = Vec::new();
    for n in 0..order.min(4) {
        let d = cx.tr.durations(&format!("dtree.mttkrp{n}"));
        cx.push(&format!("dtree.mttkrp_mode{n}_ms"), mean(&d) * 1e3);
        all.extend(d);
    }
    for n in 4..order {
        all.extend(cx.tr.durations(&format!("dtree.mttkrp{n}")));
    }
    cx.push("dtree.mttkrp_ms", mean(&all) * 1e3);
    cx.push("dtree.cache_mb", rp.cache_elems() as f64 * 8.0 / MIB);
    cx.replay_mttkrp_s = Some(all.iter().sum());

    if adapter::spec_is_pp(spec) {
        let mut rp = rp;
        let tr = &mut cx.tr;
        let (ops_elems, build_s, correct_s) = adapter::with_threads(width, || {
            let (ops_elems, build_s) = tr.time("dtree.build_pp_operators", |_| rp.pp_build());
            let mut correct_s = Vec::new();
            tr.time("replay.pp_approx_sweep", |tr| {
                for n in 0..rp.order() {
                    tr.time(&format!("replay.pp_mode{n}"), |tr| {
                        let (gamma, _) = tr.time("tensor.hadamard_chain_skip", |_| rp.hadamard(n));
                        let (d_grams, _) = tr.time("dtree.d_gram", |_| rp.pp_d_grams());
                        let (m, s) = tr.time("dtree.approx_mttkrp", |_| rp.pp_correct(n, &d_grams));
                        correct_s.push(s);
                        let (a, _) = tr.time("tensor.solve_gram", |_| rp.solve(&gamma, &m));
                        let (g, _) = tr.time("tensor.gram", |_| rp.gram(&a));
                        tr.time("dtree.factor_update", |_| rp.update(n, a, g));
                    });
                }
            });
            (ops_elems, build_s, correct_s)
        });
        cx.push("dtree.pp_build_ms", build_s * 1e3);
        cx.push("dtree.pp_correct_ms", mean(&correct_s) * 1e3);
        cx.push("dtree.pp_ops_mb", ops_elems as f64 * 8.0 / MIB);
    }
    Some(sweep_s)
}

/// `dtree.tree_self_frac`: the share of the replay's MTTKRP time the ladder's
/// kernels do not explain — what a tree, cache or transposition change could
/// save. Estimated: first-level TTMs per sweep from the paper's counts (2
/// for the standard tree, N/(N−1) for MSDT), one first-level-sized mTTV per
/// MTTKRP at order 3 and per first-level TTM above.
fn tree_self_frac(cx: &mut Ctx, order: usize, multisweep: bool) {
    let (Some(ttm_ms), Some(mttv_ms), Some(replay_mttkrp_s)) = (
        cx.out.sheet.value("tensor.ttm_last_ms"),
        cx.out.sheet.value("tensor.mttv_ms"),
        cx.replay_mttkrp_s,
    ) else {
        return;
    };
    let sweeps = 2.0 * (order as f64 - 1.0);
    let ttms = if multisweep {
        2.0 * order as f64
    } else {
        2.0 * sweeps
    };
    let mttvs = if order == 3 { sweeps * 3.0 } else { ttms };
    let kernel_s = (ttms * ttm_ms + mttvs * mttv_ms) / 1e3;
    cx.push(
        "dtree.tree_self_frac",
        1.0 - kernel_s / replay_mttkrp_s.max(1e-12),
    );
}

// ---------------------------------------------------------------------------
// Families
// ---------------------------------------------------------------------------

/// Per-kind means, counts and the fitness curve of one lap's trace.
fn convergence(cx: &mut Ctx, steps: &[(Kind, f64)], fitness: &[f64]) {
    let fit_max = fitness.iter().copied().fold(f64::MIN, f64::max);
    let to_fit = fitness
        .iter()
        .position(|f| *f >= 0.99 * fit_max)
        .unwrap_or(0);
    let count = |k: Kind| steps.iter().filter(|(kind, _)| *kind == k).count() as f64;
    cx.push("core.n_exact", count(Kind::Exact));
    cx.push("core.n_pp_init", count(Kind::PpInit));
    cx.push("core.n_pp_approx", count(Kind::PpApprox));
    cx.push("core.sweeps_to_fit", (to_fit + 1) as f64);
    cx.push(
        "time_to_fit_s",
        steps[..=to_fit].iter().map(|(_, s)| s).sum(),
    );
    cx.push("core.fit_max", fit_max);
    cx.push("core.fit_final", *fitness.last().unwrap_or(&0.0));
}

/// The untraced and traced laps every family's run starts with.
struct Lapped<'a> {
    laps: Laps<'a>,
    full: Vec<LapOut>,
    one: Vec<LapOut>,
    /// Laps run with spans recorded and when each started, best `solve_s`
    /// first.
    traced: Vec<(Instant, LapOut)>,
    /// The steady full-width `solve_s` of the untraced laps.
    steady_solve_s: f64,
}

/// Warm up, lap untraced in rounds of (full, full, one) for `UNTRACED_SHARE`
/// of the budget, then lap `TRACED_LAPS` times with spans recorded. Pushes what
/// needs no family detail: the workload's own end-to-end readings,
/// `thread_speedup` (one sample per round), `core.cold_lap_ratio`,
/// `trace_overhead_frac`.
fn lapped<'a>(cx: &mut Ctx<'a>) -> Lapped<'a> {
    let mut laps = laps::lap_fn(cx.w, cx.p);
    laps::warm_up(&mut cx.out, &mut laps.lap);
    let mut off = Tracer::off();
    let (out, lap) = (&mut cx.out, &mut laps.lap);
    let (full, one) = rounds(cx.seconds * UNTRACED_SHARE, |width| {
        lap_counted(out, || lap(width, &mut off))
    });
    let mut traced: Vec<(Instant, LapOut)> = (0..TRACED_LAPS)
        .filter_map(|_| {
            let started = Instant::now();
            lap_counted(&mut cx.out, || (laps.lap)(Width::Full, &mut cx.tr)).map(|l| (started, l))
        })
        .collect();
    traced.sort_by(|a, b| a.1.solve_s.total_cmp(&b.1.solve_s));

    let mut readings = Sheet::default();
    for (name, value) in full.iter().flat_map(LapOut::readings) {
        readings.push(name, value);
    }
    for (name, per_lap) in readings.iter() {
        cx.push_laps(name, per_lap, 1.0);
    }
    let solve = |laps: &[LapOut]| -> Vec<f64> { laps.iter().map(|l| l.solve_s).collect() };
    let steady_solve_s = median(&window_best(&solve(&full), Better::Lower));
    for (pair, one) in full.chunks(2).zip(&one) {
        cx.push("thread_speedup", one.solve_s / best(&solve(pair)));
    }
    if steady_solve_s > 0.0 {
        cx.push("core.cold_lap_ratio", laps.cold_solve_s / steady_solve_s);
        if let Some((_, t)) = traced.first() {
            cx.push("trace_overhead_frac", t.solve_s / steady_solve_s - 1.0);
        }
    }
    Lapped {
        laps,
        full,
        one,
        traced,
        steady_solve_s,
    }
}

fn session_family(cx: &mut Ctx, input: &Input) {
    let (w, n) = (cx.w, nproc());
    let spec = &cx.p.specs[0];
    let lapped = lapped(cx);
    let full: Vec<&SessionLap> = lapped.full.iter().map(LapOut::session).collect();

    for (kind, step) in [
        (Kind::Exact, "core.step_exact_ms"),
        (Kind::PpInit, "core.step_pp_init_ms"),
        (Kind::PpApprox, "core.step_pp_approx_ms"),
    ] {
        let per_lap: Vec<f64> = full.iter().filter_map(|l| l.kind_mean(kind)).collect();
        cx.push_laps(step, &per_lap, 1e3);
    }
    let finish: Vec<f64> = full.iter().map(|l| l.finish_s).collect();
    cx.push_laps("core.finish_ms", &finish, 1e3);
    let walls: Vec<f64> = full
        .iter()
        .flat_map(|l| l.steps.iter().map(|s| s.wall_s))
        .collect();
    if walls.len() >= 100 {
        cx.push("core.sweep_p90_s", quantile(&walls, 0.9));
    }

    // Convergence laps: the long budget.
    let long_spec = adapter::spec_with_sweeps(spec, w.fit_sweeps);
    for _ in 0..FIT_LAPS {
        let conv = session_lap(&long_spec, input, n, &mut Tracer::off());
        let steps: Vec<(Kind, f64)> = conv.steps.iter().map(|s| (s.kind, s.wall_s)).collect();
        let fitness: Vec<f64> = conv.outcome.trace.iter().map(|s| s.fitness).collect();
        convergence(cx, &steps, &fitness);
    }

    // Replay, and the session's step wall against it.
    let order = input.dims().len();
    let traced = lapped.traced.first().map(|(_, l)| l.session());
    if let (Some(replay_sweep_s), Some(traced)) = (replay(cx, spec, input, n), traced) {
        let first: Vec<f64> = traced
            .steps
            .iter()
            .take(2 * (order - 1))
            .take_while(|s| s.kind == Kind::Exact)
            .map(|s| s.wall_s)
            .collect();
        if !first.is_empty() {
            cx.push("core.session_over_replay", mean(&first) / replay_sweep_s);
        }
    }
    // The session's own footprint (cache + operators) where it is larger.
    let session_cache_mb = traced.map_or(0.0, |t| t.cache_elems as f64 * 8.0 / MIB);
    let replay_cache_mb = cx.out.sheet.value("dtree.cache_mb").unwrap_or(0.0);
    cx.out
        .sheet
        .set("dtree.cache_mb", session_cache_mb.max(replay_cache_mb));

    // Checkpoint cost on the dense mid-PP state (priced, in no end-to-end
    // metric: serve's per-turn checkpointing pays it).
    if adapter::spec_is_pp(spec) && input.dense().is_some() {
        let mut s = Session::new(&long_spec, input, n);
        while let Some(swept) = s.step() {
            if swept.kind == Kind::PpApprox {
                break;
            }
        }
        s.park();
        let (bytes, write_s) = cx
            .tr
            .time("core.checkpoint_bytes", |_| s.checkpoint_bytes());
        let (resumed, resume_s) = cx
            .tr
            .time("core.resume_from_bytes", |_| Session::resume(&bytes, input));
        cx.out.attempted += 1;
        cx.out.failed += u64::from(resumed.is_err());
        cx.push("core.ckpt_bytes", bytes.len() as f64);
        cx.push("core.ckpt_write_ms", write_s * 1e3);
        cx.push("core.ckpt_resume_ms", resume_s * 1e3);
    }

    // Ladder.
    let factors = adapter::init_factors(spec, &input.dims());
    let slot = cx.slot(9);
    match input {
        Input::Dense(t) => ladder::dense(&mut cx.out.sheet, t, &factors, n, slot),
        Input::Sparse(sp) if adapter::spec_is_multisweep(spec) => {
            ladder::sparse_chained(&mut cx.out.sheet, sp, &factors, n, slot)
        }
        Input::Sparse(sp) => ladder::sparse_direct(&mut cx.out.sheet, sp, &factors, n, slot),
    }
    ladder::small(&mut cx.out.sheet, &factors, n, slot.min(0.2));
    tree_self_frac(cx, order, adapter::spec_is_multisweep(spec));
}

fn dist_family(cx: &mut Ctx, t: &std::sync::Arc<adapter::Dense>, grid: &'static [usize]) {
    let spec = &cx.p.specs[0];
    let w = cx.w;
    let lapped = lapped(cx);
    let full: Vec<&DistLap> = lapped.full.iter().map(LapOut::dist).collect();
    let per = |f: &dyn Fn(&DistLap) -> f64| -> Vec<f64> { full.iter().map(|l| f(l)).collect() };
    let step = per(&|l| mean(&l.step_s));
    cx.push_laps("core.par_step_ms", &step, 1e3);
    cx.push_laps("core.par_new_s", &per(&|l| l.new_s), 1.0);
    let from_global = per(&|l| l.from_global_s);
    cx.push_laps("grid.from_global_s", &from_global, 1.0);
    cx.push_laps("core.finish_ms", &per(&|l| l.finish_s), 1e3);
    // Counts per sweep; they repeat exactly.
    if let Some(l) = full.first() {
        let sweeps = l.step_s.len().max(1) as f64;
        cx.push("comm.ledger_msgs", l.ledger_msgs as f64 / sweeps);
        cx.push("comm.ledger_words", l.ledger_words as f64 / sweeps);
        cx.push("comm.wire_msgs", l.wire_msgs as f64 / sweeps);
        cx.push("comm.wire_words", l.wire_words as f64 / sweeps);
    }
    // The same sweeps on the rendezvous oracle, warm this time.
    let rendezvous: Vec<f64> = (0..2)
        .map(|_| mean(&adapter::dist_lap(spec, t, grid, Wire::Rendezvous, 1).step_s))
        .collect();
    cx.push("comm.p2p_over_rendezvous", best(&step) / best(&rendezvous));

    // Convergence laps on the wire backend.
    let long_spec = adapter::spec_with_sweeps(spec, w.fit_sweeps);
    for _ in 0..FIT_LAPS {
        let conv = adapter::dist_lap(&long_spec, t, grid, Wire::P2p, 1);
        let steps: Vec<(Kind, f64)> = conv.step_s.iter().map(|s| (Kind::Exact, *s)).collect();
        let fitness: Vec<f64> = conv.outcome.trace.iter().map(|s| s.fitness).collect();
        convergence(cx, &steps, &fitness);
    }

    // The traced laps ran on rank threads: their slowest-rank durations
    // become spans after the fact, laid end to end from the lap's start.
    for (started, l) in &lapped.traced {
        cx.tr.next_lap();
        let (mut at, l) = (*started, l.dist());
        let parts = [
            ("grid.from_global", l.from_global_s),
            ("core.par_session_new", l.new_s),
        ]
        .into_iter()
        .chain(l.step_s.iter().map(|s| ("core.par_step{exact}", *s)))
        .chain([("core.par_finish", l.finish_s)]);
        for (name, secs) in parts {
            let end = at + std::time::Duration::from_secs_f64(secs);
            cx.tr.record(name, at, end);
            at = end;
        }
    }

    // The standard-tree dense baseline, sequentially, on the global tensor.
    let global = Input::Dense((**t).clone());
    replay(cx, spec, &global, nproc());
    let dims = global.dims();
    drop(global);

    // Ladders: dense kernels on rank 0's block at one thread (what a rank
    // runs), collectives at the sweep's payloads.
    let block = adapter::local_block(t, grid);
    let mut factors = adapter::init_factors(spec, &dims);
    for (m, f) in factors.iter_mut().enumerate() {
        *f = f.row_block(0, block.dim(m));
    }
    let slot = cx.slot(10);
    ladder::dense(&mut cx.out.sheet, &block, &factors, 1, slot);
    ladder::small(&mut cx.out.sheet, &factors, 1, slot.min(0.2));
    let rank = adapter::spec_rank(spec);
    let ranks: usize = grid.iter().product();
    let c = adapter::comm_ladder(ranks, Wire::P2p, rank * rank, dims[1] * rank, 200);
    cx.push("comm.allreduce_us", c.allreduce_us);
    cx.push("comm.reduce_scatter_us", c.reduce_scatter_us);
    cx.push("comm.allgather_us", c.allgather_us);
    cx.push("comm.barrier_us", c.barrier_us);
    // Estimated: per mode one Gram all-reduce, one reduce-scatter of the
    // local MTTKRP rows and one all-gather of the updated rows.
    let per_sweep_us = dims.len() as f64 * (c.allreduce_us + c.reduce_scatter_us + c.allgather_us);
    cx.push("comm.collective_share", per_sweep_us / 1e6 / best(&step));
}

fn stream_family(cx: &mut Ctx, feed: &adapter::Feed) {
    let n = nproc();
    let spec = &cx.p.specs[0];
    let lapped = lapped(cx);
    let full: Vec<&StreamLap> = lapped.full.iter().map(LapOut::stream).collect();
    let per = |f: &dyn Fn(&StreamLap) -> f64| -> Vec<f64> { full.iter().map(|l| f(l)).collect() };
    let window = per(&|l| mean(&l.window_s));
    cx.push_laps("core.stream_window_ms", &window, 1e3);
    let sweep = per(&|l| l.window_s.iter().sum::<f64>() / l.sweeps.max(1) as f64);
    cx.push_laps("core.step_exact_ms", &sweep, 1e3);
    cx.push_laps("core.finish_ms", &per(&|l| l.finish_s), 1e3);

    // Convergence over the stream's own trace, lap by lap: a window's wall
    // spread over its sweeps, an arrival charged to the first sweep after it.
    for lap in &full {
        let per_window = lap.sweeps / lap.window_s.len().max(1);
        let mut steps = Vec::new();
        for (i, win) in lap.window_s.iter().enumerate() {
            let arrive = if i == 0 { 0.0 } else { lap.arrive_s[i - 1] };
            for k in 0..per_window {
                let wall = win / per_window as f64 + if k == 0 { arrive } else { 0.0 };
                steps.push((Kind::Exact, wall));
            }
        }
        let fitness: Vec<f64> = lap.outcome.trace.iter().map(|s| s.fitness).collect();
        if steps.len() == fitness.len() && !steps.is_empty() {
            convergence(cx, &steps, &fitness);
        }
    }

    // The append the roadmap wants made O(slice), on the last slice, against
    // the arrival it belongs to (the last, at the largest extent).
    let multisweep = adapter::spec_is_multisweep(spec);
    let extend: Vec<f64> = (0..3)
        .map(|_| {
            let mut probe = ExtendProbe::new(feed, multisweep);
            cx.tr.time("dtree.input_extend", |_| probe.run()).1
        })
        .collect();
    let last_arrive = per(&|l| *l.arrive_s.last().unwrap_or(&f64::MAX));
    cx.push("dtree.input_extend_ms", best(&extend) * 1e3);
    cx.push("dtree.extend_share", best(&extend) / best(&last_arrive));

    // The tree at full extent: replay on the whole horizon against a plain
    // session, then the ladder on the same tensor.
    let whole = Input::Dense(feed.full().clone());
    replay(cx, spec, &whole, n);
    let session_cache_mb: f64 = lapped
        .traced
        .first()
        .map_or(0.0, |(_, l)| l.stream().cache_elems as f64 * 8.0 / MIB);
    let replay_cache_mb = cx.out.sheet.value("dtree.cache_mb").unwrap_or(0.0);
    cx.out
        .sheet
        .set("dtree.cache_mb", session_cache_mb.max(replay_cache_mb));
    let factors = adapter::init_factors(spec, &whole.dims());
    let slot = cx.slot(10);
    ladder::dense(&mut cx.out.sheet, feed.full(), &factors, n, slot);
    ladder::small(&mut cx.out.sheet, &factors, n, slot.min(0.2));
    tree_self_frac(cx, whole.dims().len(), multisweep);
}

fn serve_family(cx: &mut Ctx) {
    let specs = &cx.p.specs;
    let text = crate::catalog::instantiate(cx.w.manifest, 1);
    let parse = ladder::best_s(0.05, || {
        drop(std::hint::black_box(adapter::parse_manifest(&text)))
    });
    cx.push("serve.parse_us", parse * 1e6);

    let lapped = lapped(cx);
    let solo = lapped
        .laps
        .solo
        .clone()
        .expect("serve laps keep their oracle");
    let batch: Vec<f64> = lapped.full.iter().map(|l| l.solve_s).collect();
    let one_driver: Vec<f64> = lapped.one.iter().map(|l| l.solve_s).collect();
    // The sequential pass again, warm this time.
    let sequential = solo.wall_s.min(adapter::run_sequential(specs).wall_s);
    cx.push_laps("serve.batch_s", &batch, 1.0);
    cx.push("serve.sequential_s", sequential);
    if !one_driver.is_empty() {
        cx.push("serve.interleave_overhead", best(&one_driver) / sequential);
        cx.push("serve.driver_speedup", best(&one_driver) / best(&batch));
    }
    if let Some(first) = lapped.full.first().map(LapOut::batch) {
        cx.push("serve.turns", first.turns as f64);
        let secs: Vec<f64> = first.jobs.iter().map(|j| j.secs).collect();
        cx.push("serve.job_p50_s", median(&secs));
        cx.push("serve.job_max_s", secs.iter().copied().fold(0.0, f64::max));
    }

    // The traced laps' spans, after the fact: one per batch, one per tenant's
    // own turns (they overlap across drivers: siblings, not a partition).
    for (started, l) in &lapped.traced {
        cx.tr.next_lap();
        // The zero-sweep batch runs first; the batch proper follows it.
        let at = *started + std::time::Duration::from_secs_f64(l.setup_s);
        let end = at + std::time::Duration::from_secs_f64(l.solve_s);
        cx.tr.record("serve.run_batch", at, end);
        for j in &l.batch().jobs {
            let end = at + std::time::Duration::from_secs_f64(j.secs);
            cx.tr
                .record(&format!("serve.tenant{{{}}}", j.name), at, end);
        }
    }

    // The heaviest kernel's share of the batch, estimated from one rung per
    // tenant: first-level TTMs (dense tenants) or CSF MTTKRPs (sparse `dt`
    // tenants) times the tensor-touching sweeps the tenant's solo trace
    // shows. The first dense and the first sparse-`dt` tenant also supply
    // the operands of the ladder proper.
    let (mut ttm_s, mut mttkrp_s) = (0.0f64, 0.0f64);
    let (mut first_dense, mut first_sparse) = (None, None);
    for (spec, job) in specs.iter().zip(&solo.jobs) {
        let Some(trace) = job.outcome.as_ref().map(|o| &o.trace) else {
            continue;
        };
        if adapter::spec_is_stream(spec) {
            continue;
        }
        let heavy = trace.iter().filter(|s| s.kind.touches_tensor()).count() as f64;
        let multisweep = adapter::spec_is_multisweep(spec);
        let input = adapter::build_input(spec);
        let factors = adapter::init_factors(spec, &input.dims());
        let order = factors.len() as f64;
        match (&input, multisweep) {
            (Input::Dense(t), _) => {
                let per_sweep = if multisweep {
                    order / (order - 1.0)
                } else {
                    2.0
                };
                let last = &factors[factors.len() - 1];
                let s = ladder::best_s(0.02, || {
                    drop(std::hint::black_box(adapter::kernels::ttm_last(t, last)))
                });
                ttm_s += heavy * per_sweep * s;
                first_dense.get_or_insert((input, factors));
            }
            (Input::Sparse(sp), false) => {
                let mut rung = Sheet::default();
                ladder::sparse_direct(&mut rung, sp, &factors, 1, 0.02);
                let ms = rung.value("tensor.sparse_mttkrp_ms").unwrap_or(0.0);
                mttkrp_s += heavy * order * ms / 1e3;
                first_sparse.get_or_insert((input, factors));
            }
            (Input::Sparse(_), true) => {}
        }
    }
    if lapped.steady_solve_s > 0.0 {
        cx.push(
            "serve.max_kernel_share",
            ttm_s.max(mttkrp_s) / lapped.steady_solve_s,
        );
    }
    let slot = cx.slot(16);
    if let Some((Input::Dense(t), factors)) = &first_dense {
        ladder::dense(&mut cx.out.sheet, t, factors, 1, slot);
        ladder::small(&mut cx.out.sheet, factors, 1, slot.min(0.2));
    }
    if let Some((Input::Sparse(sp), factors)) = &first_sparse {
        ladder::sparse_direct(&mut cx.out.sheet, sp, factors, 1, slot);
    }
}

// ---------------------------------------------------------------------------

pub fn run_per_layer(
    w: &Workload,
    p: &Prepared,
    seed: u64,
    seconds: f64,
) -> Result<RunOut, String> {
    let mut cx = Ctx {
        w,
        p,
        seconds,
        t0: Instant::now(),
        out: RunOut {
            sheet: Sheet::default(),
            attempted: 0,
            failed: 0,
        },
        tr: Tracer::new(true),
        notes: Vec::new(),
        replay_mttkrp_s: None,
    };
    cx.push("datagen.build_s", p.datagen_s);
    laps::under_workload_width(w, || match (&w.family, &p.data) {
        (Family::Session, Data::Batch(input)) => session_family(&mut cx, input),
        (Family::Dist { grid }, Data::Global(t)) => dist_family(&mut cx, t, grid),
        (Family::Stream, Data::Feed { feed, .. }) => stream_family(&mut cx, feed),
        (Family::Serve { .. }, Data::Tenants) => serve_family(&mut cx),
        _ => unreachable!("prepare() builds the data its family laps over"),
    });

    let mut header = vec![
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(seed as f64)),
        ("nproc", Json::Num(nproc() as f64)),
    ];
    header.extend(cx.notes.iter().map(|(k, v)| (*k, v.clone())));
    header.push(("spans", cx.tr.to_json()));
    let dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", w.name));
    std::fs::write(&path, Json::obj(header).pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(cx.out)
}
