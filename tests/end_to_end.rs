//! Cross-crate integration tests: sequential vs parallel equivalence,
//! PP accuracy on realistic workloads, and planted-factor recovery.

use parallel_pp::comm::Runtime;
use parallel_pp::core::{
    AlsConfig, AlsOutput, AlsSession, ParKind, ParSession, SessionKind, SolveStrategy,
    StreamingSession, SweepKind, SweepRecord,
};
use parallel_pp::datagen::chemistry::{density_fitting_tensor, ChemistryConfig};
use parallel_pp::datagen::coil::{coil_tensor, CoilConfig};
use parallel_pp::datagen::collinearity::{collinearity_tensor, CollinearityConfig};
use parallel_pp::datagen::lowrank::noisy_rank;
use parallel_pp::datagen::timelapse::{
    timelapse_tensor, TimelapseConfig, TimelapseStream, TIME_MODE,
};
use parallel_pp::dtree::{CacheUpdate, TreePolicy};
use parallel_pp::grid::{DistTensor, ProcGrid};
use parallel_pp::tensor::DenseTensor;
use std::sync::Arc;

fn exact_als(t: &DenseTensor, cfg: &AlsConfig) -> AlsOutput {
    AlsSession::new(t, cfg, SessionKind::Exact).run()
}

#[test]
fn all_four_parallel_drivers_agree_on_one_workload() {
    // One tensor, four parallel methods (DT, MSDT, PLANC, PP) on a 2x2x1
    // grid: the exact ones must agree with each other sweep-by-sweep; PP
    // must end within approximation distance.
    let (t, _, _) = collinearity_tensor(
        &CollinearityConfig {
            s: 12,
            r: 3,
            order: 3,
            lo: 0.4,
            hi: 0.6,
        },
        21,
    );
    let t = Arc::new(t);
    let grid = ProcGrid::new(vec![2, 2, 1]);
    let cfg = AlsConfig::new(3)
        .with_max_sweeps(12)
        .with_tol(0.0)
        .with_pp_tol(0.3);

    let run = |kind: ParKind, cfg: AlsConfig| {
        let (t2, g2) = (t.clone(), grid.clone());
        let out = Runtime::new(4).run(move |ctx| {
            let local = DistTensor::from_global(&t2, &g2, ctx.rank());
            ParSession::new(ctx, &g2, &local, &cfg, kind)
                .run(ctx)
                .report
        });
        out.results.into_iter().next().unwrap()
    };

    let msdt_cfg = cfg.clone().with_policy(TreePolicy::MultiSweep);
    // PLANC: the standard tree with a replicated solve.
    let planc_cfg = cfg
        .clone()
        .with_policy(TreePolicy::Standard)
        .with_solve(SolveStrategy::Replicated);
    let dt = run(ParKind::Exact, cfg);
    let msdt = run(ParKind::Exact, msdt_cfg.clone());
    let planc = run(ParKind::Exact, planc_cfg);
    let pp = run(ParKind::Pp, msdt_cfg);

    for ((a, b), c) in dt
        .sweeps
        .iter()
        .zip(msdt.sweeps.iter())
        .zip(planc.sweeps.iter())
    {
        assert!((a.fitness - b.fitness).abs() < 1e-8, "DT vs MSDT");
        assert!((a.fitness - c.fitness).abs() < 1e-8, "DT vs PLANC");
    }
    assert!(
        (pp.final_fitness - dt.final_fitness).abs() < 0.05,
        "PP {} vs DT {}",
        pp.final_fitness,
        dt.final_fitness
    );
}

#[test]
fn parallel_pp_chemistry_matches_sequential() {
    let t = Arc::new(density_fitting_tensor(
        &ChemistryConfig {
            n_orb: 10,
            n_aux: 40,
            ..ChemistryConfig::default()
        },
        5,
    ));
    let cfg = AlsConfig::new(4)
        .with_policy(TreePolicy::MultiSweep)
        .with_max_sweeps(25)
        .with_tol(1e-9)
        .with_pp_tol(0.15);

    let seq = AlsSession::new(&t, &cfg, SessionKind::Pp).run();
    let grid = ProcGrid::new(vec![2, 2, 1]);
    let (t2, g2, c2) = (t.clone(), grid.clone(), cfg.clone());
    let out = Runtime::new(4).run(move |ctx| {
        let local = DistTensor::from_global(&t2, &g2, ctx.rank());
        ParSession::new(ctx, &g2, &local, &c2, ParKind::Pp)
            .run(ctx)
            .report
    });
    let par = &out.results[0];
    assert!(
        (seq.report.final_fitness - par.final_fitness).abs() < 1e-4,
        "seq {} vs par {}",
        seq.report.final_fitness,
        par.final_fitness
    );
}

#[test]
fn coil_and_timelapse_decompose_sanely() {
    let coil = coil_tensor(&CoilConfig {
        size: 12,
        objects: 3,
        poses: 8,
    });
    let cfg = AlsConfig::new(6).with_max_sweeps(30).with_tol(1e-6);
    let out = exact_als(&coil, &cfg);
    assert!(
        out.report.final_fitness > 0.5,
        "COIL fitness {}",
        out.report.final_fitness
    );

    let tl = timelapse_tensor(
        &TimelapseConfig {
            height: 10,
            width: 12,
            bands: 8,
            times: 5,
            materials: 4,
            noise: 1e-3,
        },
        3,
    );
    let out = exact_als(&tl, &AlsConfig::new(5).with_max_sweeps(40).with_tol(1e-7));
    assert!(
        out.report.final_fitness > 0.95,
        "timelapse fitness {}",
        out.report.final_fitness
    );
}

#[test]
fn pp_speedup_appears_on_slow_converging_tensor() {
    // High collinearity → many sweeps → most of them PP-approx.
    let (t, _, _) = collinearity_tensor(
        &CollinearityConfig {
            s: 30,
            r: 6,
            order: 3,
            lo: 0.6,
            hi: 0.8,
        },
        9,
    );
    let cfg = AlsConfig::new(6)
        .with_policy(TreePolicy::MultiSweep)
        .with_max_sweeps(100)
        .with_tol(1e-7)
        .with_pp_tol(0.2);
    let out = AlsSession::new(&t, &cfg, SessionKind::Pp).run();
    let approx = out.report.count(SweepKind::PpApprox);
    let exact = out.report.count(SweepKind::Exact);
    assert!(
        approx >= exact,
        "expected PP sweeps to dominate: {approx} approx vs {exact} exact"
    );
}

#[test]
fn grid_larger_than_mode_extent() {
    // Mode 0 has extent 3 on a grid extent of 4: one slice owns no real
    // rows at all — everything must still match the sequential run.
    let t = Arc::new(noisy_rank(&[3, 8, 8], 2, 0.1, 41));
    let cfg = AlsConfig::new(2).with_max_sweeps(5).with_tol(0.0);
    let seq = exact_als(&t, &cfg);
    let grid = ProcGrid::new(vec![4, 1, 2]);
    let (t2, g2, c2) = (t.clone(), grid.clone(), cfg.clone());
    let out = Runtime::new(8).run(move |ctx| {
        let local = DistTensor::from_global(&t2, &g2, ctx.rank());
        ParSession::new(ctx, &g2, &local, &c2, ParKind::Exact)
            .run(ctx)
            .report
    });
    for (a, b) in seq.report.sweeps.iter().zip(out.results[0].sweeps.iter()) {
        assert!(
            (a.fitness - b.fitness).abs() < 1e-8,
            "seq {} vs par {}",
            a.fitness,
            b.fitness
        );
    }
}

fn bits(t: &DenseTensor) -> Vec<u64> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn sessions_never_write_their_input() {
    // Every session shares the caller's tensor rather than copying it, so
    // each run, and each resume, must leave it as it was, bit for bit.
    let (t, _, _) = collinearity_tensor(
        &CollinearityConfig {
            s: 10,
            r: 3,
            order: 3,
            lo: 0.5,
            hi: 0.7,
        },
        17,
    );
    let before = bits(&t);
    let cfg = AlsConfig::new(3)
        .with_max_sweeps(10)
        .with_tol(0.0)
        .with_pp_tol(0.3);
    let msdt = cfg.clone().with_policy(TreePolicy::MultiSweep);
    for (kind, cfg) in [
        (SessionKind::Exact, &cfg),
        (SessionKind::Exact, &msdt),
        (SessionKind::Pp, &msdt),
        (SessionKind::NonNeg, &cfg),
    ] {
        let mut s = AlsSession::new(&t, cfg, kind);
        s.step();
        let bytes = s.checkpoint_bytes(0);
        let _ = s.run();
        assert_eq!(bits(&t), before, "{kind:?} run");
        let (resumed, _) = AlsSession::resume_from_bytes(&bytes, &t).unwrap();
        let _ = resumed.run();
        assert_eq!(bits(&t), before, "{kind:?} resume");
    }

    let t = Arc::new(t);
    for kind in [ParKind::Exact, ParKind::Pp] {
        let (t2, c2) = (t.clone(), msdt.clone());
        let out = Runtime::new(2).run(move |ctx| {
            let grid = ProcGrid::new(vec![2, 1, 1]);
            let local = DistTensor::from_global(&t2, &grid, ctx.rank());
            let block = bits(local.local());
            let _ = ParSession::new(ctx, &grid, &local, &c2, kind).run(ctx);
            bits(local.local()) == block
        });
        assert!(out.results.iter().all(|&same| same), "{kind:?} blocks");
        assert_eq!(bits(&t), before, "{kind:?} global");
    }
}

#[test]
fn rank_one_decomposition_works() {
    // Degenerate CP rank R = 1 end to end.
    let (t, _) = parallel_pp::datagen::lowrank::exact_rank(&[6, 5, 7], 1, 13);
    let out = exact_als(&t, &AlsConfig::new(1).with_max_sweeps(60).with_tol(1e-10));
    assert!(
        out.report.final_fitness > 0.999,
        "fitness {}",
        out.report.final_fitness
    );
}

#[test]
fn order4_parallel_grid_with_padding() {
    // Odd sizes on an uneven grid exercise every padding path at order 4.
    let t = Arc::new(noisy_rank(&[5, 7, 6, 5], 3, 0.1, 31));
    let cfg = AlsConfig::new(3).with_max_sweeps(6).with_tol(0.0);
    let seq = exact_als(&t, &cfg);
    let grid = ProcGrid::new(vec![2, 2, 2, 1]);
    let (t2, g2, c2) = (t.clone(), grid.clone(), cfg.clone());
    let out = Runtime::new(8).run(move |ctx| {
        let local = DistTensor::from_global(&t2, &g2, ctx.rank());
        ParSession::new(ctx, &g2, &local, &c2, ParKind::Exact)
            .run(ctx)
            .report
    });
    for (a, b) in seq.report.sweeps.iter().zip(out.results[0].sweeps.iter()) {
        assert!((a.fitness - b.fitness).abs() < 1e-8);
    }
}

/// Alg. 2 line 2 starts the drift at `dA ← A`, which a gate with ε ≥ 1
/// would pass. The regime must still wait for an exact sweep to measure
/// drift: every window of `trace` (split at `window_starts`) begins with
/// one, and no sweep carries a NaN fitness (a PP-init's is the previous
/// sweep's). The regime does open.
fn assert_exact_sweep_opens_every_window(trace: &[SweepRecord], window_starts: &[usize]) {
    for &w in window_starts {
        assert_eq!(trace[w].kind, SweepKind::Exact, "window at sweep {w}");
    }
    assert!(trace.iter().all(|s| !s.fitness.is_nan()), "{trace:?}");
    assert!(trace.iter().any(|s| s.kind == SweepKind::PpInit));
}

fn pp_tol_edge_tensor() -> DenseTensor {
    let ccfg = CollinearityConfig {
        s: 12,
        r: 3,
        order: 3,
        lo: 0.5,
        hi: 0.7,
    };
    collinearity_tensor(&ccfg, 3).0
}

#[test]
fn pp_waits_for_an_exact_sweep_at_any_pp_tol() {
    let t = pp_tol_edge_tensor();
    for eps in [2.0, f64::INFINITY] {
        let cfg = AlsConfig::new(3)
            .with_policy(TreePolicy::MultiSweep)
            .with_pp_tol(eps)
            .with_max_sweeps(8)
            .with_tol(0.0);
        let a = AlsSession::new(&t, &cfg, SessionKind::Pp).run();
        assert_exact_sweep_opens_every_window(&a.report.sweeps, &[0]);
        // A resumed session re-measures the gate it does not store: closed
        // before the first sweep, open after it.
        for cut in 0..3 {
            let mut s = AlsSession::new(&t, &cfg, SessionKind::Pp);
            for _ in 0..cut {
                let _ = s.step();
            }
            let (s, _) = AlsSession::resume_from_bytes(&s.checkpoint_bytes(0), &t).unwrap();
            let b = s.run();
            let kinds = |o: &AlsOutput| o.report.sweeps.iter().map(|s| s.kind).collect::<Vec<_>>();
            assert_eq!(kinds(&a), kinds(&b), "ε {eps}, cut {cut}");
        }
    }
}

#[test]
fn parallel_pp_waits_for_an_exact_sweep_at_any_pp_tol() {
    let t = Arc::new(pp_tol_edge_tensor());
    let grid = ProcGrid::new(vec![2, 1, 1]);
    for eps in [2.0, f64::INFINITY] {
        let cfg = AlsConfig::new(3)
            .with_policy(TreePolicy::MultiSweep)
            .with_pp_tol(eps)
            .with_max_sweeps(8)
            .with_tol(0.0);
        let (t2, g2) = (t.clone(), grid.clone());
        let out = Runtime::new(2).run(move |ctx| {
            let local = DistTensor::from_global(&t2, &g2, ctx.rank());
            ParSession::new(ctx, &g2, &local, &cfg, ParKind::Pp)
                .run(ctx)
                .report
        });
        let trace = &out.results[0].sweeps;
        assert_exact_sweep_opens_every_window(trace, &[0]);
    }
}

#[test]
fn streamed_pp_waits_for_an_exact_sweep_in_every_window() {
    let tl = TimelapseConfig {
        height: 12,
        width: 10,
        bands: 8,
        times: 7,
        materials: 3,
        noise: 1e-3,
    };
    let feed = TimelapseStream::new(&tl, 5, 3, 2).unwrap();
    for eps in [2.0, f64::INFINITY] {
        let cfg = AlsConfig::new(4)
            .with_policy(TreePolicy::MultiSweep)
            .with_pp_tol(eps)
            .with_tol(0.0);
        let new = || {
            let (kind, update) = (SessionKind::Pp, CacheUpdate::Incremental);
            StreamingSession::new(&feed.initial(), &cfg, kind, TIME_MODE, 3, update)
        };
        let mut s = new();
        s.run_window();
        let mut starts = vec![0];
        for i in 0..feed.n_arrivals() {
            s.arrive(&feed.slice(i));
            starts.push(s.sweeps_done());
            s.run_window();
        }
        assert_exact_sweep_opens_every_window(&s.report().sweeps, &starts);
        // A checkpoint taken on arrival resumes with the gate closed.
        let mut cut = new();
        cut.run_window();
        cut.arrive(&feed.slice(0));
        let bytes = cut.checkpoint_bytes(0);
        let (mut r, _) = StreamingSession::resume_from_bytes(&bytes, |e| feed.prefix(e)).unwrap();
        r.run_window();
        for i in 1..feed.n_arrivals() {
            r.arrive(&feed.slice(i));
            r.run_window();
        }
        let kinds =
            |s: &StreamingSession| s.report().sweeps.iter().map(|s| s.kind).collect::<Vec<_>>();
        assert_eq!(kinds(&s), kinds(&r), "ε {eps}");
    }
}
