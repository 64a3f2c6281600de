//! Integration tests for the production extensions: nonnegative CP on the
//! image workloads and higher-order parallel runs.

use parallel_pp::comm::Runtime;
use parallel_pp::core::{AlsConfig, AlsOutput, AlsSession, ParKind, ParSession, SessionKind};
use parallel_pp::datagen::coil::{coil_tensor, CoilConfig};
use parallel_pp::datagen::lowrank::noisy_rank;
use parallel_pp::datagen::timelapse::{timelapse_tensor, TimelapseConfig};
use parallel_pp::dtree::TreePolicy;
use parallel_pp::grid::{DistTensor, ProcGrid};
use parallel_pp::tensor::DenseTensor;
use std::sync::Arc;

fn run(t: &DenseTensor, cfg: &AlsConfig, kind: SessionKind) -> AlsOutput {
    AlsSession::new(t, cfg, kind).run()
}

#[test]
fn nncp_on_coil_stays_nonnegative_and_fits() {
    // COIL-class tensors are the standard NNCP benchmark; pixel data is
    // nonnegative so the constrained model should fit nearly as well as
    // the unconstrained one.
    let t = coil_tensor(&CoilConfig {
        size: 16,
        objects: 3,
        poses: 12,
    });
    let cfg = AlsConfig::new(8).with_max_sweeps(40).with_tol(1e-6);
    let nn = run(&t, &cfg, SessionKind::NonNeg);
    for f in &nn.factors {
        assert!(f.data().iter().all(|&x| x >= 0.0));
    }
    assert!(
        nn.report.final_fitness > 0.6,
        "fitness {}",
        nn.report.final_fitness
    );
}

#[test]
fn nncp_on_timelapse_close_to_unconstrained() {
    let t = timelapse_tensor(
        &TimelapseConfig {
            height: 12,
            width: 14,
            bands: 8,
            times: 5,
            materials: 4,
            noise: 1e-3,
        },
        5,
    );
    let cfg = AlsConfig::new(5).with_max_sweeps(60).with_tol(1e-8);
    let un = run(&t, &cfg, SessionKind::Exact);
    let nn = run(&t, &cfg, SessionKind::NonNeg);
    // The scene is a sum of nonnegative rank-one terms, so the constraint
    // costs almost nothing.
    assert!(
        nn.report.final_fitness > un.report.final_fitness - 0.03,
        "nn {} vs un {}",
        nn.report.final_fitness,
        un.report.final_fitness
    );
}

#[test]
fn order5_parallel_matches_sequential() {
    // The engine and Algorithm 3 are order-generic; check at N = 5.
    let t = Arc::new(noisy_rank(&[4, 3, 4, 3, 4], 2, 0.1, 11));
    let cfg = AlsConfig::new(2)
        .with_max_sweeps(4)
        .with_tol(0.0)
        .with_policy(TreePolicy::MultiSweep);
    let seq = run(&t, &cfg, SessionKind::Exact);
    let grid = ProcGrid::new(vec![2, 1, 2, 1, 2]);
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

#[test]
fn fitness_is_deterministic_across_reruns() {
    // Same seed → identical trajectory, sequential and parallel.
    let t = Arc::new(noisy_rank(&[8, 8, 8], 2, 0.1, 23));
    let cfg = AlsConfig::new(2).with_max_sweeps(5).with_tol(0.0);
    let a = run(&t, &cfg, SessionKind::Exact);
    let b = run(&t, &cfg, SessionKind::Exact);
    for (x, y) in a.report.sweeps.iter().zip(b.report.sweeps.iter()) {
        assert_eq!(x.fitness, y.fitness);
    }
    let run_par = || {
        let (t2, c2) = (t.clone(), cfg.clone());
        let out = Runtime::new(4).run(move |ctx| {
            let g = ProcGrid::new(vec![2, 2, 1]);
            let local = DistTensor::from_global(&t2, &g, ctx.rank());
            ParSession::new(ctx, &g, &local, &c2, ParKind::Exact)
                .run(ctx)
                .report
        });
        out.results.into_iter().next().unwrap()
    };
    let p1 = run_par();
    let p2 = run_par();
    for (x, y) in p1.sweeps.iter().zip(p2.sweeps.iter()) {
        assert_eq!(x.fitness, y.fitness, "parallel run must be deterministic");
    }
}
