//! Distributed-memory weak scaling on the simulated BSP runtime (paper
//! Fig. 3a in miniature): per-sweep time of parallel CP-ALS across grids,
//! plus the rank-0 cost-model ledger and its extrapolation to 1024 ranks.
//!
//! Run: `cargo run --release --example weak_scaling`

use parallel_pp::comm::{Collectives, CostModel, CostReport, Runtime};
use parallel_pp::core::{AlsConfig, ParKind, ParSession};
use parallel_pp::dtree::TreePolicy;
use parallel_pp::grid::{DistTensor, ProcGrid};
use parallel_pp::tensor::rng::{seeded, uniform_tensor};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let s_local = 32;
    let rank = 48;
    let model = CostModel::stampede2_like();

    for grid_dims in [vec![1, 1, 1], vec![1, 1, 2], vec![1, 2, 2], vec![2, 2, 2]] {
        let grid = ProcGrid::new(grid_dims.clone());
        let p = grid.size();
        let dims: Vec<usize> = (0..3).map(|i| s_local * grid.dim(i)).collect();
        let mut rng = seeded(3);
        let t = Arc::new(uniform_tensor(&dims, &mut rng));
        let cfg = AlsConfig::new(rank)
            .with_policy(TreePolicy::MultiSweep)
            .with_tol(0.0);

        let (t2, g2, c2) = (t.clone(), grid.clone(), cfg.clone());
        let out = Runtime::new(p).run(move |ctx| {
            let local = DistTensor::from_global(&t2, &g2, ctx.rank());
            let mut s = ParSession::new(ctx, &g2, &local, &c2, ParKind::Exact);
            // Warm-up.
            let _ = s.step(ctx);
            ctx.comm.ledger().reset();
            ctx.comm.barrier();
            let t0 = Instant::now();
            let sweeps = 3;
            for _ in 0..sweeps {
                let _ = s.step(ctx);
            }
            ctx.comm.barrier();
            t0.elapsed().as_secs_f64() / sweeps as f64
        });
        let per_sweep = out.results[0];
        let report = CostReport::from_ranks(&out.costs);
        println!(
            "grid {:?}: measured {:.1} ms/sweep | ledger: {:.1} Mflop, {:.1} Kwords comm, modeled {:.2} ms",
            grid_dims,
            per_sweep * 1e3,
            report.critical.flops as f64 / 1e6 / 3.0,
            report.critical.comm_words as f64 / 1e3 / 3.0,
            report.modeled_time(&model) / 3.0 * 1e3,
        );
    }

    println!("\nextrapolation to the paper's scale (s_local=400, R=400):");
    for grid in [vec![4, 4, 4], vec![8, 8, 8], vec![8, 8, 16]] {
        let p: usize = grid.iter().product();
        let s = 400.0 * (p as f64).powf(1.0 / 3.0);
        let dt =
            parallel_pp::comm::sweep_cost(parallel_pp::comm::Method::Dt, 3, s, 400.0, p as f64)
                .modeled_time(&model);
        let ms =
            parallel_pp::comm::sweep_cost(parallel_pp::comm::Method::Msdt, 3, s, 400.0, p as f64)
                .modeled_time(&model);
        let pp = parallel_pp::comm::sweep_cost(
            parallel_pp::comm::Method::PpApprox,
            3,
            s,
            400.0,
            p as f64,
        )
        .modeled_time(&model);
        println!(
            "  grid {grid:?} (P={p}): DT {dt:.3}s  MSDT {ms:.3}s (x{:.2})  PP-approx {pp:.3}s (x{:.2})",
            dt / ms,
            dt / pp
        );
    }
}
