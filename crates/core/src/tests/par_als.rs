//! Algorithm 3, parallel CP-ALS, end to end: a `ParSession` per rank in
//! `ParKind::Exact`, run in lockstep, must trace the sequential session.

mod tests {
    use crate::config::SolveStrategy;
    use crate::{AlsConfig, AlsOutput, AlsSession, ParKind, ParSession, SessionKind};
    use pp_comm::Runtime;
    use pp_datagen::lowrank::noisy_rank;
    use pp_dtree::TreePolicy;
    use pp_grid::{DistTensor, ProcGrid};
    use std::sync::Arc;

    fn run_parallel(
        dims: &[usize],
        grid_dims: &[usize],
        cfg: AlsConfig,
        seed: u64,
    ) -> (AlsOutput, AlsOutput) {
        let t = Arc::new(noisy_rank(dims, cfg.rank, 0.1, seed));
        let seq = AlsSession::new(&t, &cfg, SessionKind::Exact).run();

        let grid = ProcGrid::new(grid_dims.to_vec());
        let p = grid.size();
        let cfg2 = cfg.clone();
        let t2 = t.clone();
        let grid2 = grid.clone();
        let out = Runtime::from_env(p).run(move |ctx| {
            let local = DistTensor::from_global(&t2, &grid2, ctx.rank());
            ParSession::new(ctx, &grid2, &local, &cfg2, ParKind::Exact).run(ctx)
        });
        let mut results = out.results;
        (seq, results.remove(0))
    }

    #[test]
    fn matches_sequential_order3() {
        let cfg = AlsConfig::new(3).with_max_sweeps(8).with_tol(0.0);
        let (seq, par) = run_parallel(&[6, 7, 5], &[2, 2, 1], cfg, 3);
        assert_eq!(seq.report.sweeps.len(), par.report.sweeps.len());
        for (a, b) in seq.report.sweeps.iter().zip(par.report.sweeps.iter()) {
            assert!(
                (a.fitness - b.fitness).abs() < 1e-8,
                "seq {} vs par {}",
                a.fitness,
                b.fitness
            );
        }
        for (fa, fb) in seq.factors.iter().zip(par.factors.iter()) {
            assert!(fa.max_abs_diff(fb) < 1e-6);
        }
    }

    #[test]
    fn matches_sequential_order4() {
        let cfg = AlsConfig::new(2).with_max_sweeps(6).with_tol(0.0);
        let (seq, par) = run_parallel(&[4, 5, 4, 3], &[2, 1, 2, 1], cfg, 7);
        for (a, b) in seq.report.sweeps.iter().zip(par.report.sweeps.iter()) {
            assert!((a.fitness - b.fitness).abs() < 1e-8);
        }
    }

    #[test]
    fn msdt_parallel_matches_sequential() {
        let cfg = AlsConfig::new(2)
            .with_max_sweeps(7)
            .with_tol(0.0)
            .with_policy(TreePolicy::MultiSweep);
        let (seq, par) = run_parallel(&[6, 5, 7], &[1, 2, 2], cfg, 11);
        for (a, b) in seq.report.sweeps.iter().zip(par.report.sweeps.iter()) {
            assert!((a.fitness - b.fitness).abs() < 1e-8);
        }
    }

    #[test]
    fn padded_grids_are_correct() {
        // Mode sizes that do not divide the grid extents: padding paths.
        let cfg = AlsConfig::new(2).with_max_sweeps(5).with_tol(0.0);
        let (seq, par) = run_parallel(&[7, 5, 9], &[2, 2, 2], cfg, 13);
        for (a, b) in seq.report.sweeps.iter().zip(par.report.sweeps.iter()) {
            assert!(
                (a.fitness - b.fitness).abs() < 1e-8,
                "seq {} vs par {}",
                a.fitness,
                b.fitness
            );
        }
    }

    #[test]
    fn replicated_solve_same_results() {
        let cfg = AlsConfig::new(2)
            .with_max_sweeps(5)
            .with_tol(0.0)
            .with_solve(SolveStrategy::Replicated);
        let (seq, par) = run_parallel(&[6, 6, 6], &[2, 1, 2], cfg, 17);
        for (a, b) in seq.report.sweeps.iter().zip(par.report.sweeps.iter()) {
            assert!((a.fitness - b.fitness).abs() < 1e-8);
        }
    }

    #[test]
    fn single_rank_grid_works() {
        let cfg = AlsConfig::new(2).with_max_sweeps(4).with_tol(0.0);
        let (seq, par) = run_parallel(&[5, 6, 4], &[1, 1, 1], cfg, 19);
        for (a, b) in seq.report.sweeps.iter().zip(par.report.sweeps.iter()) {
            assert!((a.fitness - b.fitness).abs() < 1e-9);
        }
    }
}
