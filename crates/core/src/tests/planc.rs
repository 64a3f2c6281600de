//! The PLANC baseline (Eswar et al., the parallel dimension-tree CP-ALS
//! the paper benchmarks against in Fig. 3) end to end: Algorithm 3's
//! parallelization with (a) always the standard per-sweep dimension tree
//! and (b) a replicated normal-equation solve on every rank — a
//! `ParSession` in `ParKind::Exact` under that configuration.

mod tests {
    use crate::{AlsConfig, AlsReport, ParKind, ParSession, SolveStrategy};
    use pp_comm::Runtime;
    use pp_datagen::lowrank::noisy_rank;
    use pp_dtree::TreePolicy;
    use pp_grid::{DistTensor, ProcGrid};
    use std::sync::Arc;

    #[test]
    fn planc_matches_our_dt_results() {
        // Same math, different solve/communication strategy: fitness
        // trajectories must agree.
        let t = Arc::new(noisy_rank(&[6, 5, 6], 2, 0.1, 3));
        let grid = ProcGrid::new(vec![2, 1, 2]);
        let cfg = AlsConfig::new(2).with_max_sweeps(6).with_tol(0.0);
        let planc = cfg
            .clone()
            .with_policy(TreePolicy::Standard)
            .with_solve(SolveStrategy::Replicated);
        let run = |cfg: AlsConfig| -> AlsReport {
            let (t, grid) = (t.clone(), grid.clone());
            let mut out = Runtime::from_env(4).run(move |ctx| {
                let local = DistTensor::from_global(&t, &grid, ctx.rank());
                ParSession::new(ctx, &grid, &local, &cfg, ParKind::Exact)
                    .run(ctx)
                    .report
            });
            out.results.remove(0)
        };
        let (a, b) = (run(cfg), run(planc));
        assert_eq!(a.sweeps.len(), b.sweeps.len());
        for (x, y) in a.sweeps.iter().zip(b.sweeps.iter()) {
            assert!((x.fitness - y.fitness).abs() < 1e-9);
        }
    }
}
