//! Algorithm 4, communication-efficient parallel pairwise perturbation,
//! end to end: a `ParSession` per rank in `ParKind::Pp` runs the PP
//! initialization and the first-order corrections on local blocks only
//! (the pair operators are never communicated), and must trace the
//! sequential PP session.

mod tests {
    use crate::{AlsConfig, AlsOutput, AlsSession, ParKind, ParSession, SessionKind, SweepKind};
    use pp_comm::Runtime;
    use pp_datagen::collinearity::{collinearity_tensor, CollinearityConfig};
    use pp_dtree::TreePolicy;
    use pp_grid::{DistTensor, ProcGrid};
    use pp_tensor::DenseTensor;
    use std::sync::Arc;

    /// Sequential PP and parallel PP on `grid`, rank 0's output.
    fn seq_and_par(t: DenseTensor, grid: Vec<usize>, acfg: &AlsConfig) -> (AlsOutput, AlsOutput) {
        let seq = AlsSession::new(&t, acfg, SessionKind::Pp).run();
        let (t, grid, acfg) = (Arc::new(t), ProcGrid::new(grid), acfg.clone());
        let p = grid.size();
        let mut out = Runtime::from_env(p).run(move |ctx| {
            let local = DistTensor::from_global(&t, &grid, ctx.rank());
            ParSession::new(ctx, &grid, &local, &acfg, ParKind::Pp).run(ctx)
        });
        (seq, out.results.remove(0))
    }

    fn cfg(rank: usize) -> AlsConfig {
        AlsConfig::new(rank)
            .with_policy(TreePolicy::MultiSweep)
            .with_pp_tol(0.3)
            .with_max_sweeps(40)
            .with_tol(1e-9)
    }

    #[test]
    fn parallel_pp_matches_sequential_pp() {
        let ccfg = CollinearityConfig {
            s: 12,
            r: 3,
            order: 3,
            lo: 0.5,
            hi: 0.7,
        };
        let (t, _, _) = collinearity_tensor(&ccfg, 3);
        let (seq, par) = seq_and_par(t, vec![2, 2, 1], &cfg(3));

        // Same sweep schedule (kinds in the same order) and same fitness
        // trajectory to tight tolerance.
        assert_eq!(seq.report.sweeps.len(), par.report.sweeps.len());
        for (a, b) in seq.report.sweeps.iter().zip(par.report.sweeps.iter()) {
            assert_eq!(a.kind, b.kind, "sweep-kind schedule must match");
            if a.fitness.is_finite() || b.fitness.is_finite() {
                assert!(
                    (a.fitness - b.fitness).abs() < 1e-6,
                    "seq {} vs par {} ({:?})",
                    a.fitness,
                    b.fitness,
                    a.kind
                );
            }
        }
        assert!(par.report.count(SweepKind::PpApprox) >= 1);
    }

    #[test]
    fn parallel_pp_order4() {
        let t = pp_datagen::lowrank::noisy_rank(&[6, 5, 6, 5], 2, 0.05, 9);
        let (seq, par) = seq_and_par(t, vec![2, 1, 2, 1], &cfg(2));
        assert!(
            (seq.report.final_fitness - par.report.final_fitness).abs() < 1e-5,
            "seq {} vs par {}",
            seq.report.final_fitness,
            par.report.final_fitness
        );
    }
}
