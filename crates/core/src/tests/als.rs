//! Algorithm 1, sequential CP-ALS, end to end: an `AlsSession` in
//! `SessionKind::Exact` run over either dimension tree — the
//! single-process baseline every parallel variant is validated against.

mod tests {
    use crate::{AlsConfig, AlsOutput, AlsSession, SessionKind};
    use pp_datagen::lowrank::{exact_rank, noisy_rank};
    use pp_dtree::TreePolicy;
    use pp_tensor::kernels::naive::dense_relative_residual;
    use pp_tensor::DenseTensor;

    fn exact_als(t: &DenseTensor, cfg: &AlsConfig) -> AlsOutput {
        AlsSession::new(t, cfg, SessionKind::Exact).run()
    }

    #[test]
    fn recovers_exact_low_rank_tensor() {
        // ALS converges slowly ("swamps") from uniform random inits on
        // exact-rank tensors, so ask for high — not perfect — fitness.
        let (t, _) = exact_rank(&[8, 9, 7], 3, 5);
        let cfg = AlsConfig::new(3).with_max_sweeps(200).with_tol(1e-12);
        let out = exact_als(&t, &cfg);
        assert!(
            out.report.final_fitness > 0.995,
            "fitness {}",
            out.report.final_fitness
        );
        let r = dense_relative_residual(&t, &out.factors);
        assert!(r < 0.02, "dense residual {r}");
        // The amortized Eq. (3) fitness must agree with the dense oracle.
        assert!((out.report.final_fitness - (1.0 - r)).abs() < 1e-6);
    }

    #[test]
    fn fitness_is_monotonically_nondecreasing() {
        let t = noisy_rank(&[7, 6, 8], 3, 0.1, 11);
        let cfg = AlsConfig::new(3).with_max_sweeps(40).with_tol(0.0);
        let out = exact_als(&t, &cfg);
        let fits: Vec<f64> = out.report.sweeps.iter().map(|s| s.fitness).collect();
        for w in fits.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "fitness decreased: {w:?}");
        }
    }

    #[test]
    fn msdt_matches_dt_trajectory_exactly() {
        // The central MSDT claim: same results as the standard tree.
        let t = noisy_rank(&[6, 7, 5], 2, 0.05, 13);
        let dt = exact_als(&t, &AlsConfig::new(2).with_max_sweeps(15).with_tol(0.0));
        let ms = exact_als(
            &t,
            &AlsConfig::new(2)
                .with_max_sweeps(15)
                .with_tol(0.0)
                .with_policy(TreePolicy::MultiSweep),
        );
        assert_eq!(dt.report.sweeps.len(), ms.report.sweeps.len());
        for (a, b) in dt.report.sweeps.iter().zip(ms.report.sweeps.iter()) {
            assert!(
                (a.fitness - b.fitness).abs() < 1e-9,
                "DT {} vs MSDT {}",
                a.fitness,
                b.fitness
            );
        }
        for (fa, fb) in dt.factors.iter().zip(ms.factors.iter()) {
            assert!(fa.max_abs_diff(fb) < 1e-7);
        }
    }

    #[test]
    fn msdt_matches_dt_order4() {
        let t = noisy_rank(&[5, 4, 5, 4], 2, 0.05, 17);
        let dt = exact_als(&t, &AlsConfig::new(2).with_max_sweeps(10).with_tol(0.0));
        let ms = exact_als(
            &t,
            &AlsConfig::new(2)
                .with_max_sweeps(10)
                .with_tol(0.0)
                .with_policy(TreePolicy::MultiSweep),
        );
        for (fa, fb) in dt.factors.iter().zip(ms.factors.iter()) {
            assert!(fa.max_abs_diff(fb) < 1e-7);
        }
    }

    #[test]
    fn convergence_flag_and_tol() {
        let (t, _) = exact_rank(&[6, 6, 6], 2, 3);
        let cfg = AlsConfig::new(2).with_max_sweeps(300).with_tol(1e-5);
        let out = exact_als(&t, &cfg);
        assert!(out.report.converged);
        assert!(out.report.sweeps.len() < 300);
    }

    #[test]
    fn stats_are_populated() {
        let (t, _) = exact_rank(&[6, 5, 7], 2, 9);
        let out = exact_als(&t, &AlsConfig::new(2).with_max_sweeps(5).with_tol(0.0));
        let s = &out.report.stats;
        assert!(s.ttm_count >= 10, "2 TTMs per sweep expected");
        assert!(s.ttm_secs > 0.0);
        assert!(s.mttv_count > 0);
        assert!(s.solve_secs > 0.0);
    }
}
