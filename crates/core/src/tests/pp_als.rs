//! Algorithm 2, sequential PP-CP-ALS, end to end: an `AlsSession` in
//! `SessionKind::Pp` alternates exact sweeps (tracking each factor's
//! change `dA` over a sweep), PP initializations (freeze `A_p` once every
//! `‖dA‖ < ε‖A‖`, build the pair operators of Fig. 1b) and approximated
//! sweeps (Eq. 5's first- plus second-order corrections in place of tensor
//! contractions) until some `dA` drifts past ε.

mod tests {
    use crate::{AlsConfig, AlsOutput, AlsSession, SessionKind, Step, SweepKind};
    use pp_datagen::collinearity::{collinearity_tensor, CollinearityConfig};
    use pp_datagen::lowrank::noisy_rank;
    use pp_dtree::TreePolicy;
    use pp_tensor::DenseTensor;

    fn pp(t: &DenseTensor, cfg: &AlsConfig) -> AlsOutput {
        AlsSession::new(t, cfg, SessionKind::Pp).run()
    }

    fn pp_cfg(rank: usize) -> AlsConfig {
        AlsConfig::new(rank)
            .with_policy(TreePolicy::MultiSweep)
            .with_pp_tol(0.3)
            .with_max_sweeps(80)
            .with_tol(1e-9)
    }

    /// After a dense PP-init the session's memory figure counts every
    /// buffer once: the pair operators the engine's cache holds as well
    /// (every one the build made) are not added a second time.
    #[test]
    fn cache_memory_counts_each_buffer_once_after_pp_init() {
        for (order, s) in [(3, 14), (4, 8)] {
            let cfg = CollinearityConfig {
                s,
                r: 4,
                order,
                lo: 0.5,
                hi: 0.7,
            };
            let (t, _, _) = collinearity_tensor(&cfg, 3);
            let mut session = AlsSession::new(&t, &pp_cfg(4), SessionKind::Pp);
            loop {
                match session.step() {
                    Step::Swept(rec) if rec.kind == SweepKind::PpInit => break,
                    Step::Swept(_) => {}
                    Step::Done(why) => panic!("order {order}: no PP-init before {why:?}"),
                }
            }
            let ops = session.pp.as_ref().and_then(|pp| pp.ops.as_ref());
            let ops = ops.expect("a PP-init leaves its operators");
            let cached: Vec<_> = session.cache().entries_sorted();
            let is_cached = |data: &[f64]| {
                cached
                    .iter()
                    .any(|e| e.tensor.data().as_ptr() == data.as_ptr())
            };
            let shared = ops
                .pairs
                .values()
                .filter(|p| is_cached(p.tensor.data()))
                .count();
            assert!(shared > 0, "order {order}: no pair operator is cached");
            let mut seen = Vec::new();
            let buffers = cached.iter().map(|e| e.tensor.data());
            let buffers = buffers.chain(ops.pairs.values().map(|p| p.tensor.data()));
            let buffers = buffers.chain(ops.firsts.iter().map(|m| m.data()));
            let mut distinct = 0;
            for data in buffers {
                if !seen.contains(&data.as_ptr()) {
                    seen.push(data.as_ptr());
                    distinct += data.len();
                }
            }
            let held = session.workspace().stats().held_elems;
            assert_eq!(
                session.cache_memory_elems(),
                distinct + held,
                "order {order}"
            );
        }
    }

    #[test]
    fn pp_activates_and_converges() {
        let cfg = CollinearityConfig {
            s: 14,
            r: 4,
            order: 3,
            lo: 0.5,
            hi: 0.7,
        };
        let (t, _, _) = collinearity_tensor(&cfg, 3);
        let out = pp(&t, &pp_cfg(4));
        assert!(out.report.count(SweepKind::PpInit) >= 1, "PP must activate");
        assert!(out.report.count(SweepKind::PpApprox) >= 1);
        assert!(
            out.report.final_fitness > 0.8,
            "fitness {}",
            out.report.final_fitness
        );
    }

    #[test]
    fn pp_fitness_stays_close_to_exact_als() {
        let t = noisy_rank(&[10, 9, 11], 3, 0.05, 7);
        let cfg = AlsConfig::new(3).with_max_sweeps(60).with_tol(1e-9);
        let exact = AlsSession::new(&t, &cfg, SessionKind::Exact).run();
        let pp = pp(&t, &pp_cfg(3));
        assert!(
            (pp.report.final_fitness - exact.report.final_fitness).abs() < 0.02,
            "PP {} vs exact {}",
            pp.report.final_fitness,
            exact.report.final_fitness
        );
    }

    #[test]
    fn pp_fitness_never_collapses() {
        // The paper highlights that fitness increases monotonically under
        // PP on well-conditioned problems (Fig. 5a); allow tiny dips from
        // the approximation but no collapse.
        let cfg = CollinearityConfig {
            s: 12,
            r: 3,
            order: 3,
            lo: 0.4,
            hi: 0.6,
        };
        let (t, _, _) = collinearity_tensor(&cfg, 5);
        let out = pp(&t, &pp_cfg(3));
        let fits: Vec<f64> = out.report.sweeps.iter().map(|s| s.fitness).collect();
        let max_so_far = fits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let last = *fits.last().unwrap();
        assert!(
            last > max_so_far - 0.05,
            "fitness collapsed: {last} vs {max_so_far}"
        );
    }

    #[test]
    fn order4_pp_works() {
        let t = noisy_rank(&[6, 5, 6, 5], 2, 0.05, 9);
        let out = pp(&t, &pp_cfg(2));
        assert!(out.report.final_fitness > 0.9);
        assert!(out.report.count(SweepKind::PpApprox) >= 1);
    }

    #[test]
    fn approx_sweeps_are_cheaper_than_exact() {
        // PP's selling point: the approximated step costs O(N²(s²R+R²))
        // instead of O(s^N R).
        let cfg = CollinearityConfig {
            s: 24,
            r: 6,
            order: 3,
            lo: 0.6,
            hi: 0.8,
        };
        let (t, _, _) = collinearity_tensor(&cfg, 11);
        let out = pp(&t, &pp_cfg(6).with_max_sweeps(60));
        let mean_secs = |kind| {
            let secs: Vec<f64> = out
                .report
                .sweeps
                .iter()
                .filter(|s| s.kind == kind)
                .map(|s| s.secs)
                .collect();
            secs.iter().sum::<f64>() / secs.len() as f64
        };
        let (exact_mean, approx_mean) =
            (mean_secs(SweepKind::Exact), mean_secs(SweepKind::PpApprox));
        if out.report.count(SweepKind::PpApprox) >= 3 {
            assert!(
                approx_mean < exact_mean,
                "approx {approx_mean} vs exact {exact_mean}"
            );
        }
    }
}
