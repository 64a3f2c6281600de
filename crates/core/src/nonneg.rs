//! Nonnegative CP decomposition (NNCP) via HALS column updates.
//!
//! The PLANC baseline the paper benchmarks against (Eswar et al.) is a
//! *nonnegative* CP library, and both image datasets of Fig. 5 are
//! standard NNCP benchmarks. This module adds the nonnegative variant on
//! top of the same dimension-tree machinery: every sweep computes the
//! usual `M^(n)` (through DT or MSDT — the MTTKRP is identical) and then
//! performs HALS (hierarchical ALS) column updates
//!
//! `A(:,r) ← max(0, A(:,r) + (M(:,r) − A·Γ(:,r)) / Γ(r,r))`
//!
//! instead of the unconstrained solve. HALS keeps the monotone-descent
//! property under nonnegativity and needs only `M` and `Γ` — so MSDT's
//! cost advantage and PP's approximated `˜M` carry over unchanged. An
//! [`crate::AlsSession`] in [`crate::SessionKind::NonNeg`] runs it; its
//! uniform `[0,1)` initial factors are already nonnegative.

use pp_tensor::Matrix;

/// One full HALS pass over the columns of `A^(n)` given `M^(n)` and
/// `Γ^(n)`. Repeated `inner_iters` times (2 is the PLANC default).
/// Returns the updated factor; all entries are ≥ 0.
pub fn hals_update(a: &Matrix, m: &Matrix, gamma: &Matrix, inner_iters: usize) -> Matrix {
    let rows = a.rows();
    let r = a.cols();
    assert_eq!(m.rows(), rows);
    assert_eq!(m.cols(), r);
    assert_eq!(gamma.rows(), r);
    let mut out = a.clone();
    // Tiny floor keeps a column revivable (all-zero columns deadlock HALS).
    const FLOOR: f64 = 1e-16;
    for _ in 0..inner_iters.max(1) {
        for col in 0..r {
            let denom = gamma.get(col, col).max(1e-12);
            for i in 0..rows {
                // (A·Γ)(i,col) recomputed against the current columns so
                // updates within the pass see each other (Gauss-Seidel).
                let mut ag = 0.0;
                for k in 0..r {
                    ag += out.get(i, k) * gamma.get(k, col);
                }
                let v = out.get(i, col) + (m.get(i, col) - ag) / denom;
                out.set(i, col, v.max(FLOOR));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlsConfig;
    use crate::result::AlsOutput;
    use crate::session::{AlsSession, SessionKind};
    use pp_dtree::TreePolicy;
    use pp_tensor::kernels::naive::reconstruct;
    use pp_tensor::rng::{seeded, uniform_matrix};
    use pp_tensor::DenseTensor;

    fn nncp(t: &DenseTensor, cfg: &AlsConfig) -> AlsOutput {
        AlsSession::new(t, cfg, SessionKind::NonNeg).run()
    }

    fn nonneg_tensor(dims: &[usize], r: usize, seed: u64) -> DenseTensor {
        // Product of nonnegative factors is nonnegative.
        let mut rng = seeded(seed);
        let factors: Vec<Matrix> = dims
            .iter()
            .map(|&d| uniform_matrix(d, r, &mut rng))
            .collect();
        reconstruct(&factors)
    }

    #[test]
    fn hals_keeps_factors_nonnegative() {
        let t = nonneg_tensor(&[8, 7, 6], 3, 3);
        let out = nncp(&t, &AlsConfig::new(3).with_max_sweeps(40).with_tol(1e-8));
        for f in &out.factors {
            assert!(f.data().iter().all(|&x| x >= 0.0), "negative entry");
        }
    }

    #[test]
    fn hals_fits_nonnegative_low_rank_tensor() {
        let t = nonneg_tensor(&[10, 9, 8], 3, 7);
        let out = nncp(&t, &AlsConfig::new(3).with_max_sweeps(120).with_tol(1e-10));
        assert!(
            out.report.final_fitness > 0.98,
            "fitness {}",
            out.report.final_fitness
        );
    }

    #[test]
    fn hals_fitness_monotone() {
        let t = nonneg_tensor(&[8, 8, 8], 4, 11);
        let out = nncp(&t, &AlsConfig::new(4).with_max_sweeps(30).with_tol(0.0));
        let fits: Vec<f64> = out.report.sweeps.iter().map(|s| s.fitness).collect();
        for w in fits.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "fitness decreased: {w:?}");
        }
    }

    #[test]
    fn hals_update_projects_negative_directions() {
        // Force a case where the unconstrained update would go negative.
        let a = Matrix::from_vec(2, 2, vec![0.1, 0.1, 0.1, 0.1]);
        let gamma = Matrix::identity(2);
        let m = Matrix::from_vec(2, 2, vec![-5.0, 1.0, 1.0, -5.0]);
        let out = hals_update(&a, &m, &gamma, 1);
        assert!(out.data().iter().all(|&x| x >= 0.0));
        // The non-suppressed entries should move toward M.
        assert!(out.get(0, 1) > 0.5);
    }

    #[test]
    fn msdt_nncp_matches_dt_nncp() {
        let t = nonneg_tensor(&[7, 6, 8], 2, 5);
        let a = nncp(&t, &AlsConfig::new(2).with_max_sweeps(10).with_tol(0.0));
        let b = nncp(
            &t,
            &AlsConfig::new(2)
                .with_max_sweeps(10)
                .with_tol(0.0)
                .with_policy(TreePolicy::MultiSweep),
        );
        for (x, y) in a.report.sweeps.iter().zip(b.report.sweeps.iter()) {
            assert!((x.fitness - y.fitness).abs() < 1e-8);
        }
    }
}
