//! Residual/fitness evaluation via the amortized formula (Eq. 3).
//!
//! After the last mode `N−1` of a sweep is updated, the relative residual
//!
//! `r = √(‖T‖² + ⟨Γ^(N), S^(N)⟩ − 2⟨M^(N), A^(N)⟩) / ‖T‖`
//!
//! needs no extra tensor contractions: `M^(N)` (the last MTTKRP), `Γ^(N)`
//! (the last Hadamard chain) and `S^(N)` are all already in hand.
//! `⟨Γ^(N), S^(N)⟩ = ‖[[A…]]‖²` and `⟨M^(N), A^(N)⟩ = ⟨T, [[A…]]⟩`.

use pp_tensor::Matrix;

/// Relative residual from the amortized quantities of the last update.
///
/// * `t_norm_sq` — `‖T‖²_F` (computed once per run);
/// * `gamma_last` — `Γ^(N)` for the last-updated mode;
/// * `gram_last` — `S^(N)` of the freshly updated factor;
/// * `m_last` — the MTTKRP `M^(N)` used in the last update;
/// * `a_last` — the freshly updated factor `A^(N)`.
///
/// Floating-point cancellation can push the radicand a hair below zero at
/// (near-)exact fits; it is clamped.
pub fn relative_residual(
    t_norm_sq: f64,
    gamma_last: &Matrix,
    gram_last: &Matrix,
    m_last: &Matrix,
    a_last: &Matrix,
) -> f64 {
    residual_from_inners(t_norm_sq, gamma_last.inner(gram_last), m_last.inner(a_last))
}

/// [`relative_residual`] from its two inner products: `‖[[A…]]‖²` and
/// `⟨T, [[A…]]⟩`, the latter summed over the ranks when the rows of
/// `M^(N)` and `A^(N)` are spread over a grid.
pub(crate) fn residual_from_inners(t_norm_sq: f64, model_norm_sq: f64, cross: f64) -> f64 {
    let resid_sq = (t_norm_sq + model_norm_sq - 2.0 * cross).max(0.0);
    (resid_sq / t_norm_sq.max(1e-300)).sqrt()
}

/// Fitness `f = 1 − r` (the paper's convergence metric).
pub fn fitness_from_residual(r: f64) -> f64 {
    1.0 - r
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_tensor::kernels::krp::gamma;
    use pp_tensor::kernels::naive::{dense_relative_residual, mttkrp, reconstruct};
    use pp_tensor::rng::{seeded, uniform_matrix, uniform_tensor};

    #[test]
    fn matches_dense_residual() {
        let dims = [5, 4, 6];
        let mut rng = seeded(3);
        let t = uniform_tensor(&dims, &mut rng);
        let factors: Vec<Matrix> = dims
            .iter()
            .map(|&d| uniform_matrix(d, 3, &mut rng))
            .collect();
        let grams: Vec<Matrix> = factors.iter().map(|f| f.gram()).collect();
        let last = dims.len() - 1;
        let g = gamma(&grams, last);
        let m = mttkrp(&t, &factors, last);
        let r_fast = relative_residual(t.norm_sq(), &g, &grams[last], &m, &factors[last]);
        let r_slow = dense_relative_residual(&t, &factors);
        assert!((r_fast - r_slow).abs() < 1e-10, "{r_fast} vs {r_slow}");
    }

    #[test]
    fn zero_residual_for_exact_model() {
        let dims = [4, 3, 5];
        let mut rng = seeded(9);
        let factors: Vec<Matrix> = dims
            .iter()
            .map(|&d| uniform_matrix(d, 2, &mut rng))
            .collect();
        let t = reconstruct(&factors);
        let grams: Vec<Matrix> = factors.iter().map(|f| f.gram()).collect();
        let last = 2;
        let g = gamma(&grams, last);
        let m = mttkrp(&t, &factors, last);
        let r = relative_residual(t.norm_sq(), &g, &grams[last], &m, &factors[last]);
        assert!(r < 1e-7, "r={r}");
        assert!((fitness_from_residual(r) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn clamps_negative_radicand() {
        // Degenerate inputs that would produce a tiny negative radicand.
        let g = Matrix::identity(1);
        let s = Matrix::identity(1);
        let m = Matrix::from_vec(1, 1, vec![1.0 + 1e-16]);
        let a = Matrix::from_vec(1, 1, vec![1.0]);
        let r = relative_residual(1.0, &g, &s, &m, &a);
        assert_eq!(r, 0.0);
    }
}
