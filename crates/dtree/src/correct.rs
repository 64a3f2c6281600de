//! The PP approximated step: perturbative corrections to the MTTKRP.
//!
//! With reference factors `A_p^(n)` (captured at PP initialization) and
//! current factors `A^(n) = A_p^(n) + dA^(n)`, the approximated MTTKRP is
//!
//! `˜M^(n) = Mp^(n) + Σ_{i≠n} U^(n,i) + V^(n)`            (Eq. 5)
//!
//! where `U^(n,i)(x,k) = Σ_y 𝓜p^(n,i)(x,y,k) · dA^(i)(y,k)` (Eq. 6) is the
//! first-order correction — *exact* for a perturbation confined to mode `i`
//! because the MTTKRP is multilinear — and `V^(n)` (Eq. 7) is a cheap
//! second-order correction built from Gram matrices:
//!
//! `V^(n) = A^(n) · Σ_{i<j, i,j≠n} dS^(i) ∗ dS^(j) ∗ (∗_{k≠i,j,n} S^(k))`
//!
//! with `dS^(i) = A^(i)ᵀ dA^(i)` (Eq. 8).
//!
//! A first-order correction runs only against a drift that is not exactly
//! zero ([`drifted`]): the first approximated sweep after a PP
//! initialization meets `dA^(i) = 0` for every mode `i` it has not updated
//! yet, half of its corrections. Skipping them is bitwise neutral. On
//! finite operators the skipped mTTV is all +0.0 (every product is ±0.0,
//! and its chain from +0.0 stays +0.0). The sum it would be added to does
//! not hold −0.0: the anchor and every correction are chains from +0.0,
//! and a sum of two values that are not −0.0 is not −0.0. (A fused chain
//! can round to −0.0 only where a product underflows below the smallest
//! subnormal.)

use crate::pp_tree::PpOperators;
use pp_tensor::kernels::mttv::mttv;
use pp_tensor::Matrix;

/// First-order correction `U^(n,i)` (Eq. 6): contract the partner mode of
/// the pair operator `𝓜p^(n,i)` with `dA^(i)` columnwise.
pub fn first_order_correction(
    ops: &PpOperators,
    n: usize,
    i: usize,
    d_factor_i: &Matrix,
) -> Matrix {
    assert_ne!(n, i);
    let pair = ops.pair(n, i);
    let pos = pair.position_of(i);
    let out = mttv(pair.dense(), pos, d_factor_i);
    debug_assert_eq!(out.tensor.order(), 2);
    let rows = out.tensor.dim(0);
    let r = out.tensor.dim(1);
    Matrix::from_vec(rows, r, out.tensor.into_vec())
}

/// Whether a first-order correction against `d_factor_i` runs: the one
/// rule both sessions' approximated steps skip corrections by (module
/// docs).
pub fn drifted(d_factor_i: &Matrix) -> bool {
    d_factor_i.data().iter().any(|&x| x != 0.0)
}

/// The mTTV flops of each first-order correction [`approx_mttkrp`] runs
/// for mode `n`, in partner order: `2 · |𝓜p^(n,i)|` for every `i ≠ n`
/// whose drift is not exactly zero.
pub fn correction_flops<'a>(
    ops: &'a PpOperators,
    d_factors: &'a [Matrix],
    n: usize,
) -> impl Iterator<Item = u64> + 'a {
    d_factors
        .iter()
        .enumerate()
        .filter(move |&(i, d)| i != n && drifted(d))
        .map(move |(i, _)| 2 * ops.pair(n, i).dense().len() as u64)
}

/// `dS^(i) = A^(i)ᵀ dA^(i)` (Eq. 8).
pub fn d_gram(a_i: &Matrix, d_a_i: &Matrix) -> Matrix {
    a_i.t_matmul(d_a_i)
}

/// Second-order correction `V^(n)` (Eq. 7).
///
/// `grams[k] = S^(k) = A^(k)ᵀ A^(k)` and `d_grams[k] = dS^(k)` for the
/// *current* factors. Cost: `O(N² R²)` Hadamard work plus one `s_n × R`
/// matrix product.
pub fn second_order_correction(
    a_n: &Matrix,
    grams: &[Matrix],
    d_grams: &[Matrix],
    n: usize,
) -> Matrix {
    let n_modes = grams.len();
    assert_eq!(d_grams.len(), n_modes);
    let r = grams[0].rows();
    let mut inner = Matrix::zeros(r, r);
    for i in 0..n_modes {
        if i == n {
            continue;
        }
        for j in i + 1..n_modes {
            if j == n {
                continue;
            }
            // dS^(i) ∗ dS^(j) ∗ (∗_{k≠i,j,n} S^(k))
            let mut term = d_grams[i].hadamard(&d_grams[j]);
            for (k, s) in grams.iter().enumerate() {
                if k != i && k != j && k != n {
                    term.hadamard_assign(s);
                }
            }
            inner.axpy(1.0, &term);
        }
    }
    a_n.matmul(&inner)
}

/// Assemble `˜M^(n)` (Eq. 5) from the operators and the current state,
/// skipping the first-order corrections against an exactly zero drift
/// ([`drifted`]).
///
/// * `ops` — PP operators from [`crate::pp_tree::build_pp_operators`];
/// * `d_factors[i] = A^(i) − A_p^(i)`;
/// * `factors`, `grams`, `d_grams` — current factors and their (d)Grams.
pub fn approx_mttkrp(
    ops: &PpOperators,
    d_factors: &[Matrix],
    factors: &[Matrix],
    grams: &[Matrix],
    d_grams: &[Matrix],
    n: usize,
) -> Matrix {
    let mut m = ops.firsts[n].clone();
    for (i, d) in d_factors.iter().enumerate() {
        if i == n || !drifted(d) {
            continue;
        }
        let u = first_order_correction(ops, n, i, d);
        m.axpy(1.0, &u);
    }
    let v = second_order_correction(&factors[n], grams, d_grams, n);
    m.axpy(1.0, &v);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{DimTreeEngine, TreePolicy};
    use crate::factor::FactorState;
    use crate::input::InputTensor;
    use crate::pp_tree::build_pp_operators;
    use pp_tensor::kernels::naive::mttkrp as naive_mttkrp;
    use pp_tensor::rng::{gaussian_matrix, seeded, uniform_matrix, uniform_tensor};
    use pp_tensor::DenseTensor;

    fn setup(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, FactorState) {
        let mut rng = seeded(seed);
        let t = uniform_tensor(dims, &mut rng);
        let factors: Vec<Matrix> = dims
            .iter()
            .map(|&d| uniform_matrix(d, r, &mut rng))
            .collect();
        (t, FactorState::new(factors))
    }

    fn perturb(fs: &FactorState, modes: &[usize], eps: f64, seed: u64) -> Vec<Matrix> {
        let mut rng = seeded(seed);
        fs.factors()
            .iter()
            .enumerate()
            .map(|(k, a)| {
                let mut d = gaussian_matrix(a.rows(), a.cols(), &mut rng);
                d.scale(if modes.contains(&k) { eps } else { 0.0 });
                d
            })
            .collect()
    }

    fn approx_error(dims: &[usize], r: usize, modes: &[usize], eps: f64, with_v: bool) -> f64 {
        let (t, fs) = setup(dims, r, 17);
        let mut input = InputTensor::new(t.clone());
        let mut engine = DimTreeEngine::new(TreePolicy::Standard, dims.len());
        let ops = build_pp_operators(&mut input, &fs, &mut engine);

        let d_factors = perturb(&fs, modes, eps, 23);
        let new_factors: Vec<Matrix> = fs
            .factors()
            .iter()
            .zip(d_factors.iter())
            .map(|(a, d)| {
                let mut x = a.clone();
                x.axpy(1.0, d);
                x
            })
            .collect();
        let grams: Vec<Matrix> = new_factors.iter().map(|a| a.gram()).collect();
        let d_grams: Vec<Matrix> = new_factors
            .iter()
            .zip(d_factors.iter())
            .map(|(a, d)| d_gram(a, d))
            .collect();

        let n = 0;
        let approx = if with_v {
            approx_mttkrp(&ops, &d_factors, &new_factors, &grams, &d_grams, n)
        } else {
            let mut m = ops.firsts[n].clone();
            for (i, d) in d_factors.iter().enumerate().skip(1) {
                m.axpy(1.0, &first_order_correction(&ops, n, i, d));
            }
            m
        };
        let exact = naive_mttkrp(&t, &new_factors, n);
        approx.max_abs_diff(&exact) / exact.norm().max(1e-30)
    }

    #[test]
    fn exact_when_factors_unchanged() {
        let err = approx_error(&[5, 4, 6], 3, &[], 0.0, true);
        assert!(err < 1e-12, "err={err}");
    }

    #[test]
    fn exact_for_single_mode_perturbation() {
        // MTTKRP is multilinear, so a perturbation confined to one mode is
        // captured exactly by U^(n,i) — no approximation error at all.
        for mode in [1usize, 2] {
            let err = approx_error(&[5, 4, 6], 3, &[mode], 0.5, false);
            assert!(err < 1e-10, "mode {mode} err={err}");
        }
    }

    #[test]
    fn second_order_scaling_for_two_mode_perturbation() {
        // Perturbing two modes leaves an O(ε²) cross term: halving ε must
        // shrink the first-order-only error by ≈ 4×.
        let e1 = approx_error(&[5, 4, 6], 3, &[1, 2], 0.2, false);
        let e2 = approx_error(&[5, 4, 6], 3, &[1, 2], 0.1, false);
        let ratio = e1 / e2;
        assert!(
            (2.5..6.0).contains(&ratio),
            "expected ~4x error reduction, got {ratio} ({e1} vs {e2})"
        );
    }

    #[test]
    fn order4_small_perturbation_is_accurate() {
        let err = approx_error(&[4, 3, 5, 3], 2, &[1, 2, 3], 0.01, true);
        assert!(err < 1e-3, "err={err}");
    }

    #[test]
    fn d_gram_matches_definition() {
        let mut rng = seeded(3);
        let a = uniform_matrix(6, 3, &mut rng);
        let d = uniform_matrix(6, 3, &mut rng);
        let ds = d_gram(&a, &d);
        for i in 0..3 {
            for j in 0..3 {
                let expect: f64 = (0..6).map(|y| a.get(y, i) * d.get(y, j)).sum();
                assert!((ds.get(i, j) - expect).abs() < 1e-12);
            }
        }
    }
}
