//! Exact-rank and noisy low-rank test tensors.

use pp_tensor::kernels::krp::reconstruct;
use pp_tensor::rng::{gaussian_tensor, seeded, uniform_matrix};
use pp_tensor::{DenseTensor, Matrix};

/// A tensor with exact CP rank ≤ `r`: `[[A^(1), ..., A^(N)]]` from uniform
/// random factors. Returns the tensor and the planted factors.
pub fn exact_rank(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, Vec<Matrix>) {
    assert!(r > 0, "rank must be positive");
    assert!(
        !dims.is_empty() && dims.iter().all(|&d| d > 0),
        "every mode extent must be positive, got {dims:?}"
    );
    let mut rng = seeded(seed);
    let factors: Vec<Matrix> = dims
        .iter()
        .map(|&d| uniform_matrix(d, r, &mut rng))
        .collect();
    (reconstruct(&factors), factors)
}

/// An exact-rank tensor plus i.i.d. Gaussian noise scaled so that
/// `‖noise‖_F = noise_level · ‖signal‖_F`. With noise, the tensor
/// remembers its ‖T‖², summed as the noise is added.
pub fn noisy_rank(dims: &[usize], r: usize, noise_level: f64, seed: u64) -> DenseTensor {
    let (mut t, _) = exact_rank(dims, r, seed);
    if noise_level > 0.0 {
        let mut rng = seeded(seed ^ 0x9e37_79b9_7f4a_7c15);
        let noise = gaussian_tensor(dims, &mut rng);
        let scale = noise_level * t.norm() / noise.norm().max(1e-300);
        t.axpy_norm_sq(scale, &noise);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_tensor::kernels::naive::dense_relative_residual;

    #[test]
    fn exact_rank_has_zero_residual_with_planted_factors() {
        let (t, factors) = exact_rank(&[5, 6, 4], 3, 1);
        assert!(dense_relative_residual(&t, &factors) < 1e-12);
    }

    #[test]
    fn noise_level_is_calibrated() {
        let clean = noisy_rank(&[5, 6, 4], 3, 0.0, 2);
        let noisy = noisy_rank(&[5, 6, 4], 3, 0.1, 2);
        let mut diff = noisy.clone();
        diff.axpy(-1.0, &clean);
        let ratio = diff.norm() / clean.norm();
        assert!((ratio - 0.1).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn deterministic_by_seed() {
        let a = noisy_rank(&[4, 4, 4], 2, 0.05, 7);
        let b = noisy_rank(&[4, 4, 4], 2, 0.05, 7);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn the_noise_axpy_hands_over_the_serial_norm() {
        let t = noisy_rank(&[6, 5, 7], 3, 0.05, 9);
        let serial: f64 = t.data().iter().map(|x| x * x).sum();
        let handed = t.remembered_norm_sq().expect("the axpy sums it");
        assert_eq!(handed.to_bits(), serial.to_bits());
        // Without noise no pass runs after the reconstruction.
        assert_eq!(noisy_rank(&[6, 5, 7], 3, 0.0, 9).remembered_norm_sq(), None);
    }
}
