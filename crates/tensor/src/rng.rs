//! Seeded random generation: uniform/Gaussian matrices and tensors, and
//! orthonormal bases (for the collinearity construction of §V-A).

use crate::dense::DenseTensor;
use crate::matrix::Matrix;
use crate::shape::Shape;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG for reproducible experiments.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Matrix with i.i.d. entries uniform in `[0, 1)` — the CP-ALS factor
/// initialization the paper uses (Alg. 1 line 2).
pub fn uniform_matrix(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.random::<f64>())
}

/// Matrix with i.i.d. standard Gaussian entries (Box-Muller, so we depend
/// only on the `rand` core crate).
pub fn gaussian_matrix(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    let mut next_cached: Option<f64> = None;
    Matrix::from_fn(rows, cols, |_, _| {
        if let Some(v) = next_cached.take() {
            return v;
        }
        let (z0, z1) = box_muller(rng);
        next_cached = Some(z1);
        z0
    })
}

/// Tensor with i.i.d. uniform `[0,1)` entries, drawn in row-major order
/// straight into the tensor store (huge pages from 2 MiB up), so kernels
/// tested or timed on it see the placement every session's tensors have.
pub fn uniform_tensor(dims: &[usize], rng: &mut impl Rng) -> DenseTensor {
    let mut t = DenseTensor::zeros(dims.to_vec());
    t.data_mut()
        .iter_mut()
        .for_each(|x| *x = rng.random::<f64>());
    t
}

/// Tensor with i.i.d. standard Gaussian entries. Its ‖T‖² is summed as
/// the entries are drawn, and the tensor remembers it.
pub fn gaussian_tensor(dims: &[usize], rng: &mut impl Rng) -> DenseTensor {
    let shape = Shape::new(dims.to_vec());
    let len = shape.len();
    let mut data = Vec::with_capacity(len);
    // The empty sum is `-0.0`, as `Iterator::sum` has it.
    let mut norm_sq = -0.0;
    while data.len() < len {
        let (z0, z1) = box_muller(rng);
        data.push(z0);
        norm_sq += z0 * z0;
        if data.len() < len {
            data.push(z1);
            norm_sq += z1 * z1;
        }
    }
    let t = DenseTensor::from_vec(shape, data);
    t.remember_norm_sq(norm_sq);
    t
}

fn box_muller(rng: &mut impl Rng) -> (f64, f64) {
    // Avoid log(0).
    let u1: f64 = loop {
        let v = rng.random::<f64>();
        if v > 1e-300 {
            break v;
        }
    };
    let u2: f64 = rng.random::<f64>();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// Matrix with `cols` orthonormal columns of length `rows`, built by
/// modified Gram-Schmidt (with one re-orthogonalization pass) on a Gaussian
/// matrix. Requires `rows ≥ cols`.
pub fn orthonormal_cols(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    assert!(
        rows >= cols,
        "cannot fit {cols} orthonormal columns in R^{rows}"
    );
    let mut q = gaussian_matrix(rows, cols, rng);
    for j in 0..cols {
        // Two MGS passes for numerical robustness.
        for _pass in 0..2 {
            for k in 0..j {
                let dot: f64 = (0..rows).map(|i| q.get(i, j) * q.get(i, k)).sum();
                for i in 0..rows {
                    let v = q.get(i, j) - dot * q.get(i, k);
                    q.set(i, j, v);
                }
            }
        }
        let norm: f64 = (0..rows)
            .map(|i| q.get(i, j) * q.get(i, j))
            .sum::<f64>()
            .sqrt();
        assert!(norm > 1e-12, "degenerate column in orthonormalization");
        for i in 0..rows {
            let v = q.get(i, j) / norm;
            q.set(i, j, v);
        }
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_in_range_and_deterministic() {
        let mut r1 = seeded(42);
        let mut r2 = seeded(42);
        let a = uniform_matrix(10, 5, &mut r1);
        let b = uniform_matrix(10, 5, &mut r2);
        assert_eq!(a.data(), b.data());
        assert!(a.data().iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn gaussian_mean_and_var_sane() {
        let mut rng = seeded(7);
        let g = gaussian_matrix(200, 50, &mut rng);
        let n = g.data().len() as f64;
        let mean: f64 = g.data().iter().sum::<f64>() / n;
        let var: f64 = g
            .data()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn orthonormal_columns_are_orthonormal() {
        let mut rng = seeded(3);
        let q = orthonormal_cols(20, 6, &mut rng);
        let g = q.gram();
        let eye = Matrix::identity(6);
        assert!(g.max_abs_diff(&eye) < 1e-10);
    }

    #[test]
    fn tensor_generators_shapes() {
        let mut rng = seeded(9);
        let t = uniform_tensor(&[3, 4, 5], &mut rng);
        assert_eq!(t.len(), 60);
        // The same values, in the same order, as drawn one by one.
        let mut again = seeded(9);
        let want: Vec<f64> = (0..60).map(|_| again.random::<f64>()).collect();
        assert_eq!(t.data(), &want[..]);
        let g = gaussian_tensor(&[2, 3], &mut rng);
        assert_eq!(g.len(), 6);
    }

    #[test]
    fn gaussian_tensor_hands_over_the_serial_norm() {
        // Even and odd lengths, and the empty sum.
        for dims in [vec![4usize, 6], vec![3, 5, 7], vec![2, 0]] {
            let t = gaussian_tensor(&dims, &mut seeded(11));
            let serial: f64 = t.data().iter().map(|x| x * x).sum();
            let handed = t.remembered_norm_sq().expect("the draw sums it");
            assert_eq!(handed.to_bits(), serial.to_bits(), "{dims:?}");
        }
    }
}
