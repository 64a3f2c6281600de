//! Factor-matrix initialization strategies.
//!
//! The paper initializes uniformly at random (Alg. 1 line 2). Production
//! CP solvers also offer Gaussian and sketched range-based initializations,
//! which can cut the number of expensive early sweeps — directly relevant
//! to PP, whose approximated regime only engages once per-sweep factor
//! changes are small.

use pp_tensor::kernels::naive::mttkrp;
use pp_tensor::rng::{gaussian_matrix, orthonormal_cols, seeded, uniform_matrix};
use pp_tensor::{DenseTensor, Matrix};

/// Initialization strategy for the factor matrices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitStrategy {
    /// i.i.d. uniform `[0,1)` — the paper's choice.
    Uniform,
    /// i.i.d. standard Gaussian.
    Gaussian,
    /// Sketched-range initialization: factor `A^(n)` spans the dominant
    /// range of the mode-`n` unfolding, estimated by one randomized
    /// MTTKRP sketch (`T_(n) · KRP(random factors)`) followed by
    /// orthonormalization. One `O(s^N R)` pass per mode.
    SketchedRange,
}

/// Uniform `[0,1)` random factors for a tensor of extents `dims` (Alg. 1
/// line 2): the initialization every session and rank starts from.
pub fn init_factors(dims: &[usize], rank: usize, seed: u64) -> Vec<Matrix> {
    let mut rng = seeded(seed);
    dims.iter()
        .map(|&d| uniform_matrix(d, rank, &mut rng))
        .collect()
}

/// Generate initial factors for `t` at CP rank `rank`.
pub fn init_factors_with(
    t: &DenseTensor,
    rank: usize,
    seed: u64,
    strategy: InitStrategy,
) -> Vec<Matrix> {
    let dims = t.shape().dims();
    let mut rng = seeded(seed);
    match strategy {
        InitStrategy::Uniform => init_factors(dims, rank, seed),
        InitStrategy::Gaussian => dims
            .iter()
            .map(|&d| gaussian_matrix(d, rank, &mut rng))
            .collect(),
        InitStrategy::SketchedRange => {
            // Random probe factors, then per-mode range sketch.
            let probes: Vec<Matrix> = dims
                .iter()
                .map(|&d| gaussian_matrix(d, rank, &mut rng))
                .collect();
            dims.iter()
                .enumerate()
                .map(|(n, &d)| {
                    let sketch = mttkrp(t, &probes, n);
                    orthonormalize_or_pad(&sketch, d, rank, &mut rng)
                })
                .collect()
        }
    }
}

/// Orthonormalize the columns of `sketch`; columns that collapse (rank
/// deficiency) are replaced by random Gaussian directions.
fn orthonormalize_or_pad(
    sketch: &Matrix,
    rows: usize,
    rank: usize,
    rng: &mut impl rand::Rng,
) -> Matrix {
    debug_assert_eq!(sketch.rows(), rows);
    if rows < rank + 1 {
        // Cannot orthonormalize more columns than dimensions; fall back.
        return uniform_matrix(rows, rank, rng);
    }
    let mut q = sketch.clone();
    let mut replaced = 0usize;
    for j in 0..rank {
        for _pass in 0..2 {
            for k in 0..j {
                let dot: f64 = (0..rows).map(|i| q.get(i, j) * q.get(i, k)).sum();
                for i in 0..rows {
                    let v = q.get(i, j) - dot * q.get(i, k);
                    q.set(i, j, v);
                }
            }
        }
        let mut norm: f64 = (0..rows)
            .map(|i| q.get(i, j) * q.get(i, j))
            .sum::<f64>()
            .sqrt();
        if norm < 1e-10 {
            // Degenerate column: re-draw random and re-orthogonalize once.
            let fresh = orthonormal_cols(rows, 1, rng);
            for i in 0..rows {
                q.set(i, j, fresh.get(i, 0));
            }
            for k in 0..j {
                let dot: f64 = (0..rows).map(|i| q.get(i, j) * q.get(i, k)).sum();
                for i in 0..rows {
                    let v = q.get(i, j) - dot * q.get(i, k);
                    q.set(i, j, v);
                }
            }
            norm = (0..rows)
                .map(|i| q.get(i, j) * q.get(i, j))
                .sum::<f64>()
                .sqrt();
            replaced += 1;
        }
        for i in 0..rows {
            let v = q.get(i, j) / norm.max(1e-300);
            q.set(i, j, v);
        }
    }
    let _ = replaced;
    q
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AlsConfig;
    use crate::session::{AlsSession, SessionKind};
    use pp_datagen::lowrank::noisy_rank;

    #[test]
    fn all_strategies_produce_right_shapes() {
        let t = noisy_rank(&[8, 7, 9], 3, 0.1, 3);
        for s in [
            InitStrategy::Uniform,
            InitStrategy::Gaussian,
            InitStrategy::SketchedRange,
        ] {
            let f = init_factors_with(&t, 3, 1, s);
            assert_eq!(f.len(), 3);
            assert_eq!(f[0].rows(), 8);
            assert_eq!(f[2].rows(), 9);
            assert_eq!(f[1].cols(), 3);
        }
    }

    #[test]
    fn sketched_range_is_orthonormal() {
        let t = noisy_rank(&[10, 9, 8], 4, 0.05, 5);
        let f = init_factors_with(&t, 4, 2, InitStrategy::SketchedRange);
        for a in &f {
            let g = a.gram();
            let eye = Matrix::identity(4);
            assert!(g.max_abs_diff(&eye) < 1e-8);
        }
    }

    #[test]
    fn sketched_init_is_competitive() {
        // Initialization quality is instance-dependent; the sketched start
        // must reach the same fitness and stay within a small factor of
        // the uniform start's sweep count (it often beats it).
        let t = noisy_rank(&[14, 13, 12], 4, 0.02, 9);
        let cfg = AlsConfig::new(4).with_max_sweeps(80).with_tol(1e-7);

        let run = |strategy| {
            let init = init_factors_with(&t, 4, 11, strategy);
            AlsSession::with_init(&t, &cfg, SessionKind::Exact, init).run()
        };
        let (u, s) = (run(InitStrategy::Uniform), run(InitStrategy::SketchedRange));
        let target = 0.97;
        let sweeps_to = |out: &crate::result::AlsOutput| {
            out.report
                .sweeps
                .iter()
                .position(|r| r.fitness >= target)
                .unwrap_or(usize::MAX)
        };
        let (su, ss) = (sweeps_to(&u), sweeps_to(&s));
        assert!(su < usize::MAX && ss < usize::MAX, "both must converge");
        assert!(ss <= su * 2, "sketched {ss} vs uniform {su} sweeps");
    }

    #[test]
    fn tiny_modes_fall_back_gracefully() {
        let t = noisy_rank(&[3, 8, 8], 3, 0.1, 7);
        let f = init_factors_with(&t, 3, 1, InitStrategy::SketchedRange);
        assert_eq!(f[0].rows(), 3); // rows < rank+1 → fallback path
    }
}
