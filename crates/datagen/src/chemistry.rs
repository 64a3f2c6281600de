//! Synthetic quantum-chemistry density-fitting tensor (§V-A, Tensor 2).
//!
//! The paper decomposes the Cholesky factor `𝓓 ∈ R^{E × n × n}` of the
//! two-electron integral tensor of a 40-water chain (PySCF, STO-3G basis;
//! 4520 × 280 × 280). PySCF is not available here, so we synthesize a
//! surrogate with the same structure:
//!
//! * orbitals sit on a 1-D molecular chain; the pair density `(a, b)`
//!   decays as a Gaussian of the distance `|x_a − x_b|` (overlap decay);
//! * auxiliary functions `e` are Gaussians along the same chain contracted
//!   against the pair density's centroid — giving the characteristic
//!   banded, low-rank-plus-tail spectrum of density-fitting factors;
//! * symmetric in `(a, b)`, strictly positive diagonal dominance, plus a
//!   small noise floor so the tensor is not exactly low rank.
//!
//! CP-ALS on this surrogate shows the same qualitative behaviour the paper
//! reports (slow sweep-wise convergence at moderate fitness, where PP's
//! approximated sweeps dominate).

use pp_tensor::rng::seeded;
use pp_tensor::{DenseTensor, Shape};
use rand::Rng;

/// Configuration for the density-fitting surrogate.
#[derive(Clone, Copy, Debug)]
pub struct ChemistryConfig {
    /// Number of orbitals `n` (paper: 280).
    pub n_orb: usize,
    /// Number of auxiliary functions `E` (paper: 4520 ≈ 16·n).
    pub n_aux: usize,
    /// Gaussian decay length of pair overlaps, in orbital spacings.
    pub overlap_sigma: f64,
    /// Width of auxiliary fitting Gaussians, in orbital spacings.
    pub aux_tau: f64,
    /// Relative noise floor.
    pub noise: f64,
}

impl Default for ChemistryConfig {
    fn default() -> Self {
        ChemistryConfig {
            n_orb: 70,
            n_aux: 16 * 70,
            overlap_sigma: 1.2,
            aux_tau: 1.6,
            noise: 0.02,
        }
    }
}

impl ChemistryConfig {
    /// Reject degenerate configurations with a clear message instead of a
    /// downstream kernel panic.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_orb == 0 {
            return Err("chemistry config: n_orb must be positive".into());
        }
        if self.n_aux == 0 {
            return Err("chemistry config: n_aux must be positive".into());
        }
        // NaN must fail this check too, hence the explicit is_nan arm.
        if self.overlap_sigma <= 0.0
            || self.overlap_sigma.is_nan()
            || self.aux_tau <= 0.0
            || self.aux_tau.is_nan()
        {
            return Err(format!(
                "chemistry config: overlap_sigma ({}) and aux_tau ({}) must be positive",
                self.overlap_sigma, self.aux_tau
            ));
        }
        if !self.noise.is_finite() || self.noise < 0.0 {
            return Err(format!(
                "chemistry config: noise must be finite and >= 0, got {}",
                self.noise
            ));
        }
        Ok(())
    }
}

/// Generate the order-3 density-fitting surrogate `𝓓 ∈ R^{E × n × n}`
/// (auxiliary mode first, matching the paper's 4520 × 280 × 280 layout).
/// With noise, the tensor remembers its ‖T‖², summed as the noise is
/// added.
pub fn density_fitting_tensor(cfg: &ChemistryConfig, seed: u64) -> DenseTensor {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    let n = cfg.n_orb;
    let e_dim = cfg.n_aux;
    let mut rng = seeded(seed);

    // Orbital chain positions with slight irregularity (different shells of
    // the same atom sit at the same site).
    let shells_per_atom = 5; // STO-3G water: ~5 basis functions per heavy site
    let positions: Vec<f64> = (0..n)
        .map(|i| {
            let atom = i / shells_per_atom;
            let jitter = 0.15 * (rng.random::<f64>() - 0.5);
            atom as f64 + jitter
        })
        .collect();
    // Per-orbital magnitudes: diffuse vs tight shells.
    let weights: Vec<f64> = (0..n)
        .map(|i| 0.5 + rng.random::<f64>() + if i % shells_per_atom == 0 { 1.0 } else { 0.0 })
        .collect();
    let chain_len = positions.iter().cloned().fold(0.0f64, f64::max).max(1.0);
    // Auxiliary centers sweep the chain; widths vary by shell.
    let centers: Vec<f64> = (0..e_dim)
        .map(|e| chain_len * (e as f64 + 0.5) / e_dim as f64)
        .collect();
    let taus: Vec<f64> = (0..e_dim)
        .map(|e| cfg.aux_tau * (0.5 + 1.0 * ((e * 7919) % 97) as f64 / 97.0))
        .collect();

    // Angular/shell structure: a symmetric, rough modulation of each pair
    // density. Real density-fitting factors are far from smooth in the
    // orbital indices (s/p/d shells, contraction coefficients), which is
    // what keeps their CP rank high and ALS convergence slow — reproduce
    // that with a deterministic pseudo-random pair texture.
    let pair_texture = |a: usize, b: usize, e: usize| -> f64 {
        let h = (a.min(b) as u64)
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add((a.max(b) as u64).wrapping_mul(0xc2b2ae3d27d4eb4f))
            .wrapping_add((e as u64 % 7).wrapping_mul(0x165667b19e3779f9));
        let x = ((h >> 16) % 10_000) as f64 / 10_000.0;
        0.5 + x
    };

    let shape = Shape::new(vec![e_dim, n, n]);
    let mut data = vec![0.0f64; shape.len()];
    let sig2 = 2.0 * cfg.overlap_sigma * cfg.overlap_sigma;
    for (e, (&ce, &te)) in centers.iter().zip(taus.iter()).enumerate() {
        let t2 = 2.0 * te * te;
        let plane = &mut data[e * n * n..(e + 1) * n * n];
        for a in 0..n {
            for b in a..n {
                let d = positions[a] - positions[b];
                let overlap = (-d * d / sig2).exp() * weights[a] * weights[b];
                let mid = 0.5 * (positions[a] + positions[b]);
                let dm = mid - ce;
                let v = overlap * (-dm * dm / t2).exp() * pair_texture(a, b, e);
                plane[a * n + b] = v;
                plane[b * n + a] = v;
            }
        }
    }
    let mut t = DenseTensor::from_vec(shape, data);
    if cfg.noise > 0.0 {
        let norm = t.norm();
        let mut rng2 = seeded(seed ^ 0xabcd_ef01);
        let noise_scale = cfg.noise * norm / (t.len() as f64).sqrt();
        t.map_norm_sq(|x| x + noise_scale * (rng2.random::<f64>() - 0.5) * 2.0);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> ChemistryConfig {
        ChemistryConfig {
            n_orb: 12,
            n_aux: 30,
            ..ChemistryConfig::default()
        }
    }

    #[test]
    fn the_noise_pass_hands_over_the_serial_norm() {
        let t = density_fitting_tensor(&small_cfg(), 5);
        let serial: f64 = t.data().iter().map(|x| x * x).sum();
        let handed = t.remembered_norm_sq().expect("the noise pass sums it");
        assert_eq!(handed.to_bits(), serial.to_bits());
    }

    #[test]
    fn shape_and_symmetry() {
        let t = density_fitting_tensor(
            &ChemistryConfig {
                noise: 0.0,
                ..small_cfg()
            },
            3,
        );
        assert_eq!(t.shape().dims(), &[30, 12, 12]);
        for e in 0..5 {
            for a in 0..12 {
                for b in 0..12 {
                    assert!((t.get(&[e, a, b]) - t.get(&[e, b, a])).abs() < 1e-14);
                }
            }
        }
    }

    #[test]
    fn distant_orbitals_decay() {
        let t = density_fitting_tensor(
            &ChemistryConfig {
                noise: 0.0,
                ..small_cfg()
            },
            3,
        );
        // Orbitals 0 and 11 sit ~2.2 atoms apart with sigma=2.5; pairs on
        // the same atom must dominate well-separated pairs on average.
        let near: f64 = (0..30).map(|e| t.get(&[e, 0, 1]).abs()).sum();
        let far: f64 = (0..30).map(|e| t.get(&[e, 0, 11]).abs()).sum();
        assert!(near > far, "near {near} far {far}");
    }

    #[test]
    fn compressible_but_not_exactly_low_rank() {
        let t = density_fitting_tensor(&small_cfg(), 5);
        assert!(t.norm() > 0.0);
        // Noise floor keeps it full rank: no exact zeros plane-to-plane.
        let t2 = density_fitting_tensor(
            &ChemistryConfig {
                noise: 0.0,
                ..small_cfg()
            },
            5,
        );
        let mut diff = t.clone();
        diff.axpy(-1.0, &t2);
        assert!(diff.norm() > 0.0);
    }

    #[test]
    fn deterministic() {
        let a = density_fitting_tensor(&small_cfg(), 11);
        let b = density_fitting_tensor(&small_cfg(), 11);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        assert!(small_cfg().validate().is_ok());
        let z = ChemistryConfig {
            n_orb: 0,
            ..small_cfg()
        };
        assert!(z.validate().unwrap_err().contains("n_orb"));
        let z = ChemistryConfig {
            n_aux: 0,
            ..small_cfg()
        };
        assert!(z.validate().unwrap_err().contains("n_aux"));
        let z = ChemistryConfig {
            overlap_sigma: 0.0,
            ..small_cfg()
        };
        assert!(z.validate().is_err());
        let z = ChemistryConfig {
            noise: f64::NAN,
            ..small_cfg()
        };
        assert!(z.validate().is_err());
    }
}
