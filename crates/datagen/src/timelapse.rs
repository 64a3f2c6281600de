//! Time-lapse hyperspectral radiance tensor (§V-A, Tensor 4).
//!
//! The paper uses the "Souto wood pile" scene: 9 captures over a day, 33
//! spectral bands, 1024 × 1344 spatial pixels (1024 × 1344 × 33 × 9). The
//! dataset is not available here; we synthesize a radiance field with the
//! same physics-driven multilinear structure:
//!
//! `L(x, y, λ, t) = Σ_m  reflectance_m(λ) · shape_m(x, y) · illum_m(t)`
//!
//! a handful of materials with smooth spectral reflectances, smooth spatial
//! extent maps, and slowly drifting illumination — plus weak sensor noise.
//! Hyperspectral time-lapses are strongly compressible in exactly this way,
//! which is why the paper sees fitness ≈ 0.83 at R = 50 and a large PP
//! speed-up (Fig. 5f): many ALS sweeps with slowly changing factors.

use pp_tensor::rng::seeded;
use pp_tensor::{DenseTensor, Shape};
use rand::Rng;

/// Configuration for the time-lapse surrogate.
#[derive(Clone, Copy, Debug)]
pub struct TimelapseConfig {
    /// Spatial height (paper: 1024).
    pub height: usize,
    /// Spatial width (paper: 1344).
    pub width: usize,
    /// Spectral bands (paper: 33).
    pub bands: usize,
    /// Time points (paper: 9).
    pub times: usize,
    /// Number of materials in the scene.
    pub materials: usize,
    /// Relative sensor-noise level.
    pub noise: f64,
}

impl Default for TimelapseConfig {
    fn default() -> Self {
        TimelapseConfig {
            height: 128,
            width: 168,
            bands: 33,
            times: 9,
            materials: 12,
            noise: 5e-3,
        }
    }
}

impl TimelapseConfig {
    /// Reject degenerate configurations before any rendering happens: a
    /// zero-sized mode produces an empty tensor that every downstream
    /// consumer (ALS, streaming, serving) would only diagnose much later
    /// as an opaque kernel panic.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("height", self.height),
            ("width", self.width),
            ("bands", self.bands),
            ("times", self.times),
            ("materials", self.materials),
        ] {
            if v == 0 {
                return Err(format!("timelapse config: {name} must be positive"));
            }
        }
        if !self.noise.is_finite() || self.noise < 0.0 {
            return Err(format!(
                "timelapse config: noise must be finite and >= 0, got {}",
                self.noise
            ));
        }
        Ok(())
    }
}

/// Render the tensor `height × width × bands × times`. With noise, the
/// tensor remembers its ‖T‖², summed as the noise is added.
pub fn timelapse_tensor(cfg: &TimelapseConfig, seed: u64) -> DenseTensor {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    let mut rng = seeded(seed);
    let (h, w, b, nt) = (cfg.height, cfg.width, cfg.bands, cfg.times);

    // Per-material components.
    struct Material {
        cx: f64,
        cy: f64,
        sx: f64,
        sy: f64,
        peak: f64,
        width: f64,
        phase: f64,
        amp: f64,
    }
    let mats: Vec<Material> = (0..cfg.materials)
        .map(|_| Material {
            cx: rng.random::<f64>(),
            cy: rng.random::<f64>(),
            sx: 0.08 + 0.25 * rng.random::<f64>(),
            sy: 0.08 + 0.25 * rng.random::<f64>(),
            peak: rng.random::<f64>(),
            width: 0.08 + 0.3 * rng.random::<f64>(),
            phase: rng.random::<f64>(),
            amp: 0.5 + rng.random::<f64>(),
        })
        .collect();

    // Factor curves.
    let spatial: Vec<Vec<f64>> = mats
        .iter()
        .map(|m| {
            let mut v = vec![0.0; h * w];
            for x in 0..h {
                for y in 0..w {
                    let dx = (x as f64 / h as f64 - m.cx) / m.sx;
                    let dy = (y as f64 / w as f64 - m.cy) / m.sy;
                    v[x * w + y] = (-0.5 * (dx * dx + dy * dy)).exp();
                }
            }
            v
        })
        .collect();
    let spectra: Vec<Vec<f64>> = mats
        .iter()
        .map(|m| {
            (0..b)
                .map(|k| {
                    let lam = k as f64 / b as f64;
                    let d = (lam - m.peak) / m.width;
                    (-0.5 * d * d).exp() + 0.1
                })
                .collect()
        })
        .collect();
    let illum: Vec<Vec<f64>> = mats
        .iter()
        .map(|m| {
            (0..nt)
                .map(|t| {
                    // Daylight arc with material-specific shading phase.
                    let tau = t as f64 / (nt.max(2) - 1) as f64;
                    let sun = (std::f64::consts::PI * tau).sin();
                    // Keep the historical 6.28 literal: swapping in TAU
                    // would silently change every generated dataset value
                    // and break reproducibility of recorded runs.
                    #[allow(clippy::approx_constant)]
                    let phase = m.phase * 6.28 + tau * 3.0;
                    m.amp * (0.2 + sun * (0.7 + 0.3 * phase.cos()))
                })
                .collect()
        })
        .collect();

    let shape = Shape::new(vec![h, w, b, nt]);
    let mut data = vec![0.0f64; shape.len()];
    for m in 0..cfg.materials {
        let sp = &spatial[m];
        let sc = &spectra[m];
        let il = &illum[m];
        for x in 0..h {
            for y in 0..w {
                let sv = sp[x * w + y];
                if sv < 1e-6 {
                    continue;
                }
                let base = (x * w + y) * b * nt;
                for (k, &scv) in sc.iter().enumerate() {
                    let svk = sv * scv;
                    let off = base + k * nt;
                    for (t, &ilv) in il.iter().enumerate() {
                        data[off + t] += svk * ilv;
                    }
                }
            }
        }
    }
    let mut t = DenseTensor::from_vec(shape, data);
    if cfg.noise > 0.0 {
        let norm = t.norm();
        let scale = cfg.noise * norm / (t.len() as f64).sqrt();
        t.map_norm_sq(|x| x + scale * (rng.random::<f64>() - 0.5) * 2.0);
    }
    t
}

/// The mode along which a time-lapse tensor evolves (time is last).
pub const TIME_MODE: usize = 3;

/// Arrival-ordered slices of a time-lapse tensor for streaming CP.
///
/// The generator's noise is drawn per element in linear order over the
/// *whole* tensor and the illumination curve depends on the full horizon,
/// so slices cannot be rendered independently: the stream renders the full
/// `cfg.times` horizon once and carves it. An initial prefix of
/// `initial` time points is followed by `(times - initial) / arrive`
/// arrivals of `arrive` time points each — every carved piece is
/// bit-identical to the corresponding region of [`timelapse_tensor`].
pub struct TimelapseStream {
    full: DenseTensor,
    initial: usize,
    arrive: usize,
}

impl TimelapseStream {
    /// Render the full horizon and set up the arrival schedule.
    /// `initial` time points are served up front; the remaining
    /// `cfg.times - initial` must divide evenly into slices of `arrive`.
    pub fn new(
        cfg: &TimelapseConfig,
        seed: u64,
        initial: usize,
        arrive: usize,
    ) -> Result<Self, String> {
        cfg.validate()?;
        if initial == 0 || initial >= cfg.times {
            return Err(format!(
                "streaming needs 0 < initial-times < times, got {initial} of {}",
                cfg.times
            ));
        }
        if arrive == 0 {
            return Err("arrival slice thickness must be positive".into());
        }
        let rest = cfg.times - initial;
        if !rest.is_multiple_of(arrive) {
            return Err(format!(
                "remaining {rest} time points do not divide into slices of {arrive}"
            ));
        }
        Ok(TimelapseStream {
            full: timelapse_tensor(cfg, seed),
            initial,
            arrive,
        })
    }

    /// The initial tensor (first `initial` time points).
    pub fn initial(&self) -> DenseTensor {
        self.full.slice_along(TIME_MODE, 0, self.initial)
    }

    /// Number of arrivals after the initial tensor.
    pub fn n_arrivals(&self) -> usize {
        (self.full.dim(TIME_MODE) - self.initial) / self.arrive
    }

    /// The `i`-th arriving slice (`arrive` time points thick).
    pub fn slice(&self, i: usize) -> DenseTensor {
        assert!(i < self.n_arrivals(), "arrival {i} out of range");
        self.full
            .slice_along(TIME_MODE, self.initial + i * self.arrive, self.arrive)
    }

    /// The tensor as of `extent` time points — what a from-scratch rebuild
    /// at that arrival would decompose (checkpoint resume re-derives the
    /// input from this).
    pub fn prefix(&self, extent: usize) -> DenseTensor {
        assert!(
            extent <= self.full.dim(TIME_MODE),
            "prefix extent {extent} beyond horizon"
        );
        self.full.slice_along(TIME_MODE, 0, extent)
    }

    /// The full-horizon tensor.
    pub fn full(&self) -> &DenseTensor {
        &self.full
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TimelapseConfig {
        TimelapseConfig {
            height: 12,
            width: 14,
            bands: 8,
            times: 5,
            materials: 3,
            noise: 0.0,
        }
    }

    #[test]
    fn shape_matches_config() {
        let t = timelapse_tensor(&tiny(), 1);
        assert_eq!(t.shape().dims(), &[12, 14, 8, 5]);
        assert!(t.norm() > 0.0);
    }

    #[test]
    fn the_noise_pass_hands_over_the_serial_norm() {
        let noisy = TimelapseConfig {
            noise: 0.02,
            ..tiny()
        };
        let t = timelapse_tensor(&noisy, 3);
        let serial: f64 = t.data().iter().map(|x| x * x).sum();
        let handed = t.remembered_norm_sq().expect("the noise pass sums it");
        assert_eq!(handed.to_bits(), serial.to_bits());
    }

    #[test]
    fn noiseless_tensor_has_low_multilinear_rank() {
        // With M materials and no noise the tensor is a sum of M rank-one
        // (spatial ⊗ spectral ⊗ temporal) terms once the spatial modes are
        // flattened — its CP rank over modes (xy, λ, t) is ≤ M. Verify a
        // necessary condition cheaply: every 2-D slice (fixed λ, t) is a
        // linear combination of M spatial maps, so the slice space has
        // dimension ≤ M.
        let cfg = tiny();
        let t = timelapse_tensor(&cfg, 2);
        // Collect slices as vectors.
        let hw = 12 * 14;
        let mut slices: Vec<Vec<f64>> = Vec::new();
        for k in 0..8 {
            for tt in 0..5 {
                let mut v = vec![0.0; hw];
                for x in 0..12 {
                    for y in 0..14 {
                        v[x * 14 + y] = t.get(&[x, y, k, tt]);
                    }
                }
                slices.push(v);
            }
        }
        // Gram-Schmidt rank estimate.
        let mut basis: Vec<Vec<f64>> = Vec::new();
        for mut s in slices {
            for b in &basis {
                let dot: f64 = s.iter().zip(b).map(|(a, c)| a * c).sum();
                for (x, y) in s.iter_mut().zip(b) {
                    *x -= dot * y;
                }
            }
            let n: f64 = s.iter().map(|x| x * x).sum::<f64>().sqrt();
            if n > 1e-8 {
                for x in s.iter_mut() {
                    *x /= n;
                }
                basis.push(s);
            }
        }
        assert!(
            basis.len() <= cfg.materials,
            "rank {} > {}",
            basis.len(),
            cfg.materials
        );
    }

    #[test]
    fn illumination_brightens_midday() {
        let t = timelapse_tensor(&tiny(), 3);
        let total = |tt: usize| -> f64 {
            let mut s = 0.0;
            for x in 0..12 {
                for y in 0..14 {
                    for k in 0..8 {
                        s += t.get(&[x, y, k, tt]);
                    }
                }
            }
            s
        };
        assert!(total(2) > total(0), "midday must outshine dawn");
    }

    #[test]
    fn deterministic() {
        let a = timelapse_tensor(&tiny(), 4);
        let b = timelapse_tensor(&tiny(), 4);
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn validate_rejects_zero_dims() {
        for field in 0..5 {
            let mut cfg = tiny();
            match field {
                0 => cfg.height = 0,
                1 => cfg.width = 0,
                2 => cfg.bands = 0,
                3 => cfg.times = 0,
                _ => cfg.materials = 0,
            }
            let err = cfg.validate().expect_err("zero dim must be rejected");
            assert!(err.contains("must be positive"), "{err}");
        }
        let cfg = TimelapseConfig {
            noise: -0.1,
            ..tiny()
        };
        assert!(cfg.validate().is_err(), "negative noise must be rejected");
        assert!(tiny().validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn generator_panics_on_invalid_config() {
        let cfg = TimelapseConfig { times: 0, ..tiny() };
        let _ = timelapse_tensor(&cfg, 1);
    }

    #[test]
    fn stream_slices_recompose_the_full_tensor() {
        let cfg = tiny(); // times = 5
        let stream = TimelapseStream::new(&cfg, 9, 3, 1).expect("valid schedule");
        assert_eq!(stream.n_arrivals(), 2);
        let full = timelapse_tensor(&cfg, 9);
        assert_eq!(stream.initial().shape().dims(), &[12, 14, 8, 3]);
        assert_eq!(
            stream.initial().data(),
            full.slice_along(TIME_MODE, 0, 3).data()
        );
        for i in 0..stream.n_arrivals() {
            assert_eq!(
                stream.slice(i).data(),
                full.slice_along(TIME_MODE, 3 + i, 1).data(),
                "arrival {i}"
            );
            assert_eq!(
                stream.prefix(3 + (i + 1)).data(),
                full.slice_along(TIME_MODE, 0, 3 + (i + 1)).data(),
                "prefix after arrival {i}"
            );
        }
    }

    #[test]
    fn stream_rejects_bad_schedules() {
        let cfg = tiny(); // times = 5
        assert!(TimelapseStream::new(&cfg, 1, 0, 1).is_err(), "initial 0");
        assert!(TimelapseStream::new(&cfg, 1, 5, 1).is_err(), "no arrivals");
        assert!(TimelapseStream::new(&cfg, 1, 3, 0).is_err(), "slice 0");
        assert!(
            TimelapseStream::new(&cfg, 1, 2, 2).is_err(),
            "3 remaining not divisible by 2"
        );
        assert!(TimelapseStream::new(&cfg, 1, 1, 2).is_ok());
    }
}
