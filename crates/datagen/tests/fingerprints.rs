//! Bit-level fingerprints of the generated datasets.
//!
//! Every golden trace, benchmark gate and serving parity check starts from
//! a generated input, so a generator that changes a single bit changes them
//! all. The golden traces only reach 12×10×11 at rank 4; these fingerprints
//! pin every dense and sparse generator at the ranks the `serve-mix`
//! tenants use (8, 12, 16, 24) and at orders 3–5. Each is an FNV-1a hash of
//! the `to_bits` of every value (and, for sparse tensors, every index).
//! Every dense tensor's `norm_sq()` is pinned beside it: a session's
//! fitness reads that ‖T‖², so it must keep its bits whichever pass
//! computes it.

use pp_datagen::{
    collinearity_tensor, density_fitting_tensor, exact_rank, noisy_rank, powerlaw_sparse,
    sparse_lowrank, timelapse_tensor, ChemistryConfig, CollinearityConfig, TimelapseConfig,
};
use pp_tensor::rng::{gaussian_tensor, seeded};
use pp_tensor::{DenseTensor, SparseTensor};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn values(mut self, xs: &[f64]) -> Self {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
        self
    }

    fn sparse(mut self, t: &SparseTensor) -> Self {
        for &i in t.inds() {
            self.word(u64::from(i));
        }
        self.values(t.vals())
    }
}

fn check(what: &str, got: Fnv, want: u64) {
    assert_eq!(
        got.0, want,
        "{what}: fingerprint {:#018x}, pinned {want:#018x}",
        got.0
    );
}

/// `t`'s ‖T‖² holds its pinned bits, and they are those of one serial
/// pass over the elements in order.
fn check_norm(what: &str, t: &DenseTensor, want: u64) {
    let got = t.norm_sq().to_bits();
    assert_eq!(
        got, want,
        "{what}: norm_sq bits {got:#018x}, pinned {want:#018x}"
    );
    let serial: f64 = t.data().iter().map(|x| x * x).sum();
    assert_eq!(got, serial.to_bits(), "{what}: norm_sq is the serial sum");
}

#[test]
fn exact_rank_bits_are_pinned() {
    for (dims, r, want, norm) in [
        (
            &[9usize, 7, 11][..],
            8usize,
            0xe93b_b13b_21ea_0378u64,
            0x4088_9a20_7238_3fe1u64,
        ),
        (
            &[13, 12, 14],
            16,
            0x7a47_03ce_8ed9_1b4b,
            0x40c2_7f95_2f45_a4a2,
        ),
        (
            &[6, 5, 4, 7],
            12,
            0x5e52_7824_18fe_ea1a,
            0x407d_b701_58ce_32d4,
        ),
        (
            &[5, 4, 3, 4, 3],
            24,
            0xcb8f_d1a8_3dd6_e898,
            0x407e_bf04_0282_b7c9,
        ),
    ] {
        let (t, factors) = exact_rank(dims, r, 41);
        let mut h = Fnv::new().values(t.data());
        for f in &factors {
            h = h.values(f.data());
        }
        let what = format!("exact_rank {dims:?} R{r}");
        check(&what, h, want);
        check_norm(&what, &t, norm);
    }
}

#[test]
fn noisy_rank_bits_are_pinned() {
    for (dims, r, want, norm) in [
        (
            &[10usize, 9, 8][..],
            16usize,
            0x6369_d3ff_1e34_c4fdu64,
            0x40b1_2411_c0bd_de11u64,
        ),
        (
            &[12, 11, 7],
            12,
            0xa8ff_8c8a_998b_a70e,
            0x40aa_b1ac_0d95_c2e4,
        ),
        (
            &[7, 6, 5, 4],
            8,
            0x67cc_2058_6c15_350a,
            0x4073_a6d2_0da6_dbb3,
        ),
        (
            &[8, 9, 10],
            24,
            0x1e6e_09fb_4c5b_c65b,
            0x40c1_55ad_b78b_cd6f,
        ),
    ] {
        let t = noisy_rank(dims, r, 0.05, 42);
        let what = format!("noisy_rank {dims:?} R{r}");
        check(&what, Fnv::new().values(t.data()), want);
        check_norm(&what, &t, norm);
    }
}

#[test]
fn collinearity_bits_are_pinned() {
    for (s, r, order, want, norm) in [
        (
            17usize,
            16usize,
            3usize,
            0x8993_b855_c99a_9c56u64,
            0x405a_0814_f81c_d6fau64,
        ),
        (25, 24, 3, 0x2923_d8cb_1c88_0b99, 0x4069_0c8f_8677_9fd7),
        (13, 12, 4, 0x1798_8675_710e_afd0, 0x4045_15c4_6946_430b),
        (9, 8, 5, 0x7620_ce65_1a19_eac0, 0x402e_f68f_ae95_e70e),
    ] {
        let cfg = CollinearityConfig {
            s,
            r,
            order,
            lo: 0.6,
            hi: 0.8,
        };
        let (t, factors, cs) = collinearity_tensor(&cfg, 43);
        let mut h = Fnv::new().values(t.data()).values(&cs);
        for f in &factors {
            h = h.values(f.data());
        }
        let what = format!("collinearity s{s} R{r} order {order}");
        check(&what, h, want);
        check_norm(&what, &t, norm);
    }
}

#[test]
fn gaussian_tensor_bits_are_pinned() {
    // Odd lengths too: the last Box–Muller pair is then cut in half.
    for (dims, want, norm) in [
        (
            &[9usize, 7, 11][..],
            0x02f1_28d2_c480_3730u64,
            0x4086_6f77_60ae_fe14u64,
        ),
        (&[6, 5, 4, 7], 0x185c_ab40_fc2d_cbcc, 0x408b_9606_3533_d6da),
        (&[5, 3, 3], 0x285d_c442_c2bc_ea48, 0x4046_e251_6b60_7e51),
    ] {
        let t = gaussian_tensor(dims, &mut seeded(46));
        let what = format!("gaussian_tensor {dims:?}");
        check(&what, Fnv::new().values(t.data()), want);
        check_norm(&what, &t, norm);
    }
}

#[test]
fn timelapse_bits_are_pinned() {
    for (h, w, b, times, materials, noise, want, norm) in [
        (
            12usize,
            10usize,
            6usize,
            5usize,
            4usize,
            5e-3,
            0xa994_0bc6_245f_1836u64,
            0x4060_5ddb_a18a_402du64,
        ),
        (
            9,
            11,
            4,
            7,
            6,
            0.05,
            0x6bf1_e7e0_e52d_eed2,
            0x4084_69d7_2b67_423c,
        ),
        (
            8,
            8,
            5,
            3,
            3,
            0.0,
            0x19e2_6b6d_3b46_af7e,
            0x4031_a23b_6967_9a87,
        ),
    ] {
        let cfg = TimelapseConfig {
            height: h,
            width: w,
            bands: b,
            times,
            materials,
            noise,
        };
        let t = timelapse_tensor(&cfg, 47);
        let what = format!("timelapse {h}x{w}x{b}x{times} noise {noise}");
        check(&what, Fnv::new().values(t.data()), want);
        check_norm(&what, &t, norm);
    }
}

#[test]
fn chemistry_bits_are_pinned() {
    for (n_orb, n_aux, noise, want, norm) in [
        (
            12usize,
            30usize,
            0.02,
            0x9186_3a2f_f1a4_7990u64,
            0x40c3_a75d_e7b7_4968u64,
        ),
        (9, 40, 0.1, 0xa55c_3a64_f88f_9b2b, 0x40c0_a602_415e_96d2),
        (10, 16, 0.0, 0x3b03_67fd_591b_4382, 0x40b0_5265_323c_a9fa),
    ] {
        let cfg = ChemistryConfig {
            n_orb,
            n_aux,
            noise,
            ..ChemistryConfig::default()
        };
        let t = density_fitting_tensor(&cfg, 48);
        let what = format!("chemistry n{n_orb} E{n_aux} noise {noise}");
        check(&what, Fnv::new().values(t.data()), want);
        check_norm(&what, &t, norm);
    }
}

#[test]
fn sparse_lowrank_bits_are_pinned() {
    for (dims, r, density, want) in [
        (
            &[40usize, 30, 20][..],
            12usize,
            0.02,
            0x202e_8c5e_86ec_e555u64,
        ),
        (&[32, 32, 8], 8, 0.05, 0xec7d_82fc_4426_6150),
        (&[12, 10, 9, 8], 16, 0.03, 0x46d5_e5c9_05a5_bc2e),
    ] {
        let (t, _) = sparse_lowrank(dims, r, density, 44);
        check(
            &format!("sparse_lowrank {dims:?} R{r}"),
            Fnv::new().sparse(&t),
            want,
        );
    }
}

#[test]
fn powerlaw_sparse_bits_are_pinned() {
    for (dims, samples, skew, want) in [
        (
            &[50usize, 40, 10][..],
            2000usize,
            2.0,
            0xc5a6_bfd3_09a5_ce22u64,
        ),
        (&[30, 20, 10, 6], 1500, 1.5, 0x39ea_dcd1_b0f7_f7b1),
        (&[64, 48], 3000, 3.0, 0x21c3_8f7b_c92e_669e),
    ] {
        let t = powerlaw_sparse(dims, samples, skew, 45);
        check(
            &format!("powerlaw_sparse {dims:?}"),
            Fnv::new().sparse(&t),
            want,
        );
    }
}
