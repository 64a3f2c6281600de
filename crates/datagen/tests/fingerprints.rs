//! Bit-level fingerprints of the generated datasets.
//!
//! Every golden trace, benchmark gate and serving parity check starts from
//! a generated input, so a generator that changes a single bit changes them
//! all. The golden traces only reach 12×10×11 at rank 4; these fingerprints
//! pin every dense and sparse generator at the ranks the `serve-mix`
//! tenants use (8, 12, 16, 24) and at orders 3–5. Each is an FNV-1a hash of
//! the `to_bits` of every value (and, for sparse tensors, every index).

use pp_datagen::{
    collinearity_tensor, exact_rank, noisy_rank, powerlaw_sparse, sparse_lowrank,
    CollinearityConfig,
};
use pp_tensor::SparseTensor;

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

#[test]
fn exact_rank_bits_are_pinned() {
    for (dims, r, want) in [
        (&[9usize, 7, 11][..], 8usize, 0xe93b_b13b_21ea_0378u64),
        (&[13, 12, 14], 16, 0x7a47_03ce_8ed9_1b4b),
        (&[6, 5, 4, 7], 12, 0x5e52_7824_18fe_ea1a),
        (&[5, 4, 3, 4, 3], 24, 0xcb8f_d1a8_3dd6_e898),
    ] {
        let (t, factors) = exact_rank(dims, r, 41);
        let mut h = Fnv::new().values(t.data());
        for f in &factors {
            h = h.values(f.data());
        }
        check(&format!("exact_rank {dims:?} R{r}"), h, want);
    }
}

#[test]
fn noisy_rank_bits_are_pinned() {
    for (dims, r, want) in [
        (&[10usize, 9, 8][..], 16usize, 0x6369_d3ff_1e34_c4fdu64),
        (&[12, 11, 7], 12, 0xa8ff_8c8a_998b_a70e),
        (&[7, 6, 5, 4], 8, 0x67cc_2058_6c15_350a),
        (&[8, 9, 10], 24, 0x1e6e_09fb_4c5b_c65b),
    ] {
        let t = noisy_rank(dims, r, 0.05, 42);
        check(
            &format!("noisy_rank {dims:?} R{r}"),
            Fnv::new().values(t.data()),
            want,
        );
    }
}

#[test]
fn collinearity_bits_are_pinned() {
    for (s, r, order, want) in [
        (17usize, 16usize, 3usize, 0x8993_b855_c99a_9c56u64),
        (25, 24, 3, 0x2923_d8cb_1c88_0b99),
        (13, 12, 4, 0x1798_8675_710e_afd0),
        (9, 8, 5, 0x7620_ce65_1a19_eac0),
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
        check(&format!("collinearity s{s} R{r} order {order}"), h, want);
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
