//! Property-based parity of the strip GEMM against its numeric contract,
//! written out as a scalar loop (`contract_gemm`: one accumulator per
//! element from 0, `l` ascending within 256-deep panels, `c += α·acc` per
//! panel; fused at the AVX levels, multiply-then-add at the scalar one) and
//! compared **bitwise**: all four `Trans` combinations, odd/prime edge
//! dimensions (every short strip, padded width and column block), and
//! α/β ∈ {0, 1, other} — accumulate, overwrite, and scale semantics.

use parallel_pp::tensor::gemm::{gemm_slice, panel_kc, small_work_limit, Trans};
use parallel_pp::tensor::rng::{seeded, uniform_matrix};
use parallel_pp::tensor::Matrix;
use proptest::prelude::*;

#[path = "../crates/tensor/tests/common/mod.rs"]
mod common;

/// Odd/prime-heavy dimension menus: m crosses strip (6/8/12) and block
/// (192) boundaries, n covers the whole-vector widths 8/16/24/32, ragged
/// widths around them and two column blocks, k crosses the 256-deep panel
/// boundary.
const MS: &[usize] = &[1, 3, 7, 8, 9, 17, 31, 64, 67, 129, 197];
const NS: &[usize] = &[1, 2, 5, 7, 8, 9, 13, 16, 17, 23, 24, 32, 37, 48];
const KS: &[usize] = &[1, 2, 5, 11, 37, 96, 131, 256, 257, 300];
const ALPHAS: &[f64] = &[0.0, 1.0, -1.5];
const BETAS: &[f64] = &[0.0, 1.0, 0.5];

fn trans_of(bit: usize) -> Trans {
    if bit == 1 {
        Trans::Yes
    } else {
        Trans::No
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn gemm_matches_contract_oracle_bitwise(
        mi in 0usize..MS.len(),
        ni in 0usize..NS.len(),
        ki in 0usize..KS.len(),
        ta_bit in 0usize..2,
        tb_bit in 0usize..2,
        ai in 0usize..ALPHAS.len(),
        bi in 0usize..BETAS.len(),
        seed in 0u64..1000,
    ) {
        let (m, n, k) = (MS[mi], NS[ni], KS[ki]);
        let (ta, tb) = (trans_of(ta_bit), trans_of(tb_bit));
        let (alpha, beta) = (ALPHAS[ai], BETAS[bi]);
        let (ar, ac) = match ta {
            Trans::No => (m, k),
            Trans::Yes => (k, m),
        };
        let (br, bc) = match tb {
            Trans::No => (k, n),
            Trans::Yes => (n, k),
        };
        let mut rng = seeded(seed);
        let a = uniform_matrix(ar, ac, &mut rng);
        let b = uniform_matrix(br, bc, &mut rng);
        let c0 = uniform_matrix(m, n, &mut rng);

        let mut got = c0.clone();
        gemm_slice(
            ta, tb, alpha,
            a.data(), ar, ac,
            b.data(), br, bc,
            beta,
            got.data_mut(), m, n,
        );
        let mut want = c0.clone();
        common::contract_gemm(
            (m, n, k),
            (a.data(), ta == Trans::Yes),
(b.data(), tb == Trans::Yes),
            alpha,
            beta,
            want.data_mut(),
            panel_kc(),
            small_work_limit(),
        );
        prop_assert!(
            got.data().iter().zip(want.data()).all(|(g, w)| g.to_bits() == w.to_bits()),
            "({m},{n},{k}) {ta:?},{tb:?} α={alpha} β={beta}: max diff {}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn packed_matmul_respects_identity(
        mi in 0usize..MS.len(),
        ni in 0usize..NS.len(),
        seed in 0u64..1000,
    ) {
        // A·I = A through the strip path (n picks the strip shape).
        let (m, n) = (MS[mi], NS[ni]);
        let mut rng = seeded(seed);
        let a = uniform_matrix(m, n, &mut rng);
        let id = Matrix::identity(n);
        let got = a.matmul(&id);
        prop_assert!(got.max_abs_diff(&a) < 1e-12);
    }
}
