//! Property-based parity of the strip GEMM against its numeric contract,
//! written out as a scalar loop (`contract_gemm`: one accumulator per
//! element from 0, `l` ascending within 256-deep panels, `c += α·acc` per
//! panel; fused at the AVX levels, multiply-then-add at the scalar one) and
//! compared **bitwise**: all four `Trans` combinations, odd/prime edge
//! dimensions (every short strip, padded width and column block), and
//! α/β ∈ {0, 1, other} — accumulate, overwrite, and scale semantics; then
//! tall products and stacked transposed ones at pool widths 1 and 4.

use parallel_pp::tensor::gemm::{gemm_slice, panel_kc, small_work_limit, Trans};
use parallel_pp::tensor::kernels::ttm::ttm_at;
use parallel_pp::tensor::rng::{seeded, uniform_matrix, uniform_tensor};
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

/// `C ← α·op(A)·B + β·C` through `gemm_slice` at pool width `width`, bits.
#[allow(clippy::too_many_arguments)]
fn strip_gemm_bits(
    width: usize,
    ta: Trans,
    (m, n, k): (usize, usize, usize),
    a: &Matrix,
    b: &Matrix,
    c0: &Matrix,
    alpha: f64,
    beta: f64,
) -> Vec<u64> {
    let _width = rayon::scoped_num_threads(width);
    let mut c = c0.clone();
    gemm_slice(
        ta,
        Trans::No,
        alpha,
        a.data(),
        a.rows(),
        a.cols(),
        b.data(),
        k,
        n,
        beta,
        c.data_mut(),
        m,
        n,
    );
    c.data().iter().map(|x| x.to_bits()).collect()
}

/// Tall products the menus above stop short of, bitwise against the
/// contract at pool widths 1 and 4: row counts whose row chunks hold
/// several 192-row blocks or accumulator tiles (so a strip's next strip,
/// or the next stored rows a strip hints, lie across a block, tile or chunk
/// boundary), two- and three-panel depths, and every column-block width
/// (ragged 5, 12 and 24, one whole 32-wide block, two blocks at 40).
#[test]
fn tall_products_match_the_contract_at_widths_1_and_4() {
    let cases = [
        (385, 40, 257),
        (385, 32, 515),
        (1000, 24, 257),
        (1000, 12, 515),
        (4099, 5, 515),
        (4099, 32, 257),
    ];
    for (case, &(m, n, k)) in cases.iter().enumerate() {
        for ta in [Trans::No, Trans::Yes] {
            let mut rng = seeded(case as u64 + 70);
            let a = match ta {
                Trans::No => uniform_matrix(m, k, &mut rng),
                Trans::Yes => uniform_matrix(k, m, &mut rng),
            };
            let b = uniform_matrix(k, n, &mut rng);
            let c0 = uniform_matrix(m, n, &mut rng);
            let (alpha, beta) = (-1.5, 0.5);
            let mut want = c0.clone();
            common::contract_gemm(
                (m, n, k),
                (a.data(), ta == Trans::Yes),
                (b.data(), false),
                alpha,
                beta,
                want.data_mut(),
                panel_kc(),
                small_work_limit(),
            );
            let want: Vec<u64> = want.data().iter().map(|x| x.to_bits()).collect();
            for width in [1, 4] {
                let got = strip_gemm_bits(width, ta, (m, n, k), &a, &b, &c0, alpha, beta);
                assert!(got == want, "({m},{n},{k}) {ta:?} at width {width}");
            }
        }
    }
}

/// A batch of transposed products — one per slab of a TTM that contracts
/// a mode where it sits — runs as one product over the stacked rows, so
/// strips, tiles and row chunks meet slab boundaries anywhere. Each slab
/// must still equal the contract on its own, bit for bit, at pool widths 1
/// and 4: slabs of 97, 385 and 1000 rows, depths 257 and 515.
#[test]
fn stacked_transposed_products_match_the_contract_slab_by_slab() {
    for (case, (batch, k, slab_rows, r)) in
        [(7, 257, 97, 24), (3, 515, 385, 40), (2, 257, 1000, 12)]
            .into_iter()
            .enumerate()
    {
        let mut rng = seeded(case as u64 + 90);
        let t = uniform_tensor(&[batch, k, slab_rows], &mut rng);
        let factor = uniform_matrix(k, r, &mut rng);
        for width in [1, 4] {
            let _width = rayon::scoped_num_threads(width);
            let out = ttm_at(&t, 1, &factor);
            for (slab, (a, got)) in t
                .data()
                .chunks(k * slab_rows)
                .zip(out.data().chunks(slab_rows * r))
                .enumerate()
            {
                let mut want = vec![0.0; slab_rows * r];
                common::contract_gemm(
                    (slab_rows, r, k),
                    (a, true),
                    (factor.data(), false),
                    1.0,
                    0.0,
                    &mut want,
                    panel_kc(),
                    small_work_limit(),
                );
                assert!(
                    got.iter()
                        .zip(&want)
                        .all(|(g, w)| g.to_bits() == w.to_bits()),
                    "slab {slab} of {batch}×{k}×{slab_rows} at R {r}, width {width}"
                );
            }
        }
    }
}
