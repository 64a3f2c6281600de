//! Property-based parity of the CSF sparse MTTKRP against the pointwise
//! dense oracle: for random shapes, densities, skews, and target modes,
//! `sparse_mttkrp` on the CSF forest must be **bitwise** equal to
//! `mttkrp_pointwise` on the densified tensor — the same
//! one-accumulator-per-element / ascending-mode-product contract that
//! makes `PP_NUM_THREADS` a pure performance knob for sparse inputs.

use parallel_pp::datagen::powerlaw_sparse;
use parallel_pp::tensor::kernels::mttv::mttv;
use parallel_pp::tensor::kernels::naive::mttkrp_pointwise;
use parallel_pp::tensor::kernels::ttm::ttm;
use parallel_pp::tensor::rng::{seeded, uniform_matrix};
use parallel_pp::tensor::semisparse::{csf_ttm, semisparse_mttkrp, ss_mttv, TtmPlan};
use parallel_pp::tensor::sparse::{sparse_mttkrp, CsfTensor, SparseTensor};
use parallel_pp::tensor::Matrix;
use proptest::prelude::*;

/// Shape menus spanning orders 3 to 5, with ragged/prime extents so fiber
/// boundaries never align with chunk boundaries. Sample counts run from
/// empty through ~10% density on the smallest shape.
const SHAPES: &[&[usize]] = &[
    &[6, 5, 4],
    &[9, 8, 7],
    &[13, 4, 11],
    &[17, 16, 3],
    &[5, 4, 3, 3],
    &[7, 6, 5, 4],
    &[5, 4, 3, 4, 3],
];
/// Orders 3–5 for the free-position mTTV chain (first levels of 2–4
/// surviving levels).
const CHAIN_SHAPES: &[&[usize]] = &[&[9, 8, 7], &[7, 6, 5, 4], &[5, 4, 3, 4, 3]];
const SAMPLES: &[usize] = &[0, 1, 7, 40, 150, 600];
const SKEWS: &[f64] = &[1.0, 1.6, 2.5];
/// CSF MTTKRP ranks: every rank up to 9, the walk's own widths (8, 16,
/// 32) and ranks it runs zero-padded (12, 24).
const RANKS: &[usize] = &[1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 24, 32];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn csf_mttkrp_matches_pointwise_oracle_bitwise(
        si in 0usize..SHAPES.len(),
        ci in 0usize..SAMPLES.len(),
        ki in 0usize..SKEWS.len(),
        ri in 0usize..RANKS.len(),
        data_seed in 0u64..500,
        factor_seed in 0u64..500,
    ) {
        let dims = SHAPES[si];
        let rank = RANKS[ri];
        let sp = powerlaw_sparse(dims, SAMPLES[ci], SKEWS[ki], data_seed);
        let csf = CsfTensor::build(&sp);
        let dense = sp.to_dense();
        let mut rng = seeded(factor_seed);
        let factors: Vec<_> = dims
            .iter()
            .map(|&d| uniform_matrix(d, rank, &mut rng))
            .collect();
        for n in 0..dims.len() {
            let got = sparse_mttkrp(&csf, &factors, n);
            let want = mttkrp_pointwise(&dense, &factors, n);
            prop_assert!(
                got.data() == want.data(),
                "dims {:?} nnz {} rank {} mode {}: CSF diverges from oracle",
                dims, sp.nnz(), rank, n
            );
        }
    }

    #[test]
    fn csf_ttm_matches_densified_ttm_bitwise(
        si in 0usize..SHAPES.len(),
        ci in 0usize..SAMPLES.len(),
        ki in 0usize..SKEWS.len(),
        rank in 1usize..9,
        data_seed in 0u64..500,
        factor_seed in 0u64..500,
    ) {
        // The semi-sparse TTM must equal — bit for bit — the dense TTM on
        // the densified tensor, for every contraction mode. Structural
        // zeros contribute exact +0.0 terms in the dense kernel, so
        // skipping them is a bitwise no-op.
        let dims = SHAPES[si];
        let sp = powerlaw_sparse(dims, SAMPLES[ci], SKEWS[ki], data_seed);
        let dense = sp.to_dense();
        let mut rng = seeded(factor_seed);
        let factors: Vec<_> = dims
            .iter()
            .map(|&d| uniform_matrix(d, rank, &mut rng))
            .collect();
        for (mode, factor) in factors.iter().enumerate() {
            let plan = TtmPlan::build(&sp, mode);
            let got = csf_ttm(&sp, &plan, factor).to_dense();
            let want = ttm(&dense, mode, factor).tensor;
            prop_assert!(
                got.data() == want.data(),
                "dims {:?} nnz {} rank {} mode {}: csf_ttm diverges from dense TTM",
                dims, sp.nnz(), rank, mode
            );
        }
    }

    #[test]
    fn semisparse_mttkrp_matches_densified_chain_bitwise(
        si in 0usize..SHAPES.len(),
        ci in 0usize..SAMPLES.len(),
        rank in 1usize..7,
        data_seed in 0u64..500,
        factor_seed in 0u64..500,
        pick in 0usize..8,
    ) {
        // Full chain parity: first level via csf_ttm on a proptest-chosen
        // mode k ≠ n, then semisparse_mttkrp down to M^(n), against the
        // identical dense chain (same TTM mode, same last-position-first
        // TTV order) on the densified tensor.
        let dims = SHAPES[si];
        let order = dims.len();
        let sp = powerlaw_sparse(dims, SAMPLES[ci], SKEWS[1], data_seed);
        let mut rng = seeded(factor_seed);
        let factors: Vec<_> = dims
            .iter()
            .map(|&d| uniform_matrix(d, rank, &mut rng))
            .collect();
        for n in 0..order {
            let k = (0..order).filter(|&m| m != n).nth(pick % (order - 1)).unwrap();
            let plan = TtmPlan::build(&sp, k);
            let ss = csf_ttm(&sp, &plan, &factors[k]);
            let mode_order: Vec<usize> = (0..order).filter(|&m| m != k).collect();
            let got = semisparse_mttkrp(&ss, &mode_order, &factors, n);

            let mut cur = ttm(&sp.to_dense(), k, &factors[k]).tensor;
            let mut ord = mode_order.clone();
            while ord.len() > 1 {
                let pos = (0..ord.len()).rev().find(|&p| ord[p] != n).unwrap();
                cur = mttv(&cur, pos, &factors[ord[pos]]).tensor;
                ord.remove(pos);
            }
            let want = Matrix::from_vec(dims[n], rank, cur.into_vec());
            prop_assert!(
                got.data() == want.data(),
                "dims {:?} nnz {} rank {} n {} k {}: chain diverges from dense",
                dims, sp.nnz(), rank, n, k
            );
        }
    }

    #[test]
    fn ss_mttv_matches_densified_mttv_at_every_position(
        si in 0usize..CHAIN_SHAPES.len(),
        ci in 0usize..SAMPLES.len(),
        rank in 1usize..7,
        data_seed in 0u64..500,
        factor_seed in 0u64..500,
        k_pick in 0usize..5,
        pos_picks in prop::collection::vec(0usize..12, 3..=3),
    ) {
        // Walk a whole contraction chain with the position drawn freely at
        // every step (first, middle, last — not just the sort-free last
        // one): after each `ss_mttv` the semi-sparse tensor must densify to
        // exactly what the dense `mttv` makes of the densified parent.
        let dims = CHAIN_SHAPES[si];
        let order = dims.len();
        let sp = powerlaw_sparse(dims, SAMPLES[ci], SKEWS[1], data_seed);
        let mut rng = seeded(factor_seed);
        let factors: Vec<_> = dims
            .iter()
            .map(|&d| uniform_matrix(d, rank, &mut rng))
            .collect();
        let k = k_pick % order;
        let mut ss = csf_ttm(&sp, &TtmPlan::build(&sp, k), &factors[k]);
        let mut dense = ttm(&sp.to_dense(), k, &factors[k]).tensor;
        let mut modes: Vec<usize> = (0..order).filter(|&m| m != k).collect();
        for pick in pos_picks {
            if modes.len() < 2 {
                break;
            }
            let pos = pick % modes.len();
            let factor = &factors[modes.remove(pos)];
            ss = ss_mttv(&ss, pos, factor);
            dense = mttv(&dense, pos, factor).tensor;
            prop_assert!(
                ss.to_dense().data() == dense.data(),
                "dims {:?} nnz {} rank {} k {} pos {} ({} levels left): ss_mttv diverges",
                dims, sp.nnz(), rank, k, pos, modes.len()
            );
        }
    }

    #[test]
    fn coo_ingest_accumulates_like_dense(
        si in 0usize..SHAPES.len(),
        draws in 0usize..120,
        seed in 0u64..500,
    ) {
        // Unsorted COO input with intentional duplicates: `from_coo` must
        // sort, merge duplicates by summation in sorted order, and drop
        // exact zeros — i.e. round-trip through `to_dense` to the same
        // array a manual scatter-accumulate produces.
        let dims = SHAPES[si];
        let volume: usize = dims.iter().product();
        let mut rng = seeded(seed ^ 0xC0C0);
        let mut lcg = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = |m: usize| {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((lcg >> 33) as usize) % m
        };
        let vals_src = uniform_matrix(draws.max(1), 1, &mut rng);
        let mut inds = Vec::with_capacity(draws * dims.len());
        let mut vals = Vec::with_capacity(draws);
        let mut manual = vec![0.0f64; volume];
        for d in 0..draws {
            let mut lin = 0usize;
            for &ext in dims {
                let i = next(ext);
                inds.push(i);
                lin = lin * ext + i;
            }
            // Duplicate roughly a third of the coordinates.
            let v = vals_src.data()[d];
            vals.push(v);
            manual[lin] += v;
            if next(3) == 0 {
                let start = inds.len() - dims.len();
                let coord: Vec<usize> = inds[start..].to_vec();
                inds.extend_from_slice(&coord);
                vals.push(0.5 * v);
                manual[lin] += 0.5 * v;
            }
        }
        let sp = SparseTensor::from_coo(dims.to_vec(), inds, vals);
        prop_assert!(sp.nnz() <= volume);
        let dense = sp.to_dense();
        prop_assert_eq!(dense.data(), &manual[..]);
    }
}
