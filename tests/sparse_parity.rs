//! Property-based parity of the CSF sparse MTTKRP against the pointwise
//! dense oracle: for random shapes, densities, skews, and target modes,
//! `sparse_mttkrp` on the CSF forest must be **bitwise** equal to
//! `mttkrp_pointwise` on the densified tensor — the same
//! one-accumulator-per-element / ascending-mode-product contract that
//! makes `PP_NUM_THREADS` a pure performance knob for sparse inputs.
//!
//! The PP pair walk over the same forest is pinned the same way: at
//! order 3 against the semi-sparse TTM, above against the pointwise pair
//! oracle of `tests/common`.

use parallel_pp::core::{AlsConfig, AlsSession, SessionKind};
use parallel_pp::datagen::powerlaw_sparse;
use parallel_pp::dtree::TreePolicy;
use parallel_pp::tensor::gemm::{panel_kc, small_work_limit};
use parallel_pp::tensor::kernels::mttv::mttv;
use parallel_pp::tensor::kernels::naive::mttkrp_pointwise;
use parallel_pp::tensor::kernels::ttm::ttm;
use parallel_pp::tensor::rng::{seeded, uniform_matrix};
use parallel_pp::tensor::semisparse::{csf_ttm, semisparse_mttkrp, ss_mttv, TtmPlan};
use parallel_pp::tensor::sparse::{csf_pair_in, sparse_mttkrp, CsfTensor, SparseTensor};
use parallel_pp::tensor::{Matrix, Workspace};
use proptest::prelude::*;

mod common;
use common::{override_lock, pair_pointwise};

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

/// Pair-walk ranks: the walk's constant widths and a generic one.
const PAIR_RANKS: &[usize] = &[8, 16, 32, 5];
/// Pool widths every pair case runs at.
const WIDTHS: &[usize] = &[1, 2, 4];

fn factors_for(dims: &[usize], rank: usize, seed: u64) -> Vec<Matrix> {
    let mut rng = seeded(seed);
    dims.iter()
        .map(|&d| uniform_matrix(d, rank, &mut rng))
        .collect()
}

fn pairs(order: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..order).flat_map(move |i| (i + 1..order).map(move |j| (i, j)))
}

/// At order 3 the pair walk is the semi-sparse TTM of the third mode,
/// densified, bit for bit: on both sides of the dense GEMM's small/packed
/// dispatch, with the contracted mode inside one KC panel or across three
/// (at the fiber level of some trees and the leaf level of others), at
/// every pool width.
#[test]
fn order3_pair_walk_matches_the_semisparse_ttm_bitwise() {
    let _serial = override_lock();
    let deep = 2 * panel_kc() + 5;
    let small: &[usize] = &[3, 4, 2];
    let cases: [(&[usize], usize); 5] = [
        (small, 20),
        (&[40, 30, 20], 6000),
        (&[deep, 40, 30], 6000),
        (&[40, deep, 30], 6000),
        (&[40, 30, deep], 6000),
    ];
    for (dims, samples) in cases {
        let sp = powerlaw_sparse(dims, samples, 1.0, 7);
        let csf = CsfTensor::build(&sp);
        let volume: usize = dims.iter().product();
        for &r in PAIR_RANKS {
            assert_eq!(volume * r < small_work_limit(), dims == small, "{dims:?}");
            let factors = factors_for(dims, r, 100 + r as u64);
            for (i, j) in pairs(3) {
                let k = 3 - i - j;
                let want = csf_ttm(&sp, &TtmPlan::build(&sp, k), &factors[k]).to_dense();
                for &width in WIDTHS {
                    let _w = rayon::scoped_num_threads(width);
                    let got = csf_pair_in(&Workspace::new(), &csf, &factors, i, j);
                    assert_eq!(got.shape(), want.shape());
                    assert!(
                        got.data() == want.data(),
                        "dims {dims:?} rank {r} pair ({i}, {j}) width {width}"
                    );
                }
            }
        }
    }
}

/// At orders 4 and 5 the pair walk is the pointwise oracle's, bit for bit,
/// at every pool width, and agrees with the semi-sparse chain (`csf_ttm` of
/// one mode outside the pair, then `ss_mttv` of the others: another
/// association) to 1e-12 relative.
#[test]
fn deep_pair_walk_matches_the_pointwise_oracle_and_the_chain() {
    let _serial = override_lock();
    let cases: [(&[usize], usize); 2] = [(&[12, 9, 10, 8], 6000), (&[9, 8, 7, 6, 5], 6000)];
    for (dims, samples) in cases {
        let order = dims.len();
        let sp = powerlaw_sparse(dims, samples, 1.0, 11);
        let csf = CsfTensor::build(&sp);
        let plans: Vec<TtmPlan> = (0..order).map(|k| TtmPlan::build(&sp, k)).collect();
        for &r in PAIR_RANKS {
            let factors = factors_for(dims, r, 200 + r as u64);
            for (i, j) in pairs(order) {
                let want = pair_pointwise(&sp, &factors, i, j);
                // Levels stay in ascending mode order, so the survivors
                // are (i, j): the layout of `want`.
                let mut rest: Vec<usize> = (0..order).filter(|&m| m != i && m != j).collect();
                let k = rest.remove(0);
                let mut levels: Vec<usize> = (0..order).filter(|&m| m != k).collect();
                let mut ss = csf_ttm(&sp, &plans[k], &factors[k]);
                for &m in rest.iter().rev() {
                    let pos = levels.iter().position(|&x| x == m).unwrap();
                    ss = ss_mttv(&ss, pos, &factors[m]);
                    levels.remove(pos);
                }
                let chained = ss.to_dense();
                let scale = want.data().iter().fold(0.0f64, |a, x| a.max(x.abs()));
                let diff = chained.max_abs_diff(&want);
                assert!(
                    diff <= 1e-12 * scale,
                    "dims {dims:?} rank {r} pair ({i}, {j}): chain off by {diff:e}"
                );
                for &width in WIDTHS {
                    let _w = rayon::scoped_num_threads(width);
                    let got = csf_pair_in(&Workspace::new(), &csf, &factors, i, j);
                    assert!(
                        got.data() == want.data(),
                        "dims {dims:?} rank {r} pair ({i}, {j}) width {width}"
                    );
                }
            }
        }
    }
}

/// A `dt` session on a `sparse3`-like tensor (uniform at 1 %, 96×80×64)
/// records a pinned kernel ledger: each of four sweeps runs one CSF
/// MTTKRP per mode, `nnz·R·N` flops each, and nothing else.
#[test]
fn dt_session_records_the_pinned_ttm_ledger() {
    let (sp, _) = parallel_pp::datagen::sparse::sparse_lowrank(&[96, 80, 64], 6, 0.01, 37);
    let out = AlsSession::new_sparse(
        &sp,
        &AlsConfig::new(8)
            .with_policy(TreePolicy::Standard)
            .with_max_sweeps(4)
            .with_tol(0.0),
        SessionKind::Exact,
    )
    .run();
    let stats = &out.report.stats;
    assert_eq!(stats.ttm_count, 12);
    assert_eq!(stats.ttm_flops, 12 * sp.nnz() as u64 * 8 * 3);
    assert_eq!((stats.mttv_count, stats.mttv_flops), (0, 0));
}

/// Sparse `msdt` runs the forest `dt` runs: on both golden sparse datasets
/// a multi-sweep exact session and a standard one at the same rank, seed
/// and sweep count give the same sweep kinds, fitness bits and factors,
/// and the multi-sweep one caches nothing.
#[test]
fn sparse_msdt_is_sparse_dt_bitwise() {
    let _serial = override_lock();
    let datasets = [
        powerlaw_sparse(&[24, 20, 16], 800, 1.8, 5),
        parallel_pp::datagen::sparse::sparse_lowrank(&[18, 16, 14], 3, 0.06, 6).0,
    ];
    for sp in &datasets {
        for rank in [3, 8] {
            let run = |policy: TreePolicy| {
                let cfg = AlsConfig::new(rank)
                    .with_policy(policy)
                    .with_max_sweeps(10)
                    .with_tol(0.0);
                let mut s = AlsSession::new_sparse(sp, &cfg, SessionKind::Exact);
                while let parallel_pp::core::Step::Swept(_) = s.step() {
                    assert_eq!(s.cache_memory_elems(), 0, "{policy:?} cached");
                }
                s.finish()
            };
            let msdt = run(TreePolicy::MultiSweep);
            assert_eq!(msdt.report.sweeps.len(), 10);
            let stats = &msdt.report.stats;
            assert_eq!(stats.ttm_count, 30, "one CSF MTTKRP per mode and sweep");
            assert_eq!(stats.ttm_flops, 30 * (sp.nnz() * rank * 3) as u64);
            common::assert_identical(&msdt, &run(TreePolicy::Standard));
        }
    }
}
