//! Property-based tests of the core invariants:
//!
//! * DT, MSDT and the naive MTTKRP agree on arbitrary shapes and update
//!   histories (the MSDT exactness claim);
//! * the amortized Eq. (3) residual matches the dense residual;
//! * Khatri-Rao / Gram / Hadamard algebraic identities;
//! * an evolving-mode-major input contracts every mode like the TTM
//!   oracle, needs no transpose with its copies, and grows by appends into
//!   exactly the input built from the concatenated tensor;
//! * block distributions tile every index exactly once;
//! * collectives preserve content for arbitrary sizes and rank counts.

use parallel_pp::comm::{Collectives, Runtime};
use parallel_pp::dtree::{DimTreeEngine, FactorState, InputTensor, TreePolicy};
use parallel_pp::grid::BlockDist;
use parallel_pp::tensor::kernels::krp::khatri_rao;
use parallel_pp::tensor::kernels::naive::{mttkrp, unfold};
use parallel_pp::tensor::kernels::ttm::ttm;
use parallel_pp::tensor::rng::{seeded, uniform_matrix, uniform_tensor};
use parallel_pp::tensor::solve::{cholesky, solve_gram};
use parallel_pp::tensor::transpose::permute;
use parallel_pp::tensor::{Matrix, Workspace};
use proptest::prelude::*;
use rand::Rng;

fn small_dims(order: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(2usize..6, order..=order)
}

// Case counts are tuned for a < 60 s debug-mode budget for the whole suite
// (floor: 24/16/8 per block). The small input sizes keep each case cheap, so
// we run well above the floor for coverage; measured ~0.5 s total in debug.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dt_msdt_naive_agree_order3(dims in small_dims(3), seed in 0u64..1000, r in 1usize..5) {
        check_tree_agreement(&dims, r, seed);
    }

    #[test]
    fn dt_msdt_naive_agree_order4(dims in small_dims(4), seed in 0u64..1000, r in 1usize..4) {
        check_tree_agreement(&dims, r, seed);
    }

    #[test]
    fn evolving_input_matches_oracle_and_grows_by_appends(
        dims in prop::collection::vec(2usize..5, 5..=5),
        order in 3usize..6,
        e_pick in 0usize..5,
        appends in 1usize..4,
        r in 1usize..5,
        seed in 0u64..1000,
    ) {
        let e = e_pick % order;
        let mut dims = dims[..order].to_vec();
        dims[e] += appends; // room for `appends` one-row slices after the start
        check_evolving_input(&dims, e, appends, r, seed);
    }

    #[test]
    fn unfold_times_krp_is_mttkrp(dims in small_dims(3), seed in 0u64..1000) {
        let mut rng = seeded(seed);
        let t = uniform_tensor(&dims, &mut rng);
        let factors: Vec<Matrix> = dims.iter().map(|&d| uniform_matrix(d, 3, &mut rng)).collect();
        for n in 0..3 {
            let m = mttkrp(&t, &factors, n);
            // Identity: M^(n) = T_(n) · KRP(others).
            let others: Vec<&Matrix> = factors.iter().enumerate()
                .filter(|&(k, _)| k != n).map(|(_, f)| f).collect();
            let krp = khatri_rao(&others);
            let unf = unfold(&t, n);
            let m2 = unf.matmul(&krp);
            prop_assert!(m.max_abs_diff(&m2) < 1e-9);
        }
    }

    #[test]
    fn gram_of_krp_is_hadamard_of_grams(ra in 2usize..6, rb in 2usize..6, r in 1usize..4, seed in 0u64..1000) {
        // (A ⊙ B)ᵀ(A ⊙ B) = AᵀA ∗ BᵀB — the identity that makes Γ cheap.
        let mut rng = seeded(seed);
        let a = uniform_matrix(ra, r, &mut rng);
        let b = uniform_matrix(rb, r, &mut rng);
        let krp = khatri_rao(&[&a, &b]);
        let left = krp.gram();
        let right = a.gram().hadamard(&b.gram());
        prop_assert!(left.max_abs_diff(&right) < 1e-9);
    }

    #[test]
    fn block_dist_tiles_exactly_once(global in 1usize..40, parts in 1usize..8) {
        let d = BlockDist::new(global, parts);
        let mut count = vec![0usize; global];
        for o in 0..parts {
            for l in 0..d.block() {
                if let Some(g) = d.global_of(o, l) {
                    count[g] += 1;
                    prop_assert_eq!(d.owner(g), o);
                    prop_assert_eq!(d.local_of(g), l);
                }
            }
        }
        prop_assert!(count.iter().all(|&c| c == 1));
    }

    #[test]
    fn cholesky_solve_roundtrip(n in 1usize..8, rows in 1usize..6, seed in 0u64..1000) {
        let mut rng = seeded(seed);
        let a = uniform_matrix(n + 2, n, &mut rng);
        let mut g = a.gram();
        for i in 0..n {
            let v = g.get(i, i) + 0.5;
            g.set(i, i, v);
        }
        prop_assert!(cholesky(&g).is_some());
        let x = uniform_matrix(rows, n, &mut rng);
        let m = x.matmul(&g);
        let (got, _) = solve_gram(&g, &m);
        prop_assert!(got.max_abs_diff(&x) < 1e-6);
    }

    #[test]
    fn permutation_roundtrip(dims in small_dims(4), seed in 0u64..1000) {
        use parallel_pp::tensor::transpose::permute;
        let mut rng = seeded(seed);
        let t = uniform_tensor(&dims, &mut rng);
        // A pseudo-random permutation from the seed.
        let mut perm: Vec<usize> = (0..4).collect();
        for i in (1..4).rev() {
            perm.swap(i, (seed as usize + i * 7) % (i + 1));
        }
        let p = permute(&t, &perm);
        let mut inv = vec![0usize; 4];
        for (k, &pk) in perm.iter().enumerate() { inv[pk] = k; }
        let back = permute(&p, &inv);
        prop_assert_eq!(back.data(), t.data());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pp_first_order_exact_for_single_mode(dims in small_dims(3), seed in 0u64..500, mode in 1usize..3, eps in 0.05f64..0.8) {
        // MTTKRP is multilinear: a perturbation confined to one mode must
        // be captured *exactly* by the first-order PP correction (Eq. 6),
        // regardless of its magnitude.
        use parallel_pp::dtree::correct::first_order_correction;
        use parallel_pp::dtree::pp_tree::build_pp_operators;
        use parallel_pp::dtree::DimTreeEngine;

        let mut rng = seeded(seed);
        let t = uniform_tensor(&dims, &mut rng);
        let factors: Vec<Matrix> = dims.iter().map(|&d| uniform_matrix(d, 2, &mut rng)).collect();
        let fs = FactorState::new(factors.clone());
        let mut input = InputTensor::new(t.clone());
        let mut engine = DimTreeEngine::new(TreePolicy::Standard, 3);
        let ops = build_pp_operators(&mut input, &fs, &mut engine);

        let mut d = uniform_matrix(dims[mode], 2, &mut rng);
        d.scale(eps);
        let mut new_factors = factors.clone();
        new_factors[mode].axpy(1.0, &d);

        let mut approx = ops.firsts[0].clone();
        approx.axpy(1.0, &first_order_correction(&ops, 0, mode, &d));
        let exact = mttkrp(&t, &new_factors, 0);
        let rel = approx.max_abs_diff(&exact) / exact.norm().max(1e-30);
        prop_assert!(rel < 1e-10, "rel err {rel}");
    }

    #[test]
    fn hals_update_is_nonnegative_and_contracts_residual(rows in 3usize..10, r in 2usize..5, seed in 0u64..500) {
        use parallel_pp::core::nonneg::hals_update;
        let mut rng = seeded(seed);
        let truth = uniform_matrix(rows, r, &mut rng);
        let gamma = {
            let b = uniform_matrix(rows + 2, r, &mut rng);
            let mut g = b.gram();
            for i in 0..r {
                let v = g.get(i, i) + 0.2;
                g.set(i, i, v);
            }
            g
        };
        let m = truth.matmul(&gamma);
        let start = uniform_matrix(rows, r, &mut rng);
        let updated = hals_update(&start, &m, &gamma, 2);
        prop_assert!(updated.data().iter().all(|&x| x >= 0.0));
        // Residual of the normal equations must not increase.
        let res = |a: &Matrix| a.matmul(&gamma).sub(&m).norm();
        prop_assert!(res(&updated) <= res(&start) + 1e-9);
    }
}

proptest! {
    // These spin up rank threads; keep the case count low (floor: 8).
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn dist_tensor_scatter_gather_roundtrip(
        d0 in 2usize..7, d1 in 2usize..7, d2 in 2usize..7,
        g0 in 1usize..3, g1 in 1usize..3, g2 in 1usize..3,
        seed in 0u64..100,
    ) {
        use parallel_pp::grid::{DistTensor, ProcGrid};
        use std::sync::Arc;
        let dims = [d0, d1, d2];
        let mut rng = seeded(seed);
        let t = Arc::new(uniform_tensor(&dims, &mut rng));
        let grid = ProcGrid::new(vec![g0, g1, g2]);
        let p = grid.size();
        let (t2, g2c) = (t.clone(), grid.clone());
        let out = Runtime::new(p).run(move |ctx| {
            let local = DistTensor::from_global(&t2, &g2c, ctx.rank());
            local.gather_global(&ctx.comm)
        });
        for g in out.results {
            prop_assert_eq!(g.data(), t.data());
        }
    }

    #[test]
    fn dist_factor_refresh_recovers_global(
        rows in 2usize..12, r in 1usize..4,
        g0 in 1usize..4, g1 in 1usize..3,
        seed in 0u64..100,
    ) {
        use parallel_pp::grid::{DistFactor, FactorLayout, ProcGrid};
        use std::sync::Arc;
        let mut rng = seeded(seed);
        let global = Arc::new(uniform_matrix(rows, r, &mut rng));
        let grid = Arc::new(ProcGrid::new(vec![g0, g1]));
        let p = grid.size();
        let (gl, gr) = (global.clone(), grid.clone());
        let out = Runtime::new(p).run(move |ctx| {
            let layout = FactorLayout::new(gl.rows(), &gr, 0, gl.cols());
            let coords = gr.coords_of(ctx.rank());
            let slice = gr.slice_comm(&ctx.comm, 0);
            let f = DistFactor::new(layout, coords[0], slice.rank());
            // Commit the Q rows (rebuilding P) and re-gather the global matrix.
            let (_, p) = f.commit(f.q_rows(&f.p_block(&gl)), &ctx.comm, &slice);
            f.gather_global(&p, &ctx.comm, &gr, 0)
        });
        for got in out.results {
            prop_assert!(got.max_abs_diff(&global) < 1e-12);
        }
    }

    #[test]
    fn collectives_preserve_content(p in 1usize..6, len in 1usize..20, seed in 0u64..100) {
        let out = Runtime::new(p).run(move |ctx| {
            let mut rng = seeded(seed + ctx.rank() as u64);
            let mine: Vec<f64> = (0..len).map(|_| rng.random::<f64>()).collect();
            let gathered = ctx.comm.all_gather(&mine);
            let summed = ctx.comm.all_reduce_sum(&mine);
            (mine, gathered, summed)
        });
        // Gathered = concatenation in rank order, on every rank.
        let expect_gathered: Vec<f64> = out.results.iter().flat_map(|(m, _, _)| m.clone()).collect();
        let mut expect_sum = vec![0.0f64; len];
        for (m, _, _) in &out.results {
            for (s, x) in expect_sum.iter_mut().zip(m) { *s += x; }
        }
        for (_, g, s) in &out.results {
            prop_assert_eq!(g, &expect_gathered);
            for (a, b) in s.iter().zip(&expect_sum) {
                prop_assert!((a - b).abs() < 1e-12);
            }
        }
    }
}

fn check_tree_agreement(dims: &[usize], r: usize, seed: u64) {
    let mut rng = seeded(seed);
    let t = uniform_tensor(dims, &mut rng);
    let factors: Vec<Matrix> = dims
        .iter()
        .map(|&d| uniform_matrix(d, r, &mut rng))
        .collect();
    let mut fs_dt = FactorState::new(factors.clone());
    let mut fs_ms = FactorState::new(factors);
    let mut in_dt = InputTensor::new(t.clone());
    let mut in_ms = InputTensor::new(t.clone());
    let mut e_dt = DimTreeEngine::new(TreePolicy::Standard, dims.len());
    let mut e_ms = DimTreeEngine::new(TreePolicy::MultiSweep, dims.len());
    for _sweep in 0..2 {
        for (n, &dim) in dims.iter().enumerate() {
            let m_dt = e_dt.mttkrp(&mut in_dt, &fs_dt, n);
            let m_ms = e_ms.mttkrp(&mut in_ms, &fs_ms, n);
            let m_naive = mttkrp(&t, fs_dt.factors(), n);
            assert!(m_dt.max_abs_diff(&m_naive) < 1e-9, "DT vs naive, mode {n}");
            assert!(
                m_ms.max_abs_diff(&m_naive) < 1e-9,
                "MSDT vs naive, mode {n}"
            );
            let upd = uniform_matrix(dim, r, &mut rng);
            fs_dt.update(n, upd.clone());
            fs_ms.update(n, upd);
        }
    }
}

/// An input laid out along `e`: every mode contracts in place to the TTM
/// oracle, bit for bit, and the input grown from a prefix by `appends`
/// one-row slices is — as far as any contraction can tell — the input
/// built from the whole tensor.
fn check_evolving_input(dims: &[usize], e: usize, appends: usize, r: usize, seed: u64) {
    let mut rng = seeded(seed);
    let t = uniform_tensor(dims, &mut rng);
    let factors: Vec<Matrix> = dims
        .iter()
        .map(|&d| uniform_matrix(d, r, &mut rng))
        .collect();

    let whole = InputTensor::evolving(&t, e);
    for (mode, a) in factors.iter().enumerate() {
        let fl = whole.contract_mode(mode, a);
        // Back to ascending mode order (rank stays last) for the oracle.
        let mut sorted = fl.mode_order.clone();
        sorted.sort_unstable();
        let mut perm: Vec<usize> = sorted
            .iter()
            .map(|m| fl.mode_order.iter().position(|x| x == m).unwrap())
            .collect();
        perm.push(fl.mode_order.len());
        let got = permute(&fl.tensor, &perm);
        let want = ttm(&t, mode, a).tensor;
        assert_eq!(got.data(), want.data(), "e={e} mode {mode}");
    }

    let start = dims[e] - appends;
    let mut grown = InputTensor::evolving(&t.slice_along(e, 0, start), e);
    for i in 0..appends {
        grown.extend_mode(e, &t.slice_along(e, start + i, 1));
    }
    assert_eq!(grown.layout_count(), 1);
    assert_eq!(grown.canonical().data(), t.data());
    // One pool for every run: later results land in returned buffers.
    let ws = Workspace::new();
    for (mode, a) in factors.iter().enumerate() {
        let g = grown.contract_mode_in(&ws, mode, a);
        let w = whole.contract_mode_in(&ws, mode, a);
        assert_eq!(g.mode_order, w.mode_order);
        assert_eq!(g.tensor.data(), w.tensor.data());
    }
}
