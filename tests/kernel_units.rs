//! Focused unit tests for the hot kernels, independent of the in-crate
//! `#[cfg(test)]` suites:
//!
//! * Khatri-Rao product: output shape and per-entry values straight from
//!   the definition (row of `mats[0]` slowest, matching `unfold`);
//! * MTTKRP: the production (GEMM/tree-friendly) kernel against a
//!   from-scratch pointwise contraction on small random tensors;
//! * DT vs MSDT vs PP-operator construction: before any perturbation step
//!   all engines must produce *identical* MTTKRP results (the MSDT
//!   exactness claim of §III and the PP tree's exact-first-sweep property
//!   of §II-D).

use parallel_pp::dtree::pp_tree::build_pp_operators;
use parallel_pp::dtree::{DimTreeEngine, FactorState, InputTensor, TreePolicy};
use parallel_pp::tensor::kernels::krp::khatri_rao;
use parallel_pp::tensor::kernels::naive::mttkrp;
use parallel_pp::tensor::rng::{seeded, uniform_matrix, uniform_tensor};
use parallel_pp::tensor::{DenseTensor, Matrix};

/// Reference MTTKRP straight from the definition:
/// `M(i_n, r) = Σ_{i ≠ n} T(i_1..i_N) · Π_{m ≠ n} A_m(i_m, r)`.
fn mttkrp_by_definition(t: &DenseTensor, factors: &[Matrix], n: usize) -> Matrix {
    let r = factors[0].cols();
    let mut out = Matrix::zeros(t.dim(n), r);
    for idx in t.shape().indices() {
        let v = t.get(&idx);
        for col in 0..r {
            let mut w = v;
            for (m, f) in factors.iter().enumerate() {
                if m != n {
                    w *= f.get(idx[m], col);
                }
            }
            let cur = out.get(idx[n], col);
            out.set(idx[n], col, cur + w);
        }
    }
    out
}

#[test]
fn khatri_rao_shape_and_values_random() {
    let mut rng = seeded(101);
    for &(ra, rb, rc, r) in &[(2usize, 3usize, 4usize, 3usize), (5, 2, 3, 4), (1, 6, 2, 2)] {
        let a = uniform_matrix(ra, r, &mut rng);
        let b = uniform_matrix(rb, r, &mut rng);
        let c = uniform_matrix(rc, r, &mut rng);
        let k = khatri_rao(&[&a, &b, &c]);
        assert_eq!(k.rows(), ra * rb * rc, "KRP row count");
        assert_eq!(k.cols(), r, "KRP column count");
        // Entry (ia, ib, ic) with mats[0] slowest, mats[2] fastest.
        for ia in 0..ra {
            for ib in 0..rb {
                for ic in 0..rc {
                    let row = (ia * rb + ib) * rc + ic;
                    for col in 0..r {
                        let want = a.get(ia, col) * b.get(ib, col) * c.get(ic, col);
                        let got = k.get(row, col);
                        assert!(
                            (got - want).abs() < 1e-12,
                            "KRP entry ({ia},{ib},{ic},{col}): {got} vs {want}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn khatri_rao_pair_matches_kronecker_structure() {
    let mut rng = seeded(7);
    let a = uniform_matrix(4, 5, &mut rng);
    let b = uniform_matrix(3, 5, &mut rng);
    let k = khatri_rao(&[&a, &b]);
    assert_eq!((k.rows(), k.cols()), (12, 5));
    for i in 0..4 {
        for j in 0..3 {
            for col in 0..5 {
                let want = a.get(i, col) * b.get(j, col);
                assert!((k.get(i * 3 + j, col) - want).abs() < 1e-12);
            }
        }
    }
}

#[test]
fn mttkrp_matches_definition_small_random_tensors() {
    let mut rng = seeded(2024);
    for (case, dims) in [vec![3, 4, 5], vec![4, 2, 3, 3], vec![2, 3, 2, 2, 3]]
        .into_iter()
        .enumerate()
    {
        let t = uniform_tensor(&dims, &mut rng);
        let r = 3;
        let factors: Vec<Matrix> = dims
            .iter()
            .map(|&d| uniform_matrix(d, r, &mut rng))
            .collect();
        for (n, &dim) in dims.iter().enumerate() {
            let fast = mttkrp(&t, &factors, n);
            let slow = mttkrp_by_definition(&t, &factors, n);
            assert_eq!((fast.rows(), fast.cols()), (dim, r));
            assert!(
                fast.max_abs_diff(&slow) < 1e-10,
                "case {case}, mode {n}: MTTKRP kernel deviates from definition"
            );
        }
    }
}

#[test]
fn dt_msdt_pp_first_sweep_identical() {
    // Before any factor update, all three MTTKRP paths are *exact*: the
    // standard dimension tree, the multi-sweep dimension tree, and the
    // first-level PP operators `M^(n)` produced while building the PP tree.
    let mut rng = seeded(99);
    for dims in [vec![4, 5, 6], vec![3, 4, 3, 5]] {
        let order = dims.len();
        let r = 4;
        let t = uniform_tensor(&dims, &mut rng);
        let factors: Vec<Matrix> = dims
            .iter()
            .map(|&d| uniform_matrix(d, r, &mut rng))
            .collect();

        let fs = FactorState::new(factors.clone());
        let mut in_dt = InputTensor::new(t.clone());
        let mut in_ms = InputTensor::new(t.clone());
        let mut in_pp = InputTensor::new(t.clone());
        let mut e_dt = DimTreeEngine::new(TreePolicy::Standard, order);
        let mut e_ms = DimTreeEngine::new(TreePolicy::MultiSweep, order);
        let mut e_pp = DimTreeEngine::new(TreePolicy::Standard, order);
        let ops = build_pp_operators(&mut in_pp, &fs, &mut e_pp);

        for n in 0..order {
            let reference = mttkrp(&t, &factors, n);
            let m_dt = e_dt.mttkrp(&mut in_dt, &fs, n);
            let m_ms = e_ms.mttkrp(&mut in_ms, &fs, n);
            assert!(
                m_dt.max_abs_diff(&reference) < 1e-9,
                "DT vs naive, dims {dims:?}, mode {n}"
            );
            assert!(
                m_ms.max_abs_diff(&reference) < 1e-9,
                "MSDT vs naive, dims {dims:?}, mode {n}"
            );
            assert!(
                ops.firsts[n].max_abs_diff(&reference) < 1e-9,
                "PP first-level operator vs naive, dims {dims:?}, mode {n}"
            );
            // And transitively: identical to each other.
            assert!(m_dt.max_abs_diff(&m_ms) < 1e-9);
            assert!(m_dt.max_abs_diff(&ops.firsts[n]) < 1e-9);
        }
    }
}

#[test]
fn engines_stay_exact_across_a_full_sweep_of_updates() {
    // The cache-invalidation logic is what makes DT/MSDT exact; drive one
    // full sweep with fresh random updates and re-check against naive.
    let mut rng = seeded(555);
    let dims = vec![4, 4, 5, 3];
    let r = 3;
    let t = uniform_tensor(&dims, &mut rng);
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

    for (n, &dim) in dims.iter().enumerate() {
        let m_dt = e_dt.mttkrp(&mut in_dt, &fs_dt, n);
        let m_ms = e_ms.mttkrp(&mut in_ms, &fs_ms, n);
        let reference = mttkrp(&t, fs_dt.factors(), n);
        assert!(
            m_dt.max_abs_diff(&reference) < 1e-9,
            "DT drifted at mode {n}"
        );
        assert!(
            m_ms.max_abs_diff(&reference) < 1e-9,
            "MSDT drifted at mode {n}"
        );
        let upd = uniform_matrix(dim, r, &mut rng);
        fs_dt.update(n, upd.clone());
        fs_ms.update(n, upd);
    }
}
