//! Reference (un-amortized) MTTKRP and CP reconstruction.
//!
//! These are the oracles the dimension-tree engines are tested against, and
//! the "naive implementation of CP-ALS" whose `O(N s^N R)` per-sweep cost
//! the paper's §II-B quotes. `mttkrp` here is a real GEMM-based kernel (one
//! unfolding times one Khatri-Rao product), usable as a baseline; the
//! pointwise variant `mttkrp_pointwise` is the slowest, most obviously
//! correct formulation for tiny test tensors.
//!
//! [`reconstruct`] here is the oracle: a scalar loop straight from the
//! definition, kept for tests and [`dense_relative_residual`]. Generators
//! build their model tensors with [`crate::kernels::krp::reconstruct`],
//! which returns the same bits at kernel speed.

use crate::dense::DenseTensor;
use crate::gemm::{gemm_slice, Trans};
use crate::kernels::krp::{khatri_rao, model_rank};
use crate::matrix::Matrix;
use crate::shape::Shape;
use crate::transpose::move_mode_first;

/// Mode-`n` unfolding `T_(n) ∈ R^{s_n × K}` with the remaining modes in
/// their original relative order (row-major, first remaining mode slowest).
pub fn unfold(t: &DenseTensor, mode: usize) -> Matrix {
    let moved = move_mode_first(t, mode);
    let rows = t.dim(mode);
    let cols = t.len() / rows.max(1);
    Matrix::from_vec(rows, cols, moved.into_vec())
}

/// Fold a mode-`n` unfolding back into a tensor of the given shape.
pub fn fold(m: &Matrix, mode: usize, shape: &Shape) -> DenseTensor {
    assert_eq!(m.rows(), shape.dim(mode));
    assert_eq!(m.rows() * m.cols(), shape.len());
    // m is the tensor with `mode` first; permute it back.
    let mut first_dims = vec![shape.dim(mode)];
    first_dims.extend(
        shape
            .dims()
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != mode)
            .map(|(_, &d)| d),
    );
    let t_first = DenseTensor::from_vec(Shape::new(first_dims), m.data().to_vec());
    // Inverse of move_mode_first: mode k of output = ?
    // t_first modes are [mode, others...]; we need the original order.
    let order = shape.order();
    let mut perm = vec![0usize; order];
    // Output mode `mode` is t_first mode 0; output mode k (≠ mode) is its
    // position in the `others` list shifted by one.
    let mut pos = 1;
    for (k, p) in perm.iter_mut().enumerate() {
        if k == mode {
            *p = 0;
        } else {
            *p = pos;
            pos += 1;
        }
    }
    crate::transpose::permute(&t_first, &perm)
}

/// Un-amortized MTTKRP via one unfolding GEMM:
/// `M^(n) = T_(n) · (A^(m) for m ≠ n, Khatri-Rao in mode order)`.
pub fn mttkrp(t: &DenseTensor, factors: &[Matrix], n: usize) -> Matrix {
    let order = t.order();
    assert_eq!(factors.len(), order);
    assert!(n < order);
    let r = factors[n].cols();
    let others: Vec<&Matrix> = factors
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != n)
        .map(|(_, m)| m)
        .collect();
    let p = khatri_rao(&others);
    let unf = unfold(t, n);
    assert_eq!(unf.cols(), p.rows());
    let mut out = Matrix::zeros(t.dim(n), r);
    let (ur, uc) = (unf.rows(), unf.cols());
    let (pr, pc) = (p.rows(), p.cols());
    let (or, oc) = (out.rows(), out.cols());
    gemm_slice(
        Trans::No,
        Trans::No,
        1.0,
        unf.data(),
        ur,
        uc,
        p.data(),
        pr,
        pc,
        0.0,
        out.data_mut(),
        or,
        oc,
    );
    out
}

/// Pointwise MTTKRP straight from the definition — `O(s^N · R)` with huge
/// constants; only for tiny test tensors.
pub fn mttkrp_pointwise(t: &DenseTensor, factors: &[Matrix], n: usize) -> Matrix {
    let r = factors[n].cols();
    let mut out = Matrix::zeros(t.dim(n), r);
    for idx in t.shape().indices() {
        let v = t.get(&idx);
        if v == 0.0 {
            continue;
        }
        for rr in 0..r {
            let mut prod = v;
            for (m, factor) in factors.iter().enumerate() {
                if m != n {
                    prod *= factor.get(idx[m], rr);
                }
            }
            let cur = out.get(idx[n], rr);
            out.set(idx[n], rr, cur + prod);
        }
    }
    out
}

/// Reconstruct the dense tensor `[[A^(1), ..., A^(N)]]` from factor
/// matrices (the CP model tensor): per element, the product over modes
/// taken left to right from `1.0`, summed from `0.0` with `r` ascending.
/// Panics on an empty list or on factors of different widths.
pub fn reconstruct(factors: &[Matrix]) -> DenseTensor {
    let r = model_rank(factors);
    let dims: Vec<usize> = factors.iter().map(|f| f.rows()).collect();
    let shape = Shape::new(dims);
    let mut out = DenseTensor::zeros(shape.clone());
    let data = out.data_mut();
    for (lin, idx) in shape.indices().enumerate() {
        let mut acc = 0.0;
        for rr in 0..r {
            let mut prod = 1.0;
            for (m, factor) in factors.iter().enumerate() {
                prod *= factor.get(idx[m], rr);
            }
            acc += prod;
        }
        data[lin] = acc;
    }
    out
}

/// Relative residual `‖T − [[A...]]‖_F / ‖T‖_F` computed densely (test
/// oracle for the amortized Eq. (3) formula in `pp-core`).
pub fn dense_relative_residual(t: &DenseTensor, factors: &[Matrix]) -> f64 {
    let rec = reconstruct(factors);
    let mut diff = t.clone();
    diff.axpy(-1.0, &rec);
    diff.norm() / t.norm()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tensor(dims: Vec<usize>) -> DenseTensor {
        let shape = Shape::new(dims);
        let len = shape.len();
        DenseTensor::from_vec(
            shape,
            (0..len)
                .map(|x| ((x * 31) % 13) as f64 / 5.0 - 1.0)
                .collect(),
        )
    }

    fn test_factors(dims: &[usize], r: usize) -> Vec<Matrix> {
        dims.iter()
            .enumerate()
            .map(|(k, &d)| {
                Matrix::from_fn(d, r, |i, j| ((i * 3 + j * 7 + k) % 11) as f64 / 6.0 - 0.8)
            })
            .collect()
    }

    #[test]
    fn unfold_fold_roundtrip() {
        let t = seq_tensor(vec![3, 4, 5]);
        for mode in 0..3 {
            let u = unfold(&t, mode);
            let back = fold(&u, mode, t.shape());
            assert_eq!(back.data(), t.data());
        }
    }

    #[test]
    fn gemm_mttkrp_matches_pointwise() {
        let dims = [3, 4, 5];
        let t = seq_tensor(dims.to_vec());
        let factors = test_factors(&dims, 2);
        for n in 0..3 {
            let fast = mttkrp(&t, &factors, n);
            let slow = mttkrp_pointwise(&t, &factors, n);
            assert!(fast.max_abs_diff(&slow) < 1e-10, "mode {n}");
        }
    }

    #[test]
    fn gemm_mttkrp_matches_pointwise_order4() {
        let dims = [2, 3, 2, 4];
        let t = seq_tensor(dims.to_vec());
        let factors = test_factors(&dims, 3);
        for n in 0..4 {
            let fast = mttkrp(&t, &factors, n);
            let slow = mttkrp_pointwise(&t, &factors, n);
            assert!(fast.max_abs_diff(&slow) < 1e-10, "mode {n}");
        }
    }

    #[test]
    fn reconstruct_rank1() {
        let a = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
        let b = Matrix::from_vec(3, 1, vec![3.0, 4.0, 5.0]);
        let t = reconstruct(&[a, b]);
        assert_eq!(t.get(&[1, 2]), 10.0);
        assert_eq!(t.get(&[0, 0]), 3.0);
    }

    #[test]
    fn residual_zero_for_exact_model() {
        let dims = [3, 4, 2];
        let factors = test_factors(&dims, 2);
        let t = reconstruct(&factors);
        assert!(dense_relative_residual(&t, &factors) < 1e-12);
    }
}
