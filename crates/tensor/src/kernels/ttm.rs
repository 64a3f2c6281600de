//! First-level dimension-tree contraction: tensor-times-matrix (TTM).
//!
//! `ttm(T, n, A)` contracts mode `n` of an order-`N` tensor with a factor
//! matrix `A ∈ R^{s_n × R}`, producing the intermediate
//! `𝓜^({0..N-1}\{n}) ∈ R^{s_rest × R}` of Eq. (4) with the CP rank as a
//! trailing mode. This is the `O(s^N R)` kernel that dominates CP-ALS
//! (Fig. 3c–f of the paper: the "TTM" bar).
//!
//! Layout note: contracting the *last* mode needs no data movement — the
//! row-major tensor is already the `K × s_n` matricization. Contracting any
//! other mode requires a transpose (vertical-communication overhead), which
//! is what the multi-sweep dimension tree avoids by keeping permuted copies
//! of the input tensor (paper §IV).

use crate::dense::DenseTensor;
use crate::gemm::{count_gemm_calls, gemm_slice, gemm_slice_uncounted, Trans};
use crate::matrix::Matrix;
use crate::shape::Shape;
use crate::transpose::move_mode_last;
use crate::workspace::Workspace;
use rayon::prelude::*;

/// Result of a TTM together with the bookkeeping the cost ledgers need.
pub struct TtmOutput {
    /// `𝓜^(rest)`: shape `[s_rest..., R]`, rest modes in original order.
    pub tensor: DenseTensor,
    /// Flops performed (`2 · K · s_n · R`).
    pub flops: u64,
    /// Main-memory words moved by an explicit transpose (0 if none needed).
    pub transpose_words: u64,
}

/// Contract mode `mode` of `t` with `factor` (`s_mode × R`).
///
/// Returns the intermediate with the remaining modes in their original
/// order followed by the rank mode.
pub fn ttm(t: &DenseTensor, mode: usize, factor: &Matrix) -> TtmOutput {
    let n = t.order();
    assert!(mode < n, "mode {mode} out of range for order {n}");
    assert_eq!(
        factor.rows(),
        t.dim(mode),
        "factor rows must match extent of contracted mode"
    );

    if mode == n - 1 {
        // Zero-copy path: T is already the (K × s_mode) matricization.
        let out = ttm_last(t, factor);
        let k = t.len() / t.dim(mode).max(1);
        TtmOutput {
            tensor: out,
            flops: 2 * (k as u64) * (t.dim(mode) as u64) * (factor.cols() as u64),
            transpose_words: 0,
        }
    } else {
        let moved = move_mode_last(t, mode);
        let out = ttm_last(&moved, factor);
        let k = t.len() / t.dim(mode).max(1);
        TtmOutput {
            tensor: out,
            flops: 2 * (k as u64) * (t.dim(mode) as u64) * (factor.cols() as u64),
            transpose_words: 2 * t.len() as u64,
        }
    }
}

/// TTM specialization for a tensor whose *last* mode is the contracted one
/// (e.g. a pre-permuted copy kept by MSDT). No transpose is performed.
pub fn ttm_last(t: &DenseTensor, factor: &Matrix) -> DenseTensor {
    ttm_last_in(&Workspace::unpooled(), t, factor)
}

/// [`ttm_last`] with the output drawn from `ws`. The GEMM runs with β = 0,
/// which never reads C, so a recycled buffer is taken as it is.
pub fn ttm_last_in(ws: &Workspace, t: &DenseTensor, factor: &Matrix) -> DenseTensor {
    let n = t.order();
    assert!(n >= 1);
    let s_last = t.dim(n - 1);
    assert_eq!(factor.rows(), s_last);
    let r = factor.cols();
    let k = t.len() / s_last.max(1);

    // View t as a (K × s_last) matrix (zero-copy) and multiply by factor.
    let mut out = ws.draw(k * r);
    gemm_slice(
        Trans::No,
        Trans::No,
        1.0,
        t.data(),
        k,
        s_last,
        factor.data(),
        s_last,
        r,
        0.0,
        &mut out,
        k,
        r,
    );

    let mut dims: Vec<usize> = t.shape().dims()[..n - 1].to_vec();
    dims.push(r);
    DenseTensor::from_buffer(Shape::new(dims), out)
}

/// TTM specialization for a tensor whose *first* mode is the contracted one.
/// Uses a transposed GEMM, so — like [`ttm_last`] — it moves no data. MSDT
/// exploits this: together with pre-permuted copies of the input, every
/// first-level contraction hits either the first or the last mode of some
/// stored layout (paper §IV).
pub fn ttm_first(t: &DenseTensor, factor: &Matrix) -> DenseTensor {
    ttm_first_in(&Workspace::unpooled(), t, factor)
}

/// [`ttm_first`] with the output drawn from `ws` (β = 0, as [`ttm_last_in`]).
pub fn ttm_first_in(ws: &Workspace, t: &DenseTensor, factor: &Matrix) -> DenseTensor {
    let n = t.order();
    assert!(n >= 1);
    let s_first = t.dim(0);
    assert_eq!(factor.rows(), s_first);
    let r = factor.cols();
    let k = t.len() / s_first.max(1);

    // View t as an (s_first × K) matrix; out = tᵀ · factor.
    let mut out = ws.draw(k * r);
    gemm_slice(
        Trans::Yes,
        Trans::No,
        1.0,
        t.data(),
        s_first,
        k,
        factor.data(),
        s_first,
        r,
        0.0,
        &mut out,
        k,
        r,
    );

    let mut dims: Vec<usize> = t.shape().dims()[1..].to_vec();
    dims.push(r);
    DenseTensor::from_buffer(Shape::new(dims), out)
}

/// [`ttm_first`] batched over the leading mode: contract the *second* mode
/// of `t` (`[E, s, rest...]`) with `factor` (`s × R`), giving
/// `[E, rest..., R]`. Each leading index owns a contiguous `s × K` slab, so
/// this is one transposed GEMM per slab and — like [`ttm_first`] and
/// [`ttm_last`] — moves no data. Slabs fan out over the pool.
///
/// This is what lets a streaming input keep its evolving mode leading in
/// every stored layout (appending a slice is then a tail append) and still
/// contract a second mode per layout without a transpose. A slab's result
/// does not depend on `E`, so contracting an appended slice alone equals
/// the matching rows of contracting the grown tensor, bit for bit.
pub fn ttm_first_batched(t: &DenseTensor, factor: &Matrix) -> DenseTensor {
    ttm_first_batched_in(&Workspace::unpooled(), t, factor)
}

/// [`ttm_first_batched`] with the output drawn from `ws`. Every slab GEMM
/// runs with β = 0; a degenerate call (nothing to contract) zero-fills.
pub fn ttm_first_batched_in(ws: &Workspace, t: &DenseTensor, factor: &Matrix) -> DenseTensor {
    let n = t.order();
    assert!(n >= 2, "batched TTM needs a leading and a contracted mode");
    let (batch, s) = (t.dim(0), t.dim(1));
    assert_eq!(factor.rows(), s);
    let r = factor.cols();
    let k: usize = t.shape().dims()[2..].iter().product();

    let mut dims = vec![batch];
    dims.extend_from_slice(&t.shape().dims()[2..]);
    dims.push(r);
    let mut out = ws.draw(batch * k * r);
    if s == 0 {
        out.fill(0.0);
    } else if !out.is_empty() {
        let src = t.data();
        // Per slab: view it as an (s × K) matrix; out_slab = slabᵀ · factor.
        out.par_chunks_mut(k * r).enumerate().for_each(|(i, c)| {
            gemm_slice_uncounted(
                Trans::Yes,
                Trans::No,
                1.0,
                &src[i * s * k..(i + 1) * s * k],
                s,
                k,
                factor.data(),
                s,
                r,
                0.0,
                c,
                k,
                r,
            );
        });
        count_gemm_calls(batch as u64, k, r, s);
    }
    DenseTensor::from_buffer(Shape::new(dims), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_tensor(dims: Vec<usize>) -> DenseTensor {
        let shape = Shape::new(dims);
        let len = shape.len();
        DenseTensor::from_vec(shape, (0..len).map(|x| (x % 17) as f64 - 8.0).collect())
    }

    fn naive_ttm(t: &DenseTensor, mode: usize, a: &Matrix) -> DenseTensor {
        let mut dims: Vec<usize> = t
            .shape()
            .dims()
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != mode)
            .map(|(_, &d)| d)
            .collect();
        dims.push(a.cols());
        let out_shape = Shape::new(dims);
        let mut out = DenseTensor::zeros(out_shape);
        for idx in t.shape().indices() {
            let v = t.get(&idx);
            let y = idx[mode];
            let mut oidx: Vec<usize> = idx
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != mode)
                .map(|(_, &i)| i)
                .collect();
            oidx.push(0);
            for r in 0..a.cols() {
                *oidx.last_mut().unwrap() = r;
                let cur = out.get(&oidx);
                out.set(&oidx, cur + v * a.get(y, r));
            }
        }
        out
    }

    #[test]
    fn ttm_matches_naive_each_mode() {
        let t = seq_tensor(vec![3, 4, 5]);
        for mode in 0..3 {
            let a = Matrix::from_fn(t.dim(mode), 2, |i, j| (i + 2 * j) as f64 * 0.25 - 1.0);
            let got = ttm(&t, mode, &a);
            let want = naive_ttm(&t, mode, &a);
            assert!(
                got.tensor.max_abs_diff(&want) < 1e-10,
                "ttm mismatch on mode {mode}"
            );
            // K · s_mode = total elements, so flops = 2 · |T| · R = 2·60·2.
            assert_eq!(got.flops, 240);
        }
    }

    #[test]
    fn ttm_order4() {
        let t = seq_tensor(vec![2, 3, 2, 4]);
        for mode in 0..4 {
            let a = Matrix::from_fn(t.dim(mode), 3, |i, j| ((i * 3 + j) % 5) as f64 - 2.0);
            let got = ttm(&t, mode, &a);
            let want = naive_ttm(&t, mode, &a);
            assert!(got.tensor.max_abs_diff(&want) < 1e-10);
        }
    }

    #[test]
    fn last_mode_needs_no_transpose() {
        let t = seq_tensor(vec![3, 4]);
        let a = Matrix::from_fn(4, 2, |i, j| (i + j) as f64);
        let got = ttm(&t, 1, &a);
        assert_eq!(got.transpose_words, 0);
        let got0 = ttm(&t, 0, &a.transpose().transpose().row_block(0, 3));
        assert!(got0.transpose_words > 0);
    }

    #[test]
    fn ttm_first_matches_general() {
        let t = seq_tensor(vec![3, 4, 5]);
        let a = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64 * 0.5 - 1.0);
        let general = ttm(&t, 0, &a);
        let fast = ttm_first(&t, &a);
        assert!(general.tensor.max_abs_diff(&fast) < 1e-12);
        assert_eq!(fast.shape().dims(), &[4, 5, 2]);
    }

    #[test]
    fn ttm_first_batched_matches_naive_orders_3_to_5() {
        // Slabs below and above the packed-GEMM threshold, ranks on the
        // generic (3) and the rank-specialized (8) paths.
        for dims in [
            vec![3, 4, 5],
            vec![2, 5, 3, 4],
            vec![2, 3, 2, 3, 2],
            vec![3, 9, 8, 7],
        ] {
            let t = seq_tensor(dims.clone());
            for r in [3, 8] {
                let a = Matrix::from_fn(dims[1], r, |i, j| ((i * 3 + j) % 7) as f64 * 0.5 - 1.0);
                let got = ttm_first_batched(&t, &a);
                let want = naive_ttm(&t, 1, &a);
                assert_eq!(got.shape().dims(), want.shape().dims());
                assert!(
                    got.max_abs_diff(&want) < 1e-9,
                    "batched ttm mismatch on {dims:?} r={r}"
                );
            }
        }
    }

    #[test]
    fn ttm_first_batched_slabs_do_not_see_the_batch_extent() {
        // The streaming contract: contracting the trailing slabs alone is
        // bit-identical to the same rows of the whole contraction.
        let t = seq_tensor(vec![5, 9, 8, 7]);
        let a = Matrix::from_fn(9, 8, |i, j| ((i * 5 + j) % 11) as f64 * 0.25 - 1.0);
        let whole = ttm_first_batched(&t, &a);
        let tail = ttm_first_batched(&t.slice_along(0, 3, 2), &a);
        assert_eq!(whole.slice_along(0, 3, 2).data(), tail.data());
    }

    #[test]
    fn ttm_first_batched_credits_one_product_per_slab() {
        let t = seq_tensor(vec![4, 9, 8, 7]);
        let a = Matrix::from_fn(9, 8, |i, j| (i + j) as f64);
        let before = crate::gemm::thread_gemm_counters();
        let _ = ttm_first_batched(&t, &a);
        let d = crate::gemm::thread_gemm_counters().since(&before);
        assert_eq!(d.calls, 4);
        assert_eq!(d.fixed_n_calls, 4);
        assert_eq!(d.flops, 2 * t.len() as u64 * 8);
    }

    #[test]
    fn ttm_last_on_prepermuted_matches_general() {
        let t = seq_tensor(vec![3, 4, 5]);
        let a = Matrix::from_fn(4, 2, |i, j| (i * 2 + j) as f64 * 0.5);
        let general = ttm(&t, 1, &a);
        let moved = crate::transpose::move_mode_last(&t, 1);
        let fast = ttm_last(&moved, &a);
        assert!(general.tensor.max_abs_diff(&fast) < 1e-12);
    }
}
