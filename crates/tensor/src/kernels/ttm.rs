//! First-level dimension-tree contraction: tensor-times-matrix (TTM).
//!
//! `ttm(T, n, A)` contracts mode `n` of an order-`N` tensor with a factor
//! matrix `A ∈ R^{s_n × R}`, producing the intermediate
//! `𝓜^({0..N-1}\{n}) ∈ R^{s_rest × R}` of Eq. (4) with the CP rank as a
//! trailing mode. This is the `O(s^N R)` kernel that dominates CP-ALS
//! (Fig. 3c–f of the paper: the "TTM" bar).
//!
//! Layout note: no mode needs data movement. The row-major tensor is
//! already the `K × s_n` matricization of its last mode ([`ttm_last`]), and
//! the modes in front of any other mode `p` cut it into contiguous `s_p × K`
//! slabs whose transposed products stack into one GEMM ([`ttm_at`];
//! [`ttm_first`] is its one-slab case). So every mode of one stored layout contracts in
//! place — where the paper's implementation keeps permuted copies of the
//! input tensor instead (§IV). [`ttm`], which permutes the mode last and
//! calls [`ttm_last`], stays as the oracle.

use crate::dense::DenseTensor;
use crate::gemm::{gemm_batched, gemm_slice, Trans};
use crate::matrix::Matrix;
use crate::shape::Shape;
use crate::transpose::move_mode_last;
use crate::workspace::Workspace;

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

/// TTM specialization for a tensor whose *last* mode is the contracted one:
/// one GEMM on the tensor as it is stored, no transpose.
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

/// TTM specialization for a tensor whose *first* mode is the contracted one:
/// one transposed GEMM, so — like [`ttm_last`] — it moves no data. It is
/// [`ttm_at`] at position 0 (a single slab).
pub fn ttm_first(t: &DenseTensor, factor: &Matrix) -> DenseTensor {
    ttm_first_in(&Workspace::unpooled(), t, factor)
}

/// [`ttm_first`] with the output drawn from `ws` (β = 0, as [`ttm_last_in`]).
pub fn ttm_first_in(ws: &Workspace, t: &DenseTensor, factor: &Matrix) -> DenseTensor {
    ttm_at_in(ws, t, 0, factor)
}

/// Contract the mode at position `p` of `t` (`[front.., s, back..]`) with
/// `factor` (`s × R`) where it sits, giving `[front.., back.., R]`: the
/// remaining modes keep their order, as in [`ttm`]. Each index of the front
/// modes owns a contiguous `s × K` slab, so this is [`ttm_first`] batched
/// over the slabs — one transposed product per slab, run as one GEMM over
/// their stacked output rows, no data moved — and [`ttm_last`] at
/// `p = N−1`. Every element is the sum one GEMM over the permuted tensor
/// forms (one accumulator from 0, `l` ascending within `KC` panels, the
/// small-vs-strip choice made on the whole product), so the result equals
/// [`ttm`] bit for bit.
///
/// A slab's result does not see the front extents once its own batch
/// clears the GEMM small-work threshold: contracting a slice along the
/// leading mode then equals the matching rows of contracting the whole
/// tensor, bit for bit — what a streaming input's tail appends rely on.
pub fn ttm_at(t: &DenseTensor, p: usize, factor: &Matrix) -> DenseTensor {
    ttm_at_in(&Workspace::unpooled(), t, p, factor)
}

/// [`ttm_at`] with the output drawn from `ws`. The GEMM runs with β = 0; a
/// degenerate call (nothing to contract) zero-fills.
pub fn ttm_at_in(ws: &Workspace, t: &DenseTensor, p: usize, factor: &Matrix) -> DenseTensor {
    let n = t.order();
    assert!(p < n, "mode position {p} out of range for order {n}");
    if p == n - 1 {
        return ttm_last_in(ws, t, factor);
    }
    let dims = t.shape().dims();
    let s = dims[p];
    assert_eq!(factor.rows(), s);
    let r = factor.cols();
    let batch: usize = dims[..p].iter().product();
    let k: usize = dims[p + 1..].iter().product();

    // Per slab: view it as an (s × K) matrix; out_slab = slabᵀ · factor.
    // The output slabs stack into one (batch·K × R) matrix.
    let mut out = ws.draw(batch * k * r);
    gemm_batched(
        batch,
        Trans::Yes,
        Trans::No,
        1.0,
        t.data(),
        s,
        k,
        factor.data(),
        s,
        r,
        0.0,
        &mut out,
        k,
        r,
    );

    let mut out_dims: Vec<usize> = dims[..p].iter().chain(&dims[p + 1..]).copied().collect();
    out_dims.push(r);
    DenseTensor::from_buffer(Shape::new(out_dims), out)
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
        // `ttm_at` at position 1 is `ttm_first` batched over the leading
        // mode. Slabs below and above the strip threshold, ranks on the
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
                let got = ttm_at(&t, 1, &a);
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
    fn ttm_at_equals_the_permuting_oracle_bitwise() {
        // Every position of orders 3–5 at the generic and every
        // whole-vector rank, against `ttm` (move the mode last, then
        // `ttm_last`). 12×10×11 / R = 4 has slabs below the small-work
        // threshold and a whole product above it; 9×8×7 / R = 2 is below
        // it as a whole.
        let mut rng = crate::rng::seeded(28);
        let cases: [(&[usize], &[usize]); 6] = [
            (&[12, 10, 11], &[4]),
            (&[9, 8, 7], &[2]),
            (&[7, 9, 10], &[3, 8, 12, 24, 32]),
            (&[5, 6, 7, 8], &[3, 8, 12, 24, 32]),
            (&[3, 40, 7, 41], &[8, 32]),
            (&[3, 4, 5, 6, 4], &[3, 8, 12, 24, 32]),
        ];
        for (dims, ranks) in cases {
            let t = crate::rng::uniform_tensor(dims, &mut rng);
            for p in 0..dims.len() {
                for &r in ranks {
                    let a = crate::rng::uniform_matrix(dims[p], r, &mut rng);
                    let got = ttm_at(&t, p, &a);
                    let want = ttm(&t, p, &a).tensor;
                    assert_eq!(got.shape().dims(), want.shape().dims());
                    assert_eq!(got.data(), want.data(), "{dims:?} p={p} r={r}");
                }
            }
        }
    }

    #[test]
    fn ttm_first_batched_slabs_do_not_see_the_batch_extent() {
        // The streaming contract, at every interior position: contracting
        // trailing slices of the leading mode alone is bit-identical to the
        // same rows of the whole contraction.
        let mut rng = crate::rng::seeded(5);
        for dims in [vec![5, 9, 8, 7], vec![4, 6, 5, 4, 6]] {
            let t = crate::rng::uniform_tensor(&dims, &mut rng);
            for p in 1..dims.len() - 1 {
                let a = crate::rng::uniform_matrix(dims[p], 8, &mut rng);
                let whole = ttm_at(&t, p, &a);
                let tail = ttm_at(&t.slice_along(0, 3, dims[0] - 3), p, &a);
                assert_eq!(
                    whole.slice_along(0, 3, dims[0] - 3).data(),
                    tail.data(),
                    "{dims:?} p={p}"
                );
            }
        }
    }

    #[test]
    fn ttm_at_credits_one_product() {
        // However many slabs, the stacked product is one GEMM call with
        // the whole contraction's multiply-adds.
        let t = seq_tensor(vec![4, 9, 8, 7]);
        for p in 0..4 {
            let a = Matrix::from_fn(t.dim(p), 8, |i, j| (i + j) as f64);
            let (products, madds) = crate::gemm::tally::read();
            let _ = ttm_at(&t, p, &a);
            let (after, after_madds) = crate::gemm::tally::read();
            assert_eq!(after - products, 1);
            assert_eq!(after_madds - madds, t.len() as u64 * 8);
        }
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
