//! Khatri-Rao products, the CP model tensor built from them, and the Γ
//! Hadamard chains of CP-ALS.
//!
//! # The model tensor, bit for bit
//!
//! [`reconstruct`] is the production form of the scalar oracle
//! [`crate::kernels::naive::reconstruct`], and returns the same bits. The
//! oracle computes each element as a fold from `0.0`, `r` ascending, of
//! the product `((1.0·A⁰[i₀,r])·A¹[i₁,r])·…·A^{N−1}[i_{N−1},r]` taken left
//! to right. Every element of one output row (fixed `i₀ … i_{N−2}`) shares
//! the leading part of that product, so the kernel forms the prefix row
//! `p[r] = (1.0·A⁰[i₀,r])·…·A^{N−2}[i_{N−2},r]` once per output row, in
//! the same order, and then adds `p[r] · (A^{N−1})ᵀ[r, :]` into the
//! contiguous row, `r` ascending, a multiply and an add each (never a
//! `mul_add`). Each element therefore sees the oracle's operations in the
//! oracle's order, at any pool width.
//!
//! It is not a GEMM over the Khatri–Rao product on purpose: a packed GEMM
//! fuses and sums in KC panels, which would change the bits of every
//! generated dataset and so every golden built from one.

use crate::dense::DenseTensor;
use crate::matrix::Matrix;
use crate::shape::Shape;
use crate::simd::{simd_level, SimdLevel};
use rayon::prelude::*;

/// Minimum output elements before the row-blocked parallel path pays for
/// the pool dispatch (an enqueue plus atomic chunk claims).
const PAR_ELEMS: usize = 1 << 14;

/// Fill rows `[row0, row0 + block.len()/r)` of the Khatri-Rao output, the
/// odometer initialized by mixed-radix decoding of `row0` (last matrix
/// fastest). Rank-specialized (`r ∈ {8, 16, 32}` multiply through fully
/// unrolled monomorphized bodies) and SIMD-multiversioned; every variant
/// multiplies in the same order, so output is bit-identical for any
/// thread count and dispatch level.
fn fill_rows(mats: &[&Matrix], r: usize, row0: usize, block: &mut [f64]) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level` probed AVX-512F at runtime.
        SimdLevel::Avx512 => unsafe { fill_rows_avx512(mats, r, row0, block) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level` probed AVX2 at runtime.
        SimdLevel::Avx2 => unsafe { fill_rows_avx2(mats, r, row0, block) },
        SimdLevel::Scalar => fill_rows_body(mats, r, row0, block),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fill_rows_avx512(mats: &[&Matrix], r: usize, row0: usize, block: &mut [f64]) {
    fill_rows_body(mats, r, row0, block)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fill_rows_avx2(mats: &[&Matrix], r: usize, row0: usize, block: &mut [f64]) {
    fill_rows_body(mats, r, row0, block)
}

#[inline(always)]
fn fill_rows_body(mats: &[&Matrix], r: usize, row0: usize, block: &mut [f64]) {
    match r {
        8 => fill_rows_fixed::<8>(mats, row0, block),
        16 => fill_rows_fixed::<16>(mats, row0, block),
        32 => fill_rows_fixed::<32>(mats, row0, block),
        _ => {
            let mut idx = odometer_init(mats, row0);
            for orow in block.chunks_exact_mut(r) {
                for (m, &i) in mats.iter().zip(idx.iter()) {
                    let mrow = m.row(i);
                    for (o, v) in orow.iter_mut().zip(mrow.iter()) {
                        *o *= v;
                    }
                }
                odometer_step(mats, &mut idx);
            }
        }
    }
}

#[inline(always)]
fn fill_rows_fixed<const R: usize>(mats: &[&Matrix], row0: usize, block: &mut [f64]) {
    let mut idx = odometer_init(mats, row0);
    for orow in block.chunks_exact_mut(R) {
        let orow: &mut [f64; R] = orow.try_into().unwrap();
        for (m, &i) in mats.iter().zip(idx.iter()) {
            let mrow: &[f64; R] = m.row(i).try_into().unwrap();
            for j in 0..R {
                orow[j] *= mrow[j];
            }
        }
        odometer_step(mats, &mut idx);
    }
}

/// Mixed-radix decode of `row0` into per-matrix row indices (last matrix
/// fastest).
fn odometer_init(mats: &[&Matrix], row0: usize) -> Vec<usize> {
    let mut idx = vec![0usize; mats.len()];
    let mut rem = row0;
    for k in (0..mats.len()).rev() {
        idx[k] = rem % mats[k].rows();
        rem /= mats[k].rows();
    }
    idx
}

/// Odometer increment, last matrix fastest.
#[inline(always)]
fn odometer_step(mats: &[&Matrix], idx: &mut [usize]) {
    for k in (0..mats.len()).rev() {
        idx[k] += 1;
        if idx[k] < mats[k].rows() {
            break;
        }
        idx[k] = 0;
    }
}

/// Column-wise Khatri-Rao product of a list of matrices sharing a column
/// count `R`. Row ordering: `mats[0]`'s row index varies *slowest* — matching
/// the row-major unfolding used by [`crate::kernels::naive::unfold`], so that
/// `M^(n) = unfold_n(T) · khatri_rao(other factors in mode order)`.
///
/// Output rows are independent, so the materialization is row-blocked over
/// the persistent pool: each block decodes its starting odometer state from
/// the row index and walks its rows locally. Per-row work is identical to
/// the serial loop, so results are bit-identical for any thread count.
pub fn khatri_rao(mats: &[&Matrix]) -> Matrix {
    assert!(!mats.is_empty(), "khatri_rao of empty list");
    let r = mats[0].cols();
    for m in mats {
        assert_eq!(m.cols(), r, "khatri_rao column count mismatch");
    }
    let total_rows: usize = mats.iter().map(|m| m.rows()).product();
    let mut out = Matrix::from_fn(total_rows, r, |_, _| 1.0);

    let nthreads = rayon::current_num_threads().max(1);
    if total_rows > 1 && total_rows * r >= PAR_ELEMS && nthreads > 1 {
        let rows_per_chunk = total_rows.div_ceil(nthreads * 4).max(1);
        out.data_mut()
            .par_chunks_mut(rows_per_chunk * r)
            .enumerate()
            .for_each(|(ci, block)| fill_rows(mats, r, ci * rows_per_chunk, block));
    } else {
        fill_rows(mats, r, 0, out.data_mut());
    }
    out
}

/// The CP rank `R` of a factor list: the one column count every factor
/// shares. Panics on an empty list or on a factor whose width differs from
/// `factors[0]`'s, naming it.
pub(crate) fn model_rank(factors: &[Matrix]) -> usize {
    assert!(!factors.is_empty(), "reconstruct of an empty factor list");
    let r = factors[0].cols();
    for (k, f) in factors.iter().enumerate() {
        assert_eq!(
            f.cols(),
            r,
            "reconstruct: factor {k} has {} columns, factor 0 has {r}",
            f.cols()
        );
    }
    r
}

/// The CP model tensor `[[A^(1), ..., A^(N)]]`, bit for bit
/// [`crate::kernels::naive::reconstruct`] (see the module docs): one
/// prefix product per output row, then one row axpy per rank.
///
/// Output rows are independent, so they are split over the persistent pool
/// in contiguous blocks like [`khatri_rao`]'s; the arithmetic of an element
/// does not depend on the split. The result lives in the same store-backed
/// buffer as [`DenseTensor::zeros`].
pub fn reconstruct(factors: &[Matrix]) -> DenseTensor {
    let r = model_rank(factors);
    let dims: Vec<usize> = factors.iter().map(|f| f.rows()).collect();
    let mut out = DenseTensor::zeros(Shape::new(dims));
    if out.is_empty() {
        return out;
    }
    let (last, lead) = factors.split_last().expect("checked non-empty");
    let lead: Vec<&Matrix> = lead.iter().collect();
    let last_t = last.transpose();
    let s = last.rows();
    let rows = out.len() / s;

    let nthreads = rayon::current_num_threads().max(1);
    if rows > 1 && out.len() >= PAR_ELEMS && nthreads > 1 {
        let rows_per_chunk = rows.div_ceil(nthreads * 4).max(1);
        out.data_mut()
            .par_chunks_mut(rows_per_chunk * s)
            .enumerate()
            .for_each(|(ci, block)| model_rows(&lead, &last_t, r, ci * rows_per_chunk, block));
    } else {
        model_rows(&lead, &last_t, r, 0, out.data_mut());
    }
    out
}

/// Fill the zeroed output rows `[row0, row0 + block.len()/s)` of the model
/// tensor, `s = last_t.cols()`; `lead` holds every factor but the last.
fn model_rows(lead: &[&Matrix], last_t: &Matrix, r: usize, row0: usize, block: &mut [f64]) {
    let s = last_t.cols();
    let mut idx = odometer_init(lead, row0);
    let mut prefix = vec![0.0; r];
    for orow in block.chunks_exact_mut(s) {
        prefix.fill(1.0);
        for (m, &i) in lead.iter().zip(idx.iter()) {
            for (p, &a) in prefix.iter_mut().zip(m.row(i)) {
                *p *= a;
            }
        }
        for (&p, arow) in prefix.iter().zip(last_t.data().chunks_exact(s)) {
            for (o, &a) in orow.iter_mut().zip(arow) {
                *o += p * a;
            }
        }
        odometer_step(lead, &mut idx);
    }
}

/// The Γ^(skip) matrix of Eq. (1): Hadamard product of all Gram matrices
/// except `skip`. Equivalent to
/// [`crate::matrix::hadamard_chain_skip`], re-exported here so callers find
/// it next to the Khatri-Rao product it pairs with.
pub fn gamma(grams: &[Matrix], skip: usize) -> Matrix {
    crate::matrix::hadamard_chain_skip(grams, skip)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn krp_two_matrices() {
        let a = Matrix::from_fn(2, 2, |i, j| (i * 2 + j + 1) as f64); // [[1,2],[3,4]]
        let b = Matrix::from_fn(3, 2, |i, j| (i * 2 + j + 10) as f64);
        let k = khatri_rao(&[&a, &b]);
        assert_eq!(k.rows(), 6);
        // Row (i_a=1, i_b=2): a.row(1) * b.row(2) elementwise.
        assert_eq!(k.get(3 + 2, 0), 3.0 * 14.0);
        assert_eq!(k.get(3 + 2, 1), 4.0 * 15.0);
        // a's index is slowest: rows 0..3 share a.row(0).
        assert_eq!(k.get(0, 0), 1.0 * 10.0);
        assert_eq!(k.get(2, 0), 1.0 * 14.0);
    }

    #[test]
    fn krp_single_matrix_is_identity_op() {
        let a = Matrix::from_fn(3, 2, |i, j| (i + j) as f64);
        let k = khatri_rao(&[&a]);
        assert_eq!(k.data(), a.data());
    }

    #[test]
    fn krp_three_matrices_rank1_check() {
        // With R=1 the KRP is the Kronecker product of the single columns.
        let a = Matrix::from_vec(2, 1, vec![2.0, 3.0]);
        let b = Matrix::from_vec(2, 1, vec![5.0, 7.0]);
        let c = Matrix::from_vec(2, 1, vec![11.0, 13.0]);
        let k = khatri_rao(&[&a, &b, &c]);
        assert_eq!(k.rows(), 8);
        // idx (1,0,1): 3 * 5 * 13
        assert_eq!(k.get(4 + 1, 0), 3.0 * 5.0 * 13.0);
    }

    #[test]
    fn krp_parallel_path_matches_rowwise_oracle() {
        // Large enough to cross PAR_ELEMS and exercise the pooled path.
        let a = Matrix::from_fn(64, 24, |i, j| ((i * 7 + j * 3) % 11) as f64 - 5.0);
        let b = Matrix::from_fn(48, 24, |i, j| ((i * 5 + j) % 9) as f64 / 4.0 - 1.0);
        let c = Matrix::from_fn(16, 24, |i, j| ((i + j * 2) % 7) as f64 - 3.0);
        let k = khatri_rao(&[&a, &b, &c]);
        assert_eq!(k.rows(), 64 * 48 * 16);
        for &(ia, ib, ic) in &[(0, 0, 0), (1, 2, 3), (63, 47, 15), (17, 31, 9)] {
            let row = (ia * 48 + ib) * 16 + ic;
            for col in 0..24 {
                let want = a.get(ia, col) * b.get(ib, col) * c.get(ic, col);
                assert_eq!(k.get(row, col), want, "row {row} col {col}");
            }
        }
    }

    fn assert_bitwise(got: &DenseTensor, want: &DenseTensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (k, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {k}: {g} vs {w}");
        }
    }

    #[test]
    fn reconstruct_is_the_oracle_bit_for_bit_at_every_shape_and_width() {
        // Orders 1 to 5, last extents of 1 and odd, and tensors on both
        // sides of `PAR_ELEMS`. Random entries with flipped signs and zeros
        // make any change of product order, summation order or fusion
        // visible, signed zeros included.
        let mut rng = crate::rng::seeded(36);
        let shapes: [&[usize]; 12] = [
            &[7],
            &[20_001],
            &[3, 1],
            &[9, 5],
            &[200, 97],
            &[5, 7, 1],
            &[4, 3, 5],
            &[160, 120, 1],
            &[40, 33, 17],
            &[4, 3, 5, 1],
            &[13, 11, 13, 9],
            &[7, 6, 8, 7, 9],
        ];
        for r in [1usize, 5, 8, 12, 16, 24, 32] {
            for dims in shapes {
                let factors: Vec<Matrix> = dims
                    .iter()
                    .map(|&d| {
                        let mut a = crate::rng::uniform_matrix(d, r, &mut rng);
                        for x in a.data_mut().iter_mut().skip(3).step_by(7) {
                            *x = -*x;
                        }
                        for x in a.data_mut().iter_mut().step_by(13) {
                            *x = 0.0;
                        }
                        a
                    })
                    .collect();
                let want = crate::kernels::naive::reconstruct(&factors);
                for threads in [1, 2, 4] {
                    let _w = rayon::scoped_num_threads(threads);
                    let what = format!("dims {dims:?} R{r} threads {threads}");
                    assert_bitwise(&reconstruct(&factors), &want, &what);
                }
            }
        }
        // The shape list spans the pooled threshold at every order.
        const { assert!(7 * 6 * 8 * 7 * 9 >= PAR_ELEMS && 4 * 3 * 5 < PAR_ELEMS) };
    }

    #[test]
    fn reconstruct_keeps_an_empty_mode_empty() {
        let a = Matrix::from_fn(3, 2, |i, j| (i + j) as f64);
        let t = reconstruct(&[a, Matrix::zeros(0, 2)]);
        assert_eq!(t.shape().dims(), &[3, 0]);
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "factor 2 has 3 columns, factor 0 has 4")]
    fn reconstruct_rejects_a_narrower_factor() {
        let f = |rows, cols| Matrix::from_fn(rows, cols, |i, j| (i * cols + j) as f64);
        let _ = reconstruct(&[f(5, 4), f(6, 4), f(7, 3)]);
    }

    #[test]
    #[should_panic(expected = "factor 1 has 5 columns, factor 0 has 4")]
    fn oracle_rejects_a_wider_factor() {
        let f = |rows, cols| Matrix::from_fn(rows, cols, |i, j| (i * cols + j) as f64);
        let _ = crate::kernels::naive::reconstruct(&[f(5, 4), f(6, 5)]);
    }

    #[test]
    #[should_panic(expected = "empty factor list")]
    fn reconstruct_rejects_an_empty_factor_list() {
        let _ = reconstruct(&[]);
    }

    #[test]
    fn gamma_skips_correctly() {
        let s1 = Matrix::from_fn(2, 2, |_, _| 2.0);
        let s2 = Matrix::from_fn(2, 2, |_, _| 3.0);
        let s3 = Matrix::from_fn(2, 2, |_, _| 5.0);
        let g = gamma(&[s1, s2, s3], 2);
        assert_eq!(g.get(1, 1), 6.0);
    }
}
