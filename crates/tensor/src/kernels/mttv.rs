//! Batched tensor-times-vector (mTTV / multi-TTV).
//!
//! Dimension-tree intermediates `𝓜^(S)` carry the CP rank as a trailing
//! mode. Transforming `𝓜^(S ∪ {j})` into `𝓜^(S)` contracts tensor mode `j`
//! *columnwise*: for every rank index `r`, a TTV against column `r` of the
//! factor matrix (Eq. (4) of the paper):
//!
//! `out(..., r) = Σ_y in(..., y, ..., r) · A(y, r)`
//!
//! # The loop
//!
//! Viewed as `(outer, mid, inner, R)` with `y` the contracted index, the
//! output is `outer · inner` rows of width `R`, row `(o, i)` the fold
//! `Σ_y in[o, y, i, :] ∗ A[y, :]`. A pool task is a run of output rows —
//! whole `outer` slabs when there are enough of them, row ranges inside a
//! slab otherwise — and makes one `simd_level()` dispatch: the whole `y`
//! loop runs inside one `#[target_feature]` clone, monomorphised for
//! `R ∈ {8, 16, 32}` with a generic arm for any other rank.
//!
//! * `inner == 1` (the last tensor mode: every final dimension-tree step,
//!   and `U^(n,i)` for `n < i`): a row's input is one contiguous run of
//!   `mid` rows, so each output row keeps its `R`-wide accumulator in
//!   registers across all of `y`, like a GEMV.
//! * `inner > 1`: `y` runs in blocks of `YB` = 4. Per block, each output row
//!   is loaded once, takes its `YB` FMAs while `YB` input rows stream side
//!   by side, and is stored once — not once per `y`.
//!
//! Either way rows go in tiles of `32 / R` (four 512-bit accumulators), so
//! that independent FMA chains overlap, and the `y` loop is a run-time
//! length reduction behind lockstep iterators: it cannot panic, the loop
//! vectorizer leaves it alone, and the tile never leaves the registers
//! (no `zmm` stack traffic in `fold_avx512`). Any other rank folds one
//! `y` at a time across the task's rows.
//!
//! Every output element is one chain from the zero-drawn output through
//! `y` ascending (fused on the FMA clones, a multiply and an add on the
//! scalar one), whatever the task split or block, so the output is the
//! same bits at any pool width.
//!
//! One FMA per input word: the kernel streams its input. Measured on a
//! 2-vCPU AVX-512 host (two pool threads, input resident), 512×512×16
//! contracts in 0.41 ms at position 0 and 0.21–0.29 ms at position 1
//! (≈ 80 and 110–160 GB/s of input), 256×256×32 in 0.12–0.14 and
//! 0.11 ms; EXPERIMENTS.md "PR 33" has the table. The paper finds PP's
//! approximated step — made of mTTVs — limited by vertical communication
//! for this reason (§IV, Fig. 3c–f).

use crate::dense::DenseTensor;
use crate::matrix::Matrix;
use crate::shape::Shape;
use crate::simd::{simd_level, SimdLevel};
use crate::workspace::Workspace;
use rayon::prelude::*;

/// Contracted rows per register block when `inner > 1`: each output row is
/// loaded and stored once per block. Chosen by measurement (EXPERIMENTS.md,
/// "PR 33").
const YB: usize = 4;

/// Contract output rows `row0 ..` (flat `(outer, inner)` index) of the
/// `(outer, mid, inner, r)` input `src` into `out`, a whole number of rows;
/// `fac` is the `mid × r` factor. One dispatch for the whole run: the
/// clone depends only on the CPU, and every clone makes the same chains.
fn fold_rows(out: &mut [f64], row0: usize, src: &[f64], fac: &[f64], r: usize, inner: usize) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level` probed AVX-512F+FMA at runtime.
        SimdLevel::Avx512 => unsafe { fold_avx512(out, row0, src, fac, r, inner) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level` probed AVX2+FMA at runtime.
        SimdLevel::Avx2 => unsafe { fold_avx2(out, row0, src, fac, r, inner) },
        SimdLevel::Scalar => fold_body::<false>(out, row0, src, fac, r, inner),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn fold_avx512(out: &mut [f64], row0: usize, src: &[f64], fac: &[f64], r: usize, inner: usize) {
    fold_body::<true>(out, row0, src, fac, r, inner)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn fold_avx2(out: &mut [f64], row0: usize, src: &[f64], fac: &[f64], r: usize, inner: usize) {
    fold_body::<true>(out, row0, src, fac, r, inner)
}

#[inline(always)]
fn fold_body<const FMA: bool>(
    out: &mut [f64],
    row0: usize,
    src: &[f64],
    fac: &[f64],
    r: usize,
    inner: usize,
) {
    let mid = fac.len() / r;
    if inner == 1 {
        // Output row `o` folds the contiguous run `src[o, .., :]`.
        let runs = &src[row0 * mid * r..][..out.len() * mid];
        match r {
            8 => return gemv::<8, 4, FMA>(out, runs, fac),
            16 => return gemv::<16, 2, FMA>(out, runs, fac),
            32 => return gemv::<32, 1, FMA>(out, runs, fac),
            _ => {}
        }
    }
    // One segment per `outer` slab the run of rows touches.
    let slab_len = mid * inner * r;
    let mut rest = out;
    let mut row = row0;
    while !rest.is_empty() {
        let (o, i0) = (row / inner, row % inner);
        let n = (rest.len() / r).min(inner - i0);
        let (seg, tail) = std::mem::take(&mut rest).split_at_mut(n * r);
        let slab = &src[o * slab_len..][..slab_len];
        match r {
            8 => y_blocks::<8, 4, FMA>(seg, slab, fac, inner, i0),
            16 => y_blocks::<16, 2, FMA>(seg, slab, fac, inner, i0),
            32 => y_blocks::<32, 1, FMA>(seg, slab, fac, inner, i0),
            _ => {
                for (y, a_row) in fac.chunks_exact(r).enumerate() {
                    let rows = &slab[(y * inner + i0) * r..][..n * r];
                    axpy_rows::<FMA>(seg, rows, a_row);
                }
            }
        }
        rest = tail;
        row += n;
    }
}

/// `acc + x · a` as one FMA on the FMA clones, a multiply and an add on
/// the scalar one.
#[inline(always)]
fn fma<const FMA: bool>(x: f64, a: f64, acc: f64) -> f64 {
    if FMA {
        x.mul_add(a, acc)
    } else {
        acc + x * a
    }
}

/// `inner == 1`: output row `o` is `Σ_y runs[o · mid + y] ∗ fac[y]`. Rows
/// go in tiles of `TM`, whose `TM × R` accumulator lives in registers
/// across the whole `y` loop; leftover rows go one at a time. `mid > 0`.
#[inline(always)]
fn gemv<const R: usize, const TM: usize, const FMA: bool>(
    out: &mut [f64],
    runs: &[f64],
    fac: &[f64],
) {
    let out = out.as_chunks_mut::<R>().0;
    let runs = runs.as_chunks::<R>().0;
    let fac = fac.as_chunks::<R>().0;
    let mid = fac.len();
    let tiled = out.len() / TM * TM;
    let (head, tail) = out.split_at_mut(tiled);
    let (runs_head, runs_tail) = runs.split_at(tiled * mid);
    for (rows, run) in head
        .as_chunks_mut::<TM>()
        .0
        .iter_mut()
        .zip(runs_head.chunks_exact(TM * mid))
    {
        gemv_tile::<R, TM, FMA>(rows, run, fac);
    }
    for (row, run) in tail.iter_mut().zip(runs_tail.chunks_exact(mid)) {
        gemv_tile::<R, 1, FMA>(std::array::from_mut(row), run, fac);
    }
}

#[inline(always)]
fn gemv_tile<const R: usize, const TM: usize, const FMA: bool>(
    rows: &mut [[f64; R]; TM],
    run: &[[f64; R]],
    fac: &[[f64; R]],
) {
    // Lockstep iterators and a `let-else` exit that never fires: nothing
    // in the `y` loop can panic.
    let mut parts = run.chunks_exact(fac.len());
    let mut xs: [_; TM] = std::array::from_fn(|_| parts.next().unwrap_or_default().iter());
    let mut acc = *rows;
    'y: for a in fac {
        for t in 0..TM {
            let Some(x) = xs[t].next() else {
                break 'y;
            };
            fma_row::<R, FMA>(x, a, &mut acc[t]);
        }
    }
    *rows = acc;
}

/// `inner > 1`: fold all `mid` factor rows into the output rows `seg`,
/// which are rows `i0 ..` of the `(mid, inner, R)` input slab `slab`. `y`
/// runs in blocks of [`YB`]; per block, tiles of `TM` rows keep their
/// accumulators in registers while the block's input rows stream.
#[inline(always)]
fn y_blocks<const R: usize, const TM: usize, const FMA: bool>(
    seg: &mut [f64],
    slab: &[f64],
    fac: &[f64],
    inner: usize,
    i0: usize,
) {
    let seg = seg.as_chunks_mut::<R>().0;
    let slab = slab.as_chunks::<R>().0;
    let fac = fac.as_chunks::<R>().0;
    let tiled = seg.len() / TM * TM;
    for (b, a) in fac.chunks(YB).enumerate() {
        let first = b * YB * inner + i0;
        let (head, tail) = seg.split_at_mut(tiled);
        for (t, rows) in head.as_chunks_mut::<TM>().0.iter_mut().enumerate() {
            block_tile::<R, TM, FMA>(rows, a, &slab[first + t * TM..], inner);
        }
        for (t, row) in tail.iter_mut().enumerate() {
            let x = &slab[first + tiled + t..];
            block_tile::<R, 1, FMA>(std::array::from_mut(row), a, x, inner);
        }
    }
}

/// Fold the factor rows `a` into the `TM` consecutive output rows `rows`,
/// whose input rows against `a[k]` start at `x[k · inner]`. The `y` loop is
/// a run-time-length reduction, so the vectorizer leaves it (and the row
/// loop around it) alone and the `TM × R` accumulator stays in registers.
#[inline(always)]
fn block_tile<const R: usize, const TM: usize, const FMA: bool>(
    rows: &mut [[f64; R]; TM],
    a: &[[f64; R]],
    x: &[[f64; R]],
    inner: usize,
) {
    let mut acc = *rows;
    for (a, xs) in a.iter().zip(x.chunks(inner)) {
        let Some(xs) = xs.first_chunk::<TM>() else {
            break;
        };
        for t in 0..TM {
            fma_row::<R, FMA>(&xs[t], a, &mut acc[t]);
        }
    }
    *rows = acc;
}

/// `acc[j] = x[j] · a[j] + acc[j]` across one row.
#[inline(always)]
fn fma_row<const R: usize, const FMA: bool>(x: &[f64; R], a: &[f64; R], acc: &mut [f64; R]) {
    for ((acc, &x), &a) in acc.iter_mut().zip(x).zip(a) {
        *acc = fma::<FMA>(x, a, *acc);
    }
}

/// Columnwise accumulate `out[i, :] += in[i, :] ∗ a_row` over row pairs of
/// width `r`, for callers that are already inside a `#[target_feature]`
/// clone (the semi-sparse mTTV): `FMA` must be `true` only there — see the
/// `simd` module docs. `r ∈ {8, 16, 32}` run fully unrolled monomorphized
/// bodies.
#[inline(always)]
pub(crate) fn slab_axpy_body<const FMA: bool>(out: &mut [f64], inp: &[f64], a_row: &[f64]) {
    match a_row.len() {
        8 => slab_axpy_fixed::<8, FMA>(out, inp, a_row),
        16 => slab_axpy_fixed::<16, FMA>(out, inp, a_row),
        32 => slab_axpy_fixed::<32, FMA>(out, inp, a_row),
        _ => axpy_rows::<FMA>(out, inp, a_row),
    }
}

/// [`slab_axpy_body`] at a run-time width.
#[inline(always)]
fn axpy_rows<const FMA: bool>(out: &mut [f64], inp: &[f64], a_row: &[f64]) {
    let r = a_row.len();
    for (ob, ib) in out.chunks_exact_mut(r).zip(inp.chunks_exact(r)) {
        for ((ov, iv), av) in ob.iter_mut().zip(ib.iter()).zip(a_row.iter()) {
            *ov = fma::<FMA>(*iv, *av, *ov);
        }
    }
}

#[inline(always)]
fn slab_axpy_fixed<const R: usize, const FMA: bool>(out: &mut [f64], inp: &[f64], a_row: &[f64]) {
    let a: &[f64; R] = a_row.try_into().unwrap();
    for (ob, ib) in out.chunks_exact_mut(R).zip(inp.chunks_exact(R)) {
        let ib: &[f64; R] = ib.try_into().unwrap();
        for j in 0..R {
            ob[j] = fma::<FMA>(ib[j], a[j], ob[j]);
        }
    }
}

/// Input length from which the kernel runs on the pool. Pooled dispatch is
/// an enqueue + atomic chunk claims, so the parallel path pays off 4×
/// earlier than under per-call thread spawning (256K).
const PAR_ELEMS: usize = 64 * 1024;

/// Result of an mTTV with cost bookkeeping.
pub struct MttvOutput {
    /// The contracted intermediate: input shape with position `pos` removed.
    pub tensor: DenseTensor,
    /// Flops performed (`2 · |in|`).
    pub flops: u64,
    /// Main-memory words touched (read input + factor, write output).
    pub mem_words: u64,
}

/// Contract tensor-mode position `pos` (0-based, excluding the trailing rank
/// mode) of intermediate `inter` with `factor` whose rows match that extent
/// and whose columns match the trailing rank extent.
pub fn mttv(inter: &DenseTensor, pos: usize, factor: &Matrix) -> MttvOutput {
    mttv_in(&Workspace::unpooled(), inter, pos, factor)
}

/// [`mttv`] with the output drawn from `ws` — zero-filled, because the
/// kernel accumulates into it.
pub fn mttv_in(ws: &Workspace, inter: &DenseTensor, pos: usize, factor: &Matrix) -> MttvOutput {
    let order = inter.order();
    assert!(
        order >= 2,
        "intermediate must have at least one tensor mode plus rank"
    );
    let ntensor_modes = order - 1;
    assert!(
        pos < ntensor_modes,
        "pos {pos} out of range ({ntensor_modes} tensor modes)"
    );
    let r = inter.dim(order - 1);
    assert_eq!(factor.cols(), r, "factor columns must equal rank extent");
    assert_eq!(
        factor.rows(),
        inter.dim(pos),
        "factor rows must match contracted extent"
    );

    let dims = inter.shape().dims();
    let outer: usize = dims[..pos].iter().product();
    let mid = dims[pos];
    let inner: usize = dims[pos + 1..order - 1].iter().product();

    let mut out_dims: Vec<usize> = dims[..pos].to_vec();
    out_dims.extend_from_slice(&dims[pos + 1..order - 1]);
    out_dims.push(r);
    let out_shape = Shape::new(out_dims);
    let mut out = ws.draw_zeroed(out_shape.len());

    let src = inter.data();
    let fac = factor.data();
    let rows = outer * inner;
    if mid == 0 || rows == 0 || r == 0 {
        // Nothing to fold: the output stays zero.
    } else if inter.len() >= PAR_ELEMS && rows > 1 {
        // ~4× task oversubscription lets the pool's dynamic claiming
        // balance the workers. A task is whole slabs when one slab is at
        // most its share, else a row range (which may span a slab border).
        let per_task = rows.div_ceil(4 * rayon::current_num_threads().max(1));
        let task_rows = if per_task >= inner {
            per_task / inner * inner
        } else {
            per_task
        };
        out.par_chunks_mut(task_rows * r)
            .enumerate()
            .for_each(|(t, rows)| fold_rows(rows, t * task_rows, src, fac, r, inner));
    } else {
        fold_rows(&mut out, 0, src, fac, r, inner);
    }

    let flops = 2 * inter.len() as u64;
    let mem_words = inter.len() as u64 + out_shape.len() as u64 + (factor.rows() * r) as u64;
    MttvOutput {
        tensor: DenseTensor::from_buffer(out_shape, out),
        flops,
        mem_words,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{seeded, uniform_matrix, uniform_tensor};

    /// The bitwise oracle: one scalar fold per output element, starting at
    /// 0 and running `y` ascending, fused (`mul_add`) exactly where the
    /// kernel's clones fuse and a separate multiply and add elsewhere.
    fn oracle(inter: &DenseTensor, pos: usize, a: &Matrix) -> DenseTensor {
        let fuse = simd_level() != SimdLevel::Scalar;
        let dims = inter.shape().dims();
        let order = dims.len();
        let r = dims[order - 1];
        let outer: usize = dims[..pos].iter().product();
        let mid = dims[pos];
        let inner: usize = dims[pos + 1..order - 1].iter().product();
        let src = inter.data();
        let mut out = Vec::with_capacity(outer * inner * r);
        for o in 0..outer {
            for i in 0..inner {
                for j in 0..r {
                    let mut acc = 0.0f64;
                    for y in 0..mid {
                        let x = src[((o * mid + y) * inner + i) * r + j];
                        let w = a.get(y, j);
                        acc = if fuse { x.mul_add(w, acc) } else { acc + x * w };
                    }
                    out.push(acc);
                }
            }
        }
        let mut out_dims = dims[..pos].to_vec();
        out_dims.extend_from_slice(&dims[pos + 1..]);
        DenseTensor::from_vec(out_dims, out)
    }

    fn assert_bitwise(got: &DenseTensor, want: &DenseTensor, what: &str) {
        assert_eq!(got.shape().dims(), want.shape().dims(), "{what}");
        for (k, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {k}: {g} vs {w}");
        }
    }

    fn seq_tensor(dims: Vec<usize>) -> DenseTensor {
        let shape = Shape::new(dims);
        let len = shape.len();
        DenseTensor::from_vec(
            shape,
            (0..len)
                .map(|x| ((x * 7919) % 23) as f64 / 11.0 - 1.0)
                .collect(),
        )
    }

    #[test]
    fn mttv_matches_naive_all_positions() {
        // Order-3 intermediate (2 tensor modes + rank).
        let inter = seq_tensor(vec![4, 5, 3]);
        for pos in 0..2 {
            let a = Matrix::from_fn(inter.dim(pos), 3, |i, j| ((i + j) % 4) as f64 - 1.5);
            let got = mttv(&inter, pos, &a);
            assert_bitwise(&got.tensor, &oracle(&inter, pos, &a), &format!("pos {pos}"));
            assert_eq!(got.flops, 2 * 60);
        }
    }

    #[test]
    fn mttv_order4_intermediate() {
        let inter = seq_tensor(vec![3, 4, 2, 5]);
        for pos in 0..3 {
            let a = Matrix::from_fn(inter.dim(pos), 5, |i, j| (i * 5 + j) as f64 * 0.1);
            let got = mttv(&inter, pos, &a).tensor;
            assert_bitwise(&got, &oracle(&inter, pos, &a), &format!("pos {pos}"));
        }
    }

    #[test]
    fn mttv_down_to_matrix() {
        // Contract an (s1, s2, R) intermediate at pos 1 → (s1, R): the final
        // dimension-tree step producing an MTTKRP result.
        let inter = seq_tensor(vec![6, 4, 2]);
        let a = Matrix::from_fn(4, 2, |i, j| (i + 1) as f64 * (j + 1) as f64);
        let got = mttv(&inter, 1, &a).tensor;
        assert_eq!(got.shape().dims(), &[6, 2]);
        assert_bitwise(&got, &oracle(&inter, 1, &a), "pos 1");
    }

    #[test]
    fn mttv_parallel_paths_match() {
        // Big enough (≥ PAR_ELEMS) to trigger both parallel branches.
        let inter = seq_tensor(vec![128, 64, 32]); // outer path via pos=1
        let a1 = Matrix::from_fn(64, 32, |i, j| ((i * 17 + j * 3) % 7) as f64 - 3.0);
        let got1 = mttv(&inter, 1, &a1).tensor;
        assert_bitwise(&got1, &oracle(&inter, 1, &a1), "pos 1");

        let a0 = Matrix::from_fn(128, 32, |i, j| ((i * 5 + j) % 9) as f64 / 4.0);
        let got0 = mttv(&inter, 0, &a0).tensor; // leading-mode path
        assert_bitwise(&got0, &oracle(&inter, 0, &a0), "pos 0");
    }

    #[test]
    fn mttv_is_the_oracle_bit_for_bit_at_every_shape_and_width() {
        // Every position of order-2 to order-5 intermediates, fixed and
        // generic ranks, contracted extents that are no multiple of a small
        // power of two, and inputs on both sides of `PAR_ELEMS`. Random
        // entries make any change of summation order or fusion visible;
        // every 17th is zero, so signed zeros are produced too.
        let mut rng = seeded(33);
        for r in [8usize, 16, 32, 5, 24] {
            let shapes: [&[usize]; 8] = [
                &[29],
                &[13_111],
                &[21, 13],
                &[331, 41],
                &[3, 7, 5],
                &[45, 23, 13],
                &[4, 3, 5, 7],
                &[9, 11, 6, 10],
            ];
            for tensor_dims in shapes {
                let mut dims = tensor_dims.to_vec();
                dims.push(r);
                let mut inter = uniform_tensor(&dims, &mut rng);
                for x in inter.data_mut().iter_mut().step_by(17) {
                    *x = 0.0;
                }
                for pos in 0..tensor_dims.len() {
                    let mut a = uniform_matrix(dims[pos], r, &mut rng);
                    for x in a.data_mut().iter_mut().skip(3).step_by(11) {
                        *x = -*x;
                    }
                    let want = oracle(&inter, pos, &a);
                    for threads in [1, 2, 4] {
                        let _w = rayon::scoped_num_threads(threads);
                        let got = mttv(&inter, pos, &a).tensor;
                        let what = format!("dims {dims:?} pos {pos} threads {threads}");
                        assert_bitwise(&got, &want, &what);
                    }
                }
            }
        }
        // The shape list spans the pooled threshold at every rank.
        const { assert!(29 * 32 < PAR_ELEMS && 13_111 * 5 >= PAR_ELEMS) };
    }
}
