//! Batched tensor-times-vector (mTTV / multi-TTV).
//!
//! Dimension-tree intermediates `𝓜^(S)` carry the CP rank as a trailing
//! mode. Transforming `𝓜^(S ∪ {j})` into `𝓜^(S)` contracts tensor mode `j`
//! *columnwise*: for every rank index `r`, a TTV against column `r` of the
//! factor matrix (Eq. (4) of the paper):
//!
//! `out(..., r) = Σ_y in(..., y, ..., r) · A(y, r)`
//!
//! This kernel is memory-bandwidth bound (arithmetic intensity ≈ 1 flop per
//! word), which is why the paper finds PP's approximated step — made of
//! mTTVs — limited by vertical communication (§IV, Fig. 3c–f).

use crate::dense::DenseTensor;
use crate::matrix::Matrix;
use crate::shape::Shape;
use crate::simd::{simd_level, SimdLevel};
use crate::workspace::Workspace;
use rayon::prelude::*;

/// Columnwise accumulate `out[i, :] += in[i, :] ∗ a_row` over row pairs of
/// width `r` — the inner loop of every mTTV step. Rank-specialized
/// (`r ∈ {8, 16, 32}` run fully unrolled monomorphized bodies) and
/// SIMD-multiversioned like the GEMM micro-kernel: the dispatch depends
/// only on `r` and the CPU, and every variant performs the same
/// per-element operation order, so outputs stay bit-identical across
/// thread counts.
fn slab_axpy(out: &mut [f64], inp: &[f64], a_row: &[f64]) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level` probed AVX-512F+FMA at runtime.
        SimdLevel::Avx512 => unsafe { slab_axpy_avx512(out, inp, a_row) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level` probed AVX2+FMA at runtime.
        SimdLevel::Avx2 => unsafe { slab_axpy_avx2(out, inp, a_row) },
        SimdLevel::Scalar => slab_axpy_body::<false>(out, inp, a_row),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn slab_axpy_avx512(out: &mut [f64], inp: &[f64], a_row: &[f64]) {
    slab_axpy_body::<true>(out, inp, a_row)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn slab_axpy_avx2(out: &mut [f64], inp: &[f64], a_row: &[f64]) {
    slab_axpy_body::<true>(out, inp, a_row)
}

/// The row op itself, for callers that are already inside a
/// `#[target_feature]` clone (the semi-sparse mTTV): `FMA` must be `true`
/// only there — see the `simd` module docs.
#[inline(always)]
pub(crate) fn slab_axpy_body<const FMA: bool>(out: &mut [f64], inp: &[f64], a_row: &[f64]) {
    match a_row.len() {
        8 => slab_axpy_fixed::<8, FMA>(out, inp, a_row),
        16 => slab_axpy_fixed::<16, FMA>(out, inp, a_row),
        32 => slab_axpy_fixed::<32, FMA>(out, inp, a_row),
        r => {
            for (ob, ib) in out.chunks_exact_mut(r).zip(inp.chunks_exact(r)) {
                for ((ov, iv), av) in ob.iter_mut().zip(ib.iter()).zip(a_row.iter()) {
                    if FMA {
                        *ov = iv.mul_add(*av, *ov);
                    } else {
                        *ov += iv * av;
                    }
                }
            }
        }
    }
}

#[inline(always)]
fn slab_axpy_fixed<const R: usize, const FMA: bool>(out: &mut [f64], inp: &[f64], a_row: &[f64]) {
    let a: &[f64; R] = a_row.try_into().unwrap();
    for (ob, ib) in out.chunks_exact_mut(R).zip(inp.chunks_exact(R)) {
        let ib: &[f64; R] = ib.try_into().unwrap();
        for j in 0..R {
            if FMA {
                ob[j] = ib[j].mul_add(a[j], ob[j]);
            } else {
                ob[j] += ib[j] * a[j];
            }
        }
    }
}

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
    let slab = inner * r; // contiguous (inner, R) slab length

    let work = |o: usize, out_block: &mut [f64]| {
        // out_block is the (inner, R) slab for outer index o.
        let base_in = o * mid * slab;
        for y in 0..mid {
            let in_slab = &src[base_in + y * slab..base_in + (y + 1) * slab];
            let a_row = &fac[y * r..(y + 1) * r];
            // out[i, r] += in[i, r] * a[y, r]; r is innermost and unit stride.
            slab_axpy(out_block, in_slab, a_row);
        }
    };

    // Pooled dispatch is an enqueue + atomic chunk claims, so the parallel
    // path pays off 4× earlier than under per-call thread spawning (256K).
    const PAR_ELEMS: usize = 64 * 1024;
    if outer > 1 && inter.len() >= PAR_ELEMS {
        out.par_chunks_mut(slab)
            .enumerate()
            .for_each(|(o, block)| work(o, block));
    } else if outer == 1 && inter.len() >= PAR_ELEMS && inner > 1 {
        // Contraction over the leading mode: parallelize over inner slabs.
        // Each task owns a contiguous chunk of the output's (inner, R) plane
        // and strides over y in the input. ~4× chunk oversubscription lets
        // the pool's dynamic claiming balance the workers.
        let nthreads = rayon::current_num_threads().max(1);
        let chunk_rows = inner.div_ceil(nthreads * 4).max(1);
        out.par_chunks_mut(chunk_rows * r)
            .enumerate()
            .for_each(|(ci, block)| {
                let i0 = ci * chunk_rows;
                let rows_here = block.len() / r;
                for y in 0..mid {
                    let a_row = &fac[y * r..(y + 1) * r];
                    let in_off = y * slab + i0 * r;
                    let in_block = &src[in_off..in_off + rows_here * r];
                    slab_axpy(block, in_block, a_row);
                }
            });
    } else {
        for o in 0..outer {
            work(o, &mut out[o * slab..(o + 1) * slab]);
        }
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

    fn naive_mttv(inter: &DenseTensor, pos: usize, a: &Matrix) -> DenseTensor {
        let order = inter.order();
        let r = inter.dim(order - 1);
        let mut out_dims: Vec<usize> = inter.shape().dims()[..pos].to_vec();
        out_dims.extend_from_slice(&inter.shape().dims()[pos + 1..order - 1]);
        out_dims.push(r);
        let mut out = DenseTensor::zeros(out_dims);
        for idx in inter.shape().indices() {
            let y = idx[pos];
            let rr = idx[order - 1];
            let mut oidx: Vec<usize> = idx[..pos].to_vec();
            oidx.extend_from_slice(&idx[pos + 1..order - 1]);
            oidx.push(rr);
            let cur = out.get(&oidx);
            out.set(&oidx, cur + inter.get(&idx) * a.get(y, rr));
        }
        out
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
            let want = naive_mttv(&inter, pos, &a);
            assert!(got.tensor.max_abs_diff(&want) < 1e-10, "pos {pos}");
            assert_eq!(got.flops, 2 * 60);
        }
    }

    #[test]
    fn mttv_order4_intermediate() {
        let inter = seq_tensor(vec![3, 4, 2, 5]);
        for pos in 0..3 {
            let a = Matrix::from_fn(inter.dim(pos), 5, |i, j| (i * 5 + j) as f64 * 0.1);
            let got = mttv(&inter, pos, &a);
            let want = naive_mttv(&inter, pos, &a);
            assert!(got.tensor.max_abs_diff(&want) < 1e-10, "pos {pos}");
        }
    }

    #[test]
    fn mttv_down_to_matrix() {
        // Contract an (s1, s2, R) intermediate at pos 1 → (s1, R): the final
        // dimension-tree step producing an MTTKRP result.
        let inter = seq_tensor(vec![6, 4, 2]);
        let a = Matrix::from_fn(4, 2, |i, j| (i + 1) as f64 * (j + 1) as f64);
        let got = mttv(&inter, 1, &a);
        assert_eq!(got.tensor.shape().dims(), &[6, 2]);
        let want = naive_mttv(&inter, 1, &a);
        assert!(got.tensor.max_abs_diff(&want) < 1e-12);
    }

    #[test]
    fn mttv_parallel_paths_match() {
        // Big enough (≥ PAR_ELEMS) to trigger both parallel branches.
        let inter = seq_tensor(vec![128, 64, 32]); // outer path via pos=1
        let a1 = Matrix::from_fn(64, 32, |i, j| ((i * 17 + j * 3) % 7) as f64 - 3.0);
        let got1 = mttv(&inter, 1, &a1);
        let want1 = naive_mttv(&inter, 1, &a1);
        assert!(got1.tensor.max_abs_diff(&want1) < 1e-9);

        let a0 = Matrix::from_fn(128, 32, |i, j| ((i * 5 + j) % 9) as f64 / 4.0);
        let got0 = mttv(&inter, 0, &a0); // leading-mode path
        let want0 = naive_mttv(&inter, 0, &a0);
        assert!(got0.tensor.max_abs_diff(&want0) < 1e-9);
    }
}
