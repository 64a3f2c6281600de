//! N-dimensional permutations (the role HPTT plays in the paper): an
//! odometer gather over the output for general permutations
//! ([`permute`]), and a de-interleaving pass over the input for the one
//! permutation the streaming layouts are built from, "rotate a mode to the
//! front" ([`move_mode_first`], or [`move_mode_first_into`] a caller's
//! memory).
//!
//! Tensor transposes matter for two algorithms here: the PP initialization
//! step needs them for orders ≥ 4, and MSDT needs them to contract the input
//! tensor with a *middle*-mode factor matrix — unless a permuted copy of the
//! input is kept, which is exactly what the paper's implementation does
//! (§IV) and what [`crate::kernels::ttm`] supports via pre-permuted inputs.

use crate::dense::DenseTensor;
use rayon::prelude::*;

/// Minimum tensor elements before a permutation fans out to the pool.
const PAR_ELEMS: usize = 1 << 16;

/// Source elements [`move_mode_first`] deals out per pass (16 KiB).
const TILE_ELEMS: usize = 1 << 11;

/// Permute the modes of a tensor: `out[i_{perm[0]}, ..., i_{perm[N-1]}] = t[i_0, ..., i_{N-1}]`
/// — i.e. mode `k` of the output is mode `perm[k]` of the input.
///
/// The output is walked row-major; blocks of "outer" iterations (each
/// covering one contiguous innermost run) are distributed over the
/// persistent pool, each block decoding its starting input offset from its
/// outer index. Every output element is written exactly once, so results
/// are identical for any thread count.
pub fn permute(t: &DenseTensor, perm: &[usize]) -> DenseTensor {
    let n = t.order();
    assert_eq!(perm.len(), n, "permutation length must equal tensor order");
    let mut seen = vec![false; n];
    for &p in perm {
        assert!(p < n && !seen[p], "invalid permutation {perm:?}");
        seen[p] = true;
    }

    let out_shape = t.shape().permuted(perm);
    if n <= 1 || is_identity(perm) {
        // Nothing moves: the result shares `t`'s storage (copy-on-write).
        return t.clone().reshape(out_shape);
    }

    let in_strides = t.shape().strides();
    // Stride in the *input* for each output mode.
    let strides_for_out: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
    let out_dims: Vec<usize> = out_shape.dims().to_vec();

    let mut out = DenseTensor::zeros(out_shape);
    let src = t.data();

    // Walk the output row-major; the innermost output mode reads the input
    // with stride `strides_for_out[n-1]`. We implement an iterative odometer
    // over the outer n-1 modes and a tight inner loop.
    let inner_len = out_dims[n - 1];
    let inner_stride = strides_for_out[n - 1];
    let outer_count: usize = out_dims[..n - 1].iter().product();

    // Fill output rows [outer0, outer0 + block.len()/inner_len): decode the
    // starting odometer state and input offset from `outer0`, then walk.
    let fill = |outer0: usize, block: &mut [f64]| {
        let mut idx = vec![0usize; n - 1];
        let mut rem = outer0;
        let mut src_base = 0usize;
        for k in (0..n - 1).rev() {
            idx[k] = rem % out_dims[k];
            rem /= out_dims[k];
            src_base += idx[k] * strides_for_out[k];
        }
        for row in block.chunks_exact_mut(inner_len) {
            if inner_stride == 1 {
                row.copy_from_slice(&src[src_base..src_base + inner_len]);
            } else {
                let mut s = src_base;
                for o in row.iter_mut() {
                    *o = src[s];
                    s += inner_stride;
                }
            }
            // Odometer increment over the outer output modes.
            for k in (0..n - 1).rev() {
                idx[k] += 1;
                src_base += strides_for_out[k];
                if idx[k] < out_dims[k] {
                    break;
                }
                src_base -= strides_for_out[k] * out_dims[k];
                idx[k] = 0;
            }
        }
    };

    let nthreads = rayon::current_num_threads().max(1);
    if t.len() >= PAR_ELEMS && outer_count > 1 && nthreads > 1 {
        let outers_per_chunk = outer_count.div_ceil(nthreads * 4).max(1);
        out.data_mut()
            .par_chunks_mut(outers_per_chunk * inner_len)
            .enumerate()
            .for_each(|(ci, block)| fill(ci * outers_per_chunk, block));
    } else {
        fill(0, out.data_mut());
    }
    out
}

/// Permutation that moves `mode` to the end, keeping the others in order.
/// E.g. for order 4 and mode 1: `[0, 2, 3, 1]`.
pub fn perm_mode_last(order: usize, mode: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..order).filter(|&k| k != mode).collect();
    p.push(mode);
    p
}

/// Permutation that moves `mode` to the front, keeping the others in order.
pub fn perm_mode_first(order: usize, mode: usize) -> Vec<usize> {
    let mut p = vec![mode];
    p.extend((0..order).filter(|&k| k != mode));
    p
}

/// Copy of the tensor with `mode` moved to the last position
/// (the matricization layout used by the first-level TTM).
pub fn move_mode_last(t: &DenseTensor, mode: usize) -> DenseTensor {
    permute(t, &perm_mode_last(t.order(), mode))
}

/// The tensor with `mode` moved to the first position, the others
/// keeping their order — the evolving-mode-major layout of a streaming
/// input.
///
/// Viewed as `[A, E, B]` (`A` the volume before `mode`, `B` the volume
/// after it) the result is `[E, A, B]`. A gather over the output would
/// re-read every source line `E` times when `B` is small (the time mode of
/// a time-lapse is last: `B = 1`); instead each source line `a` — `E` runs
/// of `B` — is read once and dealt out to the `E` output slabs. Blocks of
/// `a` own disjoint pieces of every slab, so they fan out over the pool;
/// every element is a verbatim copy, identical at any thread count.
pub fn move_mode_first(t: &DenseTensor, mode: usize) -> DenseTensor {
    let n = t.order();
    assert!(mode < n, "mode {mode} out of range for order {n}");
    let out_shape = t.shape().permuted(&perm_mode_first(n, mode));
    if t.shape().dims()[..mode].iter().product::<usize>() == 1 || t.is_empty() {
        // Already leading (or nothing to move): shares `t`'s storage.
        return t.clone().reshape(out_shape);
    }
    let mut out = DenseTensor::zeros(out_shape);
    move_mode_first_into(t, mode, out.data_mut());
    out
}

/// [`move_mode_first`] written into `out` (`t.len()` elements, any
/// contents), e.g. the grown tail of a streaming input: every element of
/// `out` is written, a verbatim copy, the same at any thread count.
pub fn move_mode_first_into(t: &DenseTensor, mode: usize, out: &mut [f64]) {
    let n = t.order();
    assert!(mode < n, "mode {mode} out of range for order {n}");
    assert_eq!(out.len(), t.len(), "move_mode_first_into output length");
    let dims = t.shape().dims();
    let a: usize = dims[..mode].iter().product();
    let e = dims[mode];
    let b: usize = dims[mode + 1..].iter().product();
    let src = t.data();
    if a == 1 || t.is_empty() {
        out.copy_from_slice(src);
        return;
    }

    let nthreads = rayon::current_num_threads().max(1);
    let a_per_block = if t.len() >= PAR_ELEMS && nthreads > 1 {
        a.div_ceil(nthreads * 4)
    } else {
        a
    };
    let blocks = a.div_ceil(a_per_block);

    // pieces[j][x] = the rows of output slab `x` that block `j` fills.
    let mut pieces: Vec<Vec<&mut [f64]>> = (0..blocks).map(|_| Vec::with_capacity(e)).collect();
    for slab in out.chunks_mut(a * b) {
        let mut rest = slab;
        for block in pieces.iter_mut() {
            let (head, tail) = rest.split_at_mut((a_per_block * b).min(rest.len()));
            block.push(head);
            rest = tail;
        }
    }
    pieces.par_chunks_mut(1).enumerate().for_each(|(j, block)| {
        let rows = &mut block[0];
        let n_lines = rows[0].len() / b;
        let lines = &src[j * a_per_block * e * b..][..n_lines * e * b];
        // A tile of lines stays in L1 while its `E` runs are dealt out.
        let tile = (TILE_ELEMS / (e * b)).max(1);
        for i0 in (0..n_lines).step_by(tile) {
            let i1 = (i0 + tile).min(n_lines);
            for (x, row) in rows.iter_mut().enumerate() {
                let runs = lines[i0 * e * b..i1 * e * b].chunks_exact(e * b);
                if b == 1 {
                    for (dst, line) in row[i0..i1].iter_mut().zip(runs) {
                        *dst = line[x];
                    }
                } else {
                    for (dst, line) in row[i0 * b..i1 * b].chunks_exact_mut(b).zip(runs) {
                        dst.copy_from_slice(&line[x * b..(x + 1) * b]);
                    }
                }
            }
        }
    });
}

/// Swap the first two modes of a tensor (used to obtain `𝓜p^(i,n)` from
/// `𝓜p^(n,i)` in the PP approximated step).
pub fn swap_first_two(t: &DenseTensor) -> DenseTensor {
    let n = t.order();
    assert!(n >= 2);
    let mut perm: Vec<usize> = (0..n).collect();
    perm.swap(0, 1);
    permute(t, &perm)
}

fn is_identity(perm: &[usize]) -> bool {
    perm.iter().enumerate().all(|(k, &p)| k == p)
}

/// Number of main-memory words moved by a permutation of `len` elements
/// (read + write), for the vertical-communication ledger.
#[inline]
pub fn permute_mem_words(len: usize) -> u64 {
    2 * len as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    fn seq_tensor(dims: Vec<usize>) -> DenseTensor {
        let shape = Shape::new(dims);
        let len = shape.len();
        DenseTensor::from_vec(shape, (0..len).map(|x| x as f64).collect())
    }

    #[test]
    fn permute_matches_pointwise() {
        let t = seq_tensor(vec![2, 3, 4]);
        let p = permute(&t, &[2, 0, 1]);
        assert_eq!(p.shape().dims(), &[4, 2, 3]);
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    assert_eq!(p.get(&[k, i, j]), t.get(&[i, j, k]));
                }
            }
        }
    }

    #[test]
    fn identity_permutation() {
        let t = seq_tensor(vec![3, 5]);
        let p = permute(&t, &[0, 1]);
        assert_eq!(p.data(), t.data());
    }

    #[test]
    fn move_mode_last_front() {
        let t = seq_tensor(vec![2, 3, 4]);
        let l = move_mode_last(&t, 0);
        assert_eq!(l.shape().dims(), &[3, 4, 2]);
        assert_eq!(l.get(&[2, 3, 1]), t.get(&[1, 2, 3]));
        let f = move_mode_first(&t, 2);
        assert_eq!(f.shape().dims(), &[4, 2, 3]);
        assert_eq!(f.get(&[3, 1, 2]), t.get(&[1, 2, 3]));
    }

    #[test]
    fn double_permute_roundtrip() {
        let t = seq_tensor(vec![2, 3, 4, 2]);
        let perm = [3, 1, 0, 2];
        let p = permute(&t, &perm);
        // inverse permutation
        let mut inv = vec![0usize; 4];
        for (k, &pk) in perm.iter().enumerate() {
            inv[pk] = k;
        }
        let back = permute(&p, &inv);
        assert_eq!(back.data(), t.data());
        assert_eq!(back.shape().dims(), t.shape().dims());
    }

    #[test]
    fn swap_first_two_matches() {
        let t = seq_tensor(vec![3, 4, 2]);
        let s = swap_first_two(&t);
        assert_eq!(s.shape().dims(), &[4, 3, 2]);
        assert_eq!(s.get(&[1, 2, 0]), t.get(&[2, 1, 0]));
    }

    #[test]
    fn large_parallel_permute_matches_pointwise() {
        // ≥ PAR_ELEMS so the pooled path runs; strided inner dimension.
        let t = seq_tensor(vec![48, 64, 48]);
        let p = permute(&t, &[2, 0, 1]);
        assert_eq!(p.shape().dims(), &[48, 48, 64]);
        for &(i, j, k) in &[(0, 0, 0), (47, 63, 47), (13, 21, 34), (30, 7, 2)] {
            assert_eq!(p.get(&[k, i, j]), t.get(&[i, j, k]));
        }
        // Roundtrip through the inverse also exercises inner_stride == 1.
        let back = permute(&p, &[1, 2, 0]);
        assert_eq!(back.data(), t.data());
    }

    #[test]
    fn move_mode_first_matches_permute_every_mode() {
        // Small (serial) and ≥ PAR_ELEMS (pooled, uneven blocks) shapes,
        // every mode including the last (B = 1) and the first (copy).
        for dims in [vec![3, 4, 5], vec![2, 3, 4, 5], vec![37, 29, 67]] {
            let t = seq_tensor(dims.clone());
            for mode in 0..dims.len() {
                let got = move_mode_first(&t, mode);
                let want = permute(&t, &perm_mode_first(dims.len(), mode));
                assert_eq!(got.shape().dims(), want.shape().dims());
                assert_eq!(got.data(), want.data(), "dims {dims:?} mode {mode}");
                // Into stale memory: every element is written.
                let mut into = vec![f64::NAN; t.len()];
                move_mode_first_into(&t, mode, &mut into);
                assert_eq!(&into[..], want.data(), "into, dims {dims:?} mode {mode}");
            }
        }
    }

    #[test]
    fn perm_helpers() {
        assert_eq!(perm_mode_last(4, 1), vec![0, 2, 3, 1]);
        assert_eq!(perm_mode_first(4, 2), vec![2, 0, 1, 3]);
    }
}
