//! Compressed-sparse-fiber tensors and the pool-parallel sparse MTTKRP.
//!
//! Production-scale user × item × time tensors are overwhelmingly sparse;
//! densifying them burns `O(∏ Iₙ)` flops and memory on zeros. This module
//! adds the sparse fast path: a sorted-coordinate ([`SparseTensor`]) ingest
//! format, a per-mode compressed-sparse-fiber forest ([`CsfTensor`]), and a
//! deterministic pool-parallel MTTKRP kernel ([`sparse_mttkrp`]) whose
//! flops are proportional to `nnz · R` instead of the dense volume.
//!
//! # Bitwise parity with the dense oracle
//!
//! [`sparse_mttkrp`] is **bit-identical** to densifying and running
//! [`crate::kernels::naive::mttkrp_pointwise`] on the result:
//!
//! * Each CSF tree roots at the MTTKRP target mode `n` and orders the
//!   remaining levels by **ascending** original mode — so a depth-first
//!   traversal visits the nonzeros of each output row in the dense
//!   kernel's row-major order, and the per-leaf product
//!   `v · ∏_{m≠n} A^(m)[i_m, r]` multiplies factors in the dense kernel's
//!   ascending-mode order.
//! * Skipping structural zeros is IEEE-safe: accumulators start at `+0.0`
//!   and never become `-0.0` (a `±0.0` contribution never flips the sign
//!   of a `+0.0` accumulator under round-to-nearest), so dropping the
//!   zero terms leaves every partial sum bit-identical.
//! * Parallelism keeps one accumulator per output element: the output
//!   rows are partitioned into contiguous blocks and each row is written
//!   by exactly one task, which accumulates its fibers in the same order
//!   the serial loop would — bit-identical at any thread count.
//!
//! # One walk at vector width
//!
//! Every order runs the same iterative depth-first CSF walk, compiled
//! behind `avx512f` / `avx2` `#[target_feature]` clones dispatched on
//! the runtime SIMD probe, at a constant width of 8, 16 or 32 lanes so a
//! root row's accumulator stays in registers and is stored once (other
//! ranks run over zero-padded factors at the next width). The path's
//! factor rows are held per level and re-read only where the path
//! changes. Per leaf the product is `p = v`, then `p *= row` for each
//! level in ascending mode order, then `acc += p` — never fused (no
//! `mul_add`), so every SIMD level gives the scalar arm's bits.
//!
//! # Pair operators from the same forest
//!
//! Pairwise perturbation's operators `𝓜^(i,j)` (`s_i × s_j × R`) come
//! from one walk of tree `i` each ([`csf_pair_in`]): the level holding
//! mode `j` selects a row of the root's `s_j × R` slab and every other
//! level contracts. Roots own disjoint slabs, so blocks of rows split the
//! walk over the pool like the MTTKRP's. At order 3 the single contracted
//! mode is a TTM, and the walk replays the semi-sparse TTM's accumulation
//! (KC panels, fused exactly where the dense GEMM fuses), so the operator
//! is the one the semi-sparse chain densifies, bit for bit; above order 3
//! it follows the pointwise oracle's unfused product, like the MTTKRP.

use crate::dense::DenseTensor;
use crate::gemm::{panel_kc, small_work_limit};
use crate::matrix::Matrix;
use crate::shape::Shape;
use crate::simd::{simd_level, SimdLevel};
use crate::workspace::Workspace;
use rayon::prelude::*;
use std::cell::Cell;
use std::ops::Range;

/// A sparse tensor in sorted-coordinate (COO) form: lexicographically
/// sorted index tuples with duplicate coordinates merged (summed in sorted
/// order) and explicit zeros dropped at ingest.
#[derive(Clone, Debug)]
pub struct SparseTensor {
    dims: Vec<usize>,
    /// `nnz × order` flattened index tuples, lexicographically sorted.
    inds: Vec<u32>,
    /// Values aligned with `inds` chunks.
    vals: Vec<f64>,
}

/// The stable lexicographic order of the `dims.len()`-wide tuples in
/// `inds`: a least-significant-digit radix sort, one stable counting sort
/// per mode with the last mode first. Tuples that compare equal keep their
/// input order, so this is exactly the permutation a stable comparison sort
/// of the tuples gives. Scratch is one more `nnz`-length index array and
/// one count per coordinate of the mode being sorted; a mode much longer
/// than the entry count (hypersparse) takes a stable comparison sort on its
/// coordinate instead, which keeps the LSD invariant.
fn lex_order(dims: &[usize], inds: &[usize]) -> Vec<usize> {
    let order = dims.len();
    let nnz = inds.len() / order;
    let mut perm: Vec<usize> = (0..nnz).collect();
    let mut next = vec![0usize; nnz];
    for (m, &d) in dims.iter().enumerate().rev() {
        let key = |e: usize| inds[e * order + m];
        if d > 4 * nnz + 1024 {
            perm.sort_by_key(|&e| key(e));
            continue;
        }
        let mut counts = vec![0usize; d + 1];
        for &e in &perm {
            counts[key(e) + 1] += 1;
        }
        for k in 1..d {
            counts[k] += counts[k - 1];
        }
        for &e in &perm {
            let slot = &mut counts[key(e)];
            next[*slot] = e;
            *slot += 1;
        }
        std::mem::swap(&mut perm, &mut next);
    }
    perm
}

impl SparseTensor {
    /// Ingest unsorted COO data: `inds` holds `vals.len()` index tuples of
    /// `dims.len()` coordinates each, flattened. Entries are sorted
    /// lexicographically by a stable radix sort; duplicates are merged by
    /// summation in their input order (so the merge is deterministic) and
    /// zero values are dropped.
    pub fn from_coo(dims: Vec<usize>, inds: Vec<usize>, vals: Vec<f64>) -> Self {
        let order = dims.len();
        assert!(order >= 2, "sparse tensors need order >= 2");
        assert!(dims.iter().all(|&d| d > 0), "zero-extent mode");
        assert!(
            dims.iter().all(|&d| d <= u32::MAX as usize),
            "mode extent exceeds u32"
        );
        assert_eq!(inds.len(), vals.len() * order, "ragged COO input");
        for (e, tuple) in inds.chunks_exact(order).enumerate() {
            for (m, (&i, &d)) in tuple.iter().zip(dims.iter()).enumerate() {
                assert!(i < d, "entry {e}: index {i} out of range for mode {m}");
            }
        }
        let nnz_in = vals.len();
        let perm = lex_order(&dims, &inds);
        let mut out_inds: Vec<u32> = Vec::with_capacity(inds.len());
        let mut out_vals: Vec<f64> = Vec::with_capacity(nnz_in);
        for &e in &perm {
            let tuple = &inds[e * order..(e + 1) * order];
            let dup = !out_vals.is_empty() && {
                let last = &out_inds[(out_vals.len() - 1) * order..];
                last.iter()
                    .zip(tuple.iter())
                    .all(|(&a, &b)| a as usize == b)
            };
            if dup {
                *out_vals.last_mut().unwrap() += vals[e];
            } else {
                out_inds.extend(tuple.iter().map(|&i| i as u32));
                out_vals.push(vals[e]);
            }
        }
        // Drop exact zeros (including merged cancellations): a zero entry
        // contributes `±0.0` products, which the parity argument above
        // shows are no-ops on every accumulator.
        let mut inds = Vec::with_capacity(out_inds.len());
        let mut vals = Vec::with_capacity(out_vals.len());
        for (e, &v) in out_vals.iter().enumerate() {
            if v != 0.0 {
                inds.extend_from_slice(&out_inds[e * order..(e + 1) * order]);
                vals.push(v);
            }
        }
        SparseTensor { dims, inds, vals }
    }

    /// Extract the nonzero pattern of a dense tensor.
    pub fn from_dense(t: &DenseTensor) -> Self {
        let order = t.order();
        let mut inds = Vec::new();
        let mut vals = Vec::new();
        for idx in t.shape().indices() {
            let v = t.get(&idx);
            if v != 0.0 {
                inds.extend_from_slice(&idx[..order]);
                vals.push(v);
            }
        }
        SparseTensor::from_coo(t.shape().dims().to_vec(), inds, vals)
    }

    /// Densify (the oracle path for parity tests and benchmarks).
    pub fn to_dense(&self) -> DenseTensor {
        let shape = Shape::new(self.dims.clone());
        let strides = shape.strides();
        let mut t = DenseTensor::zeros(shape);
        let data = t.data_mut();
        let order = self.dims.len();
        for (e, &v) in self.vals.iter().enumerate() {
            let lin: usize = self.inds[e * order..(e + 1) * order]
                .iter()
                .zip(strides.iter())
                .map(|(&i, &s)| i as usize * s)
                .sum();
            data[lin] = v;
        }
        t
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Mode extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Extent of mode `m`.
    pub fn dim(&self, m: usize) -> usize {
        self.dims[m]
    }

    /// Number of stored (nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// True when no nonzeros are stored.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// `nnz / ∏ dims` (dense volume computed in f64 to avoid overflow).
    pub fn density(&self) -> f64 {
        let vol: f64 = self.dims.iter().map(|&d| d as f64).product();
        self.vals.len() as f64 / vol
    }

    /// Stored values, in lexicographic coordinate order.
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Flattened sorted index tuples (`nnz × order`).
    pub fn inds(&self) -> &[u32] {
        &self.inds
    }

    /// Index tuple of stored entry `e`.
    pub fn idx(&self, e: usize) -> &[u32] {
        let order = self.dims.len();
        &self.inds[e * order..(e + 1) * order]
    }

    /// Squared Frobenius norm — bit-identical to densifying first:
    /// the sum skips only `+0.0` terms of a nonnegative running sum.
    pub fn norm_sq(&self) -> f64 {
        self.vals.iter().map(|v| v * v).sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }
}

/// One level of a CSF tree: node indices plus (for non-leaf levels) the
/// child span of each node in the next level. The leaf level's "children"
/// are value slots, aligned with the tree's `vals`.
struct CsfLevel {
    inds: Vec<u32>,
    /// `ptr[k]..ptr[k+1]` = children of node `k`; `len = inds.len() + 1`.
    ptr: Vec<usize>,
}

/// A compressed-sparse-fiber tree rooted at one target mode.
pub struct CsfTree {
    /// The MTTKRP target mode this tree serves (its root level).
    root_mode: usize,
    /// Remaining modes in root→leaf level order: ascending, the
    /// parity-preserving choice (see the module docs).
    sub_modes: Vec<usize>,
    /// `levels[0]` is the root; `levels[order-1]` is the leaf level.
    levels: Vec<CsfLevel>,
    /// Leaf values, aligned with the leaf level's `inds`.
    vals: Vec<f64>,
}

impl CsfTree {
    /// Number of leaf-parent fibers (the unit of kernel inner loops).
    pub fn fiber_count(&self) -> usize {
        let order = self.levels.len();
        if order >= 2 {
            self.levels[order - 2].inds.len()
        } else {
            0
        }
    }

    /// Factor row of node `node` at level `l ≥ 1`.
    #[inline(always)]
    fn row_at<'a>(&self, factors: &'a [Matrix], l: usize, node: usize) -> &'a [f64] {
        factors[self.sub_modes[l - 1]].row(self.levels[l].inds[node] as usize)
    }
}

/// The per-mode CSF forest: one fiber tree per MTTKRP target mode, all
/// derived from one canonically sorted coordinate list. Ordering
/// heuristic: tree `n` roots at mode `n` (so each output row is owned by
/// exactly one root node) and keeps the remaining levels ascending; its
/// sorted entry order is recovered from the canonical order with a single
/// stable counting sort on the root coordinate — `O(nnz + Iₙ)` per tree
/// rather than a full comparison sort, and none at all for tree 0, whose
/// order is the canonical one.
pub struct CsfTensor {
    dims: Vec<usize>,
    nnz: usize,
    trees: Vec<CsfTree>,
}

impl CsfTensor {
    /// Build the full forest (one tree per mode), the trees in parallel.
    ///
    /// Every array is allocated here, on the calling thread, and the pool
    /// only fills them: a worker that allocated a tree would grow its own
    /// malloc arena, which glibc rarely trims, and the process's peak RSS
    /// with it. So each level reserves its bound — one node per distinct
    /// coordinate prefix: at most `nnz`, and at most the product of its
    /// modes' extents. The part of a reserve a level does not fill is never
    /// written; shrinking it to fit cost more resident memory than it saved.
    pub fn build(sp: &SparseTensor) -> Self {
        let nnz = sp.nnz();
        assert!(nnz <= u32::MAX as usize, "nnz exceeds u32");
        let mut builds: Vec<TreeBuild> =
            (0..sp.order()).map(|n| TreeBuild::reserve(sp, n)).collect();
        builds.par_chunks_mut(1).for_each(|build| build[0].run(sp));
        CsfTensor {
            dims: sp.dims().to_vec(),
            nnz,
            trees: builds.into_iter().map(|b| b.tree).collect(),
        }
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Mode extents.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Nonzeros represented by every tree.
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The fiber tree rooted at target mode `n`.
    pub fn tree(&self, n: usize) -> &CsfTree {
        &self.trees[n]
    }

    /// Forest memory footprint in f64-equivalent words (index words are
    /// counted at their true size) — the admission-control estimate.
    pub fn memory_words(&self) -> usize {
        let mut bytes = 0usize;
        for t in &self.trees {
            for l in &t.levels {
                bytes += l.inds.len() * 4 + l.ptr.len() * 8;
            }
            bytes += t.vals.len() * 8;
        }
        bytes / 8
    }
}

/// One tree of [`CsfTensor::build`] with its counting-sort buckets.
struct TreeBuild {
    tree: CsfTree,
    /// Buckets over the root coordinate (empty for tree 0, whose order is
    /// the canonical one).
    counts: Vec<usize>,
}

impl TreeBuild {
    /// Every buffer the tree rooted at mode `n` needs, at its bound. The
    /// leaf level, one node per nonzero, is sized outright: the sort uses
    /// it as its output before the scan overwrites it.
    fn reserve(sp: &SparseTensor, n: usize) -> Self {
        let (order, nnz) = (sp.order(), sp.nnz());
        let sub_modes: Vec<usize> = (0..order).filter(|&m| m != n).collect();
        let mut prefixes = 1usize;
        let mut levels: Vec<CsfLevel> = std::iter::once(n)
            .chain(sub_modes[..order - 2].iter().copied())
            .map(|m| {
                prefixes = prefixes.saturating_mul(sp.dim(m));
                let nodes = prefixes.min(nnz);
                CsfLevel {
                    inds: Vec::with_capacity(nodes),
                    ptr: Vec::with_capacity(nodes + 1),
                }
            })
            .collect();
        levels.push(CsfLevel {
            inds: vec![0; nnz],
            ptr: Vec::new(),
        });
        let tree = CsfTree {
            root_mode: n,
            sub_modes,
            levels,
            vals: Vec::with_capacity(nnz),
        };
        let counts = match n {
            0 => Vec::new(),
            _ => vec![0; sp.dim(n) + 1],
        };
        TreeBuild { tree, counts }
    }

    /// Sort the entries into the tree's order — a stable counting sort of
    /// the canonical order by the root coordinate, so for a fixed root
    /// index the sub-level coordinates stay in ascending-mode lexicographic
    /// order, the dense kernel's row-major visit order restricted to that
    /// output row — then compress them into the levels.
    fn run(&mut self, sp: &SparseTensor) {
        let n = self.tree.root_mode;
        if n > 0 {
            let counts = &mut self.counts;
            let leaf = self.tree.levels.last_mut().unwrap();
            for e in 0..sp.nnz() {
                counts[sp.idx(e)[n] as usize + 1] += 1;
            }
            for k in 1..counts.len() {
                counts[k] += counts[k - 1];
            }
            for e in 0..sp.nnz() {
                let i = sp.idx(e)[n] as usize;
                leaf.inds[counts[i]] = e as u32;
                counts[i] += 1;
            }
        }
        compress(&mut self.tree, sp);
    }
}

/// The compression scan of `tree` in its sorted order, into levels with
/// room for every node. The leaf level comes in holding the COO entry at
/// each position (tree 0's are the canonical ones, so it is not read)
/// and leaves holding the coordinates: position `p` is read before it is
/// written.
fn compress(tree: &mut CsfTree, sp: &SparseTensor) {
    let n = tree.root_mode;
    let levels = &mut tree.levels;
    let leaf = levels.len() - 1;
    // Level order: root mode n, then the others ascending.
    let level_mode = |l: usize| match l {
        0 => n,
        _ if l <= n => l - 1,
        _ => l,
    };
    let mut prev: Option<&[u32]> = None;
    for p in 0..sp.nnz() {
        let e = match n {
            0 => p,
            _ => levels[leaf].inds[p] as usize,
        };
        let idx = sp.idx(e);
        // First level whose path coordinate differs from the previous
        // entry (entries are sorted in level order); a fresh node there
        // forces fresh nodes at every deeper level. Duplicates were merged
        // at ingest, so every entry opens at least a fresh leaf.
        let mut split = 0;
        if let Some(prev) = prev {
            while split < leaf && idx[level_mode(split)] == prev[level_mode(split)] {
                split += 1;
            }
            debug_assert!(
                split < leaf || idx[level_mode(leaf)] != prev[level_mode(leaf)],
                "duplicate coordinate in sorted COO"
            );
        }
        prev = Some(idx);
        for l in split..leaf {
            // Child span of the fresh node starts at the next level's
            // current length (its first child is placed right after).
            let start = if l + 1 == leaf {
                p
            } else {
                levels[l + 1].inds.len()
            };
            levels[l].ptr.push(start);
            levels[l].inds.push(idx[level_mode(l)]);
        }
        levels[leaf].inds[p] = idx[level_mode(leaf)];
        tree.vals.push(sp.vals()[e]);
    }
    // Close the last open node at each non-leaf level.
    for l in 0..leaf {
        let end = if l + 1 == leaf {
            sp.nnz()
        } else {
            levels[l + 1].inds.len()
        };
        levels[l].ptr.push(end);
    }
}

/// Per-thread sparse-kernel counters, sampled around engine calls exactly
/// like [`crate::gemm::GemmCounters`]: the kernel entry point runs on the
/// sampling thread (pool workers only fill output blocks), so a driver
/// sees its own calls even while other sessions compute concurrently.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SparseCounters {
    /// Sparse MTTKRP invocations.
    pub calls: u64,
    /// Useful flops issued: `nnz · R · N` per call (`N−1` multiplies plus
    /// one accumulate per nonzero per rank column).
    pub flops: u64,
    /// Leaf-parent fibers visited across all calls.
    pub fibers_visited: u64,
}

impl SparseCounters {
    const ZERO: SparseCounters = SparseCounters {
        calls: 0,
        flops: 0,
        fibers_visited: 0,
    };

    /// Delta between two snapshots of the same thread's counters.
    pub fn since(&self, earlier: &SparseCounters) -> SparseCounters {
        SparseCounters {
            calls: self.calls - earlier.calls,
            flops: self.flops - earlier.flops,
            fibers_visited: self.fibers_visited - earlier.fibers_visited,
        }
    }
}

thread_local! {
    static SPARSE_COUNTERS: Cell<SparseCounters> = const { Cell::new(SparseCounters::ZERO) };
}

/// Snapshot the calling thread's sparse-kernel counters (diff two
/// snapshots with [`SparseCounters::since`]).
pub fn thread_sparse_counters() -> SparseCounters {
    SPARSE_COUNTERS.with(|c| c.get())
}

fn bump_counters(flops: u64, fibers: u64) {
    SPARSE_COUNTERS.with(|c| {
        let mut v = c.get();
        v.calls += 1;
        v.flops += flops;
        v.fibers_visited += fibers;
        c.set(v);
    });
}

/// Rank-block oversubscription factor for the parallel row partition
/// (like the GEMM's chunk oversubscription: enough blocks that dynamic
/// claiming balances skewed fibers, few enough that scheduling stays
/// cheap). Block geometry never affects results — each output row is
/// accumulated by exactly one task in a fixed order.
const ROW_BLOCK_OVERSUB: usize = 4;

/// Work threshold (in `nnz · R` units) below which the kernel stays
/// serial.
const PAR_THRESHOLD: usize = 1 << 14;

/// Sparse MTTKRP `M^(n) = X_(n) · ⨀_{j≠n} A^(j)` over the CSF forest.
///
/// Bit-identical to `mttkrp_pointwise(&csf_source.to_dense(), factors, n)`
/// at any thread count and SIMD level — see the module docs for the
/// argument.
pub fn sparse_mttkrp(csf: &CsfTensor, factors: &[Matrix], n: usize) -> Matrix {
    mttkrp_at(simd_level(), csf, factors, n)
}

/// [`sparse_mttkrp`] on the clone for `level`, or on the best one the CPU
/// runs if that is lower (the unit tests walk every level).
fn mttkrp_at(level: SimdLevel, csf: &CsfTensor, factors: &[Matrix], n: usize) -> Matrix {
    let order = csf.order();
    assert_eq!(factors.len(), order, "one factor per mode");
    assert!(n < order);
    let r = factors[n].cols();
    for (m, f) in factors.iter().enumerate() {
        assert_eq!(f.rows(), csf.dims()[m], "factor {m} rows");
        assert_eq!(f.cols(), r, "factor {m} rank");
    }
    let tree = csf.tree(n);
    debug_assert_eq!(tree.root_mode, n);
    let rows = csf.dims()[n];
    // The walk runs 8, 16 or 32 lanes wide (32-lane blocks above rank 32).
    // Other ranks run over zero-padded copies of the factors: each lane is
    // computed on its own, so the real lanes keep their bits and the pad
    // lanes are dropped.
    let width = match r {
        0..=8 => 8,
        9..=16 => 16,
        _ => r.next_multiple_of(32),
    };
    let padded: Vec<Matrix>;
    let factors = if width == r {
        factors
    } else {
        padded = factors.iter().map(|f| pad_cols(f, width)).collect();
        &padded
    };
    let mut out = Matrix::zeros(rows, width);
    let threads = rayon::current_num_threads();
    if threads <= 1 || csf.nnz() * r < PAR_THRESHOLD || rows == 0 {
        let roots = 0..tree.levels[0].inds.len();
        walk_block(level, tree, factors, roots, 0, out.data_mut(), width);
    } else {
        let block_rows = rows.div_ceil(ROW_BLOCK_OVERSUB * threads).max(1);
        out.data_mut()
            .par_chunks_mut(block_rows * width)
            .enumerate()
            .for_each(|(b, chunk)| {
                let row0 = b * block_rows;
                let row1 = row0 + chunk.len() / width;
                let roots = &tree.levels[0].inds;
                let lo = roots.partition_point(|&i| (i as usize) < row0);
                let hi = roots.partition_point(|&i| (i as usize) < row1);
                walk_block(level, tree, factors, lo..hi, row0, chunk, width);
            });
    }
    bump_counters(
        csf.nnz() as u64 * r as u64 * order as u64,
        tree.fiber_count() as u64,
    );
    if width == r {
        out
    } else {
        Matrix::from_fn(rows, r, |i, j| out.get(i, j))
    }
}

/// `m` with zero columns appended up to `width`.
fn pad_cols(m: &Matrix, width: usize) -> Matrix {
    let mut p = Matrix::zeros(m.rows(), width);
    for i in 0..m.rows() {
        p.row_mut(i)[..m.cols()].copy_from_slice(m.row(i));
    }
    p
}

/// One block of root nodes, on the clone for `level` or the best one the
/// CPU runs if that is lower.
fn walk_block(
    level: SimdLevel,
    tree: &CsfTree,
    factors: &[Matrix],
    roots: Range<usize>,
    row0: usize,
    out: &mut [f64],
    r: usize,
) {
    match simd_level().min(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: at most the level `simd_level` probed: AVX-512F at runtime.
        SimdLevel::Avx512 => unsafe { walk_avx512(tree, factors, roots, row0, out, r) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: at most the level `simd_level` probed: AVX2 at runtime.
        SimdLevel::Avx2 => unsafe { walk_avx2(tree, factors, roots, row0, out, r) },
        SimdLevel::Scalar => walk_body(tree, factors, roots, row0, out, r),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn walk_avx512(
    tree: &CsfTree,
    factors: &[Matrix],
    roots: Range<usize>,
    row0: usize,
    out: &mut [f64],
    r: usize,
) {
    walk_body(tree, factors, roots, row0, out, r)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn walk_avx2(
    tree: &CsfTree,
    factors: &[Matrix],
    roots: Range<usize>,
    row0: usize,
    out: &mut [f64],
    r: usize,
) {
    walk_body(tree, factors, roots, row0, out, r)
}

/// Width dispatch: `r` is 8, 16, 32 or a multiple of 32, and [`walk`]
/// runs at a constant width — once, or per 32-lane block — so a root row's
/// accumulator stays in registers.
#[inline(always)]
fn walk_body(
    tree: &CsfTree,
    factors: &[Matrix],
    roots: Range<usize>,
    row0: usize,
    out: &mut [f64],
    r: usize,
) {
    match r {
        8 => walk::<8>(tree, factors, roots, row0, out, 8, 0),
        16 => walk::<16>(tree, factors, roots, row0, out, 16, 0),
        32 => walk::<32>(tree, factors, roots, row0, out, 32, 0),
        _ => {
            for c0 in (0..r).step_by(32) {
                walk::<32>(tree, factors, roots.clone(), row0, out, r, c0);
            }
        }
    }
}

/// An order-2 tree's fibers are its roots, which have no factor row of
/// their own: they read this row of ones, an exact no-op in the product.
const ONES: [f64; 32] = [1.0; 32];

/// The CSF walk: accumulate root nodes `roots` into lanes `c0..c0 + W` of
/// `out`, a row-major block of `r`-wide rows starting at output row `row0`.
///
/// Under each root the walk holds the path above the fibers (leaf-parent
/// nodes) with each level's factor row, and steps it only where a node's
/// children run out; the fibers under the path's deepest node and their
/// leaves are two plain loops. Per leaf: `p = v`, `p *= row` for each level
/// in ascending mode order, then `acc += p` — the pointwise oracle's
/// sequence, unfused. The `[f64; W]` accumulator starts at `+0.0` and is
/// stored once per root, which equals the oracle's in-place sum because
/// each root owns its row and `out` is zeroed.
#[inline(always)]
fn walk<const W: usize>(
    tree: &CsfTree,
    factors: &[Matrix],
    roots: Range<usize>,
    row0: usize,
    out: &mut [f64],
    r: usize,
    c0: usize,
) {
    let levels = &tree.levels;
    let leaf = levels.len() - 1;
    let (vals, leaf_inds) = (&tree.vals, &levels[leaf].inds);
    let leaf_factor = factors[tree.sub_modes[leaf - 1]].data();
    let fibers = &levels[leaf - 1];
    let fiber_factor = match leaf {
        1 => None,
        _ => Some(factors[tree.sub_modes[leaf - 2]].data()),
    };
    // The path above the fibers: `nodes[l]` at levels `0..=leaf - 2`, the
    // root first, and `stems[l - 1]` the factor row of each below the root.
    let mut nodes = vec![0; leaf.max(2) - 1];
    let mut stems: Vec<&[f64]> = Vec::with_capacity(leaf.max(2) - 2);
    for root in roots {
        nodes[0] = root;
        stems.clear();
        for l in 1..leaf - 1 {
            nodes[l] = levels[l - 1].ptr[nodes[l - 1]];
            stems.push(tree.row_at(factors, l, nodes[l]));
        }
        let mut end = root + 1;
        for level in &levels[..leaf - 1] {
            end = level.ptr[end];
        }
        let mut f = match leaf {
            1 => root,
            _ => levels[leaf - 2].ptr[nodes[leaf - 2]],
        };
        let mut acc = [0.0; W];
        loop {
            // The fibers under the path's deepest node.
            let stop = match leaf {
                1 => end,
                _ => levels[leaf - 2].ptr[nodes[leaf - 2] + 1],
            };
            let spans = fibers.ptr[f..=stop].windows(2);
            for (span, &fi) in spans.zip(&fibers.inds[f..stop]) {
                let fiber_row = match fiber_factor {
                    Some(fac) => &fac[fi as usize * r + c0..][..W],
                    None => &ONES[..W],
                };
                let (lo, hi) = (span[0], span[1]);
                for (&v, &i) in vals[lo..hi].iter().zip(&leaf_inds[lo..hi]) {
                    let mut p = [v; W];
                    for row in &stems {
                        for (p, &x) in p.iter_mut().zip(&row[c0..][..W]) {
                            *p *= x;
                        }
                    }
                    for (p, &x) in p.iter_mut().zip(fiber_row) {
                        *p *= x;
                    }
                    let last = &leaf_factor[i as usize * r + c0..][..W];
                    for ((a, &p), &x) in acc.iter_mut().zip(&p).zip(last) {
                        *a += p * x;
                    }
                }
            }
            if stop == end {
                break;
            }
            // Step the deepest node to its next sibling; an ancestor steps
            // too when that exhausts its children.
            f = stop;
            for l in (1..leaf - 1).rev() {
                nodes[l] += 1;
                stems[l - 1] = tree.row_at(factors, l, nodes[l]);
                if levels[l - 1].ptr[nodes[l - 1] + 1] > nodes[l] {
                    break;
                }
            }
        }
        let row = levels[0].inds[root] as usize - row0;
        out[row * r + c0..][..W].copy_from_slice(&acc);
    }
}

/// The pair operator `𝓜^(i,j)` of pairwise perturbation: every mode but
/// `i` and `j` contracted with its factor, as a dense `s_i × s_j × R`
/// tensor laid out `[i, j, R]` and drawn zeroed from `ws`. `factors` holds
/// one factor per mode; those of `i` and `j` are not read.
///
/// One walk of tree `i` (module docs): each root owns its `s_j × R` slab,
/// the level holding mode `j` picks the slab row, and every other level
/// contracts. At order 3 the result is bit-identical to the semi-sparse
/// TTM of the third mode, densified ([`crate::semisparse::csf_ttm`]): both
/// fuse exactly where the CPU's GEMM clone does. At higher orders it is
/// the pointwise oracle's, unfused, on every SIMD level. Both hold at any
/// thread count.
pub fn csf_pair_in(
    ws: &Workspace,
    csf: &CsfTensor,
    factors: &[Matrix],
    i: usize,
    j: usize,
) -> DenseTensor {
    let order = csf.order();
    assert_eq!(factors.len(), order, "one factor per mode");
    assert!(order >= 3, "pair operators need order >= 3");
    assert!(
        i < order && j < order && i != j,
        "pair ({i}, {j}) out of range"
    );
    let dims = csf.dims();
    let contracted: Vec<usize> = (0..order).filter(|&m| m != i && m != j).collect();
    let r = factors[contracted[0]].cols();
    for &m in &contracted {
        assert_eq!(factors[m].rows(), dims[m], "factor {m} rows");
        assert_eq!(factors[m].cols(), r, "factor {m} rank");
    }
    let tree = csf.tree(i);
    let lj = 1 + tree.sub_modes.iter().position(|&m| m == j).unwrap();
    // Order 3 contracts one mode, a TTM: replay the dispatch of the dense
    // GEMM `csf_ttm` mirrors — its small path is one panel, unfused.
    let (kc, fused) = match &contracted[..] {
        &[k] => {
            let rows = (0..order)
                .filter(|&m| m != k)
                .fold(1usize, |a, m| a.saturating_mul(dims[m]));
            let work = rows.saturating_mul(r).saturating_mul(dims[k]);
            if work < small_work_limit() {
                (usize::MAX, false)
            } else {
                (panel_kc(), true)
            }
        }
        _ => (usize::MAX, false),
    };
    let walk = PairWalk {
        tree,
        factors,
        lj,
        kc,
        fused,
        sj: dims[j],
        r,
    };
    let (si, slab) = (dims[i], dims[j] * r);
    let shape = Shape::new(vec![si, dims[j], r]);
    let mut out = DenseTensor::from_buffer(shape, ws.draw_zeroed(si * slab));
    let threads = rayon::current_num_threads();
    if threads <= 1 || csf.nnz() * r < PAR_THRESHOLD || slab == 0 {
        let roots = 0..tree.levels[0].inds.len();
        pair_block(&walk, roots, 0, out.data_mut());
    } else {
        // Roots own disjoint slabs: blocks of rows split the walk.
        let block_rows = si.div_ceil(ROW_BLOCK_OVERSUB * threads).max(1);
        out.data_mut()
            .par_chunks_mut(block_rows * slab)
            .enumerate()
            .for_each(|(b, chunk)| {
                let row0 = b * block_rows;
                let row1 = row0 + chunk.len() / slab;
                let roots = &tree.levels[0].inds;
                let lo = roots.partition_point(|&x| (x as usize) < row0);
                let hi = roots.partition_point(|&x| (x as usize) < row1);
                pair_block(&walk, lo..hi, row0, chunk);
            });
    }
    out
}

/// What a pair walk needs besides its block of roots.
struct PairWalk<'a> {
    tree: &'a CsfTree,
    factors: &'a [Matrix],
    /// The level of the tree holding mode `j`.
    lj: usize,
    /// Order 3: the KC panel depth of the mirrored GEMM (`usize::MAX` on
    /// its small path, one panel).
    kc: usize,
    /// Order 3: whether the mirrored GEMM's SIMD clones fuse (packed path).
    fused: bool,
    sj: usize,
    r: usize,
}

/// One block of roots of a pair walk, on the best clone the CPU runs.
fn pair_block(w: &PairWalk, roots: Range<usize>, row0: usize, out: &mut [f64]) {
    match simd_level() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level` probed AVX-512F+FMA at runtime.
        SimdLevel::Avx512 => unsafe { pair_avx512(w, roots, row0, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level` probed AVX2+FMA at runtime.
        SimdLevel::Avx2 => unsafe { pair_avx2(w, roots, row0, out) },
        SimdLevel::Scalar => pair_body::<false>(w, roots, row0, out),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn pair_avx512(w: &PairWalk, roots: Range<usize>, row0: usize, out: &mut [f64]) {
    match w.fused {
        true => pair_body::<true>(w, roots, row0, out),
        false => pair_body::<false>(w, roots, row0, out),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn pair_avx2(w: &PairWalk, roots: Range<usize>, row0: usize, out: &mut [f64]) {
    match w.fused {
        true => pair_body::<true>(w, roots, row0, out),
        false => pair_body::<false>(w, roots, row0, out),
    }
}

/// Order and rank dispatch: at order 3, `R ∈ {8, 16, 32}` hand
/// [`pair3`] a constant width and a stack accumulator. No closures in
/// here or below: a closure body is a function of its own, outside the
/// caller's `#[target_feature]` set, and its `mul_add` would be a libm call.
#[inline(always)]
fn pair_body<const FMA: bool>(w: &PairWalk, roots: Range<usize>, row0: usize, out: &mut [f64]) {
    match (w.tree.levels.len(), w.r) {
        (3, 8) => pair3::<FMA>(w, roots, row0, out, 8, &mut [0.0; 8]),
        (3, 16) => pair3::<FMA>(w, roots, row0, out, 16, &mut [0.0; 16]),
        (3, 32) => pair3::<FMA>(w, roots, row0, out, 32, &mut [0.0; 32]),
        (3, r) => pair3::<FMA>(w, roots, row0, out, r, &mut vec![0.0; r]),
        (_, r) => pair_deep(w, roots, row0, out, r, &mut vec![0.0; r]),
    }
}

/// `y += v · x`, fused iff `FMA` — the semi-sparse TTM's row operation.
#[inline(always)]
fn axpy<const FMA: bool>(y: &mut [f64], v: f64, x: &[f64]) {
    for q in 0..y.len() {
        if FMA {
            y[q] = v.mul_add(x[q], y[q]);
        } else {
            y[q] += v * x[q];
        }
    }
}

/// `y += x`, then `x = 0`.
#[inline(always)]
fn flush(y: &mut [f64], x: &mut [f64]) {
    for q in 0..y.len() {
        y[q] += x[q];
        x[q] = 0.0;
    }
}

/// The order-3 pair walk: for each output row `(a, b)`, the contributions
/// `v · A_k[c]` in ascending `c`, accumulated as `csf_ttm` does — from
/// `+0.0` per KC panel of `c`, fused iff `FMA`, each panel added into the
/// row with one `+=` (panels without a nonzero contribute an exact +0.0
/// and are skipped, as there). `acc` (at least `r` long) holds a panel.
#[inline(always)]
fn pair3<const FMA: bool>(
    w: &PairWalk,
    roots: Range<usize>,
    row0: usize,
    out: &mut [f64],
    r: usize,
    acc: &mut [f64],
) {
    let acc = &mut acc[..r];
    let tree = w.tree;
    let (top, fibers, leaves) = (&tree.levels[0], &tree.levels[1], &tree.levels[2]);
    // The contracted mode sits at the level `j` does not.
    let fac = w.factors[tree.sub_modes[2 - w.lj]].data();
    let slab_len = w.sj * r;
    let mut scratch: Vec<f64> = Vec::new();
    for root in roots {
        let slab = &mut out[(top.inds[root] as usize - row0) * slab_len..][..slab_len];
        let (mut f, end) = (top.ptr[root], top.ptr[root + 1]);
        if w.lj == 1 {
            // `j` at the fiber level: a fiber is one output row, its
            // leaves the contracted coordinates — `csf_ttm`'s row loop.
            for f in f..end {
                let row = &mut slab[fibers.inds[f] as usize * r..][..r];
                let mut panel_end = 0;
                for e in fibers.ptr[f]..fibers.ptr[f + 1] {
                    let c = leaves.inds[e] as usize;
                    if c >= panel_end {
                        if panel_end != 0 {
                            flush(row, acc);
                        }
                        panel_end = (c / w.kc + 1) * w.kc;
                    }
                    axpy::<FMA>(acc, tree.vals[e], &fac[c * r..][..r]);
                }
                if panel_end != 0 {
                    flush(row, acc);
                }
            }
            continue;
        }
        // `j` at the leaf level: the fibers are the contracted coordinates,
        // ascending, and each leaf scatters into its row. The root's first
        // panel accumulates in the slab itself, which starts at +0.0 as a
        // panel accumulator does; each later one in `scratch`, flushed into
        // the slab at the panel's end by re-walking its leaves (a row seen
        // twice adds an exact +0.0 the second time).
        f = scatter_panel::<FMA>(tree, fac, w.kc, f..end, slab, r);
        while f < end {
            if scratch.is_empty() {
                scratch = vec![0.0; slab_len];
            }
            let start = f;
            f = scatter_panel::<FMA>(tree, fac, w.kc, f..end, &mut scratch, r);
            for &b in &leaves.inds[fibers.ptr[start]..fibers.ptr[f]] {
                let b = b as usize * r;
                flush(&mut slab[b..][..r], &mut scratch[b..][..r]);
            }
        }
    }
}

/// Scatter the leaves of the fibers in `fibers` that share the first one's
/// KC panel into the rows of `target`; returns the first fiber past it.
#[inline(always)]
fn scatter_panel<const FMA: bool>(
    tree: &CsfTree,
    fac: &[f64],
    kc: usize,
    fibers: Range<usize>,
    target: &mut [f64],
    r: usize,
) -> usize {
    let (level, leaves) = (&tree.levels[1], &tree.levels[2]);
    let panel_end = (level.inds[fibers.start] as usize / kc + 1) * kc;
    let mut f = fibers.start;
    while f < fibers.end && (level.inds[f] as usize) < panel_end {
        let x = &fac[level.inds[f] as usize * r..][..r];
        for e in level.ptr[f]..level.ptr[f + 1] {
            let b = leaves.inds[e] as usize * r;
            axpy::<FMA>(&mut target[b..][..r], tree.vals[e], x);
        }
        f += 1;
    }
    f
}

/// The pair walk at order 4 and up, the pointwise oracle's sequence: per
/// leaf `p = v`, `p *= row` for every level but the root and `j`'s in
/// ascending mode order, then `out[a, b] += p` — unfused, in the tree's
/// (lexicographic) order. `p` is at least `r` long.
#[inline(always)]
fn pair_deep(
    w: &PairWalk,
    roots: Range<usize>,
    row0: usize,
    out: &mut [f64],
    r: usize,
    p: &mut [f64],
) {
    let p = &mut p[..r];
    let tree = w.tree;
    let levels = &tree.levels;
    let leaf = levels.len() - 1;
    let leaf_factor = &w.factors[tree.sub_modes[leaf - 1]];
    let slab_len = w.sj * r;
    // The path to a leaf parent, root first, and its factor rows below
    // the root (without `j`'s).
    let mut nodes = vec![0usize; leaf];
    let mut rows: Vec<&[f64]> = Vec::with_capacity(leaf);
    for root in roots {
        let slab = &mut out[(levels[0].inds[root] as usize - row0) * slab_len..][..slab_len];
        nodes[0] = root;
        for l in 1..leaf {
            nodes[l] = levels[l - 1].ptr[nodes[l - 1]];
        }
        'path: loop {
            rows.clear();
            let mut b = 0;
            for l in 1..leaf {
                let x = levels[l].inds[nodes[l]] as usize;
                if l == w.lj {
                    b = x;
                } else {
                    rows.push(w.factors[tree.sub_modes[l - 1]].row(x));
                }
            }
            let parent = nodes[leaf - 1];
            for e in levels[leaf - 1].ptr[parent]..levels[leaf - 1].ptr[parent + 1] {
                let x = levels[leaf].inds[e] as usize;
                p.fill(tree.vals[e]);
                for row in &rows {
                    for q in 0..r {
                        p[q] *= row[q];
                    }
                }
                if leaf == w.lj {
                    b = x;
                } else {
                    let row = leaf_factor.row(x);
                    for q in 0..r {
                        p[q] *= row[q];
                    }
                }
                let y = &mut slab[b * r..][..r];
                for q in 0..r {
                    y[q] += p[q];
                }
            }
            // Step the deepest path node that has a next sibling; the
            // nodes below it restart at their first child.
            let mut l = leaf - 1;
            loop {
                if l == 0 {
                    break 'path;
                }
                nodes[l] += 1;
                if nodes[l] < levels[l - 1].ptr[nodes[l - 1] + 1] {
                    break;
                }
                l -= 1;
            }
            for m in l + 1..leaf {
                nodes[m] = levels[m - 1].ptr[nodes[m - 1]];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::naive::mttkrp_pointwise;
    use crate::rng::{seeded, uniform_matrix};
    use rand::Rng;

    fn random_sparse(dims: &[usize], nnz: usize, seed: u64) -> SparseTensor {
        let mut rng = seeded(seed);
        let order = dims.len();
        let mut inds = Vec::with_capacity(nnz * order);
        let mut vals = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            for &d in dims {
                inds.push(rng.random_range(0..d));
            }
            vals.push(rng.random::<f64>() * 2.0 - 1.0);
        }
        SparseTensor::from_coo(dims.to_vec(), inds, vals)
    }

    fn factors_for(dims: &[usize], r: usize, seed: u64) -> Vec<Matrix> {
        let mut rng = seeded(seed);
        dims.iter()
            .map(|&d| uniform_matrix(d, r, &mut rng))
            .collect()
    }

    #[test]
    fn ingest_sorts_merges_and_drops_zeros() {
        let sp = SparseTensor::from_coo(
            vec![3, 3],
            vec![2, 2, 0, 1, 2, 2, 0, 0, 1, 0],
            vec![1.0, 2.0, 3.0, 0.0, 5.0],
        );
        // (0,0) dropped (zero), (2,2) merged to 4.0, sorted order.
        assert_eq!(sp.nnz(), 3);
        assert_eq!(sp.idx(0), &[0, 1]);
        assert_eq!(sp.idx(1), &[1, 0]);
        assert_eq!(sp.idx(2), &[2, 2]);
        assert_eq!(sp.vals(), &[2.0, 5.0, 4.0]);
    }

    /// The stable comparison sort `lex_order` replaces.
    fn comparator_order(order: usize, inds: &[usize]) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..inds.len() / order).collect();
        perm.sort_by(|&a, &b| {
            inds[a * order..(a + 1) * order].cmp(&inds[b * order..(b + 1) * order])
        });
        perm
    }

    #[test]
    fn radix_order_is_the_stable_comparison_order() {
        // Orders 2 to 5, extents small enough that most tuples repeat, one
        // mode long enough to take the comparison-sort pass, and no entries.
        // That long mode draws from five far-apart coordinates, so its pass
        // sees equal keys and must be stable too.
        let mut rng = seeded(36);
        let shapes: [&[usize]; 7] = [
            &[3, 4],
            &[50, 40],
            &[4, 3, 5],
            &[2, 1 << 20, 3],
            &[3, 2, 3, 2],
            &[9, 7, 8, 6],
            &[2, 3, 2, 3, 2],
        ];
        for dims in shapes {
            for nnz in [0usize, 1, 7, 500] {
                let inds: Vec<usize> = (0..nnz * dims.len())
                    .map(|k| {
                        let d = dims[k % dims.len()];
                        let span = if d > 1 << 16 { 5 } else { d };
                        rng.random_range(0..span) * (d / span)
                    })
                    .collect();
                assert_eq!(
                    lex_order(dims, &inds),
                    comparator_order(dims.len(), &inds),
                    "dims {dims:?} nnz {nnz}"
                );
            }
        }
    }

    #[test]
    fn duplicates_merge_in_input_order_and_cancellations_drop() {
        // A coordinate given 1 + 1e16 − 1e16 sums to 0 in input order and
        // to 1 in reverse, and 2.5 − 2.5 cancels exactly; both must drop.
        // The parts of one coordinate are spread far apart in the input.
        for order in 2..=5 {
            let mut rng = seeded(order as u64);
            let mut inds = Vec::new();
            let mut vals = Vec::new();
            for c in 0..40 {
                let idx: Vec<usize> = (0..order).map(|_| rng.random_range(0..3)).collect();
                let parts: &[f64] = match c % 3 {
                    0 => &[1.0, 1e16, -1e16],
                    1 => &[2.5, -2.5],
                    _ => &[0.75],
                };
                for &v in parts {
                    inds.extend_from_slice(&idx);
                    vals.push(v);
                }
            }
            let n = vals.len();
            assert!(n % 7 != 0, "the stride must visit every entry");
            let spread: Vec<usize> = (0..n).map(|k| (k * 7) % n).collect();
            let inds: Vec<usize> = spread
                .iter()
                .flat_map(|&e| inds[e * order..(e + 1) * order].to_vec())
                .collect();
            let vals: Vec<f64> = spread.iter().map(|&e| vals[e]).collect();
            let mut oracle: Vec<(Vec<usize>, f64)> = Vec::new();
            for &e in &comparator_order(order, &inds) {
                let idx = inds[e * order..(e + 1) * order].to_vec();
                match oracle.last_mut() {
                    Some((last, sum)) if *last == idx => *sum += vals[e],
                    _ => oracle.push((idx, vals[e])),
                }
            }
            let distinct = oracle.len();
            oracle.retain(|&(_, v)| v != 0.0);
            assert!(oracle.len() < distinct, "order {order}: nothing cancelled");
            let sp = SparseTensor::from_coo(vec![3; order], inds, vals);
            assert_eq!(sp.nnz(), oracle.len(), "order {order}");
            for (e, (idx, v)) in oracle.iter().enumerate() {
                let got: Vec<usize> = sp.idx(e).iter().map(|&i| i as usize).collect();
                assert_eq!(&got, idx, "order {order} entry {e}");
                assert_eq!(
                    sp.vals()[e].to_bits(),
                    v.to_bits(),
                    "order {order} entry {e}"
                );
            }
        }
    }

    #[test]
    fn dense_roundtrip() {
        let sp = random_sparse(&[4, 5, 3], 20, 1);
        let back = SparseTensor::from_dense(&sp.to_dense());
        assert_eq!(back.inds(), sp.inds());
        assert_eq!(back.vals(), sp.vals());
        assert_eq!(sp.norm_sq().to_bits(), sp.to_dense().norm_sq().to_bits());
    }

    #[test]
    fn csf_counts_fibers() {
        // 2 nonzeros sharing a (root, mid) prefix → 1 fiber in tree 0.
        let sp = SparseTensor::from_coo(
            vec![2, 2, 2],
            vec![0, 1, 0, 0, 1, 1, 1, 0, 0],
            vec![1.0, 2.0, 3.0],
        );
        let csf = CsfTensor::build(&sp);
        assert_eq!(csf.nnz(), 3);
        assert_eq!(csf.tree(0).fiber_count(), 2);
        assert!(csf.memory_words() > 0);
    }

    #[test]
    fn mttkrp_matches_pointwise_oracle_bitwise() {
        for (dims, nnz, seed) in [
            (vec![5, 6, 4], 25usize, 2u64),
            (vec![7, 3, 5], 40, 3),
            (vec![4, 4, 4, 4], 30, 4),
            (vec![3, 5, 2, 4, 3], 35, 5),
        ] {
            let sp = random_sparse(&dims, nnz, seed);
            let dense = sp.to_dense();
            let csf = CsfTensor::build(&sp);
            let factors = factors_for(&dims, 3, seed + 100);
            for n in 0..dims.len() {
                let got = sparse_mttkrp(&csf, &factors, n);
                let want = mttkrp_pointwise(&dense, &factors, n);
                assert_eq!(got.data(), want.data(), "dims {dims:?} mode {n}");
            }
        }
    }

    /// The scalar arm and every clone the CPU runs give the pointwise
    /// oracle's bits — at the walk's own widths, padded ones and 32-lane
    /// blocks, orders 2–5, serial and (the order-3 case at R ≥ 12) pooled.
    #[test]
    fn every_simd_level_matches_pointwise_oracle_bitwise() {
        let levels = [
            SimdLevel::Scalar,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512,
        ];
        let best = simd_level();
        for (dims, nnz, seed) in [
            (vec![9, 7], 30usize, 21u64),
            (vec![40, 30, 20], 1500, 22),
            (vec![7, 6, 5, 4], 120, 23),
            (vec![5, 4, 3, 4, 3], 150, 24),
        ] {
            let sp = random_sparse(&dims, nnz, seed);
            let dense = sp.to_dense();
            let csf = CsfTensor::build(&sp);
            for r in [3, 8, 12, 16, 32, 40] {
                let factors = factors_for(&dims, r, seed + r as u64);
                for n in 0..dims.len() {
                    let want: Vec<u64> = mttkrp_pointwise(&dense, &factors, n)
                        .data()
                        .iter()
                        .map(|x| x.to_bits())
                        .collect();
                    for &level in levels.iter().filter(|&&l| l <= best) {
                        let got: Vec<u64> = mttkrp_at(level, &csf, &factors, n)
                            .data()
                            .iter()
                            .map(|x| x.to_bits())
                            .collect();
                        assert_eq!(got, want, "{level:?} dims {dims:?} r {r} mode {n}");
                    }
                }
            }
        }
    }

    #[test]
    fn tree_zero_follows_the_canonical_order() {
        // Tree 0 is built straight from the canonical order; every tree's
        // root level lists each occupied row once, ascending, and its leaf
        // level holds exactly one node per nonzero.
        let sp = random_sparse(&[6, 5, 4, 3], 90, 31);
        let csf = CsfTensor::build(&sp);
        for n in 0..4 {
            let t = csf.tree(n);
            assert!(t.levels[0].inds.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(t.levels[3].inds.len(), sp.nnz());
            assert_eq!(t.vals.len(), sp.nnz());
        }
        let leaf: Vec<u32> = (0..sp.nnz()).map(|e| sp.idx(e)[3]).collect();
        assert_eq!(csf.tree(0).levels[3].inds, leaf);
        assert_eq!(csf.tree(0).vals, sp.vals());
    }

    #[test]
    fn forest_builds_alike_at_any_width() {
        // The trees build in parallel into arrays sized on the calling
        // thread: the same arrays at every pool width.
        let _pin = crate::WIDTH_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for (dims, nnz) in [
            (vec![9, 7], 40usize),
            (vec![8, 6, 5], 150),
            (vec![5, 4, 3, 4], 120),
        ] {
            let sp = random_sparse(&dims, nnz, 41);
            let serial = {
                let _w = rayon::scoped_num_threads(1);
                CsfTensor::build(&sp)
            };
            for width in [2, 4] {
                let _w = rayon::scoped_num_threads(width);
                let wide = CsfTensor::build(&sp);
                for (a, b) in serial.trees.iter().zip(&wide.trees) {
                    assert_eq!(a.vals, b.vals, "{dims:?} width {width}");
                    for (la, lb) in a.levels.iter().zip(&b.levels) {
                        assert_eq!((&la.inds, &la.ptr), (&lb.inds, &lb.ptr));
                    }
                }
            }
        }
    }

    #[test]
    fn empty_and_single_entry_tensors() {
        let empty = SparseTensor::from_coo(vec![3, 4, 2], vec![], vec![]);
        assert!(empty.is_empty());
        let csf = CsfTensor::build(&empty);
        let factors = factors_for(&[3, 4, 2], 2, 9);
        let m = sparse_mttkrp(&csf, &factors, 1);
        assert!(m.data().iter().all(|&x| x == 0.0));

        let one = SparseTensor::from_coo(vec![3, 4, 2], vec![2, 3, 1], vec![7.5]);
        let csf = CsfTensor::build(&one);
        let got = sparse_mttkrp(&csf, &factors, 0);
        let want = mttkrp_pointwise(&one.to_dense(), &factors, 0);
        assert_eq!(got.data(), want.data());
    }

    #[test]
    fn counters_accumulate_per_call() {
        let sp = random_sparse(&[6, 5, 4], 30, 11);
        let csf = CsfTensor::build(&sp);
        let factors = factors_for(&[6, 5, 4], 4, 12);
        let before = thread_sparse_counters();
        let _ = sparse_mttkrp(&csf, &factors, 0);
        let d = thread_sparse_counters().since(&before);
        assert_eq!(d.calls, 1);
        assert_eq!(d.flops, csf.nnz() as u64 * 4 * 3);
        assert_eq!(d.fibers_visited, csf.tree(0).fiber_count() as u64);
    }
}
