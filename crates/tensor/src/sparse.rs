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
//!   remaining modes **ascending** — so walking each root's leaves in
//!   order visits the nonzeros of its output row in the dense kernel's
//!   row-major order, and the per-leaf product
//!   `v · ∏_{m≠n} A^(m)[i_m, r]` multiplies factors in the dense kernel's
//!   ascending-mode order.
//! * Skipping structural zeros is IEEE-safe: accumulators start at `+0.0`
//!   and never become `-0.0` (a `±0.0` contribution never flips the sign
//!   of a `+0.0` accumulator under round-to-nearest), so dropping the
//!   zero terms leaves every partial sum bit-identical.
//! * Parallelism keeps one accumulator per output element: the output
//!   rows are partitioned into contiguous blocks and each row is written
//!   by exactly one task, which accumulates its leaves in the same order
//!   the serial loop would — bit-identical at any thread count.
//!
//! # The layout
//!
//! A tree keeps its root level — the occupied root coordinates, ascending,
//! with one span of leaves each — and below it one `u32` coordinate per
//! leaf in every other mode, aligned with the values. The inner levels of
//! a classic CSF tree (one node per distinct coordinate prefix, each with
//! a child span) are gone: at the 2–4 leaves per fiber of the sparse
//! benchmark tensors, 4 bytes per leaf cost less than the 12 per fiber
//! they replace.
//!
//! # One walk at vector width
//!
//! Every order runs the same walk: one loop over each root's leaves,
//! compiled behind `avx512f` / `avx2` `#[target_feature]` clones
//! dispatched on the runtime SIMD probe, at a constant width of 8, 16 or
//! 32 lanes so a root row's accumulator stays in registers and is stored
//! once (other ranks run over zero-padded factors at the next width). Per
//! leaf the product is `p = v`, then `p *= row` for each mode but the last
//! in ascending order, then `acc += p · row` of the last — never fused (no
//! `mul_add`), so every SIMD level gives the scalar arm's bits. Each leaf
//! re-reads its rows from cache. A walk over fibers held the rows above
//! the leaves instead, but its inner loop ended on a data-dependent branch
//! every few leaves and ran at about half the speed.
//!
//! # Pair operators from the same forest
//!
//! Pairwise perturbation's operators `𝓜^(i,j)` (`s_i × s_j × R`) come
//! from one walk of tree `i` each ([`csf_pair_in`]): a leaf's coordinate
//! in mode `j` selects a row of the root's `s_j × R` slab and every other
//! mode contracts. Roots own disjoint slabs, so blocks of rows split the
//! walk over the pool like the MTTKRP's. At order 3 the single contracted
//! mode is a TTM, and the walk replays the semi-sparse TTM's accumulation
//! (KC panels, fused exactly where the dense GEMM fuses), so the operator
//! is the one the semi-sparse chain densifies, bit for bit; above order 3
//! it follows the pointwise oracle's unfused product, like the MTTKRP.
//!
//! Each operator is written in one pass, at the MTTKRP walk's constant
//! widths. A pool task writes every row of its block of slabs — a root's
//! slab from its leaves, a row without a root as zeros — so the operator is
//! drawn with [`Workspace::draw`], unzeroed, instead of zero-filled on one
//! thread first (on `sparse3`, ~64 MB a build). Where `j` is
//! the tree's first sub-mode, a slab row is one run of leaves, accumulated
//! in registers and stored once, and a row without one is stored as zeros;
//! elsewhere the leaves scatter into a slab the task zeroes first, in
//! cache. The walk of `𝓜^(0,1)` also folds in the anchor `M^(0)`
//! ([`csf_pair_anchored_in`]): each slab row, as it is finished, takes its
//! link of the anchor row's chain, in the order of the mTTV that used to
//! re-read the whole operator after the walk.
//!
//! # What a tensor keeps
//!
//! A [`SparseTensor`] is immutable, and its clones share one entry list.
//! Beside the entries it keeps what every session over it would otherwise
//! derive again, each made once, on the first request, and then read by
//! every clone and every session:
//!
//! * the CSF forest ([`SparseTensor::csf`]), built by [`CsfTensor::build`]
//!   (which itself always builds afresh);
//! * ‖T‖² ([`SparseTensor::norm_sq`]), the values' squares summed in
//!   stored order;
//! * the checkpoint fingerprint ([`SparseTensor::fingerprint`]).
//!
//! That pays where sessions reuse one tensor: several sessions a caller
//! opens over it, or the jobs of a `pp-serve` batch that name the same
//! sparse dataset, which the scheduler builds once for all of them.
//!
//! The price is memory: a tensor that has been asked for its forest keeps
//! it for as long as any clone of it lives, after its sessions end — about
//! 48 bytes per nonzero at order 3 (26 MB on the 537 k nonzeros of the
//! `sparse3` benchmark tensor), on top of the entries' own 20 bytes. A
//! session used to hold a forest of its own for its whole life, and the
//! allocator kept the freed arrays between sessions, so a process's peak
//! is the same.

use crate::dense::DenseTensor;
use crate::fnv::Fnv;
use crate::gemm::{panel_kc, small_work_limit};
use crate::matrix::Matrix;
use crate::shape::Shape;
use crate::simd::{simd_level, SimdLevel};
use crate::workspace::Workspace;
use rayon::prelude::*;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// A sparse tensor in sorted-coordinate (COO) form: lexicographically
/// sorted index tuples with duplicate coordinates merged (summed in sorted
/// order) and explicit zeros dropped at ingest. It is immutable, so a
/// clone shares the entries and everything derived from them (its CSF
/// forest, ‖T‖², its fingerprint; see the module docs): a session over a
/// caller's tensor copies and rebuilds none of it.
#[derive(Clone)]
pub struct SparseTensor {
    shared: Arc<Entries>,
}

/// The entries of a [`SparseTensor`] and what is derived from them once.
struct Entries {
    dims: Vec<usize>,
    /// `nnz × order` flattened index tuples, lexicographically sorted.
    inds: Vec<u32>,
    /// Values aligned with `inds` chunks.
    vals: Vec<f64>,
    /// The CSF forest, once built.
    forest: OnceLock<CsfTensor>,
    /// ‖T‖², once summed.
    norm_sq: OnceLock<f64>,
    /// The checkpoint fingerprint, once hashed.
    fingerprint: OnceLock<u64>,
}

impl std::fmt::Debug for SparseTensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseTensor")
            .field("dims", &self.shared.dims)
            .field("nnz", &self.nnz())
            .finish()
    }
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
    /// zero values are dropped. Panics on an index out of range or a value
    /// that is not finite, naming the entry.
    pub fn from_coo(dims: Vec<usize>, inds: Vec<usize>, vals: Vec<f64>) -> Self {
        let order = dims.len();
        assert!(order >= 2, "sparse tensors need order >= 2");
        assert!(dims.iter().all(|&d| d > 0), "zero-extent mode");
        assert!(
            dims.iter().all(|&d| d <= u32::MAX as usize),
            "mode extent exceeds u32"
        );
        assert_eq!(inds.len(), vals.len() * order, "ragged COO input");
        for (e, (tuple, &v)) in inds.chunks_exact(order).zip(&vals).enumerate() {
            for (m, (&i, &d)) in tuple.iter().zip(dims.iter()).enumerate() {
                assert!(i < d, "entry {e}: index {i} out of range for mode {m}");
            }
            assert!(v.is_finite(), "entry {e}: value {v} is not finite");
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
        SparseTensor {
            shared: Arc::new(Entries {
                dims,
                inds,
                vals,
                forest: OnceLock::new(),
                norm_sq: OnceLock::new(),
                fingerprint: OnceLock::new(),
            }),
        }
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
        let shape = Shape::new(self.dims().to_vec());
        let strides = shape.strides();
        let mut t = DenseTensor::zeros(shape);
        let data = t.data_mut();
        for (e, &v) in self.vals().iter().enumerate() {
            let lin: usize = self
                .idx(e)
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
        self.dims().len()
    }

    /// Mode extents.
    pub fn dims(&self) -> &[usize] {
        &self.shared.dims
    }

    /// Extent of mode `m`.
    pub fn dim(&self, m: usize) -> usize {
        self.dims()[m]
    }

    /// Number of stored (nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.vals().len()
    }

    /// True when no nonzeros are stored.
    pub fn is_empty(&self) -> bool {
        self.vals().is_empty()
    }

    /// `nnz / ∏ dims` (dense volume computed in f64 to avoid overflow).
    pub fn density(&self) -> f64 {
        let vol: f64 = self.dims().iter().map(|&d| d as f64).product();
        self.nnz() as f64 / vol
    }

    /// Stored values, in lexicographic coordinate order.
    pub fn vals(&self) -> &[f64] {
        &self.shared.vals
    }

    /// Flattened sorted index tuples (`nnz × order`).
    pub fn inds(&self) -> &[u32] {
        &self.shared.inds
    }

    /// Index tuple of stored entry `e`.
    pub fn idx(&self, e: usize) -> &[u32] {
        let order = self.order();
        &self.inds()[e * order..(e + 1) * order]
    }

    /// The CSF forest the sparse MTTKRP and the PP pair walks run over:
    /// built by [`CsfTensor::build`] on the first call, by whichever
    /// thread asks first (a concurrent caller waits for it), and then read
    /// by every clone, made before or after (see the module docs). The
    /// forest is the same at any pool width.
    pub fn csf(&self) -> &CsfTensor {
        self.shared.forest.get_or_init(|| CsfTensor::build(self))
    }

    /// Squared Frobenius norm — bit-identical to densifying first:
    /// the sum skips only `+0.0` terms of a nonnegative running sum. One
    /// serial pass over the values on the first call, the remembered value
    /// after.
    pub fn norm_sq(&self) -> f64 {
        *self
            .shared
            .norm_sq
            .get_or_init(|| self.vals().iter().map(|v| v * v).sum())
    }

    /// FNV-1a 64-bit fingerprint of the tensor, what a checkpoint stores
    /// to bind itself to its input: a `PPSPARSE` tag, the order, the dims,
    /// nnz, the sorted coordinates and the value bits, each a little-endian
    /// `u64`. The tag separates it from the dense fingerprint of the
    /// tensor this one densifies to. Hashed on the first call, remembered
    /// after.
    pub fn fingerprint(&self) -> u64 {
        *self.shared.fingerprint.get_or_init(|| {
            let mut h = Fnv::new();
            h.u64_(u64::from_le_bytes(*b"PPSPARSE"));
            h.u64_(self.order() as u64);
            for &d in self.dims() {
                h.u64_(d as u64);
            }
            h.u64_(self.nnz() as u64);
            for &i in self.inds() {
                h.u64_(i as u64);
            }
            for &x in self.vals() {
                h.u64_(x.to_bits());
            }
            h.finish()
        })
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }
}

/// A compressed-sparse-fiber tree rooted at one target mode, flat below the
/// root: the occupied root coordinates with one leaf span each, then one
/// coordinate per leaf in every other mode.
pub struct CsfTree {
    /// The MTTKRP target mode this tree serves (its root level).
    root_mode: usize,
    /// Remaining modes, ascending: the parity-preserving order (see the
    /// module docs).
    sub_modes: Vec<usize>,
    /// Occupied root coordinates, ascending.
    roots: Vec<u32>,
    /// `spans[k]..spans[k + 1]` = the leaves of root `k`; `len = roots.len() + 1`.
    spans: Vec<usize>,
    /// `coords[s][e]` = leaf `e`'s coordinate in mode `sub_modes[s]`.
    coords: Vec<Vec<u32>>,
    /// Leaf values.
    vals: Vec<f64>,
}

impl CsfTree {
    /// Run `f(roots, row0, block, side)` over `out`, rows of `row_len`
    /// indexed by the root coordinate, and `side`, empty or one row per row
    /// of `out`: on every root at once, or — from `work` (`nnz · R`) of
    /// `PAR_THRESHOLD` up — over the pool in blocks of rows, each with the
    /// roots inside it and its rows of `side`. Roots own disjoint rows.
    fn for_root_blocks<F>(
        &self,
        out: &mut [f64],
        row_len: usize,
        side: &mut [f64],
        work: usize,
        f: F,
    ) where
        F: Fn(Range<usize>, usize, &mut [f64], &mut [f64]) + Sync,
    {
        let threads = rayon::current_num_threads();
        if threads <= 1 || work < PAR_THRESHOLD || row_len == 0 || out.is_empty() {
            return f(0..self.roots.len(), 0, out, side);
        }
        let rows = out.len() / row_len;
        let block_rows = rows.div_ceil(ROW_BLOCK_OVERSUB * threads).max(1);
        let side_rows = side.chunks_mut((block_rows * side.len() / rows).max(1));
        let mut blocks: Vec<(&mut [f64], &mut [f64])> = out
            .chunks_mut(block_rows * row_len)
            .zip(side_rows.chain(std::iter::repeat_with(Default::default)))
            .collect();
        blocks.par_chunks_mut(1).enumerate().for_each(|(b, one)| {
            let (block, side) = &mut one[0];
            let row0 = b * block_rows;
            let row1 = row0 + block.len() / row_len;
            let lo = self.roots.partition_point(|&i| (i as usize) < row0);
            let hi = self.roots.partition_point(|&i| (i as usize) < row1);
            f(lo..hi, row0, block, side);
        });
    }
}

/// The per-mode CSF forest: one fiber tree per MTTKRP target mode, all
/// derived from one canonically sorted coordinate list. Ordering
/// heuristic: tree `n` roots at mode `n` (so each output row is owned by
/// exactly one root) and keeps the remaining modes ascending; its sorted
/// entry order is recovered from the canonical order with a single stable
/// counting sort on the root coordinate — `O(nnz + Iₙ)` per tree rather
/// than a full comparison sort, and none at all for tree 0, whose order is
/// the canonical one.
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
    /// with it. The per-leaf arrays reserve exactly `nnz`; the root level
    /// reserves its bound, the smaller of the root extent and `nnz`. Only
    /// the last coordinate array, the sort's output, is zeroed up front:
    /// the others fill in order, and zeroing recycled memory is a serial
    /// write of every page on this thread.
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
            bytes += t.roots.len() * 4 + t.spans.len() * 8 + t.vals.len() * 8;
            bytes += t.coords.iter().map(|c| c.len() * 4).sum::<usize>();
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
    /// Every buffer the tree rooted at mode `n` needs (see
    /// [`CsfTensor::build`]).
    fn reserve(sp: &SparseTensor, n: usize) -> Self {
        let (order, nnz) = (sp.order(), sp.nnz());
        let roots = sp.dim(n).min(nnz);
        let mut coords: Vec<Vec<u32>> = (2..order).map(|_| Vec::with_capacity(nnz)).collect();
        coords.push(vec![0; nnz]);
        let tree = CsfTree {
            root_mode: n,
            sub_modes: (0..order).filter(|&m| m != n).collect(),
            roots: Vec::with_capacity(roots),
            spans: Vec::with_capacity(roots + 1),
            coords,
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
    /// index the other coordinates stay in ascending-mode lexicographic
    /// order, the dense kernel's row-major visit order restricted to that
    /// output row — then gather their coordinates and values. The sort
    /// leaves the entry at each position in the last coordinate array,
    /// where the gather reads each position before it writes it.
    fn run(&mut self, sp: &SparseTensor) {
        let CsfTree {
            root_mode: n,
            sub_modes,
            roots,
            spans,
            coords,
            vals,
        } = &mut self.tree;
        let (heads, last) = coords.split_at_mut(sub_modes.len() - 1);
        let last = &mut last[0];
        if *n > 0 {
            let counts = &mut self.counts;
            for e in 0..sp.nnz() {
                counts[sp.idx(e)[*n] as usize + 1] += 1;
            }
            for k in 1..counts.len() {
                counts[k] += counts[k - 1];
            }
            for e in 0..sp.nnz() {
                let i = sp.idx(e)[*n] as usize;
                last[counts[i]] = e as u32;
                counts[i] += 1;
            }
        }
        for (p, slot) in last.iter_mut().enumerate() {
            let e = match n {
                0 => p,
                _ => *slot as usize,
            };
            let idx = sp.idx(e);
            if roots.last() != Some(&idx[*n]) {
                roots.push(idx[*n]);
                spans.push(p);
            }
            for (c, &m) in heads.iter_mut().zip(sub_modes.iter()) {
                c.push(idx[m]);
            }
            *slot = idx[sub_modes[sub_modes.len() - 1]];
            vals.push(sp.vals()[e]);
        }
        spans.push(sp.nnz());
    }
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
    let width = lane_width(r);
    let padded: Vec<Matrix>;
    let factors = if width == r {
        factors
    } else {
        padded = factors.iter().map(|f| pad_cols(f, width)).collect();
        &padded
    };
    let mut out = Matrix::zeros(rows, width);
    tree.for_root_blocks(
        out.data_mut(),
        width,
        &mut [],
        csf.nnz() * r,
        |roots, row0, block, _| walk_block(level, tree, factors, roots, row0, block, width),
    );
    if width == r {
        out
    } else {
        Matrix::from_fn(rows, r, |i, j| out.get(i, j))
    }
}

/// The lanes a walk runs rank `r` in: 8, 16, or 32-lane blocks.
fn lane_width(r: usize) -> usize {
    match r {
        0..=8 => 8,
        9..=16 => 16,
        _ => r.next_multiple_of(32),
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

/// The CSF walk: accumulate roots `roots` into lanes `c0..c0 + W` of `out`,
/// a row-major block of `r`-wide rows starting at output row `row0`.
///
/// Each root's sum ([`root_sum`]) is stored once, which equals the
/// oracle's in-place sum because each root owns its row and `out` is
/// zeroed. Orders 2 and 3 hand it a constant number of head modes (none or
/// one), so its mode loop unrolls away.
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
    let k = tree.sub_modes.len() - 1;
    let heads: Vec<(&[u32], &[f64])> = tree.coords[..k]
        .iter()
        .zip(&tree.sub_modes)
        .map(|(c, &m)| (&c[..], factors[m].data()))
        .collect();
    let last = (&tree.coords[k][..], factors[tree.sub_modes[k]].data());
    for root in roots {
        let leaves = tree.spans[root]..tree.spans[root + 1];
        let acc = match k {
            0 => root_sum::<W>(&[], last, &tree.vals, leaves, r, c0),
            1 => root_sum::<W>(&heads[..1], last, &tree.vals, leaves, r, c0),
            _ => root_sum::<W>(&heads, last, &tree.vals, leaves, r, c0),
        };
        let row = tree.roots[root] as usize - row0;
        out[row * r + c0..][..W].copy_from_slice(&acc);
    }
}

/// One root's row, over its `leaves`: per leaf `p = v`, `p *= row` for
/// each head mode (every sub-mode but the last, ascending), then
/// `acc += p · row` of the last — the pointwise oracle's sequence,
/// unfused. The `[f64; W]` accumulator starts at `+0.0`.
#[inline(always)]
fn root_sum<const W: usize>(
    heads: &[(&[u32], &[f64])],
    (last, last_factor): (&[u32], &[f64]),
    vals: &[f64],
    leaves: Range<usize>,
    r: usize,
    c0: usize,
) -> [f64; W] {
    let mut acc = [0.0; W];
    for ((e, &v), &i) in leaves.clone().zip(&vals[leaves.clone()]).zip(&last[leaves]) {
        let mut p = [v; W];
        for &(coords, fac) in heads {
            let row = &fac[coords[e] as usize * r + c0..][..W];
            for (p, &x) in p.iter_mut().zip(row) {
                *p *= x;
            }
        }
        let row = &last_factor[i as usize * r + c0..][..W];
        for ((a, &p), &x) in acc.iter_mut().zip(&p).zip(row) {
            *a += p * x;
        }
    }
    acc
}

/// The pair operator `𝓜^(i,j)` of pairwise perturbation: every mode but
/// `i` and `j` contracted with its factor, as a dense `s_i × s_j × R`
/// tensor laid out `[i, j, R]` and drawn from `ws` (the walk writes every
/// element). `factors` holds one factor per mode; those of `i` and `j` are
/// not read.
///
/// One walk of tree `i` (module docs): each root owns its `s_j × R` slab,
/// a leaf's coordinate in mode `j` picks the slab row, and every other
/// mode contracts. At order 3 the result is bit-identical to the
/// semi-sparse TTM of the third mode, densified
/// ([`crate::semisparse::csf_ttm`]): both fuse exactly where the CPU's
/// GEMM clone does. At higher orders it is
/// the pointwise oracle's, unfused, on every SIMD level. Both hold at any
/// thread count.
pub fn csf_pair_in(
    ws: &Workspace,
    csf: &CsfTensor,
    factors: &[Matrix],
    i: usize,
    j: usize,
) -> DenseTensor {
    pair_at(simd_level(), ws, csf, factors, i, j, false).0
}

/// [`csf_pair_in`], and the anchor `M^(i)` of pairwise perturbation: the
/// operator's position 1 contracted with `A^(j)`, bit for bit what
/// [`crate::kernels::mttv::mttv_in`] gives on the returned operator. The
/// walk folds the anchor in the mTTV's chain order, each slab row as it is
/// finished where `j` is the tree's first sub-mode (the pair `(0, 1)` of
/// PP), else each slab once it is, while it is still in cache.
pub fn csf_pair_anchored_in(
    ws: &Workspace,
    csf: &CsfTensor,
    factors: &[Matrix],
    i: usize,
    j: usize,
) -> (DenseTensor, Matrix) {
    let (pair, anchor) = pair_at(simd_level(), ws, csf, factors, i, j, true);
    (pair, anchor.expect("an anchored walk folds the anchor"))
}

/// The pair walk on the clone for `level`, or on the best one the CPU
/// runs if that is lower (the unit tests walk every level); with the
/// anchor iff `anchored`.
fn pair_at(
    level: SimdLevel,
    ws: &Workspace,
    csf: &CsfTensor,
    factors: &[Matrix],
    i: usize,
    j: usize,
    anchored: bool,
) -> (DenseTensor, Option<Matrix>) {
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
    let read = if anchored { &[j][..] } else { &[] };
    for &m in contracted.iter().chain(read) {
        assert_eq!(factors[m].rows(), dims[m], "factor {m} rows");
        assert_eq!(factors[m].cols(), r, "factor {m} rank");
    }
    let tree = csf.tree(i);
    let js = tree.sub_modes.iter().position(|&m| m == j).unwrap();
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
    // As in the MTTKRP, other ranks run over zero-padded factors at the
    // next lane width, each lane on its own; their rows go through a
    // padded slab and keep the real lanes.
    let width = lane_width(r);
    let padded: Vec<Matrix>;
    let factors = if width == r {
        factors
    } else {
        padded = factors.iter().map(|f| pad_cols(f, width)).collect();
        &padded
    };
    let walk = PairWalk {
        tree,
        factors,
        js,
        kc,
        fused,
        fold: anchored.then(|| factors[j].data()),
        sj: dims[j],
        r,
        width,
    };
    let (si, slab) = (dims[i], dims[j] * r);
    let shape = Shape::new(vec![si, dims[j], r]);
    let mut out = DenseTensor::from_buffer(shape, ws.draw(si * slab));
    let mut anchor = vec![0.0; if anchored { si * r } else { 0 }];
    if slab > 0 {
        tree.for_root_blocks(
            out.data_mut(),
            slab,
            &mut anchor,
            csf.nnz() * r,
            |roots, row0, block, anchor| pair_block(level, &walk, roots, row0, block, anchor),
        );
    }
    (out, anchored.then(|| Matrix::from_vec(si, r, anchor)))
}

/// What a pair walk needs besides its block of roots.
struct PairWalk<'a> {
    tree: &'a CsfTree,
    /// One factor per mode, `width` columns.
    factors: &'a [Matrix],
    /// The position of mode `j` among the tree's sub-modes.
    js: usize,
    /// Order 3: the KC panel depth of the mirrored GEMM (`usize::MAX` on
    /// its small path, one panel).
    kc: usize,
    /// Order 3: whether the mirrored GEMM's SIMD clones fuse (packed path).
    fused: bool,
    /// `A^(j)`, `width` wide, when the walk folds the anchor.
    fold: Option<&'a [f64]>,
    sj: usize,
    r: usize,
    /// The lanes a row is computed in: `r` rounded up to 8, 16 or a
    /// multiple of 32.
    width: usize,
}

/// One block of roots of a pair walk, on the clone for `level` or the best
/// one the CPU runs if that is lower.
fn pair_block(
    level: SimdLevel,
    w: &PairWalk,
    roots: Range<usize>,
    row0: usize,
    out: &mut [f64],
    anchor: &mut [f64],
) {
    match simd_level().min(level) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level` probed AVX-512F+FMA at runtime.
        SimdLevel::Avx512 => unsafe { pair_avx512(w, roots, row0, out, anchor) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `simd_level` probed AVX2+FMA at runtime.
        SimdLevel::Avx2 => unsafe { pair_avx2(w, roots, row0, out, anchor) },
        SimdLevel::Scalar => pair_body::<false, false, true>(w, roots, row0, out, anchor),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
fn pair_avx512(
    w: &PairWalk,
    roots: Range<usize>,
    row0: usize,
    out: &mut [f64],
    anchor: &mut [f64],
) {
    match w.fused {
        true => pair_body::<true, true, true>(w, roots, row0, out, anchor),
        false => pair_body::<false, true, true>(w, roots, row0, out, anchor),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn pair_avx2(w: &PairWalk, roots: Range<usize>, row0: usize, out: &mut [f64], anchor: &mut [f64]) {
    match w.fused {
        true => pair_body::<true, true, false>(w, roots, row0, out, anchor),
        false => pair_body::<false, true, false>(w, roots, row0, out, anchor),
    }
}

/// Width dispatch: [`pair_rows`] runs at a constant 8, 16 or 32 lanes
/// (32-lane blocks above), or in 16-lane blocks from 32 up unless `WIDE`:
/// the row walk holds a panel and an anchor accumulator, and two 32-lane
/// ones would not fit in the sixteen AVX2 registers. `FMA` fuses the
/// order-3 TTM replay, `FOLD_FMA` the anchor fold — the mTTV fuses on
/// every SIMD clone. No closures in here or below: a closure body is a
/// function of its own, outside the caller's `#[target_feature]` set, and
/// its `mul_add` would be a libm call.
#[inline(always)]
fn pair_body<const FMA: bool, const FOLD_FMA: bool, const WIDE: bool>(
    w: &PairWalk,
    roots: Range<usize>,
    row0: usize,
    out: &mut [f64],
    anchor: &mut [f64],
) {
    match w.width {
        8 => pair_rows::<8, FMA, FOLD_FMA>(w, roots, row0, out, anchor),
        16 => pair_rows::<16, FMA, FOLD_FMA>(w, roots, row0, out, anchor),
        _ if WIDE => pair_rows::<32, FMA, FOLD_FMA>(w, roots, row0, out, anchor),
        _ => pair_rows::<16, FMA, FOLD_FMA>(w, roots, row0, out, anchor),
    }
}

/// Every slab of a block of rows starting at `row0`, with its anchor row
/// when the walk folds one: a row with a root from its leaves, a row
/// without one all zeros (its anchor the fold of zeros). Nothing is read
/// from `out` or `anchor` before it is written, so they may hold anything.
#[inline(always)]
fn pair_rows<const W: usize, const FMA: bool, const FOLD_FMA: bool>(
    w: &PairWalk,
    roots: Range<usize>,
    row0: usize,
    out: &mut [f64],
    anchor: &mut [f64],
) {
    let tree = w.tree;
    let (r, width) = (w.r, w.width);
    // Padded ranks compute a slab and its anchor row in `pad`; a second KC
    // panel of the order-3 scatter accumulates in `panel`.
    let mut pad = vec![0.0; if width == r { 0 } else { (w.sj + 1) * width }];
    let mut panel = Vec::new();
    let mut anchors = anchor.chunks_exact_mut(r);
    let mut next = roots.start;
    for (a, slab) in out.chunks_exact_mut(w.sj * r).enumerate() {
        let mut leaves = 0..0;
        if next < roots.end && tree.roots[next] as usize == row0 + a {
            leaves = tree.spans[next]..tree.spans[next + 1];
            next += 1;
        }
        let anchor_row = anchors.next();
        if pad.is_empty() {
            root_slab::<W, FMA, FOLD_FMA>(w, leaves, slab, &mut panel, anchor_row);
            continue;
        }
        let (pad_slab, pad_anchor) = pad.split_at_mut(w.sj * width);
        root_slab::<W, FMA, FOLD_FMA>(w, leaves, pad_slab, &mut panel, Some(pad_anchor));
        for (row, padded) in slab.chunks_exact_mut(r).zip(pad_slab.chunks_exact(width)) {
            row.copy_from_slice(&padded[..r]);
        }
        if let Some(row) = anchor_row {
            row.copy_from_slice(&pad_anchor[..r]);
        }
    }
}

/// One root's slab (`s_j` rows of `width`) from its `leaves`, in blocks of
/// `W` lanes, each with its lanes of the anchor row when there is one.
#[inline(always)]
fn root_slab<const W: usize, const FMA: bool, const FOLD_FMA: bool>(
    w: &PairWalk,
    leaves: Range<usize>,
    slab: &mut [f64],
    panel: &mut Vec<f64>,
    anchor: Option<&mut [f64]>,
) {
    let mut anchor = anchor;
    for c0 in (0..w.width).step_by(W) {
        let anchor = anchor.as_deref_mut();
        if w.tree.sub_modes.len() == 2 {
            pair3::<W, FMA, FOLD_FMA>(w, leaves.clone(), slab, panel, c0, anchor);
        } else {
            pair_deep::<W>(w, leaves.clone(), slab, c0);
            fold_slab::<W, FOLD_FMA>(w, slab, c0, anchor);
        }
    }
}

/// `acc = x · a + acc` across `W` lanes, fused iff `FMA`: one link of the
/// mTTV's chain.
#[inline(always)]
fn fold_row<const W: usize, const FMA: bool>(acc: &mut [f64; W], x: &[f64], a: &[f64]) {
    let (x, a) = (&x[..W], &a[..W]);
    for q in 0..W {
        acc[q] = if FMA {
            x[q].mul_add(a[q], acc[q])
        } else {
            acc[q] + x[q] * a[q]
        };
    }
}

/// Lanes `c0..c0 + W` of the anchor row from a finished slab: per lane one
/// chain from +0.0 over the slab rows `b` ascending, as the mTTV's `gemv`
/// contracts the pair's position 1.
#[inline(always)]
fn fold_slab<const W: usize, const FMA: bool>(
    w: &PairWalk,
    slab: &[f64],
    c0: usize,
    anchor: Option<&mut [f64]>,
) {
    let (Some(fac), Some(anchor)) = (w.fold, anchor) else {
        return;
    };
    let mut acc = [0.0; W];
    for (x, a) in slab.chunks_exact(w.width).zip(fac.chunks_exact(w.width)) {
        fold_row::<W, FMA>(&mut acc, &x[c0..], &a[c0..]);
    }
    anchor[c0..][..W].copy_from_slice(&acc);
}

/// `y += v · x` over `W` lanes, fused iff `FMA` — the semi-sparse TTM's row
/// operation.
#[inline(always)]
fn axpy<const W: usize, const FMA: bool>(y: &mut [f64], v: f64, x: &[f64]) {
    let (y, x) = (&mut y[..W], &x[..W]);
    for q in 0..W {
        if FMA {
            y[q] = v.mul_add(x[q], y[q]);
        } else {
            y[q] += v * x[q];
        }
    }
}

/// `W` lanes of every row of `slab` (rows of `width`) from lane `c0` set
/// to +0.0.
#[inline(always)]
fn zero_lanes<const W: usize>(slab: &mut [f64], width: usize, c0: usize) {
    for row in slab.chunks_exact_mut(width) {
        row[c0..][..W].fill(0.0);
    }
}

/// The order-3 pair walk of one root, lanes `c0..c0 + W`: for each output
/// row `(a, b)`, the contributions `v · A_k[c]` in ascending `c`,
/// accumulated as `csf_ttm` does — from `+0.0` per KC panel of `c`, fused
/// iff `FMA`, each panel added into the row with one `+` onto the row's
/// +0.0 start (panels without a nonzero contribute an exact +0.0 and are
/// skipped, as there). With an `anchor` row, its lanes too.
#[inline(always)]
fn pair3<const W: usize, const FMA: bool, const FOLD_FMA: bool>(
    w: &PairWalk,
    leaves: Range<usize>,
    slab: &mut [f64],
    panel: &mut Vec<f64>,
    c0: usize,
    anchor: Option<&mut [f64]>,
) {
    let tree = w.tree;
    let (mid, leaf) = (&tree.coords[0], &tree.coords[1]);
    // The contracted mode is the sub-mode `j` is not.
    let fac = w.factors[tree.sub_modes[1 - w.js]].data();
    let width = w.width;
    let (mut e, end) = (leaves.start, leaves.end);
    if w.js == 1 {
        // `j` at the leaves: the middle coordinates are the contracted
        // ones, ascending, and each leaf scatters into its row. The first
        // panel accumulates in the slab itself, zeroed here as a panel
        // accumulator starts; each later one in `panel`, added into the
        // slab row by row at the panel's end (a row the panel missed adds
        // an exact +0.0).
        zero_lanes::<W>(slab, width, c0);
        if e < end {
            e = scatter_panel::<W, FMA>(w, fac, e..end, slab, c0);
        }
        while e < end {
            if panel.is_empty() {
                *panel = vec![0.0; slab.len()];
            }
            e = scatter_panel::<W, FMA>(w, fac, e..end, panel, c0);
            for (y, x) in slab
                .chunks_exact_mut(width)
                .zip(panel.chunks_exact_mut(width))
            {
                let (y, x) = (&mut y[c0..][..W], &mut x[c0..][..W]);
                for q in 0..W {
                    y[q] += x[q];
                    x[q] = 0.0;
                }
            }
        }
        return fold_slab::<W, FOLD_FMA>(w, slab, c0, anchor);
    }
    // `j` in the middle: a run of equal middle coordinates is one output
    // row, its leaves the contracted coordinates — `csf_ttm`'s row loop;
    // a row without a leaf is +0.0. The panel accumulator stays in
    // registers, and so does the anchor's chain, which takes each row as
    // it is finished. (One loop over every row: a loop that only zeroes
    // rows would become a `memset` call, and the chain would spill around
    // it.)
    let fold = if anchor.is_some() { w.fold } else { None };
    let mut folded = [0.0; W];
    for b in 0..w.sj {
        let row = &mut slab[b * width + c0..][..W];
        if e < end && mid[e] as usize == b {
            let mut acc = [0.0; W];
            let mut panel_end = 0;
            let mut first = true;
            while e < end && mid[e] as usize == b {
                let c = leaf[e] as usize;
                if c >= panel_end {
                    if panel_end != 0 {
                        flush_panel(row, &mut acc, first);
                        first = false;
                    }
                    panel_end = (c / w.kc + 1) * w.kc;
                }
                axpy::<W, FMA>(&mut acc, tree.vals[e], &fac[c * width + c0..]);
                e += 1;
            }
            flush_panel(row, &mut acc, first);
        } else {
            row.fill(0.0);
        }
        if let Some(a) = fold {
            fold_row::<W, FOLD_FMA>(&mut folded, row, &a[b * width + c0..]);
        }
    }
    if let Some(anchor) = anchor {
        anchor[c0..][..W].copy_from_slice(&folded);
    }
}

/// Add a finished panel into its row and restart it at +0.0. The first
/// panel adds onto the row's +0.0 start, which the row does not hold yet.
#[inline(always)]
fn flush_panel<const W: usize>(row: &mut [f64], acc: &mut [f64; W], first: bool) {
    for q in 0..W {
        let y = if first { 0.0 } else { row[q] };
        row[q] = y + acc[q];
        acc[q] = 0.0;
    }
}

/// Scatter the leaves in `leaves` that share the first one's KC panel of
/// the middle coordinate into lanes `c0..c0 + W` of the rows of `target`;
/// returns the first leaf past it.
#[inline(always)]
fn scatter_panel<const W: usize, const FMA: bool>(
    w: &PairWalk,
    fac: &[f64],
    leaves: Range<usize>,
    target: &mut [f64],
    c0: usize,
) -> usize {
    let tree = w.tree;
    let (mid, leaf) = (&tree.coords[0], &tree.coords[1]);
    let panel_end = (mid[leaves.start] as usize / w.kc + 1) * w.kc;
    let mut e = leaves.start;
    while e < leaves.end && (mid[e] as usize) < panel_end {
        let x = &fac[mid[e] as usize * w.width + c0..];
        let b = leaf[e] as usize * w.width + c0;
        axpy::<W, FMA>(&mut target[b..], tree.vals[e], x);
        e += 1;
    }
    e
}

/// The pair walk of one root at order 4 and up, lanes `c0..c0 + W`, the
/// pointwise oracle's sequence: per leaf `p = v`, `p *= row` for every
/// sub-mode but `j` in ascending mode order, then `out[a, b] += p` —
/// unfused, in the tree's (lexicographic) order, onto a slab zeroed here.
/// A run of leaves on one row `b` adds into it in registers.
#[inline(always)]
fn pair_deep<const W: usize>(w: &PairWalk, leaves: Range<usize>, slab: &mut [f64], c0: usize) {
    let tree = w.tree;
    let width = w.width;
    zero_lanes::<W>(slab, width, c0);
    let mut row = usize::MAX;
    let mut acc = [0.0; W];
    for e in leaves {
        let mut p = [tree.vals[e]; W];
        let mut b = 0;
        for (s, (coords, &m)) in tree.coords.iter().zip(&tree.sub_modes).enumerate() {
            let x = coords[e] as usize;
            if s == w.js {
                b = x;
                continue;
            }
            let f = &w.factors[m].data()[x * width + c0..][..W];
            for q in 0..W {
                p[q] *= f[q];
            }
        }
        if b != row {
            if row != usize::MAX {
                slab[row * width + c0..][..W].copy_from_slice(&acc);
            }
            row = b;
            acc.copy_from_slice(&slab[b * width + c0..][..W]);
        }
        for q in 0..W {
            acc[q] += p[q];
        }
    }
    if row != usize::MAX {
        slab[row * width + c0..][..W].copy_from_slice(&acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::mttv::mttv_in;
    use crate::kernels::naive::mttkrp_pointwise;
    use crate::rng::{seeded, uniform_matrix};
    use crate::semisparse::{csf_ttm, TtmPlan};
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

    #[test]
    #[should_panic(expected = "entry 1: value NaN is not finite")]
    fn ingest_rejects_nan() {
        SparseTensor::from_coo(vec![2, 2], vec![0, 0, 1, 1], vec![1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "entry 0: value -inf is not finite")]
    fn ingest_rejects_infinity() {
        SparseTensor::from_coo(vec![2, 2], vec![0, 0, 1, 1], vec![f64::NEG_INFINITY, 1.0]);
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
        // Entries (0,1,0) (0,1,1) (0,3,1) (2,0,0) (2,2,1). The root level
        // is the one fiber level a flat tree keeps: tree 0 roots {0, 2},
        // tree 1 roots {0..3}, tree 2 roots {0, 1}.
        let sp = SparseTensor::from_coo(
            vec![3, 4, 2],
            vec![0, 1, 0, 0, 1, 1, 0, 3, 1, 2, 0, 0, 2, 2, 1],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        );
        let csf = CsfTensor::build(&sp);
        assert_eq!(csf.nnz(), 5);
        let roots: Vec<Vec<u32>> = (0..3).map(|n| csf.tree(n).roots.clone()).collect();
        assert_eq!(roots, [vec![0, 2], vec![0, 1, 2, 3], vec![0, 1]]);
        // Per tree: 4 B per root, 8 B per span bound (roots + 1), 4 B per
        // leaf in each of two sub-modes, 8 B per value.
        let bytes: usize = [2, 4, 2]
            .iter()
            .map(|&k| k * 4 + (k + 1) * 8 + 5 * 2 * 4 + 5 * 8)
            .sum();
        assert_eq!(bytes, 360);
        assert_eq!(csf.memory_words(), bytes / 8);
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

    /// `samples` draws of coordinate `⌊d · u^skew⌋` per mode (skew 1 is
    /// uniform), dropping every draw that lands on an index `≡ 6 (mod 7)`
    /// in any mode, so every tree has empty root rows.
    fn holey_sparse(dims: &[usize], samples: usize, skew: f64, seed: u64) -> SparseTensor {
        let mut rng = seeded(seed);
        let (mut inds, mut vals) = (Vec::new(), Vec::new());
        for _ in 0..samples {
            let idx: Vec<usize> = dims
                .iter()
                .map(|&d| (d as f64 * rng.random::<f64>().powf(skew)) as usize)
                .collect();
            let v = rng.random::<f64>() * 2.0 - 1.0;
            if idx.iter().all(|&i| i % 7 != 6) {
                inds.extend(idx);
                vals.push(v);
            }
        }
        SparseTensor::from_coo(dims.to_vec(), inds, vals)
    }

    /// The walk at `sparse3`-like statistics — uniform at about 1 % (1–3
    /// leaves per fiber), skew 2 (long and short fibers), orders 2–4, all
    /// with empty root rows — gives the pointwise oracle's bits on every
    /// clone the CPU runs, at the walk's own widths, padded ones and
    /// 32-lane blocks, on pooled root blocks at widths 1, 2 and 4 (every
    /// `nnz · R` is above `PAR_THRESHOLD`).
    /// Each rank runs the first `R` columns of one set of rank-40 factors:
    /// the oracle computes every column on its own, so one call at rank 40
    /// holds the oracle's bits for all of them.
    #[test]
    fn walk_at_sparse3_statistics_matches_the_oracle_at_every_level_and_width() {
        let levels = [
            SimdLevel::Scalar,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512,
        ];
        let best = simd_level();
        let cases: [(&[usize], f64); 4] = [
            (&[96, 80, 64], 1.0),
            (&[96, 80, 64], 2.0),
            (&[700, 600], 1.0),
            (&[40, 32, 24, 16], 1.0),
        ];
        for (case, (dims, skew)) in cases.into_iter().enumerate() {
            let samples = dims.iter().product::<usize>() / 80;
            let sp = holey_sparse(dims, samples, skew, 50 + case as u64);
            assert!(sp.nnz() * 5 > PAR_THRESHOLD, "{dims:?}: {} nnz", sp.nnz());
            let csf = CsfTensor::build(&sp);
            let dense = sp.to_dense();
            let full = factors_for(dims, 40, 60 + case as u64);
            for n in 0..dims.len() {
                let want = mttkrp_pointwise(&dense, &full, n);
                for r in [5, 8, 12, 16, 24, 32, 40] {
                    let factors: Vec<Matrix> = full
                        .iter()
                        .map(|f| Matrix::from_fn(f.rows(), r, |i, j| f.get(i, j)))
                        .collect();
                    for &level in levels.iter().filter(|&&l| l <= best) {
                        for width in [1, 2, 4] {
                            let _w = rayon::scoped_num_threads(width);
                            let got = mttkrp_at(level, &csf, &factors, n);
                            let same = (0..dims[n]).all(|i| {
                                (0..r).all(|j| got.get(i, j).to_bits() == want.get(i, j).to_bits())
                            });
                            assert!(
                                same,
                                "{level:?} dims {dims:?} skew {skew} r {r} mode {n} width {width}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// `𝓜^(i,j)` (layout `[i, j, R]`) as a CPU whose clones fuse iff
    /// `fused` computes it. At order 3 that is the semi-sparse TTM's packed
    /// accumulation: per row, contracted index ascending, from +0.0 per KC
    /// panel (fused iff `fused`), each panel added into the row. Above, it is
    /// the pointwise product `v · ∏ A^(m)` over the modes but `i` and `j`,
    /// unfused, added into the row in lexicographic order.
    fn pair_oracle(
        sp: &SparseTensor,
        factors: &[Matrix],
        i: usize,
        j: usize,
        fused: bool,
    ) -> Vec<f64> {
        let dims = sp.dims();
        let r = factors[0].cols();
        let rows = dims[i] * dims[j];
        let mut out = vec![0.0; rows * r];
        let mut acc = vec![0.0; rows * r];
        let mut panel = vec![usize::MAX; rows];
        let mut p = vec![0.0; r];
        for (e, &v) in sp.vals().iter().enumerate() {
            let idx = sp.idx(e);
            let row = idx[i] as usize * dims[j] + idx[j] as usize;
            let (y, acc) = (&mut out[row * r..][..r], &mut acc[row * r..][..r]);
            if sp.order() == 3 {
                // Lexicographic order visits a row's contracted index
                // ascending.
                let k = 3 - i - j;
                let c = idx[k] as usize;
                if c / panel_kc() != panel[row] {
                    for (y, a) in y.iter_mut().zip(acc.iter_mut()) {
                        *y += *a;
                        *a = 0.0;
                    }
                    panel[row] = c / panel_kc();
                }
                for (a, &x) in acc.iter_mut().zip(factors[k].row(c)) {
                    *a = if fused { v.mul_add(x, *a) } else { *a + v * x };
                }
                continue;
            }
            p.fill(v);
            for (m, f) in factors.iter().enumerate() {
                if m != i && m != j {
                    for (p, &x) in p.iter_mut().zip(f.row(idx[m] as usize)) {
                        *p *= x;
                    }
                }
            }
            for (y, &p) in y.iter_mut().zip(&p) {
                *y += p;
            }
        }
        for (y, a) in out.iter_mut().zip(&acc) {
            *y += *a;
        }
        out
    }

    /// The mTTV of `pair` (`[s_i, s_j, R]`) at position `pos` with `a`, as
    /// a CPU whose clones fuse iff `fused` runs it: per output element one
    /// chain from +0.0 over the contracted index ascending.
    fn fold_oracle(pair: &DenseTensor, pos: usize, a: &Matrix, fused: bool) -> Vec<f64> {
        let (si, sj, r) = (pair.dim(0), pair.dim(1), pair.dim(2));
        let x = pair.data();
        let rows = if pos == 0 { sj } else { si };
        let mut out = vec![0.0; rows * r];
        for (o, acc) in out.chunks_exact_mut(r).enumerate() {
            for y in 0..a.rows() {
                let row = if pos == 0 { y * sj + o } else { o * sj + y };
                for ((acc, &x), &a) in acc.iter_mut().zip(&x[row * r..][..r]).zip(a.row(y)) {
                    *acc = if fused {
                        x.mul_add(a, *acc)
                    } else {
                        *acc + x * a
                    };
                }
            }
        }
        out
    }

    /// A PP build over the forest on the clone for `level`, as `pp_tree`
    /// runs it: the walk of every pair `(i, j)`, `i < j`, drawn from `ws`,
    /// with the anchor `M^(0)` folded into the walk of `𝓜^(0,1)`, then
    /// every other anchor `M^(n)` contracting position 0 of `𝓜^(0,n)` with
    /// `A^(0)`.
    fn forest_build(
        level: SimdLevel,
        ws: &Workspace,
        csf: &CsfTensor,
        factors: &[Matrix],
    ) -> (Vec<DenseTensor>, Vec<Vec<f64>>) {
        let order = csf.order();
        let mut anchors = Vec::new();
        let pairs: Vec<DenseTensor> = (0..order)
            .flat_map(|i| (i + 1..order).map(move |j| (i, j)))
            .map(|(i, j)| {
                let (pair, anchor) = pair_at(level, ws, csf, factors, i, j, (i, j) == (0, 1));
                anchors.extend(anchor.map(|a| a.data().to_vec()));
                pair
            })
            .collect();
        for n in 1..order {
            anchors.push(
                mttv_in(ws, &pairs[n - 1], 0, &factors[0])
                    .tensor
                    .data()
                    .to_vec(),
            );
        }
        (pairs, anchors)
    }

    /// Every pair operator and all `N` anchors of a forest build give the
    /// oracle's bits on every clone the CPU runs, from a workspace whose
    /// buffers are all recycled (NaN-poisoned in debug builds, so a row
    /// the walk leaves unwritten shows), at pool widths 1, 2 and 4. The
    /// tensors have empty roots in every mode (`holey_sparse`) and rows
    /// `(a, b)` with no fiber, at orders 3 and 4. The order-3 shapes put a
    /// contracted extent above KC on the row path of `𝓜^(0,1)` and on the
    /// scatter path of `𝓜^(1,2)`, so both accumulate two panels. Each rank
    /// takes the first `R` columns of rank-40 factors, whose oracle holds
    /// every column's bits; the oracle itself is checked against
    /// `csf_ttm` (order 3) and `mttv_in` at the CPU's fusion.
    #[test]
    fn pair_walks_and_anchors_match_the_oracle_from_recycled_buffers() {
        let levels = [
            SimdLevel::Scalar,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512,
        ];
        let best = simd_level();
        let fuses = |level: SimdLevel| level != SimdLevel::Scalar;
        let kc = panel_kc();
        let cases: [&[usize]; 3] = [&[24, 20, kc + 44], &[kc + 44, 20, 24], &[16, 14, 12, 10]];
        for (case, dims) in cases.into_iter().enumerate() {
            let order = dims.len();
            let samples = dims.iter().product::<usize>() / [25, 4][order - 3];
            let sp = holey_sparse(dims, samples, 1.0, 80 + case as u64);
            assert!(sp.nnz() * 5 > PAR_THRESHOLD, "{dims:?}: {} nnz", sp.nnz());
            let csf = CsfTensor::build(&sp);
            let full = factors_for(dims, 40, 90 + case as u64);
            let keys: Vec<(usize, usize)> = (0..order)
                .flat_map(|i| (i + 1..order).map(move |j| (i, j)))
                .collect();
            // The oracle at both fusions, each pair's rows with an empty
            // row among them, and the oracle pinned to the kernels.
            let oracle = |fused: bool| -> Vec<DenseTensor> {
                keys.iter()
                    .map(|&(i, j)| {
                        let shape = Shape::new(vec![dims[i], dims[j], 40]);
                        DenseTensor::from_vec(shape, pair_oracle(&sp, &full, i, j, fused))
                    })
                    .collect()
            };
            let want_pairs = [oracle(false), oracle(true)];
            for (p, &(i, j)) in want_pairs[0].iter().zip(&keys) {
                let empty = p
                    .data()
                    .chunks_exact(40)
                    .any(|row| row.iter().all(|&x| x == 0.0));
                assert!(empty, "{dims:?} pair ({i}, {j}): every row has a fiber");
            }
            let want_anchors = |pairs: &[DenseTensor], fused: bool| -> Vec<Vec<f64>> {
                (0..order)
                    .map(|n| match n {
                        0 => fold_oracle(&pairs[0], 1, &full[1], fused),
                        _ => fold_oracle(&pairs[n - 1], 0, &full[0], fused),
                    })
                    .collect()
            };
            let at_best = &want_pairs[usize::from(fuses(best))];
            for (p, &(i, j)) in at_best.iter().zip(&keys) {
                if order == 3 {
                    let k = 3 - i - j;
                    let ttm = csf_ttm(&sp, &TtmPlan::build(&sp, k), &full[k]).to_dense();
                    assert!(
                        bits_eq(p.data(), ttm.data()),
                        "{dims:?} pair ({i}, {j}) vs csf_ttm"
                    );
                }
            }
            let ws = Workspace::new();
            let anchors_at_best = want_anchors(at_best, fuses(best));
            for (n, want) in anchors_at_best.iter().enumerate() {
                let (src, pos, a) = match n {
                    0 => (&at_best[0], 1, &full[1]),
                    _ => (&at_best[n - 1], 0, &full[0]),
                };
                let got = mttv_in(&ws, src, pos, a).tensor;
                assert!(bits_eq(got.data(), want), "{dims:?} anchor {n} vs mttv_in");
            }
            for r in [5, 8, 12, 16, 24, 32, 40] {
                let factors: Vec<Matrix> = full
                    .iter()
                    .map(|f| Matrix::from_fn(f.rows(), r, |i, j| f.get(i, j)))
                    .collect();
                // Every length the build draws is held from here on.
                drop(forest_build(best, &ws, &csf, &factors));
                for &level in levels.iter().filter(|&&l| l <= best) {
                    // The walk folds anchor 0 at the level's fusion; the
                    // mTTV runs the others at the CPU's.
                    let want = &want_pairs[usize::from(fuses(level))];
                    let mut anchors = want_anchors(want, fuses(best));
                    anchors[0] = fold_oracle(&want[0], 1, &full[1], fuses(level));
                    for width in [1, 2, 4] {
                        let _w = rayon::scoped_num_threads(width);
                        let misses = ws.stats().misses;
                        let (pairs, got_anchors) = forest_build(level, &ws, &csf, &factors);
                        assert_eq!(ws.stats().misses, misses, "a fresh buffer was drawn");
                        let what = format!("{level:?} dims {dims:?} r {r} width {width}");
                        for ((got, want), key) in pairs.iter().zip(want).zip(&keys) {
                            assert!(lanes_eq(got.data(), want.data(), r), "{what} pair {key:?}");
                        }
                        for (n, (got, want)) in got_anchors.iter().zip(&anchors).enumerate() {
                            assert!(lanes_eq(got, want, r), "{what} anchor {n}");
                        }
                    }
                }
            }
        }
    }

    fn bits_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// `got`'s `r`-wide rows equal the first `r` lanes of `want`'s 40-wide
    /// ones, bit for bit.
    fn lanes_eq(got: &[f64], want: &[f64], r: usize) -> bool {
        got.len() / r == want.len() / 40
            && got
                .chunks_exact(r)
                .zip(want.chunks_exact(40))
                .all(|(g, w)| bits_eq(g, &w[..r]))
    }

    #[test]
    fn tree_zero_follows_the_canonical_order() {
        // Tree 0 is built straight from the canonical order; every tree
        // lists each occupied root once, ascending, and its spans tile the
        // leaves, one per nonzero.
        let sp = random_sparse(&[6, 5, 4, 3], 90, 31);
        let csf = CsfTensor::build(&sp);
        for n in 0..4 {
            let t = csf.tree(n);
            assert!(t.roots.windows(2).all(|w| w[0] < w[1]));
            assert!(t.spans.windows(2).all(|w| w[0] < w[1]));
            assert_eq!((t.spans[0], t.spans[t.roots.len()]), (0, sp.nnz()));
            assert!(t.coords.iter().all(|c| c.len() == sp.nnz()));
        }
        for (s, c) in csf.tree(0).coords.iter().enumerate() {
            let canonical: Vec<u32> = (0..sp.nnz()).map(|e| sp.idx(e)[s + 1]).collect();
            assert_eq!(c, &canonical);
        }
        assert_eq!(csf.tree(0).vals, sp.vals());
    }

    #[test]
    fn forest_builds_alike_at_any_width() {
        // The trees build in parallel into arrays sized on the calling
        // thread: the same arrays at every pool width, built fresh or
        // kept by a tensor whose first caller ran at that width.
        for (dims, nnz) in [
            (vec![9, 7], 40usize),
            (vec![8, 6, 5], 150),
            (vec![5, 4, 3, 4], 120),
            (vec![30, 28, 26], 1750),
        ] {
            let sp = random_sparse(&dims, nnz, 41);
            let serial = {
                let _w = rayon::scoped_num_threads(1);
                CsfTensor::build(&sp)
            };
            for width in [2, 4] {
                let _w = rayon::scoped_num_threads(width);
                let what = format!("{dims:?} width {width}");
                assert_same_trees(&serial, &CsfTensor::build(&sp), &what);
                let kept = random_sparse(&dims, nnz, 41);
                assert_same_trees(&serial, kept.csf(), &what);
            }
        }
    }

    /// `a` and `b` hold the same trees, array for array.
    fn assert_same_trees(a: &CsfTensor, b: &CsfTensor, what: &str) {
        for (a, b) in a.trees.iter().zip(&b.trees) {
            assert_eq!(a.vals, b.vals, "{what}");
            assert_eq!(
                (&a.roots, &a.spans, &a.coords),
                (&b.roots, &b.spans, &b.coords),
                "{what}"
            );
        }
    }

    #[test]
    fn a_tensor_keeps_one_forest_for_every_clone() {
        // Asked from the tensor or any clone, before or after the clone was
        // made, the forest is one forest, and it is `CsfTensor::build`'s.
        let sp = random_sparse(&[8, 6, 5], 150, 43);
        let early = sp.clone();
        let first: *const CsfTensor = early.csf();
        let late = sp.clone();
        for (what, t) in [("original", &sp), ("early", &early), ("late", &late)] {
            assert!(std::ptr::eq(t.csf(), first), "{what}");
        }
        let fresh = CsfTensor::build(&sp);
        assert!(!std::ptr::eq(&fresh, first), "build stays a fresh build");
        assert_same_trees(&fresh, sp.csf(), "a fresh build");
        // Another tensor with the same entries has its own.
        let twin = random_sparse(&[8, 6, 5], 150, 43);
        assert!(!std::ptr::eq(twin.csf(), first));
    }

    #[test]
    fn threads_that_ask_at_once_get_one_forest() {
        // Two threads ask one tensor at once, each at its own pool width:
        // one forest, and it is the one a lone serial build gives.
        let dims = [96, 80, 64];
        for width in [1, 2] {
            let sp = holey_sparse(&dims, dims.iter().product::<usize>() / 80, 2.0, 44);
            let barrier = std::sync::Barrier::new(2);
            let seen: Vec<usize> = std::thread::scope(|s| {
                let ask = || {
                    let _w = rayon::scoped_num_threads(width);
                    barrier.wait();
                    sp.csf() as *const CsfTensor as usize
                };
                let handles = [s.spawn(ask), s.spawn(ask)];
                handles.map(|h| h.join().unwrap()).to_vec()
            });
            assert_eq!(seen[0], seen[1], "width {width}");
            let lone = {
                let _w = rayon::scoped_num_threads(1);
                CsfTensor::build(&sp)
            };
            assert_same_trees(&lone, sp.csf(), &format!("width {width}"));
        }
    }

    #[test]
    fn the_remembered_norm_is_the_serial_sum() {
        // Empty, and at `sparse3`-like statistics (uniform and skewed),
        // the first call and every later one on any clone give the bits of
        // one pass over the values in stored order.
        let dims = [96, 80, 64];
        let samples = dims.iter().product::<usize>() / 80;
        for sp in [
            SparseTensor::from_coo(dims.to_vec(), vec![], vec![]),
            holey_sparse(&dims, samples, 1.0, 45),
            holey_sparse(&dims, samples, 2.0, 46),
        ] {
            let serial: f64 = sp.vals().iter().map(|v| v * v).sum();
            assert_eq!(sp.norm_sq().to_bits(), serial.to_bits(), "{sp:?}");
            assert_eq!(sp.clone().norm_sq().to_bits(), serial.to_bits());
            assert_eq!(sp.norm_sq().to_bits(), serial.to_bits());
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
}
