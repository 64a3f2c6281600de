//! Pairwise-perturbation operator construction (the PP dimension tree,
//! Fig. 1b of the paper).
//!
//! The PP initialization step materializes, for every mode pair `i < j`,
//! the operator `𝓜p^(i,j) ∈ R^{s_i × s_j × R}` (Eq. 4 with two free
//! modes), plus the anchors `Mp^(n)`. All operators descend from
//! first-level TTM intermediates through batched TTVs; the intermediates
//! have the "PP form" `{i} ∪ [a..b]` (one isolated mode plus a contiguous
//! block), and at level `l` of the tree exactly `(l+1 choose 2)` of them
//! exist — the structure of Fig. 1b.
//!
//! The construction shares the engine's version-checked cache, so a
//! first-level intermediate left over from the preceding exact ALS sweep is
//! reused when its factor versions still match (the paper's footnote 1:
//! only 2 of the 3 first-level contractions are recomputed for N = 4).
//!
//! Construction plans first, then builds one first-level root at a time.
//! The plan walks the tree over mode sets only, seeded with the valid
//! cached sets, and fixes the parent every node descends from — and with
//! it every bit of every operator. The build then takes the roots in turn,
//! those found cached first: it contracts the root's planned nodes, fans
//! the root's pairs out over the persistent rayon pool (their last
//! contractions are independent given the frozen factors), merges the
//! bookkeeping back in key order (so traces and cache contents are
//! identical for any thread count), and drops the root from the cache.
//! A cached first-level set the plan never reads is dropped before the
//! first TTM. So one first-level intermediate is live at a time, as Table I
//! prices a tree, and none outlives the build — the approximated sweeps'
//! factor updates would leave it stale anyway. Two exceptions keep roots:
//! at order 3 the roots *are* the pair operators, and on a growing input
//! ([`InputTensor::evolving`]) the roots that keep the evolving mode stay,
//! because an arrival right after the build delta-extends exactly those
//! (`DimTreeEngine::extend_mode`) and the next exact sweep reads them.
//!
//! A sparse input (`InputTensor::new_sparse`, held as the CSF forest)
//! skips the tree: each pair operator is one walk of a fiber tree
//! ([`pp_tensor::sparse::csf_pair_in`]), the walk of `(0, 1)` folds the
//! anchor of mode 0 in ([`pp_tensor::sparse::csf_pair_anchored_in`]), the
//! other anchors follow as above, and the cache is left alone.

use crate::cache::{InterCache, Intermediate};
use crate::engine::DimTreeEngine;
use crate::factor::FactorState;
use crate::input::InputTensor;
use crate::modeset::ModeSet;
use crate::par_collect;
use crate::stats::Kernel;
use pp_tensor::kernels::mttv::mttv_in;
use pp_tensor::sparse::{csf_pair_anchored_in, csf_pair_in};
use pp_tensor::{CsfTensor, Matrix, Workspace};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The PP operators produced by the initialization step.
pub struct PpOperators {
    /// `𝓜p^(i,j)` for `i < j`, keyed by `(i, j)`. Each intermediate's
    /// `mode_order` records the layout of its two leading dims.
    pub pairs: HashMap<(usize, usize), Intermediate>,
    /// `Mp^(n)` for every mode `n`.
    pub firsts: Vec<Matrix>,
    /// Number of first-level TTMs actually recomputed (diagnostics; the
    /// rest were reused from the shared cache). 0 on a CSF-forest input,
    /// whose pairs come from fiber walks instead.
    pub fresh_ttms: usize,
}

impl PpOperators {
    /// The pair operator for `(i, j)` in either order.
    pub fn pair(&self, a: usize, b: usize) -> &Intermediate {
        let key = (a.min(b), a.max(b));
        self.pairs.get(&key).expect("pair operator must exist")
    }

    /// Auxiliary memory held by the operators, in f64 elements.
    pub fn memory_elems(&self) -> usize {
        self.pairs.values().map(|p| p.memory_words()).sum::<usize>()
            + self.firsts.iter().map(|m| m.data().len()).sum::<usize>()
    }

    /// [`PpOperators::memory_elems`] less the pair operators whose buffer
    /// `cache` holds too: a dense build caches every pair it makes and
    /// keeps the same buffer here, so a sum over both counts it once.
    pub fn memory_elems_beside(&self, cache: &InterCache) -> usize {
        let cached: Vec<*const f64> = cache
            .entries_sorted()
            .iter()
            .map(|e| e.tensor.data().as_ptr())
            .collect();
        let shared: usize = self
            .pairs
            .values()
            .filter(|p| cached.contains(&p.tensor.data().as_ptr()))
            .map(Intermediate::memory_words)
            .sum();
        self.memory_elems() - shared
    }
}

/// Build all PP operators for the current factors (which become the
/// reference factors `A^(n)_p` of the approximated step).
pub fn build_pp_operators(
    input: &mut InputTensor,
    fs: &FactorState,
    engine: &mut DimTreeEngine,
) -> PpOperators {
    let n_modes = fs.order();
    assert!(n_modes >= 3, "pairwise perturbation needs order ≥ 3");
    if let Some(sp) = input.sparse() {
        let (pairs, first) = forest_pairs(sp.csf(), fs, engine);
        let mut firsts = vec![first];
        firsts.extend(anchors(&pairs, fs, engine, 1));
        return PpOperators {
            pairs,
            firsts,
            fresh_ttms: 0,
        };
    }

    // ---- Plan (module docs), then drop what it never reads: stale
    // entries, and first-level sets no pair descends from.
    engine.cache_mut().evict_stale(fs.versions());
    let cached: Vec<ModeSet> = engine
        .cache()
        .entries_sorted()
        .iter()
        .map(|e| e.set())
        .collect();
    let plan = Plan::new(n_modes, &cached);
    let evolving = input.evolving_mode();
    let releasable = |set: ModeSet| {
        n_modes > 3 && set.len() == n_modes - 1 && evolving.is_none_or(|e| !set.contains(e))
    };
    for &set in &cached {
        if releasable(set) && !plan.reads(set) {
            engine.cache_mut().remove(set);
        }
    }

    // ---- Build, one root at a time.
    let ws = engine.workspace().clone();
    let mut fresh_ttms = 0usize;
    let mut pairs = HashMap::new();
    for root in plan.roots() {
        // The root's planned nodes, parents first, on this thread: the
        // cache is single-writer, and pairs share these nodes.
        for (set, made) in plan.nodes_under(root) {
            let inter = match made {
                Made::Ttm(k) => {
                    fresh_ttms += 1;
                    engine.contract_recorded(input, fs, k)
                }
                Made::Step { parent, gone } => {
                    let parent = cached_node(engine, fs, parent);
                    let (inter, dur, flops) = contract_out(&ws, fs, &parent, gone);
                    engine.stats.record(Kernel::Mttv, dur, flops);
                    inter
                }
            };
            debug_assert_eq!(inter.set(), set);
            engine.cache_mut().insert(inter);
        }

        // The root's pairs: found whole, or one batched TTV below their
        // start. Those TTVs read only the frozen factors and their own
        // start, so they fan out over the pool.
        let mut deferred = Vec::new();
        for ((i, j), start) in plan.pairs_under(root) {
            let inter = cached_node(engine, fs, start);
            match start.minus(ModeSet::from_modes([i, j])).min() {
                None => {
                    pairs.insert((i, j), inter);
                }
                Some(gone) => deferred.push(((i, j), inter, gone)),
            }
        }
        let finished = par_collect(deferred.len(), |k| {
            let (_, start, gone) = &deferred[k];
            contract_out(&ws, fs, start, *gone)
        });
        // Bookkeeping merges back in key order.
        for ((key, _, _), (inter, dur, flops)) in deferred.into_iter().zip(finished) {
            engine.stats.record(Kernel::Mttv, dur, flops);
            engine.cache_mut().insert(inter.clone());
            pairs.insert(key, inter);
        }
        if releasable(root) {
            engine.cache_mut().remove(root);
        }
    }

    let firsts = anchors(&pairs, fs, engine, 0);
    PpOperators {
        pairs,
        firsts,
        fresh_ttms,
    }
}

/// Every pair operator of a sparse input held as the CSF forest, and the
/// anchor `Mp^(0)`: one walk of tree `i` per pair `(i, j)`, each split over
/// the pool by root, the walk of `(0, 1)` folding the anchor as it goes. No
/// first-level TTM or cached intermediate is involved.
fn forest_pairs(
    csf: &CsfTensor,
    fs: &FactorState,
    engine: &mut DimTreeEngine,
) -> (HashMap<(usize, usize), Intermediate>, Matrix) {
    let n_modes = fs.order();
    let r = fs.factor(0).cols();
    // Per leaf and lane: N − 2 multiplies and one add.
    let flops = (n_modes as u64 - 1) * csf.nnz() as u64 * r as u64;
    let mut pairs = HashMap::new();
    let mut first = None;
    for i in 0..n_modes {
        for j in i + 1..n_modes {
            let t0 = Instant::now();
            let ws = engine.workspace();
            let (t, fold_flops) = if (i, j) == (0, 1) {
                let (t, anchor) = csf_pair_anchored_in(ws, csf, fs.factors(), i, j);
                first = Some(anchor);
                // The fold: one multiply-add per operator element.
                let fold_flops = 2 * t.len() as u64;
                (t, fold_flops)
            } else {
                (csf_pair_in(ws, csf, fs.factors(), i, j), 0)
            };
            engine
                .stats
                .record(Kernel::Ttm, t0.elapsed(), flops + fold_flops);
            let inter = Intermediate {
                tensor: Arc::new(t),
                mode_order: vec![i, j],
                versions: fs.versions().to_vec(),
            };
            pairs.insert((i, j), inter);
        }
    }
    (pairs, first.expect("order >= 3 walks the pair (0, 1)"))
}

/// Anchors `Mp^(n)` for the modes `from..N`: contract the partner mode out
/// of a pair operator — one independent mTTV per mode, fanned over the
/// pool.
fn anchors(
    pairs: &HashMap<(usize, usize), Intermediate>,
    fs: &FactorState,
    engine: &mut DimTreeEngine,
    from: usize,
) -> Vec<Matrix> {
    let n_modes = fs.order();
    let ws = engine.workspace().clone();
    let anchors = par_collect(n_modes - from, |k| {
        let n = from + k;
        let partner = if n == 0 { 1 } else { 0 };
        let key = (n.min(partner), n.max(partner));
        let pair = &pairs[&key];
        let pos = pair.position_of(partner);
        let t0 = Instant::now();
        let out = mttv_in(&ws, &pair.tensor, pos, fs.factor(partner));
        (t0.elapsed(), out.flops, out.tensor)
    });
    let mut firsts = Vec::with_capacity(n_modes);
    for (dur, flops, tensor) in anchors {
        engine.stats.record(Kernel::Mttv, dur, flops);
        debug_assert_eq!(tensor.order(), 2);
        let rows = tensor.dim(0);
        let r = tensor.dim(1);
        // Copied out, so the drawn buffer goes back for the next build.
        firsts.push(Matrix::from_vec(rows, r, tensor.data().to_vec()));
    }
    firsts
}

/// How the build makes a tree node it does not find cached.
#[derive(Clone, Copy)]
enum Made {
    /// A first-level TTM contracting this mode out of the input.
    Ttm(usize),
    /// One batched TTV contracting `gone` out of the node `parent`.
    Step { parent: ModeSet, gone: usize },
}

/// The build's walk over mode sets: the node every pair's operator is
/// finished from and how each node the cache lacks is made. Every choice
/// depends only on which sets are there, so the plan is the walk a build
/// that contracted as it went would take.
struct Plan {
    n_modes: usize,
    /// The sets there without a contraction: the cached ones, then every
    /// planned node.
    have: HashSet<ModeSet>,
    /// The nodes to contract, parents before children.
    nodes: Vec<(ModeSet, Made)>,
    /// Per pair, in key order, the node its operator is finished from: the
    /// pair's own set when it is cached or one TTM from the input, else its
    /// parent.
    starts: Vec<((usize, usize), ModeSet)>,
}

impl Plan {
    /// Plan every pair, in key order, over the `cached` sets.
    fn new(n_modes: usize, cached: &[ModeSet]) -> Plan {
        let mut plan = Plan {
            n_modes,
            have: cached.iter().copied().collect(),
            nodes: Vec::new(),
            starts: Vec::new(),
        };
        for i in 0..n_modes {
            for j in i + 1..n_modes {
                let start = plan.start(ModeSet::from_modes([i, j]));
                plan.starts.push(((i, j), start));
            }
        }
        plan
    }

    /// Choose the mode `c` to re-add so the parent `S ∪ {c}` is PP-form,
    /// preferring (a) a parent that is there, (b) the full set (TTM), then
    /// (c) extending the block upward, (d) downward.
    fn parent_mode(&self, set: ModeSet) -> usize {
        let candidates: Vec<usize> = (0..self.n_modes)
            .filter(|&c| !set.contains(c) && set.with(c).is_pp_form())
            .collect();
        debug_assert!(!candidates.is_empty(), "PP-form sets always extend");
        let there = candidates
            .iter()
            .copied()
            .find(|&c| self.have.contains(&set.with(c)));
        there.unwrap_or_else(|| {
            if set.len() == self.n_modes - 1 {
                // Parent is the input tensor.
                ModeSet::full(self.n_modes).minus(set).min().unwrap()
            } else {
                let above = candidates.iter().copied().find(|&c| c > set.max().unwrap());
                above.unwrap_or_else(|| *candidates.last().unwrap())
            }
        })
    }

    /// Secure the PP-form `set`: there already, or planned after its parent.
    fn obtain(&mut self, set: ModeSet) {
        debug_assert!(set.is_pp_form(), "PP tree only builds PP-form sets");
        if self.have.contains(&set) {
            return;
        }
        let gone = self.parent_mode(set);
        let parent = set.with(gone);
        let made = if parent == ModeSet::full(self.n_modes) {
            Made::Ttm(gone)
        } else {
            self.obtain(parent);
            Made::Step { parent, gone }
        };
        self.nodes.push((set, made));
        self.have.insert(set);
    }

    /// The node the pair `set` is finished from (see `starts`), secured.
    fn start(&mut self, set: ModeSet) -> ModeSet {
        if self.have.contains(&set) {
            return set;
        }
        let parent = set.with(self.parent_mode(set));
        if parent == ModeSet::full(self.n_modes) {
            // Order 3: the pair is itself a first-level intermediate.
            self.obtain(set);
            set
        } else {
            self.obtain(parent);
            parent
        }
    }

    /// The node `set`'s tree grows from: a TTM, or a set found cached.
    fn root_of(&self, mut set: ModeSet) -> ModeSet {
        while let Some((_, Made::Step { parent, .. })) = self.nodes.iter().find(|(s, _)| *s == set)
        {
            set = *parent;
        }
        set
    }

    /// The roots in build order: the ones found cached first, then the
    /// TTMs, each in the order the walk reached it. Running a cached root
    /// later would hold it beside a fresh one.
    fn roots(&self) -> Vec<ModeSet> {
        let mut roots: Vec<ModeSet> = Vec::new();
        for &(_, start) in &self.starts {
            let root = self.root_of(start);
            if !roots.contains(&root) {
                roots.push(root);
            }
        }
        roots.sort_by_key(|&root| self.nodes.iter().any(|&(s, _)| s == root));
        roots
    }

    /// The planned nodes under `root`, parents first.
    fn nodes_under(&self, root: ModeSet) -> impl Iterator<Item = (ModeSet, Made)> + '_ {
        self.nodes
            .iter()
            .copied()
            .filter(move |&(set, _)| self.root_of(set) == root)
    }

    /// The pairs under `root`, in key order, with their starts.
    fn pairs_under(&self, root: ModeSet) -> impl Iterator<Item = ((usize, usize), ModeSet)> + '_ {
        self.starts
            .iter()
            .copied()
            .filter(move |&(_, start)| self.root_of(start) == root)
    }

    /// Whether the build reads the cached `set`.
    fn reads(&self, set: ModeSet) -> bool {
        self.starts.iter().any(|&(_, start)| start == set)
            || self
                .nodes
                .iter()
                .any(|(_, made)| matches!(made, Made::Step { parent, .. } if *parent == set))
    }
}

/// The planned node `set`, which the cache holds at this point of the build.
fn cached_node(engine: &mut DimTreeEngine, fs: &FactorState, set: ModeSet) -> Intermediate {
    engine
        .cache_mut()
        .get_valid(set, fs.versions())
        .expect("a planned node is cached before it is read")
        .clone()
}

/// Contract `gone` out of `parent` with one batched TTV. A pure function of
/// the frozen factors — no cache or stats access, so pairs run it in
/// parallel; the caller books the kernel's time and flops.
fn contract_out(
    ws: &Workspace,
    fs: &FactorState,
    parent: &Intermediate,
    gone: usize,
) -> (Intermediate, Duration, u64) {
    let pos = parent.position_of(gone);
    let t0 = Instant::now();
    let out = mttv_in(ws, &parent.tensor, pos, fs.factor(gone));
    let elapsed = t0.elapsed();
    let mut mode_order = parent.mode_order.clone();
    mode_order.remove(pos);
    let mut versions = parent.versions.clone();
    versions[gone] = fs.version(gone);
    let inter = Intermediate {
        tensor: Arc::new(out.tensor),
        mode_order,
        versions,
    };
    (inter, elapsed, out.flops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TreePolicy;
    use pp_tensor::kernels::mttv::mttv;
    use pp_tensor::kernels::naive::mttkrp as naive_mttkrp;
    use pp_tensor::kernels::ttm::ttm;
    use pp_tensor::rng::{seeded, uniform_matrix, uniform_tensor};
    use pp_tensor::{DenseTensor, SparseTensor};

    fn setup(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, FactorState) {
        let mut rng = seeded(seed);
        let t = uniform_tensor(dims, &mut rng);
        let factors: Vec<Matrix> = dims
            .iter()
            .map(|&d| uniform_matrix(d, r, &mut rng))
            .collect();
        (t, FactorState::new(factors))
    }

    /// Oracle for 𝓜^(i,j): contract every mode except i, j via repeated TTM
    /// and permute so the layout is (i, j, R).
    fn oracle_pair(t: &DenseTensor, fs: &FactorState, i: usize, j: usize) -> DenseTensor {
        // Contract modes one at a time, tracking the surviving mode list.
        let mut cur = t.clone();
        let mut modes: Vec<usize> = (0..t.order()).collect();
        // First contraction: TTM produces trailing rank mode.
        let first_gone = (0..t.order()).find(|&m| m != i && m != j).unwrap();
        let pos = modes.iter().position(|&m| m == first_gone).unwrap();
        cur = ttm(&cur, pos, fs.factor(first_gone)).tensor;
        modes.remove(pos);
        // Remaining contractions are batched TTVs.
        while modes.len() > 2 {
            let gone = *modes.iter().find(|&&m| m != i && m != j).unwrap();
            let pos = modes.iter().position(|&m| m == gone).unwrap();
            cur = mttv(&cur, pos, fs.factor(gone)).tensor;
            modes.remove(pos);
        }
        // Layout (modes[0], modes[1], R) — ensure (i, j).
        if modes == vec![i, j] {
            cur
        } else {
            pp_tensor::transpose::swap_first_two(&cur)
        }
    }

    fn check_all_pairs(dims: &[usize], r: usize) {
        let (t, fs) = setup(dims, r, 99);
        let mut input = InputTensor::new(t.clone());
        let mut engine = DimTreeEngine::new(TreePolicy::Standard, dims.len());
        let ops = build_pp_operators(&mut input, &fs, &mut engine);
        let n_modes = dims.len();
        assert_eq!(ops.pairs.len(), n_modes * (n_modes - 1) / 2);
        for i in 0..n_modes {
            for j in i + 1..n_modes {
                let got = &ops.pairs[&(i, j)];
                let want = oracle_pair(&t, &fs, i, j);
                // Canonicalize got's layout to (i, j, R).
                let got_t = if got.mode_order == vec![i, j] {
                    (*got.tensor).clone()
                } else {
                    pp_tensor::transpose::swap_first_two(&got.tensor)
                };
                assert!(got_t.max_abs_diff(&want) < 1e-9, "pair ({i},{j}) mismatch");
            }
        }
        // Anchors must equal the exact MTTKRP at the reference point.
        for n in 0..n_modes {
            let want = naive_mttkrp(&t, fs.factors(), n);
            assert!(ops.firsts[n].max_abs_diff(&want) < 1e-9, "anchor {n}");
        }
    }

    #[test]
    fn pp_operators_order3() {
        check_all_pairs(&[5, 4, 6], 3);
    }

    #[test]
    fn pp_operators_order4() {
        check_all_pairs(&[4, 3, 5, 3], 2);
    }

    #[test]
    fn pp_operators_order5() {
        check_all_pairs(&[3, 3, 2, 3, 3], 2);
    }

    #[test]
    fn first_level_count_matches_paper() {
        // The PP tree has (3 choose 2) = 3 level-2 tensors at any order
        // (Fig. 1b shows 𝓜^(1,2,3), 𝓜^(1,3,4), 𝓜^(2,3,4) for N = 4), so a
        // fresh build performs exactly 3 first-level TTMs.
        for n_modes in [3usize, 4, 5] {
            let dims = vec![4; n_modes];
            let (t, fs) = setup(&dims, 2, 5);
            let mut input = InputTensor::new(t);
            let mut engine = DimTreeEngine::new(TreePolicy::Standard, n_modes);
            let ops = build_pp_operators(&mut input, &fs, &mut engine);
            assert_eq!(ops.fresh_ttms, 3, "order {n_modes}");
        }
    }

    #[test]
    fn reuses_first_level_from_exact_sweep() {
        // After a DT sweep, exactly one first-level intermediate is still
        // valid and must be reused (paper footnote 1): fresh TTMs = N−2.
        let dims = vec![4, 4, 4, 4];
        let (t, mut fs) = setup(&dims, 2, 7);
        let mut input = InputTensor::new(t);
        let mut engine = DimTreeEngine::new(TreePolicy::Standard, 4);
        let mut rng = seeded(31);
        // One DT sweep with factor updates.
        for n in 0..4 {
            let _ = engine.mttkrp(&mut input, &fs, n);
            fs.update(n, uniform_matrix(4, 2, &mut rng));
        }
        let ops = build_pp_operators(&mut input, &fs, &mut engine);
        assert_eq!(ops.fresh_ttms, 4 - 2);
    }

    #[test]
    fn operators_bit_identical_across_thread_counts() {
        // The parallel Phase B must not change a single bit of any pair
        // operator or anchor relative to a 1-thread build.
        let dims = [4, 5, 3, 4];
        let (t, fs) = setup(&dims, 2, 17);
        let build = |threads: usize| {
            let _g = rayon::scoped_num_threads(threads);
            let mut input = InputTensor::new(t.clone());
            let mut engine = DimTreeEngine::new(TreePolicy::Standard, dims.len());
            build_pp_operators(&mut input, &fs, &mut engine)
        };
        let serial = build(1);
        let parallel = build(4);
        assert_eq!(serial.fresh_ttms, parallel.fresh_ttms);
        for (key, a) in &serial.pairs {
            let b = &parallel.pairs[key];
            assert_eq!(a.mode_order, b.mode_order, "pair {key:?} layout");
            assert_eq!(a.tensor.data(), b.tensor.data(), "pair {key:?} data");
        }
        for (a, b) in serial.firsts.iter().zip(parallel.firsts.iter()) {
            assert_eq!(a.data(), b.data());
        }
    }

    fn sparse_setup(dims: &[usize], r: usize, seed: u64) -> (SparseTensor, FactorState) {
        use rand::Rng;
        let mut rng = seeded(seed);
        let volume: usize = dims.iter().product();
        let mut inds = Vec::new();
        let mut vals = Vec::new();
        for _ in 0..volume / 3 {
            inds.extend(dims.iter().map(|&d| rng.random_range(0..d)));
            vals.push(rng.random::<f64>() - 0.5);
        }
        let factors = dims
            .iter()
            .map(|&d| uniform_matrix(d, r, &mut rng))
            .collect();
        (
            SparseTensor::from_coo(dims.to_vec(), inds, vals),
            FactorState::new(factors),
        )
    }

    #[test]
    fn sparse_rebuild_recycles_buffers_and_matches_a_fresh_build() {
        // Re-entering the regime must give the operators a from-scratch
        // build gives, bit for bit — what the first build returned to the
        // workspace is scratch space, never data — and must find every
        // buffer it needs there. The pairs are walks of the CSF forest
        // (order 3 replays the TTM, order 4 the pointwise product), and
        // the cache stays empty.
        for dims in [vec![6usize, 5, 7], vec![5, 4, 3, 4]] {
            let (sp, mut fs) = sparse_setup(&dims, 3, 71);
            let n_modes = dims.len();
            let mut input = InputTensor::new_sparse(sp.clone());
            let mut engine = DimTreeEngine::new(TreePolicy::MultiSweep, n_modes);
            let first = build_pp_operators(&mut input, &fs, &mut engine);
            assert_eq!(engine.cache().memory_elems(), 0, "nothing cached");
            let mut rng = seeded(72);
            for (n, &d) in dims.iter().enumerate() {
                fs.update(n, uniform_matrix(d, 3, &mut rng));
            }
            let after_first = engine.workspace().stats();
            drop(first); // as `AlsSession::pp_init` does
            let rebuilt = build_pp_operators(&mut input, &fs, &mut engine);
            let after_second = engine.workspace().stats();
            assert_eq!(after_second.draws, 2 * after_first.draws);
            assert_eq!(after_second.misses, after_first.misses, "{dims:?}");
            assert!(
                after_second.live_elems + after_second.held_elems <= after_second.high_water_elems
            );

            let mut fresh_input = InputTensor::new_sparse(sp);
            let mut fresh_engine = DimTreeEngine::new(TreePolicy::MultiSweep, n_modes);
            let fresh = build_pp_operators(&mut fresh_input, &fs, &mut fresh_engine);
            assert_eq!((rebuilt.fresh_ttms, fresh.fresh_ttms), (0, 0));
            for (key, a) in &fresh.pairs {
                let b = &rebuilt.pairs[key];
                assert_eq!(a.mode_order, b.mode_order, "pair {key:?} layout");
                assert_eq!(a.tensor.data(), b.tensor.data(), "pair {key:?} data");
            }
            for (a, b) in fresh.firsts.iter().zip(&rebuilt.firsts) {
                assert_eq!(a.data(), b.data());
            }
            let (a, b) = (fresh_engine.take_stats(), engine.take_stats());
            assert_eq!(
                a.ttm_count,
                (n_modes * (n_modes - 1) / 2) as u64,
                "one walk a pair"
            );
            assert_eq!(a.ttm_count * 2, b.ttm_count, "two builds, same walks each");
            assert_eq!(a.mttv_count * 2, b.mttv_count);
        }
    }

    #[test]
    fn forest_operators_match_the_chains() {
        // The forest's operators against the dense tree's on the densified
        // tensor: bit for bit at order 3, where a pair walk replays the one
        // TTM of the dense chain (and the anchors contract identical
        // pairs), to 1e-12 relative above, where the dense chain contracts
        // a TTM first and then mTTVs.
        for dims in [vec![9usize, 8, 7], vec![6, 5, 4, 5], vec![5, 4, 3, 4, 3]] {
            let (sp, fs) = sparse_setup(&dims, 4, 75);
            let n_modes = dims.len();
            let build = |mut input: InputTensor| {
                let mut engine = DimTreeEngine::new(TreePolicy::MultiSweep, n_modes);
                build_pp_operators(&mut input, &fs, &mut engine)
            };
            let forest = build(InputTensor::new_sparse(sp.clone()));
            let chain = build(InputTensor::new(sp.to_dense()));
            let tol = if n_modes == 3 { 0.0 } else { 1e-12 };
            for (key, a) in &forest.pairs {
                let b = &chain.pairs[key];
                assert_eq!(a.mode_order, vec![key.0, key.1]);
                let bt = if b.mode_order == a.mode_order {
                    (*b.tensor).clone()
                } else {
                    pp_tensor::transpose::swap_first_two(&b.tensor)
                };
                let scale = bt.norm();
                assert!(
                    a.tensor.max_abs_diff(&bt) <= tol * scale,
                    "{dims:?} pair {key:?}"
                );
            }
            for (a, b) in forest.firsts.iter().zip(&chain.firsts) {
                assert!(a.max_abs_diff(b) <= tol * b.norm(), "{dims:?} anchor");
            }
        }
    }

    /// FNV-1a over 64-bit words.
    fn fnv(words: impl Iterator<Item = u64>) -> u64 {
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Digest of every pair operator (in key order, layout included) and
    /// every anchor, bit for bit.
    fn ops_digest(ops: &PpOperators) -> u64 {
        let mut keys: Vec<(usize, usize)> = ops.pairs.keys().copied().collect();
        keys.sort_unstable();
        let pairs = keys.into_iter().flat_map(|key| {
            let p = &ops.pairs[&key];
            let layout = p.mode_order.iter().map(|&m| m as u64);
            layout.chain(p.tensor.data().iter().map(|x| x.to_bits()))
        });
        let anchors = ops
            .firsts
            .iter()
            .flat_map(|m| m.data().iter().map(|x| x.to_bits()));
        fnv(pairs.chain(anchors))
    }

    /// The cache states a build starts from: what an exact sweep of each
    /// policy leaves behind (each MSDT phase leaves a different first-level
    /// root), and a streaming input after one MSDT sweep.
    #[derive(Clone, Copy, Debug)]
    enum Start {
        Cold,
        DtSweeps(usize),
        MsdtSweeps(usize),
        Evolving(usize),
    }

    /// `(operator digest, fresh TTMs)` per order and start, in the loop
    /// order of `operators_keep_their_digests_from_every_start`.
    const OPERATOR_DIGESTS: [(u64, usize); 12] = [
        (0x2760_d162_fd76_eced, 3), // order 4, Cold
        (0x8b02_7cda_1036_4246, 2), // order 4, DtSweeps(1)
        (0x69a9_84d2_5548_811f, 2), // order 4, MsdtSweeps(1)
        (0x5220_27ae_7c38_cedc, 2), // order 4, MsdtSweeps(2)
        (0xd00e_2de8_3470_4e37, 2), // order 4, MsdtSweeps(3)
        (0x2cd5_3fcc_d555_05e1, 2), // order 4, Evolving(2)
        (0x9e1b_0bad_f167_80a9, 3), // order 5, Cold
        (0xb94d_21bb_a6ff_15ce, 2), // order 5, DtSweeps(1)
        (0x85d8_4e78_c41f_325b, 3), // order 5, MsdtSweeps(1)
        (0x07d7_28ab_8e0a_77c9, 2), // order 5, MsdtSweeps(2)
        (0x7b0f_891e_2049_8567, 2), // order 5, MsdtSweeps(3)
        (0xe844_fd09_99e4_089b, 3), // order 5, Evolving(3)
    ];

    #[test]
    fn operators_keep_their_digests_from_every_start() {
        // How the build schedules its contractions and what it keeps
        // cached may change; which parent every pair descends from, and so
        // every bit of every operator, may not.
        let mut got = Vec::new();
        for dims in [vec![5usize, 4, 6, 3], vec![4, 3, 5, 3, 4]] {
            let n_modes = dims.len();
            let starts = [
                Start::Cold,
                Start::DtSweeps(1),
                Start::MsdtSweeps(1),
                Start::MsdtSweeps(2),
                Start::MsdtSweeps(3),
                Start::Evolving(n_modes - 2),
            ];
            for start in starts {
                let (t, mut fs) = setup(&dims, 3, 23);
                let (mut input, policy, sweeps) = match start {
                    Start::Cold => (InputTensor::new(t), TreePolicy::MultiSweep, 0),
                    Start::DtSweeps(k) => (InputTensor::new(t), TreePolicy::Standard, k),
                    Start::MsdtSweeps(k) => (InputTensor::new(t), TreePolicy::MultiSweep, k),
                    Start::Evolving(e) => (InputTensor::evolving(&t, e), TreePolicy::MultiSweep, 1),
                };
                let mut engine = DimTreeEngine::new(policy, n_modes);
                let mut rng = seeded(29);
                for _ in 0..sweeps {
                    for (n, &d) in dims.iter().enumerate() {
                        let _ = engine.mttkrp(&mut input, &fs, n);
                        fs.update(n, uniform_matrix(d, 3, &mut rng));
                    }
                }
                let ops = build_pp_operators(&mut input, &fs, &mut engine);
                got.push((ops_digest(&ops), ops.fresh_ttms));
            }
        }
        assert_eq!(got, OPERATOR_DIGESTS);
    }

    #[test]
    fn operator_memory_accounting() {
        let dims = [4, 5, 6];
        let (t, fs) = setup(&dims, 2, 11);
        let mut input = InputTensor::new(t);
        let mut engine = DimTreeEngine::new(TreePolicy::Standard, 3);
        let ops = build_pp_operators(&mut input, &fs, &mut engine);
        // Pairs: (4·5 + 4·6 + 5·6)·2 = 148; firsts: (4+5+6)·2 = 30.
        assert_eq!(ops.memory_elems(), 148 + 30);
    }
}
