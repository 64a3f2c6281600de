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
//! Construction runs in three phases: a sequential walk secures shared
//! parents in the cache, then the per-pair contraction chains — which are
//! independent given the frozen factors — fan out over the persistent
//! rayon pool, and finally stats/cache bookkeeping merges back in
//! deterministic key order (so traces and cache contents are identical for
//! any thread count).
//!
//! A sparse input (`InputTensor::new_sparse`, held as the CSF forest)
//! skips the tree: each pair operator is one walk of a fiber tree
//! ([`pp_tensor::sparse::csf_pair_in`]), the walk of `(0, 1)` folds the
//! anchor of mode 0 in ([`pp_tensor::sparse::csf_pair_anchored_in`]), the
//! other anchors follow as above, and the cache is left alone.

use crate::cache::Intermediate;
use crate::engine::DimTreeEngine;
use crate::factor::FactorState;
use crate::input::InputTensor;
use crate::modeset::ModeSet;
use crate::par_collect;
use crate::stats::Kernel;
use pp_tensor::kernels::mttv::mttv_in;
use pp_tensor::sparse::{csf_pair_anchored_in, csf_pair_in};
use pp_tensor::{CsfTensor, Matrix, Workspace};
use std::collections::HashMap;
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
}

/// How aggressively the PP tree caches its intermediate levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PpTreeMemory {
    /// Cache every tree level — the flop-optimal schedule of Fig. 1b
    /// (auxiliary memory `O((s^N/P)^{(N-1)/N} R)`, Table I).
    Full,
    /// "Combine" the inner levels (paper §IV): keep only first-level
    /// intermediates and the pair operators, recontracting the path from
    /// the first level for every pair. Saves the inner-level memory at the
    /// cost of `O((l+2)(l+1)/4)` extra lower-level flops.
    CombineInner,
}

/// Build all PP operators for the current factors (which become the
/// reference factors `A^(n)_p` of the approximated step).
pub fn build_pp_operators(
    input: &mut InputTensor,
    fs: &FactorState,
    engine: &mut DimTreeEngine,
) -> PpOperators {
    build_pp_operators_with(input, fs, engine, PpTreeMemory::Full)
}

/// [`build_pp_operators`] with an explicit memory policy.
pub fn build_pp_operators_with(
    input: &mut InputTensor,
    fs: &FactorState,
    engine: &mut DimTreeEngine,
    memory: PpTreeMemory,
) -> PpOperators {
    let n_modes = fs.order();
    assert!(n_modes >= 3, "pairwise perturbation needs order ≥ 3");
    if let Some(sp) = input.sparse() {
        let (pairs, first) = forest_pairs(&sp.csf, fs, engine);
        let mut firsts = vec![first];
        firsts.extend(anchors(&pairs, fs, engine, 1));
        return PpOperators {
            pairs,
            firsts,
            fresh_ttms: 0,
        };
    }
    let mut fresh_ttms = 0usize;

    // ---- Phase A (sequential): secure each pair's starting intermediate.
    // First-level TTMs mutate `input` (layout caching) and the shared
    // version-checked cache is single-writer, so this walk stays serial —
    // it is also where cross-pair sharing happens, so the work is small.
    let mut ready: Vec<((usize, usize), Intermediate)> = Vec::new();
    let mut deferred: Vec<((usize, usize), Intermediate)> = Vec::new();
    for i in 0..n_modes {
        for j in i + 1..n_modes {
            let set = ModeSet::from_modes([i, j]);
            match memory {
                PpTreeMemory::Full => {
                    match obtain_pp_start(input, fs, engine, (i, j), &mut fresh_ttms) {
                        PairStart::Done(inter) => ready.push(((i, j), inter)),
                        PairStart::From(start) => deferred.push(((i, j), start)),
                    }
                }
                PpTreeMemory::CombineInner => {
                    let first = combined_start(input, fs, engine, set, &mut fresh_ttms);
                    deferred.push(((i, j), first));
                }
            }
        }
    }

    // ---- Phase B (parallel): finish each deferred pair with its chain of
    // batched TTVs. The (i, j) chains are independent (they only read the
    // frozen factors and their own starting intermediate), so they fan out
    // over the persistent pool.
    let ws = engine.workspace().clone();
    let finished = par_collect(deferred.len(), |k| {
        let (key, start) = &deferred[k];
        finish_pair(*key, start.clone(), fs, &ws)
    });

    // ---- Phase C (sequential): merge bookkeeping in deterministic order.
    let mut pairs: HashMap<(usize, usize), Intermediate> = ready.into_iter().collect();
    for done in finished {
        for &(dur, flops) in &done.steps {
            engine.stats.record(Kernel::Mttv, dur, flops);
        }
        if memory == PpTreeMemory::Full {
            engine.cache_mut().insert(done.inter.clone());
        }
        pairs.insert(done.key, done.inter);
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

/// How a pair operator's construction proceeds after Phase A.
enum PairStart {
    /// Already complete (cache hit, or produced directly by a TTM).
    Done(Intermediate),
    /// Finish by contracting the modes outside the pair out of this
    /// intermediate (cache-independent, safe to run in parallel).
    From(Intermediate),
}

/// One pair's deferred contraction chain, with kernel bookkeeping to merge
/// back into the engine on the coordinating thread.
struct PairDone {
    key: (usize, usize),
    inter: Intermediate,
    steps: Vec<(Duration, u64)>,
}

/// Contract every mode outside `key` out of `start` (batched TTVs). Pure
/// function of the frozen factors — no cache or stats access.
fn finish_pair(
    key: (usize, usize),
    start: Intermediate,
    fs: &FactorState,
    ws: &Workspace,
) -> PairDone {
    let set = ModeSet::from_modes([key.0, key.1]);
    let mut current = start;
    let mut steps = Vec::new();
    while current.set().len() > 2 {
        let gone = current.set().minus(set).min().unwrap();
        let pos = current.position_of(gone);
        let t0 = Instant::now();
        let out = mttv_in(ws, &current.tensor, pos, fs.factor(gone));
        steps.push((t0.elapsed(), out.flops));
        let mut mode_order = current.mode_order.clone();
        mode_order.remove(pos);
        let mut versions = current.versions;
        versions[gone] = fs.version(gone);
        current = Intermediate {
            tensor: Arc::new(out.tensor),
            mode_order,
            versions,
        };
    }
    debug_assert_eq!(current.set(), set);
    PairDone {
        key,
        inter: current,
        steps,
    }
}

/// Choose the mode `c` to re-add so the parent `S ∪ {c}` is PP-form,
/// preferring (a) an already-cached parent, (b) the full set (TTM), then
/// (c) extending the block upward, (d) downward.
fn pick_parent_mode(
    engine: &mut DimTreeEngine,
    fs: &FactorState,
    set: ModeSet,
    n_modes: usize,
) -> usize {
    let candidates: Vec<usize> = (0..n_modes)
        .filter(|&c| !set.contains(c) && set.with(c).is_pp_form())
        .collect();
    debug_assert!(!candidates.is_empty(), "PP-form sets always extend");

    let cached_choice = candidates.iter().copied().find(|&c| {
        engine
            .cache_mut()
            .get_valid(set.with(c), fs.versions())
            .is_some()
    });
    cached_choice.unwrap_or_else(|| {
        if set.len() == n_modes - 1 {
            // Parent is the input tensor.
            ModeSet::full(n_modes).minus(set).min().unwrap()
        } else {
            let above = candidates.iter().copied().find(|&c| c > set.max().unwrap());
            above.unwrap_or_else(|| *candidates.last().unwrap())
        }
    })
}

/// First-level TTM contracting `contract` out of the input tensor, with
/// stats recorded and the result cached.
fn first_level_ttm(
    input: &mut InputTensor,
    fs: &FactorState,
    engine: &mut DimTreeEngine,
    contract: usize,
    fresh_ttms: &mut usize,
) -> Intermediate {
    *fresh_ttms += 1;
    let inter = engine.contract_recorded(input, fs, contract);
    engine.cache_mut().insert(inter.clone());
    inter
}

/// Memoized construction of a PP-form intermediate, sharing the engine
/// cache (and therefore reusing exact-sweep leftovers when valid).
fn obtain_pp(
    input: &mut InputTensor,
    fs: &FactorState,
    engine: &mut DimTreeEngine,
    set: ModeSet,
    fresh_ttms: &mut usize,
) -> Intermediate {
    debug_assert!(set.is_pp_form(), "PP tree only builds PP-form sets");
    let n_modes = fs.order();

    if let Some(c) = engine.cache_mut().get_valid(set, fs.versions()) {
        return c.clone();
    }

    let choice = pick_parent_mode(engine, fs, set, n_modes);
    let parent_set = set.with(choice);
    if parent_set == ModeSet::full(n_modes) {
        // The parent is the input tensor itself: a single first-level TTM
        // contracting `choice` produces exactly `set`.
        let inter = first_level_ttm(input, fs, engine, choice, fresh_ttms);
        debug_assert_eq!(inter.set(), set);
        return inter;
    }

    let parent = obtain_pp(input, fs, engine, parent_set, fresh_ttms);
    contract_step(fs, engine, parent, choice, set)
}

/// Phase-A entry for one pair under [`PpTreeMemory::Full`]: return the pair
/// directly when it is cached or one TTM away from the input, else secure
/// its (cached) parent and defer the final contraction.
fn obtain_pp_start(
    input: &mut InputTensor,
    fs: &FactorState,
    engine: &mut DimTreeEngine,
    key: (usize, usize),
    fresh_ttms: &mut usize,
) -> PairStart {
    let set = ModeSet::from_modes([key.0, key.1]);
    let n_modes = fs.order();

    if let Some(c) = engine.cache_mut().get_valid(set, fs.versions()) {
        return PairStart::Done(c.clone());
    }

    let choice = pick_parent_mode(engine, fs, set, n_modes);
    let parent_set = set.with(choice);
    if parent_set == ModeSet::full(n_modes) {
        // Order-3 tensors: the pair is itself a first-level intermediate.
        let inter = first_level_ttm(input, fs, engine, choice, fresh_ttms);
        debug_assert_eq!(inter.set(), set);
        return PairStart::Done(inter);
    }
    PairStart::From(obtain_pp(input, fs, engine, parent_set, fresh_ttms))
}

/// Level-combined construction, Phase A (paper §IV): secure the pair's
/// first-level parent. The pair then descends from it by contracting all
/// other modes in one deferred pass ([`finish_pair`]) without caching the
/// inner levels. First-level intermediates are still cached (and reused
/// across pairs and from the preceding exact sweep).
fn combined_start(
    input: &mut InputTensor,
    fs: &FactorState,
    engine: &mut DimTreeEngine,
    set: ModeSet,
    fresh_ttms: &mut usize,
) -> Intermediate {
    let n_modes = fs.order();
    debug_assert_eq!(set.len(), 2);
    let full = ModeSet::full(n_modes);

    // Pick the first-level parent: a cached valid (N−1)-set containing the
    // pair if one exists, else contract a mode outside the pair (preferring
    // one whose resulting set is PP-form so the cached entry stays useful).
    let parent_sets: Vec<ModeSet> = (0..n_modes)
        .filter(|&c| !set.contains(c))
        .map(|c| full.without(c))
        .collect();
    let cached = parent_sets
        .iter()
        .copied()
        .find(|&s| engine.cache_mut().get_valid(s, fs.versions()).is_some());
    match cached {
        Some(s) => engine
            .cache_mut()
            .get_valid(s, fs.versions())
            .unwrap()
            .clone(),
        None => {
            let target = parent_sets
                .iter()
                .copied()
                .find(|s| s.is_pp_form())
                .unwrap_or(parent_sets[0]);
            let k = full.minus(target).min().unwrap();
            first_level_ttm(input, fs, engine, k, fresh_ttms)
        }
    }
}

/// Contract `gone` out of `parent` with a batched TTV, cache, and return.
fn contract_step(
    fs: &FactorState,
    engine: &mut DimTreeEngine,
    parent: Intermediate,
    gone: usize,
    expect: ModeSet,
) -> Intermediate {
    let pos = parent.position_of(gone);
    let t0 = Instant::now();
    let out = mttv_in(engine.workspace(), &parent.tensor, pos, fs.factor(gone));
    engine.stats.record(Kernel::Mttv, t0.elapsed(), out.flops);
    let mut mode_order = parent.mode_order.clone();
    mode_order.remove(pos);
    let mut versions = parent.versions;
    versions[gone] = fs.version(gone);
    let inter = Intermediate {
        tensor: Arc::new(out.tensor),
        mode_order,
        versions,
    };
    debug_assert_eq!(inter.set(), expect);
    engine.cache_mut().insert(inter.clone());
    inter
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
    fn combined_levels_matches_full_tree() {
        // §IV memory knob: the level-combined build must produce identical
        // operators while caching fewer intermediates.
        let dims = [4, 5, 3, 4];
        let (t, fs) = setup(&dims, 2, 13);

        let mut in1 = InputTensor::new(t.clone());
        let mut e1 = DimTreeEngine::new(TreePolicy::Standard, 4);
        let full = build_pp_operators_with(&mut in1, &fs, &mut e1, PpTreeMemory::Full);

        let mut in2 = InputTensor::new(t);
        let mut e2 = DimTreeEngine::new(TreePolicy::Standard, 4);
        let combined = build_pp_operators_with(&mut in2, &fs, &mut e2, PpTreeMemory::CombineInner);

        for (key, a) in &full.pairs {
            let b = &combined.pairs[key];
            let at = if a.mode_order == b.mode_order {
                (*a.tensor).clone()
            } else {
                pp_tensor::transpose::swap_first_two(&a.tensor)
            };
            assert!(at.max_abs_diff(&b.tensor) < 1e-10, "pair {key:?}");
        }
        for (a, b) in full.firsts.iter().zip(combined.firsts.iter()) {
            assert!(a.max_abs_diff(b) < 1e-10);
        }
        // The combined build must hold strictly less cached state.
        assert!(
            e2.cache_memory_elems() < e1.cache_memory_elems(),
            "combined {} vs full {}",
            e2.cache_memory_elems(),
            e1.cache_memory_elems()
        );
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
