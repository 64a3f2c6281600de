//! The dimension-tree MTTKRP engine: standard DT and multi-sweep DT.
//!
//! Both policies drive the same machinery — a version-checked intermediate
//! cache plus single-mode contraction steps (first level: TTM against the
//! input tensor; lower levels: batched TTV). They differ only in *which*
//! chain of intermediates they walk:
//!
//! * [`TreePolicy::Standard`] follows the canonical binary dimension tree
//!   of Fig. 1a: within each sweep two first-level TTMs are performed (one
//!   for each half of the top split, contracting a mode of the other
//!   half), and lower intermediates are shared between neighbouring output
//!   modes. Within each run of the split the larger extent is contracted
//!   first ([`standard_chain`]); on a cubic tensor that is the last mode
//!   and the first. Leading cost `4 s^N R` per sweep.
//! * [`TreePolicy::MultiSweep`] (MSDT, Fig. 2) contracts first the mode
//!   whose factor was updated most recently, so the first-level
//!   intermediate survives the next `N−1` MTTKRPs — across sweep
//!   boundaries. `N` first-level TTMs serve `N−1` sweeps, for a leading
//!   cost of `2N/(N−1) s^N R` per sweep.
//!
//! Because every contraction step reads the factor at its *current*
//! version and cache validity is checked against version vectors, both
//! policies compute exactly the same `M^(n)` values (up to floating-point
//! associativity) — MSDT is lossless, as the paper states.
//!
//! A sparse input never enters the tree. Under either policy each MTTKRP
//! is one direct CSF MTTKRP over the input's forest: what MSDT amortizes is
//! the dense first-level TTM, and a CSF MTTKRP costs `O(nnz · R)` per mode
//! with nothing left to amortize. Sparse `msdt` and `dt` therefore run the
//! same kernel, bit for bit, and leave the cache empty.

use crate::cache::{InterCache, Intermediate};
use crate::factor::FactorState;
use crate::input::InputTensor;
use crate::modeset::ModeSet;
use crate::stats::{Kernel, KernelStats};
use pp_tensor::kernels::mttv::mttv_in;
use pp_tensor::{Matrix, Workspace};
use std::cmp::Reverse;
use std::sync::Arc;
use std::time::Instant;

/// Which dimension-tree schedule to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TreePolicy {
    /// Canonical per-sweep binary dimension tree (the DT baseline).
    Standard,
    /// Multi-sweep dimension tree (the paper's MSDT).
    MultiSweep,
}

/// How [`DimTreeEngine::extend_mode`] refreshes first-level cache entries
/// when the evolving mode grows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheUpdate {
    /// Contract **only the new slice** and append the result onto the
    /// cached intermediate, in place (the evolving mode leads it) —
    /// per-arrival work scales with the slice, not the full tensor.
    Incremental,
    /// Recontract the same cache keys from the **full grown tensor** — the
    /// from-scratch oracle the incremental path must match bitwise.
    Recompute,
}

/// MTTKRP engine with a persistent intermediate cache.
///
/// The engine (and therefore the cache inside it) is plain owned state with
/// no call-local lifetime: a driver — or a resumable session that suspends
/// between sweeps — owns one engine per decomposition and may set it aside
/// indefinitely. It holds no pool resource between calls: every
/// contraction runs to completion on the calling thread, at full pool
/// width, before `mttkrp` returns.
///
/// The engine also owns the [`Workspace`] every intermediate it (or the PP
/// tree) produces is drawn from: one pool per engine, so nothing is shared
/// between sessions or ranks.
pub struct DimTreeEngine {
    policy: TreePolicy,
    n_modes: usize,
    cache: InterCache,
    workspace: Workspace,
    /// Per-kernel timing/flop ledger (drained by the driver).
    pub stats: KernelStats,
    /// Ablation switch: with the cache disabled every MTTKRP recontracts
    /// from the input tensor (the naive `O(N s^N R)`-per-sweep schedule).
    caching: bool,
}

impl DimTreeEngine {
    /// New engine for an order-`n_modes` tensor.
    pub fn new(policy: TreePolicy, n_modes: usize) -> Self {
        assert!(n_modes >= 2);
        DimTreeEngine {
            policy,
            n_modes,
            cache: InterCache::new(),
            workspace: Workspace::new(),
            stats: KernelStats::default(),
            caching: true,
        }
    }

    /// Disable intermediate caching (ablation baseline): every MTTKRP
    /// recontracts from the input into freshly allocated buffers.
    pub fn with_caching_disabled(mut self) -> Self {
        self.caching = false;
        self.workspace = Workspace::unpooled();
        self
    }

    /// The configured policy.
    pub fn policy(&self) -> TreePolicy {
        self.policy
    }

    /// Auxiliary memory in f64 elements (Table I column 3): the cached
    /// intermediates plus the buffers the workspace holds for reuse.
    pub fn cache_memory_elems(&self) -> usize {
        self.cache.memory_elems() + self.workspace.stats().held_elems
    }

    /// The pool this engine's intermediates are drawn from.
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// A sweep ended: let the workspace drop what a whole tree period
    /// (`N` sweeps — MSDT's cycle) did not ask for again.
    pub fn end_sweep(&mut self) {
        self.workspace.end_sweep(self.n_modes as u64);
    }

    /// Access the shared intermediate cache (the PP tree reuses it).
    pub fn cache_mut(&mut self) -> &mut InterCache {
        &mut self.cache
    }

    /// Read-only view of the intermediate cache (checkpoint serialization).
    pub fn cache(&self) -> &InterCache {
        &self.cache
    }

    /// Drop all cached intermediates.
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Take and reset the kernel statistics.
    pub fn take_stats(&mut self) -> KernelStats {
        std::mem::take(&mut self.stats)
    }

    /// Compute `M^(n) = T_(n) · ⨀_{j≠n} A^(j)` for mode `n` using the
    /// configured tree policy. Factors are read at their current versions,
    /// so calling this in sweep order reproduces exact ALS.
    ///
    /// Before anything is drawn, the cache drops what no later read can
    /// use: stale entries, entries whose mode set lacks `n` (they
    /// contracted `A^(n)`, which the caller updates next, and cannot serve
    /// `{n}`), and under the standard tree entries on none of the chains of
    /// the modes they can still serve. So when the tree moves to a new
    /// subtree, the old first-level buffer is back in the workspace before
    /// the new TTM draws. This assumes the ALS order every sweep runs —
    /// `mttkrp(n)`, update `A^(n)`, `mttkrp(n + 1 mod N)` — under which the
    /// schedule, and so every bit, is that of a cache that kept them. A
    /// caller that breaks the order still gets exact results and pays only
    /// a recontraction.
    pub fn mttkrp(&mut self, input: &mut InputTensor, fs: &FactorState, n: usize) -> Matrix {
        assert_eq!(fs.order(), self.n_modes);
        assert!(n < self.n_modes);
        // Sparse input: one direct CSF MTTKRP replaces the whole
        // contraction chain, under either policy — flops scale with nnz,
        // not the dense volume, and there are no intermediates worth
        // caching (the cache stays empty, so `cache_memory_elems` reports
        // 0).
        if let Some(sp) = input.sparse() {
            let t0 = Instant::now();
            let m = pp_tensor::sparse::sparse_mttkrp(sp.csf(), fs.factors(), n);
            // Per nonzero and rank column: N − 1 multiplies and one add.
            let flops = sp.nnz() as u64 * m.cols() as u64 * self.n_modes as u64;
            self.stats.record(Kernel::Ttm, t0.elapsed(), flops);
            return m;
        }
        self.evict_dead(fs, n);
        let inter = self.obtain(input, fs, n);
        debug_assert_eq!(inter.mode_order, vec![n]);
        let t = &inter.tensor;
        Matrix::from_vec(t.dim(0), t.dim(1), t.data().to_vec())
    }

    /// Drop the cached intermediates no MTTKRP from `n` on can read (see
    /// [`DimTreeEngine::mttkrp`]): the stale ones, and those the coming
    /// MTTKRPs pass by. A valid entry stays valid through the updates of
    /// its own modes, so the MTTKRPs that may still read it are those of
    /// its members from `n` on, up to the first mode it contracted away.
    /// MSDT can start from any superset of the target, the standard tree
    /// only from a node of the target's chain.
    fn evict_dead(&mut self, fs: &FactorState, n: usize) {
        let (policy, n_modes) = (self.policy, self.n_modes);
        let extents = extents(fs);
        self.cache.retain(|inter| {
            let set = inter.set();
            let mut readers = (n..n + n_modes)
                .map(|m| m % n_modes)
                .take_while(|&m| set.contains(m));
            inter.valid_for(fs.versions())
                && match policy {
                    TreePolicy::MultiSweep => readers.next().is_some(),
                    TreePolicy::Standard => {
                        readers.any(|m| standard_chain(&extents, m).contains(&set))
                    }
                }
        });
    }

    /// Walk the contraction chain down to `{n}`.
    fn obtain(&mut self, input: &mut InputTensor, fs: &FactorState, n: usize) -> Intermediate {
        match self.policy {
            TreePolicy::Standard => self.obtain_standard(input, fs, n),
            TreePolicy::MultiSweep => self.obtain_msdt(input, fs, n),
        }
    }

    /// First-level TTM contracting mode `k`, cached when caching is on.
    fn first_level(&mut self, input: &mut InputTensor, fs: &FactorState, k: usize) -> Intermediate {
        let inter = self.contract_recorded(input, fs, k);
        if self.caching {
            self.cache.insert(inter.clone());
        }
        inter
    }

    /// Contract mode `k` out of `input` on this thread, with the kernel
    /// ledger updated; the result carries the current factor versions.
    /// Every first-level TTM, the PP tree's too, runs through here.
    pub(crate) fn contract_recorded(
        &mut self,
        input: &mut InputTensor,
        fs: &FactorState,
        k: usize,
    ) -> Intermediate {
        let fl = input.contract_mode_in(&self.workspace, k, fs.factor(k));
        self.stats.record(Kernel::Ttm, fl.ttm_time, fl.flops);
        Intermediate {
            tensor: Arc::new(fl.tensor),
            mode_order: fl.mode_order,
            versions: fs.versions().to_vec(),
        }
    }

    /// Streaming arrival along original mode `e`: refresh the intermediate
    /// cache after the input tensor grew by `slice`.
    ///
    /// Preconditions: the caller has already grown `input` by this same
    /// `slice` and extended + version-bumped mode `e`'s factor in `fs`.
    /// `slice` is the arriving slice laid out like `input` — what
    /// [`InputTensor::append_evolving`] returned, or
    /// [`InputTensor::evolving`] along the same mode — so a contraction
    /// picks the same kernel on both.
    ///
    /// First-level entries whose mode set *contains* `e` and whose
    /// contracted-away factors are still current are the reusable ones:
    /// `e`'s version bump does not invalidate them (member modes are
    /// ignored by the validity rule) but their extent along `e` is stale.
    /// Under [`CacheUpdate::Incremental`] each such entry is delta-extended:
    /// only `slice` is contracted and the result is appended in place —
    /// `e` leads every layout of a streaming input, hence every
    /// intermediate that kept it, and the kernels' per-row arithmetic does
    /// not see the extent of `e`. Under [`CacheUpdate::Recompute`] the entry
    /// is recontracted whole from the grown tensor (as is an entry that was
    /// not produced from `e`-leading layouts). Both paths record the same
    /// versions a fresh contraction would, so the two modes leave
    /// bitwise-identical caches — that equality is the streaming
    /// correctness contract. Every other entry containing `e` (lower tree
    /// levels with a stale extent) is evicted, and entries not containing
    /// `e` are invalid via the version bump and swept out.
    ///
    /// The engine keeps its workspace through the arrival: an extended
    /// entry grows in place and stays in the pool under its new length,
    /// and the draws of the lengths that change re-length held buffers
    /// ([`Workspace`] docs). The slice contractions are drawn from the
    /// pool too and given back (freed) before this returns: nothing
    /// draws their length again.
    pub fn extend_mode(
        &mut self,
        input: &mut InputTensor,
        fs: &FactorState,
        e: usize,
        slice: &mut InputTensor,
        update: CacheUpdate,
    ) {
        assert!(e < self.n_modes);
        let versions = fs.versions().to_vec();
        let full = ModeSet::full(self.n_modes);
        let mut extendable: Vec<ModeSet> = Vec::new();
        let mut drop_keys: Vec<ModeSet> = Vec::new();
        for inter in self.cache.entries_sorted() {
            let set = inter.set();
            if !set.contains(e) {
                continue;
            }
            if set.len() == self.n_modes - 1 && inter.valid_for(&versions) {
                extendable.push(set);
            } else {
                drop_keys.push(set);
            }
        }
        for set in drop_keys {
            self.cache.remove(set);
        }
        let mut slice_lens = Vec::new();
        for set in extendable {
            let k = full.minus(set).min().expect("one contracted mode");
            let old = self.cache.remove(set).expect("extendable entry present");
            let appended =
                if update == CacheUpdate::Incremental && old.mode_order.first() == Some(&e) {
                    let delta = self.contract_recorded(slice, fs, k);
                    slice_lens.push(delta.tensor.len());
                    (delta.mode_order == old.mode_order).then(|| {
                        let mut grown = old.tensor;
                        Arc::make_mut(&mut grown).append_leading(&delta.tensor);
                        Intermediate {
                            tensor: grown,
                            ..delta
                        }
                    })
                } else {
                    None
                };
            let inter = match appended {
                Some(inter) => inter,
                None => self.contract_recorded(input, fs, k),
            };
            if self.caching {
                self.cache.insert(inter);
            }
        }
        self.cache.evict_stale(&versions);
        for len in slice_lens {
            self.workspace.release(len);
        }
    }

    /// One batched-TTV step: contract mode `j` out of `current`.
    fn step(
        &mut self,
        current: Intermediate,
        fs: &FactorState,
        j: usize,
        cache_it: bool,
    ) -> Intermediate {
        let pos = current.position_of(j);
        let t0 = Instant::now();
        let out = mttv_in(&self.workspace, &current.tensor, pos, fs.factor(j));
        self.stats.record(Kernel::Mttv, t0.elapsed(), out.flops);
        let mut mode_order = current.mode_order.clone();
        mode_order.remove(pos);
        let mut versions = current.versions;
        versions[j] = fs.version(j);
        let next = Intermediate {
            tensor: Arc::new(out.tensor),
            mode_order,
            versions,
        };
        if self.caching && cache_it {
            self.cache.insert(next.clone());
        }
        next
    }

    /// Canonical binary-tree walk (Fig. 1a).
    fn obtain_standard(
        &mut self,
        input: &mut InputTensor,
        fs: &FactorState,
        n: usize,
    ) -> Intermediate {
        let target = ModeSet::single(n);
        let chain = standard_chain(&extents(fs), n);
        debug_assert_eq!(*chain.last().unwrap(), target);

        // Deepest chain node with a valid cached intermediate.
        let mut start_idx = None;
        if self.caching {
            for (i, &set) in chain.iter().enumerate().rev() {
                if self.cache.get_valid(set, fs.versions()).is_some() {
                    start_idx = Some(i);
                    break;
                }
            }
        }
        let mut current: Intermediate = match start_idx {
            Some(i) => {
                let cached = self
                    .cache
                    .get_valid(chain[i], fs.versions())
                    .unwrap()
                    .clone();
                if chain[i] == target {
                    return cached;
                }
                cached
            }
            None => {
                // The first chain node is one TTM below the full set.
                let k = ModeSet::full(self.n_modes).minus(chain[0]).min().unwrap();
                self.first_level(input, fs, k)
            }
        };
        let start_pos = chain.iter().position(|&s| s == current.set()).unwrap();
        for &next in &chain[start_pos + 1..] {
            let j = current.set().minus(next).min().expect("one mode per step");
            current = self.step(current, fs, j, next != target);
        }
        current
    }

    /// MSDT greedy walk (Fig. 2): start from the smallest valid cached
    /// superset of `{n}` (whatever subtree produced it), else from a fresh
    /// first-level TTM contracting mode `n−1 (mod N)`; then repeatedly
    /// contract the member whose update lies farthest in the future.
    fn obtain_msdt(&mut self, input: &mut InputTensor, fs: &FactorState, n: usize) -> Intermediate {
        let target = ModeSet::single(n);
        let cached: Option<Intermediate> = if self.caching {
            self.cache.best_superset(target, fs.versions()).cloned()
        } else {
            None
        };
        let mut current = match cached {
            Some(c) => {
                if c.set() == target {
                    return c;
                }
                c
            }
            None => {
                let k = (n + self.n_modes - 1) % self.n_modes;
                self.first_level(input, fs, k)
            }
        };
        while current.set().len() > 1 {
            let j = current
                .set()
                .iter()
                .filter(|&j| j != n)
                .max_by_key(|&j| (j + self.n_modes - n) % self.n_modes)
                .expect("non-target mode must exist");
            let will_be_leaf = current.set().len() == 2;
            current = self.step(current, fs, j, !will_be_leaf);
        }
        current
    }
}

/// Canonical binary dimension-tree chain (Fig. 1a) over a tensor of the
/// given mode extents: the sequence of mode sets from the first level down
/// to `{n}`, each step removing one mode.
///
/// The split is Fig. 1a's: `[lo, hi)` halves at `mid = lo + ⌈(hi−lo)/2⌉`,
/// and the chain contracts away the run on the side without `n`. Within
/// that run the modes go in descending extent, so each step keeps the
/// smaller intermediate and the next step walks the fewer rows. Ties keep
/// the order of the tree's drawing: descending above the split, ascending
/// below it — so on a cubic tensor this is Fig. 1a exactly. The order
/// depends only on the run, never on `n`: every mode on one side of a
/// split shares every node above it, and a DT sweep still does two
/// first-level TTMs.
pub fn standard_chain(extents: &[usize], n: usize) -> Vec<ModeSet> {
    let mut chain = Vec::new();
    let mut lo = 0usize;
    let mut hi = extents.len();
    let mut set = ModeSet::full(hi);
    while hi - lo > 1 {
        let mid = lo + (hi - lo).div_ceil(2);
        let mut run: Vec<usize> = if n < mid {
            (mid..hi).rev().collect()
        } else {
            (lo..mid).collect()
        };
        run.sort_by_key(|&m| Reverse(extents[m]));
        for m in run {
            set = set.without(m);
            chain.push(set);
        }
        if n < mid {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    debug_assert_eq!(*chain.last().unwrap(), ModeSet::single(n));
    chain
}

/// The extent of every mode: the rows of the factors the session holds
/// (on a grid, the block's).
fn extents(fs: &FactorState) -> Vec<usize> {
    fs.factors().iter().map(Matrix::rows).collect()
}

/// MSDT greedy chain: repeatedly remove the mode whose factor will be
/// updated *farthest in the future* (max cyclic distance ahead of `n`), so
/// every prefix of the chain stays valid as long as possible. From the full
/// set this removes mode `n−1 (mod N)` first — the subtree roots of Fig. 2.
pub fn greedy_chain(n_modes: usize, n: usize) -> Vec<ModeSet> {
    let mut chain = Vec::new();
    let mut set = ModeSet::full(n_modes);
    while set.len() > 1 {
        let j = set
            .iter()
            .filter(|&j| j != n)
            .max_by_key(|&j| (j + n_modes - n) % n_modes)
            .unwrap();
        set = set.without(j);
        chain.push(set);
    }
    debug_assert_eq!(*chain.last().unwrap(), ModeSet::single(n));
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_tensor::kernels::naive::mttkrp as naive_mttkrp;
    use pp_tensor::rng::{seeded, uniform_matrix, uniform_tensor};
    use pp_tensor::DenseTensor;

    fn setup(dims: &[usize], r: usize, seed: u64) -> (DenseTensor, FactorState) {
        let mut rng = seeded(seed);
        let t = uniform_tensor(dims, &mut rng);
        let factors: Vec<Matrix> = dims
            .iter()
            .map(|&d| uniform_matrix(d, r, &mut rng))
            .collect();
        (t, FactorState::new(factors))
    }

    #[test]
    fn standard_chain_matches_fig1a() {
        // N=4, 0-based. M^(0): {0,1,2} → {0,1} → {0}.
        let sets: Vec<Vec<usize>> = standard_chain(&[5; 4], 0)
            .iter()
            .map(|s| s.iter().collect())
            .collect();
        assert_eq!(sets, vec![vec![0, 1, 2], vec![0, 1], vec![0]]);
        // M^(2): {1,2,3} → {2,3} → {2}.
        let sets: Vec<Vec<usize>> = standard_chain(&[5; 4], 2)
            .iter()
            .map(|s| s.iter().collect())
            .collect();
        assert_eq!(sets, vec![vec![1, 2, 3], vec![2, 3], vec![2]]);
    }

    /// The modes each chain contracts away, in order.
    fn removed(extents: &[usize], n: usize) -> Vec<usize> {
        let mut set = ModeSet::full(extents.len());
        standard_chain(extents, n)
            .into_iter()
            .map(|next| {
                let m = set.minus(next).min().unwrap();
                set = next;
                m
            })
            .collect()
    }

    #[test]
    fn standard_chain_contracts_the_larger_extent_first_in_each_run() {
        // (extents, n, modes removed): each run of the split goes largest
        // first; ties keep Fig. 1a's order (descending above the split,
        // ascending below it).
        let cases: [(&[usize], usize, &[usize]); 9] = [
            (&[4, 8, 8], 0, &[2, 1]),
            (&[4, 8, 8], 2, &[1, 0]),
            (&[8, 8, 4], 2, &[0, 1]),
            (&[2, 8, 8, 8], 0, &[3, 2, 1]),
            (&[2, 8, 8, 8], 3, &[1, 0, 2]),
            (&[3, 4, 6, 5], 1, &[2, 3, 0]),
            (&[3, 4, 6, 5], 2, &[1, 0, 3]),
            (&[4, 3, 5, 3, 4], 0, &[4, 3, 2, 1]),
            (&[4, 3, 5, 3, 4], 4, &[2, 0, 1, 3]),
        ];
        for (extents, n, want) in cases {
            assert_eq!(removed(extents, n), want, "{extents:?}, mode {n}");
        }
        // Whatever the extents, two modes walk the same nodes until their
        // chains part, and the last node they share is the subtree of Fig.
        // 1a that holds both (a range of modes): the run order depends on
        // the run, not on the mode. Modes in different halves of the top
        // split share nothing, so a sweep still does two first-level TTMs.
        let extent_cases: [&[usize]; 5] = [
            &[4, 8, 8],
            &[2, 8, 8, 8],
            &[3, 4, 6, 5],
            &[4, 3, 5, 3, 4],
            &[2, 7, 3, 9, 5],
        ];
        for extents in extent_cases {
            let n_modes = extents.len();
            let chains: Vec<Vec<ModeSet>> =
                (0..n_modes).map(|n| standard_chain(extents, n)).collect();
            for (n, a) in chains.iter().enumerate() {
                for (m, b) in chains.iter().enumerate() {
                    let label = format!("{extents:?}, modes {n} and {m}");
                    let prefix = a.iter().zip(b).take_while(|(x, y)| x == y).count();
                    assert!(a[prefix..].iter().all(|s| !b.contains(s)), "{label}");
                    let same_half = (n < n_modes.div_ceil(2)) == (m < n_modes.div_ceil(2));
                    assert_eq!(prefix > 0, same_half, "{label}");
                    if prefix > 0 {
                        let last = a[prefix - 1];
                        let (lo, hi) = (last.min().unwrap(), last.iter().max().unwrap());
                        assert!(last.contains(n) && last.contains(m), "{label}");
                        assert_eq!(last.len(), hi - lo + 1, "{label}: not a subtree");
                    }
                }
            }
            let roots: std::collections::BTreeSet<ModeSet> = chains.iter().map(|c| c[0]).collect();
            assert_eq!(roots.len(), 2, "{extents:?}");
        }
    }

    #[test]
    fn greedy_chain_contracts_previous_mode_first() {
        // For n, the first removal is n-1 (mod N).
        for n_modes in [3usize, 4, 5] {
            for n in 0..n_modes {
                let chain = greedy_chain(n_modes, n);
                let first = chain[0];
                let removed = ModeSet::full(n_modes).minus(first).min().unwrap();
                assert_eq!(removed, (n + n_modes - 1) % n_modes, "N={n_modes}, n={n}");
            }
        }
    }

    /// Run one full ALS-style sweep of MTTKRPs (updating factors as we go)
    /// and compare every M^(n) against the naive oracle.
    fn sweep_matches_oracle(policy: TreePolicy, dims: &[usize], r: usize) {
        let (t, mut fs) = setup(dims, r, 42);
        let mut input = InputTensor::new(t.clone());
        let mut engine = DimTreeEngine::new(policy, dims.len());
        let mut rng = seeded(7);
        for _sweep in 0..3 {
            for (n, &dim) in dims.iter().enumerate() {
                let got = engine.mttkrp(&mut input, &fs, n);
                let want = naive_mttkrp(&t, fs.factors(), n);
                assert!(
                    got.max_abs_diff(&want) < 1e-9,
                    "{policy:?} mode {n} mismatch"
                );
                // Update the factor like ALS would (here: random update).
                fs.update(n, uniform_matrix(dim, r, &mut rng));
            }
        }
    }

    #[test]
    fn standard_sweeps_match_oracle_order3() {
        sweep_matches_oracle(TreePolicy::Standard, &[5, 6, 4], 3);
    }

    #[test]
    fn standard_sweeps_match_oracle_order4() {
        sweep_matches_oracle(TreePolicy::Standard, &[4, 3, 5, 3], 2);
    }

    #[test]
    fn standard_sweeps_match_oracle_order5() {
        sweep_matches_oracle(TreePolicy::Standard, &[4, 3, 5, 3, 4], 2);
    }

    /// The blocks a rank of a P×1×… grid holds: mode 0 shorter than the
    /// rest.
    #[test]
    fn standard_sweeps_match_oracle_on_rank_blocks() {
        sweep_matches_oracle(TreePolicy::Standard, &[4, 8, 8], 3);
        sweep_matches_oracle(TreePolicy::Standard, &[2, 8, 8, 8], 2);
    }

    #[test]
    fn msdt_sweeps_match_oracle_order3() {
        sweep_matches_oracle(TreePolicy::MultiSweep, &[5, 6, 4], 3);
    }

    #[test]
    fn msdt_sweeps_match_oracle_order4() {
        sweep_matches_oracle(TreePolicy::MultiSweep, &[4, 3, 5, 3], 2);
    }

    #[test]
    fn msdt_sweeps_match_oracle_order5() {
        sweep_matches_oracle(TreePolicy::MultiSweep, &[3, 3, 3, 3, 3], 2);
    }

    /// The kernel ledger of `sweeps` steady-state sweeps over `dims` at
    /// rank `r` (one warm-up sweep is not counted).
    fn sweep_stats(policy: TreePolicy, dims: &[usize], r: usize, sweeps: usize) -> KernelStats {
        let (t, mut fs) = setup(dims, r, 3);
        let mut input = InputTensor::new(t);
        let mut engine = DimTreeEngine::new(policy, dims.len());
        let mut rng = seeded(11);
        for sweep in 0..=sweeps {
            if sweep == 1 {
                engine.take_stats();
            }
            for (n, &d) in dims.iter().enumerate() {
                let _ = engine.mttkrp(&mut input, &fs, n);
                fs.update(n, uniform_matrix(d, r, &mut rng));
            }
        }
        engine.take_stats()
    }

    /// Count first-level TTMs per sweep in steady state: DT does 2, MSDT
    /// does N/(N-1) on average.
    fn ttm_counts(policy: TreePolicy, n_modes: usize, sweeps: usize) -> u64 {
        sweep_stats(policy, &vec![6; n_modes], 2, sweeps).ttm_count
    }

    #[test]
    fn dt_does_two_ttms_per_sweep() {
        assert_eq!(ttm_counts(TreePolicy::Standard, 3, 4), 8);
        assert_eq!(ttm_counts(TreePolicy::Standard, 4, 3), 6);
        // On uneven extents too, and each TTM reads the whole tensor once:
        // 2·len·R flops, whichever mode it contracts.
        for dims in [vec![4usize, 8, 6], vec![2, 8, 8, 8], vec![4, 3, 5, 3, 4]] {
            let s = sweep_stats(TreePolicy::Standard, &dims, 2, 3);
            let len: usize = dims.iter().product();
            assert_eq!(s.ttm_count, 6, "{dims:?}");
            assert_eq!(s.ttm_flops, 6 * 2 * len as u64 * 2, "{dims:?}");
        }
    }

    /// A DT sweep computes every node of every chain once: one TTM per
    /// first-level node, and one mTTV of `2·|parent|·R` flops per edge below
    /// it, where `|parent|` is the product of its modes' extents.
    #[test]
    fn dt_mttv_flops_are_the_walked_chains() {
        // Per sweep at R 4 on a rank's block.
        for (dims, mttv_flops) in [(vec![4usize, 8, 8], 768u64), (vec![2, 8, 8, 8], 3_328)] {
            let r = 4;
            let mut edges = std::collections::BTreeSet::new();
            for n in 0..dims.len() {
                let chain = standard_chain(&dims, n);
                edges.extend(chain.windows(2).map(|w| (w[0], w[1])));
            }
            let modeled: u64 = edges
                .iter()
                .map(|(parent, _)| {
                    2 * r as u64 * parent.iter().map(|m| dims[m] as u64).product::<u64>()
                })
                .sum();
            assert_eq!(modeled, mttv_flops, "{dims:?}");
            let s = sweep_stats(TreePolicy::Standard, &dims, r, 2);
            let len: usize = dims.iter().product();
            assert_eq!(s.mttv_flops, 2 * modeled, "{dims:?}");
            assert_eq!(s.mttv_count, 2 * edges.len() as u64, "{dims:?}");
            assert_eq!(s.ttm_count, 4, "{dims:?}");
            assert_eq!(s.ttm_flops, 4 * 2 * len as u64 * r as u64, "{dims:?}");
        }
    }

    #[test]
    fn msdt_does_n_ttms_per_n_minus_1_sweeps() {
        // N=3: 3 TTMs per 2 sweeps → 6 in 4 sweeps.
        assert_eq!(ttm_counts(TreePolicy::MultiSweep, 3, 4), 6);
        // N=4: 4 TTMs per 3 sweeps → 4 in 3 sweeps.
        assert_eq!(ttm_counts(TreePolicy::MultiSweep, 4, 3), 4);
    }

    #[test]
    fn msdt_avoids_transposes_with_copies() {
        // No copies needed: every mode contracts in place in one layout,
        // and every first-level flop is one GEMM over that layout.
        let dims = vec![5, 5, 5, 5];
        let (t, mut fs) = setup(&dims, 2, 9);
        let mut input = InputTensor::new(t);
        let mut engine = DimTreeEngine::new(TreePolicy::MultiSweep, 4);
        let mut rng = seeded(13);
        for _ in 0..4 {
            for n in 0..4 {
                let _ = engine.mttkrp(&mut input, &fs, n);
                fs.update(n, uniform_matrix(5, 2, &mut rng));
            }
        }
        assert_eq!(input.layout_count(), 1);
        let s = engine.take_stats();
        assert!(s.ttm_count > 0);
        // Each TTM is 2·len·R, whichever mode it contracts.
        assert_eq!(s.ttm_flops, s.ttm_count * 2 * 625 * 2);
    }

    #[test]
    fn caching_disabled_still_correct() {
        let dims = [4, 5, 3];
        let (t, fs) = setup(&dims, 2, 21);
        let mut input = InputTensor::new(t.clone());
        let mut engine = DimTreeEngine::new(TreePolicy::Standard, 3).with_caching_disabled();
        for n in 0..3 {
            let got = engine.mttkrp(&mut input, &fs, n);
            let want = naive_mttkrp(&t, fs.factors(), n);
            assert!(got.max_abs_diff(&want) < 1e-10);
        }
        assert_eq!(engine.cache_memory_elems(), 0);
    }

    #[test]
    fn sparse_input_routes_through_csf_kernel() {
        use pp_tensor::kernels::naive::mttkrp_pointwise;
        use pp_tensor::sparse::SparseTensor;
        use rand::Rng;
        let dims = [7usize, 5, 6];
        let mut rng = seeded(41);
        let mut inds = Vec::new();
        let mut vals = Vec::new();
        for _ in 0..35 {
            for &d in &dims {
                inds.push(rng.random_range(0..d));
            }
            vals.push(rng.random::<f64>() - 0.5);
        }
        let sp = SparseTensor::from_coo(dims.to_vec(), inds, vals);
        let dense = sp.to_dense();
        let nnz = sp.nnz() as u64;
        let mut input = InputTensor::new_sparse(sp);
        assert!(input.is_sparse());
        let mut fs = {
            let factors: Vec<Matrix> = dims
                .iter()
                .map(|&d| uniform_matrix(d, 3, &mut rng))
                .collect();
            FactorState::new(factors)
        };
        let mut engine = DimTreeEngine::new(TreePolicy::Standard, 3);
        for _sweep in 0..2 {
            for (n, &dim) in dims.iter().enumerate() {
                let got = engine.mttkrp(&mut input, &fs, n);
                let want = mttkrp_pointwise(&dense, fs.factors(), n);
                assert_eq!(got.data(), want.data(), "mode {n} not bitwise");
                fs.update(n, uniform_matrix(dim, 3, &mut rng));
            }
        }
        let s = engine.take_stats();
        assert_eq!(s.ttm_count, 6, "one CSF call per MTTKRP");
        assert_eq!(s.mttv_count, 0, "no dense tree levels on the sparse path");
        assert_eq!(s.ttm_flops, 6 * nnz * 3 * 3, "nnz·R·N per call");
        assert_eq!(engine.cache_memory_elems(), 0, "sparse path caches nothing");
    }

    /// Streaming-extension contract: after the tensor grows along `e`,
    /// (a) the Incremental and Recompute cache refreshes leave bitwise-
    /// identical caches, and (b) subsequent MTTKRPs from the extended
    /// engine are bitwise identical to a cold engine on the full tensor.
    /// Sizes are chosen so every contraction (initial, slice, and full)
    /// clears the packed-GEMM threshold — the row-count-invariant path
    /// that makes slice-then-concat equal whole-tensor contraction.
    fn streaming_extension_matches(policy: TreePolicy, dims: &[usize], e: usize, r: usize) {
        let grow = 2usize;
        let (t_full, fs_full) = setup(dims, r, 55);
        let d_e = dims[e];
        let initial = t_full.slice_along(e, 0, d_e - grow);
        let slice = t_full.slice_along(e, d_e - grow, grow);
        // Factors: the evolving mode starts with the first d_e-grow rows of
        // the full factor and is extended with the last rows, so both arms
        // end at the exact same factor values as the cold full-tensor run.
        let full_e = fs_full.factor(e);
        let initial_e = Matrix::from_fn(d_e - grow, r, |i, j| full_e.get(i, j));
        let extra_e = Matrix::from_fn(grow, r, |i, j| full_e.get(d_e - grow + i, j));
        let make_fs = || {
            let factors: Vec<Matrix> = (0..dims.len())
                .map(|n| {
                    if n == e {
                        initial_e.clone()
                    } else {
                        fs_full.factor(n).clone()
                    }
                })
                .collect();
            FactorState::new(factors)
        };

        let mut arms = Vec::new();
        let mut refresh_flops = Vec::new();
        for update in [CacheUpdate::Incremental, CacheUpdate::Recompute] {
            let mut input = InputTensor::evolving(&initial, e);
            let mut fs = make_fs();
            let mut engine = DimTreeEngine::new(policy, dims.len());
            // Warm sweep on the small tensor populates the cache.
            for n in 0..dims.len() {
                let _ = engine.mttkrp(&mut input, &fs, n);
            }
            assert!(!engine.cache().is_empty(), "warm sweep must cache");
            // Entries that must survive: valid first-level sets containing
            // `e` (all entries are valid here — no factor was updated).
            let expect_keep = engine
                .cache()
                .entries_sorted()
                .iter()
                .filter(|i| i.set().contains(e) && i.set().len() == dims.len() - 1)
                .count();
            let mut slice_input = input.append_evolving(&slice);
            fs.extend_rows(e, &extra_e);
            engine.take_stats();
            engine.extend_mode(&mut input, &fs, e, &mut slice_input, update);
            refresh_flops.push(engine.take_stats().ttm_flops);
            assert_eq!(
                engine.cache().len(),
                expect_keep,
                "{policy:?} e={e}: exactly the first-level entries containing e survive"
            );
            arms.push((input, fs, engine));
        }
        // The incremental refresh contracted the slice only.
        assert_eq!(
            refresh_flops[0] * d_e as u64,
            refresh_flops[1] * grow as u64,
            "{policy:?} e={e}: incremental refresh must cost slice/full of a recompute"
        );

        // (a) Both arms leave bitwise-identical caches.
        {
            let (a, b) = (&arms[0].2, &arms[1].2);
            let ea = a.cache().entries_sorted();
            let eb = b.cache().entries_sorted();
            assert_eq!(ea.len(), eb.len(), "cache key sets differ");
            for (x, y) in ea.iter().zip(eb.iter()) {
                assert_eq!(x.set(), y.set());
                assert_eq!(x.mode_order, y.mode_order);
                assert_eq!(x.versions, y.versions);
                assert_eq!(
                    x.tensor.data(),
                    y.tensor.data(),
                    "{policy:?} e={e}: incremental payload != recompute payload"
                );
            }
        }

        // (b) MTTKRPs after extension: both arms run the same schedule, so
        // incremental must match the recompute oracle bitwise — and both
        // must match the naive MTTKRP on the full tensor numerically.
        // (A *cold* engine is not a bitwise reference: it lacks the cache
        // history, so MSDT picks different — mathematically equal —
        // contraction chains.)
        let (inc, rec) = arms.split_at_mut(1);
        let (inc_input, inc_fs, inc_engine) = &mut inc[0];
        let (rec_input, rec_fs, rec_engine) = &mut rec[0];
        assert_eq!(inc_fs.factor(e).data(), fs_full.factor(e).data());
        for n in 0..dims.len() {
            let got = inc_engine.mttkrp(inc_input, inc_fs, n);
            let oracle = rec_engine.mttkrp(rec_input, rec_fs, n);
            assert_eq!(
                got.data(),
                oracle.data(),
                "{policy:?} e={e} mode {n}: incremental != recompute oracle"
            );
            let naive = naive_mttkrp(&t_full, fs_full.factors(), n);
            assert!(
                got.max_abs_diff(&naive) < 1e-9,
                "{policy:?} e={e} mode {n}: extended engine wrong vs naive"
            );
        }
    }

    #[test]
    fn streaming_extension_standard_order3() {
        for e in 0..3 {
            streaming_extension_matches(TreePolicy::Standard, &[12, 10, 8], e, 8);
        }
    }

    #[test]
    fn streaming_extension_msdt_order3() {
        for e in 0..3 {
            streaming_extension_matches(TreePolicy::MultiSweep, &[12, 10, 8], e, 8);
        }
    }

    #[test]
    fn streaming_extension_standard_order4() {
        for e in 0..4 {
            streaming_extension_matches(TreePolicy::Standard, &[8, 6, 5, 4], e, 8);
        }
    }

    #[test]
    fn streaming_extension_msdt_order4() {
        for e in 0..4 {
            streaming_extension_matches(TreePolicy::MultiSweep, &[8, 6, 5, 4], e, 8);
        }
    }

    #[test]
    fn extension_recontracts_entries_cached_before_a_relayout() {
        // An input built without naming the evolving mode re-lays itself
        // out on its first `extend_mode`; entries cached from the old
        // layouts do not lead with `e`, so the incremental refresh must
        // recontract them whole rather than append — same cache as the
        // recompute oracle, correct MTTKRPs afterwards.
        let (dims, e, r, grow) = ([8usize, 6, 5, 4], 2usize, 8usize, 2usize);
        let (t_full, fs_full) = setup(&dims, r, 61);
        let initial = t_full.slice_along(e, 0, dims[e] - grow);
        let slice = t_full.slice_along(e, dims[e] - grow, grow);
        let full_e = fs_full.factor(e);
        let mut caches = Vec::new();
        for update in [CacheUpdate::Incremental, CacheUpdate::Recompute] {
            let mut input = InputTensor::new(initial.clone());
            let factors: Vec<Matrix> = (0..dims.len())
                .map(|n| {
                    if n == e {
                        Matrix::from_fn(dims[e] - grow, r, |i, j| full_e.get(i, j))
                    } else {
                        fs_full.factor(n).clone()
                    }
                })
                .collect();
            let mut fs = FactorState::new(factors);
            let mut engine = DimTreeEngine::new(TreePolicy::MultiSweep, dims.len());
            for n in 0..dims.len() {
                let _ = engine.mttkrp(&mut input, &fs, n);
            }
            input.extend_mode(e, &slice);
            assert_eq!(input.canonical().data(), t_full.data());
            fs.extend_rows(
                e,
                &Matrix::from_fn(grow, r, |i, j| full_e.get(dims[e] - grow + i, j)),
            );
            let mut slice_input = InputTensor::evolving(&slice, e);
            engine.extend_mode(&mut input, &fs, e, &mut slice_input, update);
            for n in 0..dims.len() {
                let got = engine.mttkrp(&mut input, &fs, n);
                let naive = naive_mttkrp(&t_full, fs_full.factors(), n);
                assert!(got.max_abs_diff(&naive) < 1e-9, "{update:?} mode {n}");
            }
            caches.push(engine);
        }
        let (a, b) = (
            caches[0].cache().entries_sorted(),
            caches[1].cache().entries_sorted(),
        );
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.mode_order, y.mode_order);
            assert_eq!(x.tensor.data(), y.tensor.data());
        }
    }

    #[test]
    fn held_buffers_are_accounted_and_released_after_an_idle_tree_period() {
        // The {0,1} first level is 64·64·32 doubles: pooled in release
        // builds too.
        let dims = [64, 64, 8];
        let (t, fs) = setup(&dims, 32, 43);
        let mut input = InputTensor::new(t);
        let mut engine = DimTreeEngine::new(TreePolicy::Standard, 3);
        let _ = engine.mttkrp(&mut input, &fs, 0);
        let cached = engine.cache().memory_elems();
        assert!(cached >= 64 * 64 * 32);
        let held = engine.workspace().stats().held_elems;
        assert_eq!(engine.cache_memory_elems(), cached + held);

        // Evicted entries go to the workspace and still count...
        engine.clear_cache();
        let held = engine.workspace().stats().held_elems;
        assert!(held >= cached, "held {held} < evicted {cached}");
        assert_eq!(engine.cache_memory_elems(), held);
        // ...until a whole tree period (N = 3 sweeps) has not drawn them.
        engine.end_sweep();
        engine.end_sweep();
        assert_eq!(engine.cache_memory_elems(), held);
        engine.end_sweep();
        assert_eq!(engine.cache_memory_elems(), 0);
        assert_eq!(engine.workspace().stats().live_elems, 0);
    }

    #[test]
    fn dt_and_msdt_agree_exactly() {
        // The headline MSDT claim: identical results to DT.
        let dims = [5, 4, 6];
        let (t, fs0) = setup(&dims, 3, 33);
        let mut fs1 = fs0.clone();
        let mut fs2 = fs0.clone();
        let mut in1 = InputTensor::new(t.clone());
        let mut in2 = InputTensor::new(t);
        let mut e1 = DimTreeEngine::new(TreePolicy::Standard, 3);
        let mut e2 = DimTreeEngine::new(TreePolicy::MultiSweep, 3);
        let mut rng = seeded(5);
        for _ in 0..3 {
            for (n, &dim) in dims.iter().enumerate() {
                let m1 = e1.mttkrp(&mut in1, &fs1, n);
                let m2 = e2.mttkrp(&mut in2, &fs2, n);
                assert!(m1.max_abs_diff(&m2) < 1e-9, "mode {n}");
                let upd = uniform_matrix(dim, 3, &mut rng);
                fs1.update(n, upd.clone());
                fs2.update(n, upd);
            }
        }
    }
}
