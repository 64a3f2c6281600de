//! Version-checked cache of dimension-tree intermediates.
//!
//! An intermediate `𝓜^(S)` (Eq. 4) is the input tensor contracted with
//! `A^(j)` for every `j ∉ S`. It remains usable exactly while all those
//! factors are still at the version that was contracted in — checked
//! against the current [`crate::factor::FactorState`]. The standard
//! dimension tree, MSDT, and the PP operator tree all read and write this
//! one cache, which is what lets MSDT amortize first-level TTMs across
//! sweeps and lets PP initialization reuse a first-level intermediate from
//! the preceding exact sweep (paper footnote 1).

use crate::modeset::ModeSet;
use pp_tensor::semisparse::SsPattern;
use pp_tensor::{DenseTensor, SemiSparseTensor};
use std::collections::HashMap;
use std::sync::Arc;

/// The tensor data of an intermediate: representation is a *planning
/// dimension*, not an assumption. Dense inputs produce dense
/// intermediates; sparse inputs produce semi-sparse ones (dense along the
/// rank, sparse in the surviving fiber structure), and every consumer —
/// the contraction chains, MSDT superset reuse, PP operator construction
/// — dispatches on this enum instead of densifying.
///
/// Payloads sit behind `Arc`s: intermediates are multi-MB and flow between
/// the cache and the contraction chain on every MTTKRP, so cache hits and
/// inserts must be reference bumps, not copies.
#[derive(Clone)]
pub enum Payload {
    /// Dense `[extent of mode_order[0], ..., R]` tensor (rank trailing).
    Dense(Arc<DenseTensor>),
    /// Semi-sparse: surviving levels follow `mode_order`, rank panels dense.
    SemiSparse(Arc<SemiSparseTensor>),
}

impl Payload {
    /// The payload's memory footprint in f64-equivalent words (the Table I
    /// auxiliary-memory metric).
    pub fn memory_words(&self) -> usize {
        match self {
            Payload::Dense(t) => t.len(),
            Payload::SemiSparse(ss) => ss.memory_words(),
        }
    }

    /// The dense tensor, panicking on a semi-sparse payload — for
    /// consumers with a hard dense contract (PP pair operators feeding
    /// Eq. 6 corrections).
    pub fn dense(&self) -> &DenseTensor {
        match self {
            Payload::Dense(t) => t,
            Payload::SemiSparse(_) => panic!("expected a dense intermediate"),
        }
    }

    /// True for the semi-sparse representation.
    pub fn is_semisparse(&self) -> bool {
        matches!(self, Payload::SemiSparse(_))
    }
}

/// A cached contraction intermediate with its provenance.
#[derive(Clone)]
pub struct Intermediate {
    /// Tensor data in either representation.
    pub payload: Payload,
    /// Original tensor modes in the layout order of the payload's leading
    /// dims (dense) or levels (semi-sparse).
    pub mode_order: Vec<usize>,
    /// Factor versions contracted in; meaningful for modes ∉ the set.
    pub versions: Vec<u64>,
}

impl Intermediate {
    /// The mode set `S`.
    pub fn set(&self) -> ModeSet {
        ModeSet::from_modes(self.mode_order.iter().copied())
    }

    /// Position of original mode `m` within the layout.
    pub fn position_of(&self, m: usize) -> usize {
        self.mode_order
            .iter()
            .position(|&x| x == m)
            .unwrap_or_else(|| panic!("mode {m} not in intermediate {:?}", self.mode_order))
    }

    /// Valid with respect to `current` versions: every contracted-away
    /// factor (modes ∉ S) must still be at the recorded version.
    pub fn valid_for(&self, current: &[u64]) -> bool {
        let set = self.set();
        current
            .iter()
            .enumerate()
            .all(|(j, &v)| set.contains(j) || self.versions[j] == v)
    }

    /// The dense payload (panics on semi-sparse) — see [`Payload::dense`].
    pub fn dense(&self) -> &DenseTensor {
        self.payload.dense()
    }

    /// Memory footprint in f64-equivalent words.
    pub fn memory_words(&self) -> usize {
        self.payload.memory_words()
    }
}

/// The cache: one intermediate per mode set.
#[derive(Default)]
pub struct InterCache {
    map: HashMap<ModeSet, Intermediate>,
}

impl InterCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a *valid* intermediate for `set`; stale entries are evicted.
    pub fn get_valid(&mut self, set: ModeSet, current: &[u64]) -> Option<&Intermediate> {
        if let Some(e) = self.map.get(&set) {
            if e.valid_for(current) {
                // Reborrow to satisfy the borrow checker.
                return self.map.get(&set);
            }
            self.map.remove(&set);
        }
        None
    }

    /// Smallest valid intermediate whose set contains `target` (ties broken
    /// by fewer modes, then by set order for determinism).
    pub fn best_superset(&mut self, target: ModeSet, current: &[u64]) -> Option<&Intermediate> {
        // Evict stale entries on the way.
        self.map.retain(|_, e| e.valid_for(current));
        let best = self
            .map
            .iter()
            .filter(|(s, _)| target.is_subset_of(**s))
            .min_by_key(|(s, _)| (s.len(), **s))
            .map(|(s, _)| *s)?;
        self.map.get(&best)
    }

    /// Insert (replacing any entry for the same set).
    pub fn insert(&mut self, inter: Intermediate) {
        self.map.insert(inter.set(), inter);
    }

    /// Remove and return the entry for `set`, if present (streaming cache
    /// surgery: delta-extension takes the old payload out, eviction drops
    /// entries whose extent along the evolving mode went stale).
    pub fn remove(&mut self, set: ModeSet) -> Option<Intermediate> {
        self.map.remove(&set)
    }

    /// Number of cached intermediates.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Total f64-equivalent words held (auxiliary-memory metric of
    /// Table I) — semi-sparse entries count index words at true size, and
    /// a pattern several entries share is counted once.
    pub fn memory_elems(&self) -> usize {
        let mut seen: Vec<*const SsPattern> = Vec::new();
        self.map
            .values()
            .map(|e| match &e.payload {
                Payload::SemiSparse(ss) if seen.contains(&Arc::as_ptr(ss.pattern())) => {
                    ss.panels().len()
                }
                Payload::SemiSparse(ss) => {
                    seen.push(Arc::as_ptr(ss.pattern()));
                    ss.memory_words()
                }
                Payload::Dense(t) => t.len(),
            })
            .sum()
    }

    /// Drop entries invalid under `current` versions.
    pub fn evict_stale(&mut self, current: &[u64]) {
        self.map.retain(|_, e| e.valid_for(current));
    }

    /// All cached intermediates in deterministic (mode-set) order —
    /// checkpoint serialization must not depend on `HashMap` iteration
    /// order or two checkpoints of the same state would differ bytewise.
    pub fn entries_sorted(&self) -> Vec<&Intermediate> {
        let mut keyed: Vec<(&ModeSet, &Intermediate)> = self.map.iter().collect();
        keyed.sort_by_key(|(s, _)| **s);
        keyed.into_iter().map(|(_, e)| e).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_tensor::Shape;

    fn dummy(modes: &[usize], versions: Vec<u64>) -> Intermediate {
        let dims: Vec<usize> = modes.iter().map(|_| 2).chain([3]).collect();
        Intermediate {
            payload: Payload::Dense(Arc::new(DenseTensor::zeros(Shape::new(dims)))),
            mode_order: modes.to_vec(),
            versions,
        }
    }

    #[test]
    fn validity_ignores_member_modes() {
        let e = dummy(&[0, 2], vec![5, 7, 9]);
        // Modes 0 and 2 are members: their versions are irrelevant.
        assert!(e.valid_for(&[99, 7, 42]));
        // Mode 1 contracted at version 7: a bump invalidates.
        assert!(!e.valid_for(&[99, 8, 42]));
    }

    #[test]
    fn get_valid_evicts_stale() {
        let mut c = InterCache::new();
        c.insert(dummy(&[0, 1], vec![0, 0, 3]));
        assert!(c
            .get_valid(ModeSet::from_modes([0, 1]), &[9, 9, 3])
            .is_some());
        assert!(c
            .get_valid(ModeSet::from_modes([0, 1]), &[9, 9, 4])
            .is_none());
        assert!(c.is_empty(), "stale entry must be evicted");
    }

    #[test]
    fn best_superset_prefers_smallest() {
        let mut c = InterCache::new();
        c.insert(dummy(&[0, 1, 2], vec![0; 4]));
        c.insert(dummy(&[0, 1], vec![0; 4]));
        let best = c
            .best_superset(ModeSet::single(1), &[0; 4])
            .expect("must find superset");
        assert_eq!(best.set(), ModeSet::from_modes([0, 1]));
    }

    #[test]
    fn best_superset_respects_versions() {
        let mut c = InterCache::new();
        c.insert(dummy(&[0, 1], vec![0, 0, 5, 0]));
        // Mode 2 bumped to 6 → entry invalid → fall back to none.
        assert!(c.best_superset(ModeSet::single(0), &[0, 0, 6, 0]).is_none());
    }

    #[test]
    fn memory_accounting() {
        let mut c = InterCache::new();
        c.insert(dummy(&[0], vec![0; 2])); // 2*3 = 6 elems
        c.insert(dummy(&[0, 1], vec![0; 2])); // 2*2*3 = 12
        assert_eq!(c.memory_elems(), 18);
        c.clear();
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn position_of_respects_layout() {
        let e = dummy(&[2, 0, 3], vec![0; 4]);
        assert_eq!(e.position_of(0), 1);
        assert_eq!(e.position_of(3), 2);
    }
}
