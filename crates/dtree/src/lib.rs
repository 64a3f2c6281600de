//! # pp-dtree — dimension-tree engines
//!
//! The MTTKRP amortization machinery at the heart of the paper:
//!
//! * [`engine::DimTreeEngine`] — the standard binary dimension tree
//!   ([`engine::TreePolicy::Standard`], Fig. 1a) and the multi-sweep
//!   dimension tree ([`engine::TreePolicy::MultiSweep`], Fig. 2, §III),
//!   unified over a version-checked intermediate cache ([`cache`]) that
//!   makes both produce exact ALS semantics by construction;
//! * [`pp_tree`] — construction of the pairwise-perturbation operators
//!   `𝓜p^(i,j)` through the PP dimension tree (Fig. 1b, §II-D);
//! * [`correct`] — the PP approximated step: first-order corrections
//!   `U^(n,i)` (Eq. 6), second-order corrections `V^(n)` (Eq. 7), and the
//!   assembly of `˜M^(n)` (Eq. 5);
//! * [`input::InputTensor`] — the input tensor in one stored layout, every
//!   mode contracted in place (where the paper stores permuted copies, §IV);
//! * [`stats`] — the per-kernel time breakdown of Fig. 3c–f.

pub mod cache;
pub mod correct;
pub mod engine;
pub mod factor;
pub mod input;
pub mod modeset;
pub mod pp_tree;
pub mod stats;

/// Evaluate `f(0)..f(n-1)` and collect the results in index order, fanning
/// independent evaluations out over the persistent rayon pool when it has
/// more than one thread. Used for the embarrassingly-parallel tree work:
/// PP pair-operator contractions and MSDT input-copy construction.
pub(crate) fn par_collect<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    use rayon::prelude::*;
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    if n > 1 && rayon::current_num_threads() > 1 {
        slots
            .as_mut_slice()
            .par_chunks_mut(1)
            .enumerate()
            .for_each(|(i, slot)| slot[0] = Some(f(i)));
    } else {
        for (i, slot) in slots.iter_mut().enumerate() {
            *slot = Some(f(i));
        }
    }
    slots
        .into_iter()
        .map(|o| o.expect("par_collect slot filled"))
        .collect()
}

pub use cache::{InterCache, Intermediate};
pub use engine::{CacheUpdate, DimTreeEngine, TreePolicy};
pub use factor::FactorState;
pub use input::InputTensor;
pub use modeset::ModeSet;
pub use stats::{Kernel, KernelStats};
