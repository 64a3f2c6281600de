//! Recycled output buffers for a session's large intermediates.
//!
//! With the kernels at the FMA ceiling, a sweep's remaining cost is fresh
//! memory: every multi-megabyte output is a new mapping that faults on
//! first touch — once per 2 MiB where the store (`store.rs`) got huge
//! pages (0.1–0.5 ms each on the benchmark VM, mostly the kernel zeroing
//! them), once per 4 KiB page (2–6 µs each, 1–3 ms per 2 MiB — more than
//! the kernel that fills it) where it did not. A
//! [`Workspace`] keeps the buffers a session's kernels drew and hands them
//! out again, so from the second sweep on the outputs land in resident
//! memory.
//!
//! * **Exact-length classes.** The free list is keyed by element count. A
//!   session's intermediates recur at exactly the same lengths sweep after
//!   sweep, so no rounding, no splitting, no best-fit search.
//! * **Return on drop.** A drawn [`Buffer`] carries a weak handle home and
//!   gives itself back when dropped — cache eviction, dropping the PP
//!   operators and engine teardown need no return-site code. Tensors that
//!   share one buffer (a [`crate::DenseTensor`] clone) give it back once,
//!   when the last of them drops. A buffer
//!   whose workspace is gone simply frees; one that leaves as a `Vec`
//!   ([`Buffer::into_vec`]) or grows ([`Buffer::extend_from_slice`]) is no
//!   longer counted.
//! * **Memory stays what it was.** A draw either takes a held buffer
//!   (held − 1, live + 1) or, with none held, allocates (live + 1); a return
//!   moves one from live to held. So per class `live + held` never exceeds
//!   that class's own live high-water mark — what the session already
//!   peaked at without a workspace. A class nobody draws from for a whole
//!   tree period is dropped by [`Workspace::end_sweep`].
//! * **Stale contents are safe.** [`Workspace::draw`] hands a recycled
//!   buffer out as it is: its takers are the β = 0 GEMM calls, which store
//!   `0.0 + α·acc` without reading C, and the sparse PP pair walk
//!   (`sparse::csf_pair_in`), whose pool tasks write every row of their
//!   blocks, zero rows included. Accumulating kernels — the mTTV and the
//!   semi-sparse TTM, mTTV and densify — take [`Workspace::draw_zeroed`],
//!   whose fill of a recycled buffer runs serially on the calling thread. Debug builds fill a returning buffer with
//!   NaN and pool every length, so the whole test suite runs over poisoned
//!   memory; release builds let requests under 1 MiB go straight to the
//!   allocator, which never maps those fresh. A miss is a fresh, known-zero
//!   store either way, so [`Workspace::draw_zeroed`] writes only on a hit.

use crate::store::Store;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

/// Requests shorter than this bypass the pool (1 MiB of `f64`s; the
/// allocator serves them from the heap it already holds). Debug builds pool everything so the
/// poison reaches every kernel the tests run.
const MIN_POOLED_ELEMS: usize = if cfg!(debug_assertions) { 1 } else { 1 << 17 };

/// The buffers of one exact length.
#[derive(Default)]
struct Class {
    free: Vec<Store>,
    /// Buffers of this length currently out.
    live: usize,
    /// The most that were ever out at once.
    high: usize,
    /// Sweep index of the latest draw.
    last_draw: u64,
}

#[derive(Default)]
struct State {
    classes: HashMap<usize, Class>,
    sweep: u64,
    draws: u64,
    misses: u64,
    high_water_bufs: usize,
    high_water_elems: usize,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
}

impl Shared {
    /// Every update under the lock is a counter bump or a `Vec` push/pop, so
    /// the state is valid at every step and a poisoned lock is still usable.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Counters of a [`Workspace`]; all of them repeat exactly for a given
/// schedule of draws and drops.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Pooled requests served (bypassing ones are not counted).
    pub draws: u64,
    /// Draws that found nothing held and allocated.
    pub misses: u64,
    /// Elements in held (returned, not yet redrawn) buffers.
    pub held_elems: usize,
    /// Elements in drawn buffers that have not come back.
    pub live_elems: usize,
    /// Σ over classes of the most buffers ever out at once.
    pub high_water_bufs: usize,
    /// The same in elements: the bound on `live_elems + held_elems`.
    pub high_water_elems: usize,
}

/// A pool of recycled `f64` buffers (module docs). Cloning clones the
/// handle: both name the same pool, which lives as long as any handle.
#[derive(Clone)]
pub struct Workspace {
    shared: Option<Arc<Shared>>,
}

impl Default for Workspace {
    fn default() -> Self {
        Self::new()
    }
}

impl Workspace {
    /// An empty pool. Allocates nothing until the first draw.
    pub fn new() -> Self {
        Workspace {
            shared: Some(Arc::default()),
        }
    }

    /// The workspace-less case: every draw is a plain allocation and every
    /// drop a plain free. What the public allocating kernels run in.
    pub const fn unpooled() -> Self {
        Workspace { shared: None }
    }

    /// A buffer of `len` elements with **unspecified contents** — for
    /// kernels that overwrite every element without reading it.
    pub fn draw(&self, len: usize) -> Buffer {
        let (held, home) = self.take(len);
        let store = held.unwrap_or_else(|| Store::zeroed(len));
        Buffer {
            data: Data::Store(store),
            home,
        }
    }

    /// A buffer of `len` zeros — for kernels that accumulate into it.
    pub fn draw_zeroed(&self, len: usize) -> Buffer {
        let (mut held, home) = self.take(len);
        if let Some(stale) = &mut held {
            stale.fill(0.0);
        }
        let store = held.unwrap_or_else(|| Store::zeroed(len));
        Buffer {
            data: Data::Store(store),
            home,
        }
    }

    /// A held allocation of exactly `len` elements if there is one, and the
    /// home a buffer of this request carries (`None` when it bypasses).
    fn take(&self, len: usize) -> (Option<Store>, Option<Weak<Shared>>) {
        let Some(shared) = self.shared.as_ref().filter(|_| len >= MIN_POOLED_ELEMS) else {
            return (None, None);
        };
        let mut guard = shared.lock();
        let st = &mut *guard;
        let class = st.classes.entry(len).or_default();
        st.draws += 1;
        class.last_draw = st.sweep;
        class.live += 1;
        if class.live > class.high {
            class.high = class.live;
            st.high_water_bufs += 1;
            st.high_water_elems += len;
        }
        let held = class.free.pop();
        st.misses += u64::from(held.is_none());
        (held, Some(Arc::downgrade(shared)))
    }

    /// A sweep ended: drop the held buffers of every class that has not
    /// been drawn from for `idle_sweeps` sweeps (a tree period — nothing a
    /// steady-state schedule still uses stays idle that long).
    pub fn end_sweep(&self, idle_sweeps: u64) {
        let Some(shared) = &self.shared else { return };
        let released: Vec<Store> = {
            let mut guard = shared.lock();
            let st = &mut *guard;
            st.sweep += 1;
            let sweep = st.sweep;
            let idle = st
                .classes
                .values_mut()
                .filter(|c| sweep - c.last_draw >= idle_sweeps);
            let released = idle.flat_map(|c| c.free.drain(..)).collect();
            st.classes.retain(|_, c| c.live > 0 || !c.free.is_empty());
            released
        };
        drop(released); // unmapping happens outside the lock
    }

    /// Current counters.
    pub fn stats(&self) -> WorkspaceStats {
        let Some(shared) = &self.shared else {
            return WorkspaceStats::default();
        };
        let st = shared.lock();
        let (mut held_elems, mut live_elems) = (0, 0);
        for (len, class) in &st.classes {
            held_elems += len * class.free.len();
            live_elems += len * class.live;
        }
        WorkspaceStats {
            draws: st.draws,
            misses: st.misses,
            held_elems,
            live_elems,
            high_water_bufs: st.high_water_bufs,
            high_water_elems: st.high_water_elems,
        }
    }
}

/// What a [`Buffer`] holds: the crate's own aligned store, or a `Vec` a
/// caller built and handed over ([`From<Vec<f64>>`], no copy).
enum Data {
    Store(Store),
    Adopted(Vec<f64>),
}

/// An owned `f64` buffer that returns to the [`Workspace`] it was drawn
/// from when dropped. Buffers made inside the crate are 64-byte aligned and,
/// from 2 MiB up, huge-page backed (the `store` module); a `Vec<f64>`
/// converts into a buffer with no home, as it is.
pub struct Buffer {
    data: Data,
    home: Option<Weak<Shared>>,
}

impl Buffer {
    /// `len` zeros in a fresh store, with no home.
    pub(crate) fn zeroed(len: usize) -> Buffer {
        Workspace::unpooled().draw_zeroed(len)
    }

    /// Whether this is a caller's `Vec`, adopted as it lay (no alignment
    /// promise), rather than a store.
    pub(crate) fn is_adopted(&self) -> bool {
        matches!(self.data, Data::Adopted(_))
    }

    /// Leave the workspace (it stops counting this buffer) and return the
    /// elements as a `Vec` — the adopted one as it is, a store's by copy.
    pub fn into_vec(mut self) -> Vec<f64> {
        self.leave();
        match &mut self.data {
            Data::Store(store) => store.to_vec(),
            Data::Adopted(vec) => std::mem::take(vec),
        }
    }

    /// Append `src` in place, reserving geometrically (one move per
    /// doubling). The buffer leaves its workspace first: its length stops
    /// matching its class.
    pub fn extend_from_slice(&mut self, src: &[f64]) {
        self.leave();
        match &mut self.data {
            Data::Store(store) => store.extend_from_slice(src),
            Data::Adopted(vec) => vec.extend_from_slice(src),
        }
    }

    /// Stop being counted by the workspace this buffer was drawn from.
    fn leave(&mut self) {
        if let Some(shared) = self.home.take().and_then(|h| h.upgrade()) {
            if let Some(class) = shared.lock().classes.get_mut(&self.len()) {
                class.live -= 1;
            }
        }
    }
}

impl Drop for Buffer {
    fn drop(&mut self) {
        let Some(shared) = self.home.take().and_then(|h| h.upgrade()) else {
            return;
        };
        // Only drawn buffers have a home, and a draw is always a store.
        let Data::Store(store) = &mut self.data else {
            return;
        };
        let mut store = std::mem::take(store);
        if cfg!(debug_assertions) {
            store.fill(f64::NAN);
        }
        let mut st = shared.lock();
        if let Some(class) = st.classes.get_mut(&store.len()) {
            class.live -= 1;
            class.free.push(store);
        }
    }
}

impl From<Vec<f64>> for Buffer {
    fn from(data: Vec<f64>) -> Self {
        Buffer {
            data: Data::Adopted(data),
            home: None,
        }
    }
}

impl Deref for Buffer {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        match &self.data {
            Data::Store(store) => store,
            Data::Adopted(vec) => vec,
        }
    }
}

impl DerefMut for Buffer {
    fn deref_mut(&mut self) -> &mut [f64] {
        match &mut self.data {
            Data::Store(store) => store,
            Data::Adopted(vec) => vec,
        }
    }
}

/// A copy is a fresh store: it belongs to whoever asked for it.
impl Clone for Buffer {
    fn clone(&self) -> Self {
        Buffer {
            data: Data::Store(Store::copy_of(self)),
            home: None,
        }
    }
}

impl PartialEq for Buffer {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Buffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pooled in release builds too (1 MiB).
    const LEN: usize = 1 << 17;

    /// The memory bound, and — while nothing was released or left — every
    /// miss having raised a class's high-water mark.
    fn invariant(ws: &Workspace) {
        let s = ws.stats();
        assert!(s.live_elems + s.held_elems <= s.high_water_elems, "{s:?}");
        assert!(s.misses as usize <= s.high_water_bufs, "{s:?}");
    }

    #[test]
    fn a_dropped_buffer_comes_back_for_the_next_draw_of_its_length() {
        let ws = Workspace::new();
        let a = ws.draw(LEN);
        let addr = a.as_ptr();
        assert_eq!(ws.stats().live_elems, LEN);
        drop(a);
        let s = ws.stats();
        assert_eq!((s.live_elems, s.held_elems), (0, LEN));
        // Another length is another class: a miss, and `a` stays held.
        let other = ws.draw(LEN + 8);
        assert_eq!(ws.stats().held_elems, LEN);
        let b = ws.draw(LEN);
        assert_eq!(b.as_ptr(), addr, "same allocation");
        let s = ws.stats();
        assert_eq!((s.draws, s.misses, s.held_elems), (3, 2, 0));
        assert_eq!(s.live_elems, 2 * LEN + 8);
        drop((b, other));
        invariant(&ws);
    }

    #[test]
    fn stale_draws_are_poisoned_in_debug_and_zeroed_draws_are_zero() {
        let ws = Workspace::new();
        let mut a = ws.draw(LEN);
        a.fill(3.5);
        drop(a);
        let stale = ws.draw(LEN);
        if cfg!(debug_assertions) {
            assert!(
                stale.iter().all(|x| x.is_nan()),
                "returned buffers are poisoned"
            );
        }
        drop(stale);
        let zeroed = ws.draw_zeroed(LEN);
        assert!(zeroed.iter().all(|&x| x == 0.0 && x.is_sign_positive()));
        assert_eq!(ws.stats().misses, 1);
    }

    #[test]
    fn zeroed_draws_are_zero_fresh_and_recycled_over_the_size_rule_too() {
        use crate::store::MAP_MIN_BYTES;
        let positive_zero = |b: &Buffer| b.iter().all(|&x| x == 0.0 && x.is_sign_positive());
        for len in [1, LEN, MAP_MIN_BYTES / 8, MAP_MIN_BYTES / 8 + 513] {
            let ws = Workspace::new();
            let mut fresh = ws.draw_zeroed(len);
            assert!(positive_zero(&fresh), "fresh, len {len}");
            let addr = fresh.as_ptr();
            fresh.fill(-4.25);
            drop(fresh);
            let pooled = ws.stats().draws > 0; // release builds bypass short ones
            let recycled = ws.draw_zeroed(len);
            assert!(positive_zero(&recycled), "recycled, len {len}");
            if pooled {
                assert_eq!(recycled.as_ptr(), addr, "same store");
                assert_eq!(ws.stats().misses, 1);
            }
        }
    }

    #[test]
    fn live_plus_held_never_passes_the_high_water_mark() {
        let ws = Workspace::new();
        let mut out = Vec::new();
        for round in 0..4 {
            for k in 0..3 {
                out.push(ws.draw_zeroed(LEN + 8 * k));
                out.push(ws.draw(LEN));
                invariant(&ws);
            }
            out.truncate(round); // return most, keep a few more each round
            invariant(&ws);
        }
        let s = ws.stats();
        assert_eq!(s.draws, 24);
        assert!(s.misses < s.draws, "later rounds reuse");
    }

    #[test]
    fn a_class_idle_for_the_period_is_released_and_a_busy_one_kept() {
        let ws = Workspace::new();
        drop(ws.draw(LEN));
        drop(ws.draw(LEN + 8));
        for _ in 0..2 {
            ws.end_sweep(3);
            drop(ws.draw(LEN + 8)); // drawn every sweep
        }
        assert_eq!(ws.stats().held_elems, 2 * LEN + 8);
        ws.end_sweep(3); // third boundary since `LEN` was last drawn
        assert_eq!(ws.stats().held_elems, LEN + 8);
        // A live buffer of a released class still finds its way home.
        let live = ws.draw(LEN);
        for _ in 0..3 {
            ws.end_sweep(3);
        }
        assert_eq!(ws.stats().held_elems, 0);
        drop(live);
        assert_eq!(ws.stats().held_elems, LEN);
    }

    #[test]
    fn buffers_that_leave_are_not_counted_and_orphans_just_free() {
        let ws = Workspace::new();
        let v = ws.draw(LEN).into_vec();
        assert_eq!(v.len(), LEN);
        let mut grown = ws.draw(LEN);
        grown.extend_from_slice(&[1.0]);
        assert_eq!(grown.len(), LEN + 1);
        drop(grown);
        let s = ws.stats();
        assert_eq!((s.live_elems, s.held_elems), (0, 0));

        let orphan = ws.draw(LEN);
        let copy = orphan.clone(); // a copy has no home
        drop(ws);
        drop(orphan);
        drop(copy);
    }

    #[test]
    fn the_unpooled_workspace_and_short_requests_bypass() {
        let none = Workspace::unpooled();
        drop(none.draw(LEN));
        assert_eq!(none.stats(), WorkspaceStats::default());
        none.end_sweep(1);
        if !cfg!(debug_assertions) {
            let ws = Workspace::new();
            drop(ws.draw(LEN - 1));
            assert_eq!(ws.stats().draws, 0, "under 1 MiB goes to the allocator");
        }
    }

    #[test]
    fn handles_share_one_pool_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Workspace>();
        assert_send_sync::<Buffer>();
        let ws = Workspace::new();
        let theirs = ws.clone();
        std::thread::spawn(move || drop(theirs.draw(LEN)))
            .join()
            .unwrap();
        assert_eq!(ws.stats().held_elems, LEN);
        drop(ws.draw(LEN));
        assert_eq!(ws.stats().misses, 1);
    }
}
