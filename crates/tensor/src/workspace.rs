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
//! * **A miss re-lengths.** A draw of 2 MiB or more that finds nothing
//!   held of its length takes the held mapping whose length is closest
//!   and re-lengths it ([`WorkspaceStats::relengths`]): growing moves its
//!   pages, so only the new tail faults in, and shrinking unmaps the
//!   granules past the new length, so resident memory falls with it
//!   (`store.rs`). Only when nothing mapped is held does a draw allocate
//!   (a miss). A stream's intermediates change length at every arrival,
//!   and this is what lets its pool serve them.
//! * **Return on drop.** A drawn [`Buffer`] carries a weak handle home and
//!   gives itself back when dropped — cache eviction, dropping the PP
//!   operators and engine teardown need no return-site code. Tensors that
//!   share one buffer (a [`crate::DenseTensor`] clone) give it back once,
//!   when the last of them drops. A buffer whose workspace is gone simply
//!   frees; one that leaves as a `Vec` ([`Buffer::into_vec`]) is no longer
//!   counted, and one that grows in place ([`Buffer::extend_from_slice`],
//!   or `extend_with` under [`crate::DenseTensor::append_leading_with`])
//!   stays, counted under its new length.
//! * **Memory stays what it was.** A draw takes a held buffer of its
//!   length (held − 1, live + 1), re-lengths one of another class (there
//!   held − 1, here live + 1) or allocates (live + 1); a return moves one
//!   from live to held. So per class `live + held` never exceeds that
//!   class's own high-water mark, and over the whole pool the buffers'
//!   resident bytes — live and held, each keeping no page past the 64 KiB
//!   granule its length ends in, since a re-length gives back what it cuts
//!   off — stay within the sum of those marks
//!   ([`WorkspaceStats::high_water_elems`]). (A buffer that grew in place
//!   may also hold the huge page its length ends in.) A class nobody
//!   draws from for a whole tree period is dropped by
//!   [`Workspace::end_sweep`], and [`Workspace::release`] drops one at
//!   once.
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
//!   store either way, so [`Workspace::draw_zeroed`] writes only on a hit
//!   or a re-length, and debug builds poison what a re-length hands to
//!   [`Workspace::draw`] as they poison a return.

use crate::store::{is_mapped, Store};
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
    /// The most of this length the pool ever owned at once (out and held).
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
    relengths: u64,
    high_water_bufs: usize,
    high_water_elems: usize,
}

impl State {
    /// A buffer of `len` elements joins the pool's live ones (a draw, or a
    /// growth in place), raising its class's mark if the class now owns
    /// more than ever.
    fn enter(&mut self, len: usize) {
        let class = self.classes.entry(len).or_default();
        class.last_draw = self.sweep;
        class.live += 1;
        if class.live + class.free.len() > class.high {
            class.high += 1;
            self.high_water_bufs += 1;
            self.high_water_elems += len;
        }
    }

    /// A live buffer of `len` elements stops being counted.
    fn leave(&mut self, len: usize) {
        if let Some(class) = self.classes.get_mut(&len) {
            class.live -= 1;
        }
    }

    /// The held mapping whose length is closest to `len` (the shorter on a
    /// tie), taken from its class.
    fn closest_mapping(&mut self, len: usize) -> Option<Store> {
        let (_, class) = self
            .classes
            .iter_mut()
            .filter(|(&l, c)| !c.free.is_empty() && is_mapped(l * 8))
            .min_by_key(|(&l, _)| (l.abs_diff(len), l))?;
        class.free.pop()
    }
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
    /// Draws that found nothing held of their length and re-lengthed a
    /// held mapping of another instead of allocating.
    pub relengths: u64,
    /// Elements in held (returned, not yet redrawn) buffers.
    pub held_elems: usize,
    /// Elements in drawn buffers that have not come back.
    pub live_elems: usize,
    /// Σ over classes of the most buffers of the class the pool owned at
    /// once, out and held.
    pub high_water_bufs: usize,
    /// The same in elements: the bound on `live_elems + held_elems`, and
    /// on the elements the pool's buffers keep resident.
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

    /// A held allocation for `len` elements if there is one — of exactly
    /// that length, or a mapping re-lengthed to it — and the home a buffer
    /// of this request carries (`None` when it bypasses).
    fn take(&self, len: usize) -> (Option<Store>, Option<Weak<Shared>>) {
        let Some(shared) = self.shared.as_ref().filter(|_| len >= MIN_POOLED_ELEMS) else {
            return (None, None);
        };
        let (held, relength) = {
            let mut guard = shared.lock();
            let st = &mut *guard;
            st.draws += 1;
            let mut held = st.classes.get_mut(&len).and_then(|c| c.free.pop());
            let mut relength = false;
            if held.is_none() && is_mapped(len.saturating_mul(8)) {
                held = st.closest_mapping(len);
                relength = held.is_some();
            }
            st.enter(len);
            st.misses += u64::from(held.is_none());
            st.relengths += u64::from(relength);
            (held, relength)
        };
        // The pages move or go outside the lock.
        let held = held.map(|mut store| {
            if relength {
                store.relength(len);
                if cfg!(debug_assertions) {
                    store.fill(f64::NAN);
                }
            }
            store
        });
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

    /// Drop the held buffers of exactly `len` elements now (what is out
    /// still comes back when dropped).
    pub fn release(&self, len: usize) {
        let Some(shared) = &self.shared else { return };
        let released = shared
            .lock()
            .classes
            .get_mut(&len)
            .map(|c| std::mem::take(&mut c.free));
        drop(released); // unmapping happens outside the lock
    }

    /// The most buffers of exactly `len` elements the pool ever owned at
    /// once, out and held, while that class has been kept (0 for a class
    /// never drawn or dropped by [`Workspace::end_sweep`]).
    pub fn class_high_water(&self, len: usize) -> usize {
        let Some(shared) = &self.shared else { return 0 };
        shared.lock().classes.get(&len).map_or(0, |c| c.high)
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
            relengths: st.relengths,
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

    /// A copy of `src` in a fresh store, with no home.
    pub(crate) fn copy_of(src: &[f64]) -> Buffer {
        Buffer {
            data: Data::Store(Store::copy_of(src)),
            home: None,
        }
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
    /// doubling). A buffer of 2 MiB or more moves its pages rather than
    /// its bytes, so only `src` is copied. The buffer stays in its
    /// workspace, counted under its new length.
    pub fn extend_from_slice(&mut self, src: &[f64]) {
        let old = self.len();
        match &mut self.data {
            Data::Store(store) => store.extend_from_slice(src),
            Data::Adopted(vec) => vec.extend_from_slice(src),
        }
        self.regrown(old);
    }

    /// Append `n` elements that `fill` writes in place — it gets the new
    /// tail with unspecified contents and must write all of it — growing
    /// as [`Buffer::extend_from_slice`] does.
    pub(crate) fn extend_with(&mut self, n: usize, fill: impl FnOnce(&mut [f64])) {
        let old = self.len();
        match &mut self.data {
            Data::Store(store) => store.extend_with(n, fill),
            Data::Adopted(vec) => {
                vec.resize(old + n, 0.0);
                fill(&mut vec[old..]);
            }
        }
        self.regrown(old);
    }

    /// Count this buffer, `old` elements long until now, under its length.
    fn regrown(&self, old: usize) {
        if let Some(shared) = self.home.as_ref().and_then(Weak::upgrade) {
            let mut st = shared.lock();
            st.leave(old);
            st.enter(self.len());
        }
    }

    /// Stop being counted by the workspace this buffer was drawn from.
    fn leave(&mut self) {
        if let Some(shared) = self.home.take().and_then(|h| h.upgrade()) {
            shared.lock().leave(self.len());
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
        Buffer::copy_of(self)
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
    use crate::store::MAP_MIN_BYTES;

    /// Pooled in release builds too (1 MiB).
    const LEN: usize = 1 << 17;

    /// 2 MiB: a mapping, so a draw of it may re-length, in every build.
    const MAPPED: usize = MAP_MIN_BYTES / 8;

    /// The memory bound, and — while nothing was released or left — every
    /// miss having raised a class's high-water mark.
    fn invariant(ws: &Workspace) {
        let s = ws.stats();
        assert!(s.live_elems + s.held_elems <= s.high_water_elems, "{s:?}");
        assert!(s.misses as usize <= s.high_water_bufs, "{s:?}");
    }

    /// Bytes a store of `len` elements may keep resident: its length up to
    /// the 64 KiB granule its mapping ends on.
    fn kept(len: usize) -> usize {
        (len * 8).next_multiple_of(64 << 10)
    }

    /// The memory bound over resident bytes: every mapped buffer of the
    /// pool, out (`live`) or held, keeps no page past its length's granule,
    /// so what the whole pool keeps resident is within the high-water mark.
    fn resident_bounded(ws: &Workspace, live: &[Buffer]) {
        let resident = |s: &Store| {
            if is_mapped(s.len() * 8) {
                s.resident_bytes()
            } else {
                0
            }
        };
        let st = ws.shared.as_ref().unwrap().lock();
        let held = st.classes.values().flat_map(|c| &c.free);
        let out = live.iter().map(|b| match &b.data {
            Data::Store(s) => s,
            Data::Adopted(_) => unreachable!("drawn buffers are stores"),
        });
        let (mut total, mut bound) = (0, 0);
        for s in held.chain(out) {
            assert!(
                resident(s) <= kept(s.len()),
                "{} resident of {} kept",
                resident(s),
                kept(s.len())
            );
            total += resident(s);
            bound += kept(s.len());
        }
        drop(st);
        let s = ws.stats();
        assert!(
            total <= bound && s.live_elems + s.held_elems <= s.high_water_elems,
            "{s:?}"
        );
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
        drop(grown); // a grown buffer stays, under its new length
        let s = ws.stats();
        assert_eq!((s.live_elems, s.held_elems), (0, LEN + 1));

        let orphan = ws.draw(LEN);
        let copy = orphan.clone(); // a copy has no home
        drop(ws);
        drop(orphan);
        drop(copy);
    }

    #[test]
    fn a_miss_relengths_the_closest_held_mapping_and_copies_nothing() {
        let ws = Workspace::new();
        let drawn = [MAPPED, 3 * MAPPED, LEN].map(|len| ws.draw(len));
        let long = drawn[1].as_ptr();
        drop(drawn);
        crate::store::tally::take_copied();
        // 4 MiB: both mappings are as close; the shorter grows.
        let grown = ws.draw(2 * MAPPED);
        let s = ws.stats();
        assert_eq!((s.draws, s.misses, s.relengths), (4, 3, 1));
        assert_eq!(s.held_elems, 3 * MAPPED + LEN, "{s:?}");
        assert_eq!(crate::store::tally::take_copied(), 0, "a re-length copied");
        // A request under the size rule never re-lengths: a miss.
        let small = ws.draw(LEN + 8);
        assert_eq!((ws.stats().misses, ws.stats().relengths), (4, 1));
        // One that finds its length held takes it as it is.
        let hit = ws.draw(3 * MAPPED);
        assert_eq!(hit.as_ptr(), long);
        // 2 MiB: what is left mapped is nothing; a miss.
        let fresh = ws.draw(MAPPED);
        let s = ws.stats();
        assert_eq!((s.draws, s.misses, s.relengths), (7, 5, 1), "{s:?}");
        invariant(&ws);
        resident_bounded(&ws, &[grown, small, hit, fresh]);
    }

    #[test]
    fn a_relength_that_shrinks_gives_its_tail_back() {
        let ws = Workspace::new();
        let mut big = ws.draw(3 * MAPPED);
        big.fill(1.5); // every page resident
        drop(big);
        let mut shrunk = ws.draw(MAPPED + 4096);
        assert_eq!(ws.stats().relengths, 1);
        shrunk.fill(2.5);
        resident_bounded(&ws, std::slice::from_ref(&shrunk));
        drop(shrunk);
        let s = ws.stats();
        assert_eq!((s.held_elems, s.live_elems), (MAPPED + 4096, 0));
        resident_bounded(&ws, &[]);
    }

    #[test]
    fn a_relengthed_draw_is_poisoned_in_debug_and_a_zeroed_one_is_zero() {
        let ws = Workspace::new();
        let mut a = ws.draw(MAPPED);
        a.fill(3.5);
        drop(a);
        let stale = ws.draw(2 * MAPPED); // grown: old prefix, fresh tail
        if cfg!(debug_assertions) {
            assert!(stale.iter().all(|x| x.is_nan()), "a re-length is poisoned");
        }
        drop(stale);
        let mut b = ws.draw(3 * MAPPED); // grown again
        b.fill(-1.0);
        drop(b);
        for len in [3 * MAPPED / 2, 5 * MAPPED] {
            let zeroed = ws.draw_zeroed(len); // shrunk, then grown
            assert!(zeroed.iter().all(|&x| x == 0.0 && x.is_sign_positive()));
        }
        let s = ws.stats();
        assert_eq!((s.misses, s.relengths), (1, 4), "{s:?}");
    }

    #[test]
    fn the_pool_keeps_no_more_resident_than_its_high_water_mark() {
        // Lengths in 2 MiB steps and between them, drawn, written and
        // returned in an order that makes every draw after the first few
        // re-length one way or the other.
        let ws = Workspace::new();
        let mut out: Vec<Buffer> = Vec::new();
        for (round, len) in [2, 5, 3, 7, 4, 9, 6, 3, 8, 2, 5].into_iter().enumerate() {
            let mut b = ws.draw(len * MAPPED / 2 + 512 * round);
            b.fill(round as f64);
            out.push(b);
            resident_bounded(&ws, &out);
            if out.len() > 2 {
                out.remove(round % out.len());
            }
            resident_bounded(&ws, &out);
        }
        let s = ws.stats();
        assert!(s.relengths >= 6, "{s:?}");
        drop(out);
        resident_bounded(&ws, &[]);
    }

    #[test]
    fn a_grown_buffer_stays_counted_under_its_new_length() {
        let ws = Workspace::new();
        let mut root = ws.draw(MAPPED);
        root.extend_from_slice(&vec![1.0; LEN]);
        root.extend_with(8, |tail| tail.fill(2.0));
        assert_eq!(root.len(), MAPPED + LEN + 8);
        assert_eq!(&root[MAPPED + LEN..], &[2.0; 8]);
        let s = ws.stats();
        assert_eq!((s.live_elems, s.held_elems), (MAPPED + LEN + 8, 0));
        assert_eq!(ws.class_high_water(MAPPED + LEN + 8), 1);
        drop(root);
        assert_eq!(ws.stats().held_elems, MAPPED + LEN + 8);
        // Drawn again at that length as it is, and given back on release.
        let again = ws.draw(MAPPED + LEN + 8);
        assert_eq!(ws.stats().misses, 1);
        drop(again);
        ws.release(MAPPED + LEN + 8);
        assert_eq!(ws.stats().held_elems, 0);
        invariant(&ws);
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
