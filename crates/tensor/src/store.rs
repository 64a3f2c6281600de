//! The owned `f64` allocation behind every [`crate::workspace::Buffer`]:
//! 64-byte aligned, and huge-page backed from [`MAP_MIN_BYTES`] up.
//!
//! * **Below the size rule** a [`Store`] is a `std::alloc` allocation at
//!   [`ALIGN`] bytes, so a kernel's rows start on a cache line whatever the
//!   allocator's mood (an mTTV read 0.6 or 1.4–2.0 ms with its input at 32
//!   or 16 bytes mod 64).
//! * **At or above it** (Linux on x86-64 / aarch64) it is a private anonymous `mmap`, trimmed
//!   so it starts on a 2 MiB boundary, with `MADV_HUGEPAGE` over all of
//!   it: fresh memory then costs one fault per 2 MiB instead of one per
//!   4 KiB, and `munmap` gives it back in as many steps. The tail past the
//!   last whole huge page cannot hold one (a huge page must lie inside the
//!   mapping), so it stays small pages and resident memory does not round
//!   up. A refused `madvise` (THP `never`, an old kernel) is ignored: the
//!   mapping is then ordinary memory, which is what the allocator served
//!   before.
//! * **Fresh memory is known zero.** [`Store::zeroed`] never writes to a
//!   mapping (anonymous pages arrive zeroed), so a tensor of zeros that is
//!   only partly written touches only those pages.
//! * **Growth is geometric, and a mapping grows by moving its pages.**
//!   [`Store::extend_from_slice`] reserves twice the capacity when it runs
//!   out. A mapped store reserves a 2 MiB-aligned destination and
//!   `mremap`s its pages there, so only the appended tail is copied and the
//!   old and the new copy are never resident together; the destination is
//!   on the 2 MiB grid, so each huge page moves whole instead of splitting.
//!   A store under the rule, a target that does not map, and a move the
//!   kernel refuses take the copy (allocate, copy, release). Reserved
//!   pages that were never written are not resident.
//!   [`Store::extend_with`] appends the same way but lets its caller write
//!   the new tail in place, so nothing is laid out twice.
//! * **A mapping can change its length, and gives pages back when it
//!   shrinks.** [`Store::relength`] (the workspace's re-length of a held
//!   buffer) grows a mapped store by the same page move, so only the new
//!   tail faults in, and shrinks one by unmapping every granule past the
//!   new length, so resident memory falls with it. Either way the prefix
//!   keeps its contents and nothing is copied. Every element of a mapping's
//!   capacity is initialised — zero as mapped, or written since — which is
//!   what lets a length grow over it.
//!
//! Every `unsafe` block of the storage layer is in this file. Each raw
//! pointer site has a debug-assert shadow: alignment and `len ≤ cap` where
//! a slice is formed, and a registry of live allocations that checks every
//! release against the address and size it was made with, exactly once.

use std::alloc::{self, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Alignment of every store: one cache line, one AVX-512 vector.
pub(crate) const ALIGN: usize = 64;

/// One x86-64 / aarch64 huge page.
pub(crate) const HUGE_BYTES: usize = 2 << 20;

/// The size rule: allocations of at least this many bytes are their own
/// huge-page-advised mapping (where [`MAPS`]; elsewhere everything is
/// `std::alloc`).
/// Measured at 2, 8 and 32 MiB (DESIGN.md §1k "Storage"): one huge page is
/// the smallest size the advice can act on and the one that reaches every
/// workload's buffers.
pub(crate) const MAP_MIN_BYTES: usize = HUGE_BYTES;

/// Whether this target maps at all: the `mmap` ABI constants in [`sys`] are
/// those of Linux on these two architectures. Everywhere else every store
/// is a `std::alloc` allocation.
const MAPS: bool = cfg!(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
));

/// A type aligned like a store: what an empty one dangles at.
#[repr(align(64))]
struct Line;

/// An owned, 64-byte-aligned run of `f64`s (module docs).
pub(crate) struct Store {
    /// Start of the allocation ([`ALIGN`]ed; dangling when `cap == 0`).
    ptr: NonNull<f64>,
    /// Initialised elements — what the slice views cover.
    len: usize,
    /// Elements the allocation has room for; it was made for exactly this.
    cap: usize,
}

// SAFETY: a `Store` owns its allocation exclusively (no aliasing pointer
// escapes the borrow rules of `Deref`/`DerefMut`), and `f64` is `Send`, so
// moving it to another thread moves sole ownership, as with `Vec<f64>`.
unsafe impl Send for Store {}
// SAFETY: `&Store` gives out only `&[f64]`, and `f64` is `Sync`.
unsafe impl Sync for Store {}

/// Bytes of an allocation for `cap` elements.
fn bytes_of(cap: usize) -> usize {
    cap.checked_mul(std::mem::size_of::<f64>())
        .expect("store capacity overflows usize")
}

fn heap_layout(bytes: usize) -> Layout {
    Layout::from_size_align(bytes, ALIGN).expect("store capacity overflows isize")
}

/// Whether an allocation of `bytes` is a mapping of its own.
pub(crate) fn is_mapped(bytes: usize) -> bool {
    MAPS && bytes >= MAP_MIN_BYTES
}

impl Store {
    /// `len` zeros.
    pub(crate) fn zeroed(len: usize) -> Store {
        Store {
            ptr: allocate(len, true),
            len,
            cap: len,
        }
    }

    /// No elements yet, room for `cap`.
    fn with_capacity(cap: usize) -> Store {
        Store {
            ptr: allocate(cap, false),
            len: 0,
            cap,
        }
    }

    /// A copy of `src`.
    pub(crate) fn copy_of(src: &[f64]) -> Store {
        let mut store = Store::with_capacity(src.len());
        store.write_tail(src);
        store
    }

    /// Append `src`, growing geometrically: when the capacity runs out the
    /// store moves to one of at least twice the size.
    pub(crate) fn extend_from_slice(&mut self, src: &[f64]) {
        let need = self
            .len
            .checked_add(src.len())
            .expect("store length overflows usize");
        if need > self.cap {
            self.grow(need.max(self.cap.saturating_mul(2)));
        }
        self.write_tail(src);
    }

    /// Append `n` elements that `fill` writes in place, growing as
    /// [`Store::extend_from_slice`] does. `fill` gets the new tail with
    /// unspecified contents and must write all of it.
    pub(crate) fn extend_with(&mut self, n: usize, fill: impl FnOnce(&mut [f64])) {
        let need = self
            .len
            .checked_add(n)
            .expect("store length overflows usize");
        if need > self.cap {
            self.grow(need.max(self.cap.saturating_mul(2)));
        }
        debug_assert!(need <= self.cap);
        if !is_mapped(bytes_of(self.cap)) {
            // SAFETY: `len + n ≤ cap` (grown just above), so the range is
            // inside the allocation `self` owns; a heap allocation's room
            // past `len` may be uninitialised, and zeroing it makes the
            // slice formed below initialised. A mapping needs no write
            // (module docs).
            unsafe { std::ptr::write_bytes(self.ptr.as_ptr().add(self.len), 0, n) }
        }
        let at = self.len;
        self.len = need;
        fill(&mut self[at..]);
    }

    /// Make a mapped store `len` elements long, `len` itself of mapped
    /// size: the first `min(len, self.len)` elements keep their values,
    /// the rest are unspecified. Growing past the capacity moves the pages
    /// as [`Store::extend_from_slice`] does; shrinking unmaps the granules
    /// past the new length (module docs). Nothing is copied.
    pub(crate) fn relength(&mut self, len: usize) {
        let (old, new) = (bytes_of(self.cap), bytes_of(len));
        assert!(
            is_mapped(old) && is_mapped(new),
            "only a mapping re-lengths"
        );
        if len > self.cap {
            self.grow(len);
        } else {
            let at = self.ptr.as_ptr() as usize;
            shadow::released(at, old);
            sys::trim(self.ptr.as_ptr().cast(), old, new);
            shadow::made(at, new);
            self.cap = len;
        }
        // The whole capacity of a mapping is initialised (module docs).
        self.len = len;
    }

    /// Move to an allocation for `cap > self.cap` elements, keeping the
    /// initialised ones: a mapping's pages move (module docs), anything
    /// else is copied.
    fn grow(&mut self, cap: usize) {
        let (old, new) = (bytes_of(self.cap), bytes_of(cap));
        if is_mapped(old) {
            let from = self.ptr.as_ptr() as usize;
            // Unregistered first: once the pages move, another thread may be
            // handed the old address.
            shadow::released(from, old);
            match NonNull::new(sys::remap(self.ptr.as_ptr().cast(), old, new).cast::<f64>()) {
                Some(ptr) => {
                    shadow::made(ptr.as_ptr() as usize, new);
                    self.ptr = ptr;
                    self.cap = cap;
                    return;
                }
                // The old mapping is still whole, and still ours.
                None => shadow::made(from, old),
            }
        }
        #[cfg(test)]
        tally::copied(bytes_of(self.len));
        let mut grown = Store::with_capacity(cap);
        grown.write_tail(self);
        *self = grown; // drops (releases) the old allocation
    }

    /// Elements this store can hold before it moves.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.cap
    }

    /// Bytes of this store's pages that are resident, from `mincore`
    /// (mapped stores only).
    #[cfg(test)]
    pub(crate) fn resident_bytes(&self) -> usize {
        sys::resident(self.ptr.as_ptr().cast(), bytes_of(self.cap))
    }

    /// Copy `src` behind the initialised elements; the room must be there.
    fn write_tail(&mut self, src: &[f64]) {
        assert!(src.len() <= self.cap - self.len, "store tail overrun");
        // SAFETY: `ptr .. ptr + cap` is one live allocation owned by `self`
        // and the assert above keeps `len + src.len() ≤ cap`, so the
        // destination range is inside it; `src` is a shared borrow of other
        // memory (`&mut self` excludes an overlap with this store).
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.as_ptr().add(self.len), src.len());
        }
        self.len += src.len();
    }
}

impl Default for Store {
    fn default() -> Self {
        Store::zeroed(0)
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        release(self.ptr, self.cap);
    }
}

impl Deref for Store {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        debug_assert!(self.len <= self.cap && (self.ptr.as_ptr() as usize).is_multiple_of(ALIGN));
        // SAFETY: `ptr` is aligned and non-null (dangling only when `len`
        // is 0), the first `len ≤ cap` elements of the allocation are
        // initialised (zeroed or copied in), and the borrow of `self` keeps
        // the allocation alive and unaliased by a writer.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for Store {
    fn deref_mut(&mut self) -> &mut [f64] {
        debug_assert!(self.len <= self.cap && (self.ptr.as_ptr() as usize).is_multiple_of(ALIGN));
        // SAFETY: as in `deref`, and `&mut self` makes this the only view.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

/// An allocation for `cap` elements: all zero when `zeroed` (a mapping is
/// zero either way). Aborts through `handle_alloc_error` when memory is out.
fn allocate(cap: usize, zeroed: bool) -> NonNull<f64> {
    let bytes = bytes_of(cap);
    if bytes == 0 {
        return NonNull::<Line>::dangling().cast();
    }
    let layout = heap_layout(bytes);
    let raw = if is_mapped(bytes) {
        sys::map(bytes)
    } else if zeroed {
        // SAFETY: `layout` has a non-zero size (checked above).
        unsafe { alloc::alloc_zeroed(layout) }
    } else {
        // SAFETY: `layout` has a non-zero size (checked above).
        unsafe { alloc::alloc(layout) }
    };
    let Some(ptr) = NonNull::new(raw.cast::<f64>()) else {
        alloc::handle_alloc_error(layout)
    };
    debug_assert!((raw as usize).is_multiple_of(if is_mapped(bytes) { HUGE_BYTES } else { ALIGN }));
    shadow::made(raw as usize, bytes);
    ptr
}

/// Give back what [`allocate`]`(cap, _)` returned.
fn release(ptr: NonNull<f64>, cap: usize) {
    let bytes = bytes_of(cap);
    if bytes == 0 {
        return;
    }
    shadow::released(ptr.as_ptr() as usize, bytes);
    if is_mapped(bytes) {
        sys::unmap(ptr.as_ptr().cast(), bytes);
    } else {
        // SAFETY: `ptr` came from `alloc`/`alloc_zeroed` with this very
        // layout (`cap` is stored at allocation and never changed), and
        // `Store::drop` is its only release.
        unsafe { alloc::dealloc(ptr.as_ptr().cast(), heap_layout(bytes)) }
    }
}

/// Debug builds keep the address and size of every live allocation, so a
/// release that does not match one — a second release, a wrong length — is
/// caught where it happens.
mod shadow {
    use std::collections::BTreeMap;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static LIVE: Mutex<BTreeMap<usize, usize>> = Mutex::new(BTreeMap::new());

    /// The map is valid after every statement that touches it, so a lock
    /// poisoned by a failed assert below is still usable.
    fn live() -> MutexGuard<'static, BTreeMap<usize, usize>> {
        LIVE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(super) fn made(addr: usize, bytes: usize) {
        if cfg!(debug_assertions) {
            let previous = live().insert(addr, bytes);
            assert_eq!(previous, None, "allocator returned a live address");
        }
    }

    pub(super) fn released(addr: usize, bytes: usize) {
        if cfg!(debug_assertions) {
            let made = live().remove(&addr);
            assert_eq!(
                made,
                Some(bytes),
                "{addr:#x} is not a live allocation of {bytes} bytes"
            );
        }
    }

    /// The size the registry holds for `addr` (always `None` in release
    /// builds, which keep no registry).
    #[cfg(test)]
    pub(super) fn bytes_at(addr: usize) -> Option<usize> {
        live().get(&addr).copied()
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use super::HUGE_BYTES;
    use std::ffi::{c_int, c_void};

    /// Mapping lengths are rounded up to this, the largest base page Linux
    /// runs with, so a trim never needs the page size. Pages past the data
    /// are never touched, hence never resident.
    const MAP_GRANULE: usize = 64 << 10;

    // Declared here rather than through a crate: std already links libc.
    // The constants are the Linux ABI of the two architectures of the `cfg`.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        #[cfg(test)]
        fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> c_int;
        #[cfg(test)]
        fn sysconf(name: c_int) -> std::ffi::c_long;
        fn mremap(
            old_addr: *mut c_void,
            old_len: usize,
            new_len: usize,
            flags: c_int,
            ...
        ) -> *mut c_void;
    }
    const PROT_READ_WRITE: c_int = 0x1 | 0x2;
    const MAP_PRIVATE_ANONYMOUS: c_int = 0x02 | 0x20;
    const MADV_HUGEPAGE: c_int = 14;
    const MREMAP_MAYMOVE: c_int = 1;
    const MREMAP_FIXED: c_int = 2;

    /// The length actually mapped for `bytes` of data.
    fn mapped_len(bytes: usize) -> usize {
        bytes
            .checked_next_multiple_of(MAP_GRANULE)
            .expect("store capacity overflows usize")
    }

    /// A fresh (zero) private mapping of exactly `len` bytes (a multiple
    /// of the granule), starting on a 2 MiB boundary. Null when the kernel
    /// refuses the mapping.
    fn reserve(len: usize) -> *mut u8 {
        let Some(span) = len.checked_add(HUGE_BYTES) else {
            return std::ptr::null_mut();
        };
        // SAFETY: a null hint with MAP_PRIVATE|MAP_ANONYMOUS touches no
        // existing mapping; the kernel picks a free range or fails.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                span,
                PROT_READ_WRITE,
                MAP_PRIVATE_ANONYMOUS,
                -1,
                0,
            )
        };
        if base as isize == -1 {
            return std::ptr::null_mut();
        }
        let head = (base as usize).wrapping_neg() % HUGE_BYTES;
        let start = base.cast::<u8>().wrapping_add(head);
        let tail = span - head - len;
        debug_assert!((start as usize).is_multiple_of(HUGE_BYTES) && head + len + tail == span);
        // SAFETY: `[base, base + head)` and `[start + len, start + len +
        // tail)` are the two ends of the span mapped just above — page
        // aligned (`head`, `len` and `span` are multiples of the granule),
        // inside it, and referenced by nothing yet — so unmapping them
        // leaves exactly `[start, start + len)`. A failing `munmap` only
        // leaves address space reserved.
        unsafe {
            if head > 0 {
                munmap(base, head);
            }
            if tail > 0 {
                munmap(start.wrapping_add(len).cast(), tail);
            }
        }
        start
    }

    /// A fresh (zero) private mapping of at least `bytes`, starting on a
    /// 2 MiB boundary, huge-page advised as a whole. Null when the kernel
    /// refuses the mapping.
    pub(super) fn map(bytes: usize) -> *mut u8 {
        let len = mapped_len(bytes);
        let start = reserve(len);
        if !start.is_null() {
            // SAFETY: `[start, start + len)` is the mapping just made. The
            // advice changes how the kernel backs the range, not its
            // contents; a refusal (THP off or absent) leaves an ordinary
            // mapping, so the result is ignored. Advising the tail past the
            // last whole huge page too keeps the mapping one VMA, which is
            // what lets [`remap`] move it with one call.
            unsafe {
                madvise(start.cast(), len, MADV_HUGEPAGE);
            }
        }
        start
    }

    /// Move what [`map`]`(old)` returned at `start` to a fresh 2 MiB-aligned
    /// mapping as [`map`]`(new)` would make it (`new > old`): the pages
    /// move, nothing is copied, and `[start, start + old)` is gone. Null
    /// when the kernel refuses; the old mapping is then whole and unmoved.
    pub(super) fn remap(start: *mut u8, old: usize, new: usize) -> *mut u8 {
        assert!(new > old, "a store only grows");
        debug_assert!((start as usize).is_multiple_of(HUGE_BYTES));
        let len = mapped_len(new);
        let dest = reserve(len);
        if dest.is_null() {
            return dest;
        }
        #[allow(unused_mut)]
        let mut flags = MREMAP_MAYMOVE | MREMAP_FIXED;
        #[cfg(test)]
        if super::tally::move_refused() {
            flags = MREMAP_FIXED; // without MAYMOVE: EINVAL
        }
        // SAFETY: `[start, start + mapped_len(old))` lies in one VMA
        // (`map` advises it whole) and is owned by the caller, which forms
        // no reference into it while the call runs and none after a
        // success; `[dest, dest + len)` was reserved just above, so
        // MREMAP_FIXED replaces only memory this function owns, and the two
        // ranges are disjoint. The move keeps the contents and the
        // huge-page advice; both ends are 2 MiB aligned, so huge pages move
        // whole. On failure the kernel leaves the source whole; the
        // reservation is then left alone — the kernel may have unmapped it
        // first, and the range may belong to another thread by now — at the
        // cost of its address space only (it is never touched, so never
        // resident).
        let moved = unsafe {
            mremap(
                start.cast(),
                mapped_len(old),
                len,
                flags,
                dest.cast::<c_void>(),
            )
        };
        if moved as isize == -1 {
            return std::ptr::null_mut();
        }
        debug_assert_eq!(moved.cast::<u8>(), dest);
        dest
    }

    /// Shorten what [`map`]`(old)` returned at `start` to what
    /// [`map`]`(new)` would have kept (`new ≤ old`): the granules past the
    /// new length are unmapped, and their pages leave the resident set.
    pub(super) fn trim(start: *mut u8, old: usize, new: usize) {
        debug_assert!((start as usize).is_multiple_of(HUGE_BYTES) && new <= old);
        let (keep, had) = (mapped_len(new), mapped_len(old));
        if keep < had {
            // SAFETY: `[start + keep, start + had)` is the granule-aligned
            // end of the mapping `map(old)` kept, owned by the caller
            // (`Store::relength`, through `&mut`), which forms no reference
            // past the new length afterwards. What stays is exactly what
            // `map(new)` keeps, so `unmap(start, new)` later releases it.
            let rc = unsafe { munmap(start.wrapping_add(keep).cast(), had - keep) };
            debug_assert_eq!(rc, 0, "munmap of a store's tail failed");
        }
    }

    /// Resident bytes of what [`map`]`(bytes)` returned at `start`.
    #[cfg(test)]
    pub(super) fn resident(start: *mut u8, bytes: usize) -> usize {
        const SC_PAGESIZE: c_int = 30;
        // SAFETY: `sysconf` reads a constant of the running kernel.
        let page = usize::try_from(unsafe { sysconf(SC_PAGESIZE) }).expect("page size");
        let len = mapped_len(bytes);
        let mut pages = vec![0u8; len.div_ceil(page)];
        // SAFETY: `[start, start + len)` is one live mapping (the caller's
        // store) and starts on a page; `pages` has one byte per page of it,
        // which is what `mincore` writes.
        let rc = unsafe { mincore(start.cast(), len, pages.as_mut_ptr()) };
        assert_eq!(rc, 0, "mincore of a store failed");
        pages.iter().filter(|&&p| p & 1 == 1).count() * page
    }

    /// Unmap what [`map`]`(bytes)` returned.
    pub(super) fn unmap(start: *mut u8, bytes: usize) {
        debug_assert!((start as usize).is_multiple_of(HUGE_BYTES));
        // SAFETY: `[start, start + mapped_len(bytes))` is exactly what
        // `map(bytes)` kept, the caller (`release`, from `Store::drop`)
        // owns it and forms no reference into it afterwards.
        let rc = unsafe { munmap(start.cast(), mapped_len(bytes)) };
        debug_assert_eq!(rc, 0, "munmap of a store failed");
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    pub(super) fn map(_bytes: usize) -> *mut u8 {
        unreachable!("is_mapped is false on this target")
    }
    pub(super) fn unmap(_start: *mut u8, _bytes: usize) {
        unreachable!("is_mapped is false on this target")
    }
    pub(super) fn remap(_start: *mut u8, _old: usize, _new: usize) -> *mut u8 {
        unreachable!("is_mapped is false on this target")
    }
    pub(super) fn trim(_start: *mut u8, _old: usize, _new: usize) {
        unreachable!("is_mapped is false on this target")
    }
    #[cfg(test)]
    pub(super) fn resident(_start: *mut u8, _bytes: usize) -> usize {
        unreachable!("is_mapped is false on this target")
    }
}

/// Bytes this thread's growth has copied, and a refusal to inject into its
/// next move, for the tests that check which growth moves pages.
#[cfg(test)]
pub(crate) mod tally {
    use std::cell::Cell;

    thread_local! {
        static COPIED: Cell<usize> = const { Cell::new(0) };
        static REFUSE_MOVE: Cell<bool> = const { Cell::new(false) };
    }

    pub(super) fn copied(bytes: usize) {
        COPIED.with(|c| c.set(c.get() + bytes));
    }

    /// Bytes copied by growth on this thread since the last call.
    pub(crate) fn take_copied() -> usize {
        COPIED.with(Cell::take)
    }

    /// Make this thread's next `mremap` fail.
    pub(super) fn refuse_next_move() {
        REFUSE_MOVE.with(|r| r.set(true));
    }

    /// Whether this move is to fail (once per [`refuse_next_move`]).
    pub(super) fn move_refused() -> bool {
        REFUSE_MOVE.with(Cell::take)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULE: usize = MAP_MIN_BYTES / 8;

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64 - 3.0).collect()
    }

    fn addr(s: &Store) -> usize {
        s.as_ptr() as usize
    }

    #[test]
    fn every_length_is_aligned_zero_and_writable() {
        for len in [0, 1, 7, 8, 9, RULE - 1, RULE, RULE + 1, 3 * RULE + 5] {
            let mut s = Store::zeroed(len);
            assert_eq!(s.len(), len);
            assert_eq!(addr(&s) % ALIGN, 0, "len {len}");
            if is_mapped(len * 8) {
                assert_eq!(addr(&s) % HUGE_BYTES, 0, "len {len}");
            }
            assert!(s.iter().all(|&x| x == 0.0 && x.is_sign_positive()));
            if let Some(last) = s.last_mut() {
                *last = 2.5;
            }
            s.iter_mut().step_by(4096 / 8).for_each(|x| *x += 1.0);
            let copy = Store::copy_of(&s);
            assert_eq!(addr(&copy) % ALIGN, 0);
            assert_eq!(&*copy, &*s, "len {len}");
        }
    }

    #[test]
    fn the_size_rule_is_one_byte_sharp() {
        assert!(!is_mapped(MAP_MIN_BYTES - 1));
        assert_eq!(is_mapped(MAP_MIN_BYTES), MAPS);
        // One element (the smallest step a store can take) under and over.
        let under = Store::zeroed(RULE - 1);
        let over = Store::zeroed(RULE);
        assert_eq!(addr(&under) % ALIGN, 0);
        if MAPS {
            assert_eq!(addr(&over) % HUGE_BYTES, 0);
        }
    }

    #[test]
    fn growth_doubles_and_keeps_every_element() {
        // From under the rule, across it, through more than two doublings.
        let whole = ramp(5 * RULE);
        let mut s = Store::copy_of(&whole[..RULE / 2]);
        let (mut moves, mut at) = (0, RULE / 2);
        let step = RULE / 8 + 3;
        while at < whole.len() {
            let next = (at + step).min(whole.len());
            let (before, cap) = (addr(&s), s.capacity());
            s.extend_from_slice(&whole[at..next]);
            if s.capacity() != cap {
                assert!(
                    s.capacity() >= 2 * cap,
                    "geometric: {cap} → {}",
                    s.capacity()
                );
                moves += 1;
            } else {
                assert_eq!(addr(&s), before, "no move while there is room");
            }
            assert_eq!(addr(&s) % ALIGN, 0);
            at = next;
        }
        assert_eq!(&*s, &whole[..]);
        assert!((3..=5).contains(&moves), "{moves} moves for a 10× growth");
        if MAPS {
            assert_eq!(addr(&s) % HUGE_BYTES, 0);
        }
    }

    #[test]
    fn growth_copies_into_a_mapping_once_then_moves_pages() {
        let whole = ramp(9 * RULE + 5);
        tally::take_copied();
        // Heap to mapping: the old length is copied, once.
        let mut s = Store::copy_of(&whole[..RULE / 2]);
        s.extend_from_slice(&whole[RULE / 2..RULE + 3]);
        assert!(is_mapped(bytes_of(s.capacity())));
        assert_eq!(tally::take_copied(), bytes_of(RULE / 2));
        // Mapping to mapping, at capacities off the 2 MiB grid (a tail
        // past the last whole huge page moves along with the rest).
        let (mut at, mut moves) = (RULE + 3, 0);
        for next in [2 * RULE + 77, 4 * RULE + 1, 9 * RULE + 5] {
            let cap = s.capacity();
            s.extend_from_slice(&whole[at..next]);
            assert_ne!(s.capacity() % RULE, 0, "a capacity on the 2 MiB grid");
            moves += usize::from(s.capacity() != cap);
            assert_eq!(&*s, &whole[..next]);
            if MAPS {
                assert_eq!(addr(&s) % HUGE_BYTES, 0, "length {next}");
            }
            at = next;
        }
        assert_eq!(moves, 3);
        if MAPS {
            assert_eq!(tally::take_copied(), 0, "a mapping's growth copied");
        }
    }

    #[test]
    fn a_refused_move_copies_and_keeps_every_element() {
        let whole = ramp(5 * RULE + 11);
        let mut s = Store::copy_of(&whole[..RULE + 11]);
        tally::take_copied();
        tally::refuse_next_move();
        s.extend_from_slice(&whole[RULE + 11..2 * RULE]);
        assert_eq!(&*s, &whole[..2 * RULE]);
        assert_eq!(tally::take_copied(), bytes_of(RULE + 11));
        if MAPS {
            assert!(!tally::move_refused(), "the move did not run");
            assert_eq!(addr(&s) % HUGE_BYTES, 0);
        }
        // The copy is an ordinary mapping: the next growth moves it.
        s.extend_from_slice(&whole[2 * RULE..]);
        assert_eq!(&*s, &whole[..]);
        if MAPS {
            assert_eq!(tally::take_copied(), 0);
        }
        tally::move_refused();
    }

    #[test]
    fn a_relength_that_grows_keeps_the_prefix_and_copies_nothing() {
        if !MAPS {
            return;
        }
        let whole = ramp(3 * RULE + 11);
        for from in [RULE, 2 * RULE + 5] {
            let mut s = Store::copy_of(&whole[..from]);
            tally::take_copied();
            s.relength(3 * RULE + 11);
            assert_eq!(tally::take_copied(), 0, "a re-length copied");
            assert_eq!((s.len(), s.capacity()), (3 * RULE + 11, 3 * RULE + 11));
            assert_eq!(
                &s[..from],
                &whole[..from],
                "the prefix moved with its pages"
            );
            assert!(s[from..].iter().all(|&x| x == 0.0), "the new tail is fresh");
            assert_eq!(addr(&s) % HUGE_BYTES, 0);
            assert_eq!(shadow::bytes_at(addr(&s)).is_some(), cfg!(debug_assertions));
            s.copy_from_slice(&whole); // every new page is writable
        }
    }

    #[test]
    fn a_relength_that_shrinks_unmaps_its_tail() {
        if !MAPS {
            return;
        }
        let mut s = Store::copy_of(&ramp(3 * RULE));
        let at = addr(&s);
        assert!(s.resident_bytes() >= 3 * MAP_MIN_BYTES - (64 << 10));
        for len in [2 * RULE + 4096, RULE] {
            s.relength(len);
            assert_eq!((addr(&s), s.len(), s.capacity()), (at, len, len));
            assert_eq!(&s[..], &ramp(3 * RULE)[..len], "the prefix stays");
            // At most the granule (64 KiB) past the new length stays mapped.
            let kept = bytes_of(len).next_multiple_of(64 << 10);
            let resident = s.resident_bytes();
            assert!(resident <= kept, "{resident} resident past {kept}");
            assert!(resident >= bytes_of(len) - 4096, "the prefix is resident");
        }
        // And it grows back over the unmapped granules, zero.
        s.relength(2 * RULE);
        assert!(s[RULE..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn the_registry_follows_every_relength() {
        if !(MAPS && cfg!(debug_assertions)) {
            return;
        }
        let mut s = Store::zeroed(2 * RULE);
        for len in [3 * RULE + 8, RULE + 8, RULE, 5 * RULE] {
            let before = (addr(&s), bytes_of(s.capacity()));
            s.relength(len);
            if addr(&s) != before.0 {
                assert_eq!(shadow::bytes_at(before.0), None, "the old address is gone");
            }
            assert_eq!(shadow::bytes_at(addr(&s)), Some(bytes_of(len)));
        }
        // The drop releases the last size, which the registry checks.
        let at = addr(&s);
        drop(s);
        assert_eq!(shadow::bytes_at(at), None);
    }

    #[test]
    fn extend_with_writes_the_tail_in_place() {
        let whole = ramp(3 * RULE + 7);
        // Under the rule, across it, and between two mapped capacities.
        for cut in [5, RULE / 2, RULE + 3] {
            let mut s = Store::copy_of(&whole[..cut]);
            let mut at = cut;
            for step in [RULE / 4 + 1, RULE, 2 * RULE] {
                let next = (at + step).min(whole.len());
                s.extend_with(next - at, |tail| {
                    assert_eq!(tail.len(), next - at);
                    tail.copy_from_slice(&whole[at..next]);
                });
                at = next;
            }
            assert_eq!(&*s, &whole[..at], "cut {cut}");
        }
        let mut s = Store::default();
        s.extend_with(0, |tail| assert!(tail.is_empty()));
        s.extend_with(3, |tail| tail.copy_from_slice(&[1.0, 2.0, 3.0]));
        assert_eq!(&*s, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn growing_an_empty_store_and_appending_nothing() {
        let mut s = Store::default();
        s.extend_from_slice(&[]);
        assert!(s.is_empty());
        s.extend_from_slice(&[1.0, 2.0]);
        s.extend_from_slice(&[]);
        s.extend_from_slice(&[3.0]);
        assert_eq!(&*s, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn stores_move_between_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Store>();
        let s = Store::copy_of(&ramp(RULE + 9));
        let sum: f64 = std::thread::spawn(move || s.iter().sum()).join().unwrap();
        assert_eq!(sum, ramp(RULE + 9).iter().sum::<f64>());
    }
}
