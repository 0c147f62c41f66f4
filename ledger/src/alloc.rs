//! A counting global allocator: per-thread allocation counts and live /
//! peak heap bytes, so every span can report the allocations and the heap
//! high-water mark of the work it covers.
//!
//! The ledger binary and its test install it with
//! `#[global_allocator] static A: CountingAlloc = CountingAlloc;`. The
//! repository's library crates stay `forbid(unsafe_code)`; the one
//! `unsafe impl` lives here, in the benchmark.
//!
//! Counters are thread-local, so concurrent sweep workers never mix their
//! tallies. Memory freed on another thread than the one that allocated it
//! lowers that other thread's live count, which can go negative; spans
//! therefore report peaks relative to the live count at entry.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// [`System`] plus per-thread counters.
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn grow(count: bool, bytes: i64) {
    // `try_with`: allocations during thread teardown, after the slots are
    // gone, simply go uncounted. The slots are `const`-initialized `Cell`s
    // without destructors, so touching them never allocates.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + u64::from(count)));
    let _ = LIVE.try_with(|l| {
        let live = l.get() + bytes;
        l.set(live);
        let _ = PEAK.try_with(|p| p.set(p.get().max(live)));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds bookkeeping on thread-local `Cell`s, which
// neither allocates nor unwinds; `System` upholds the `GlobalAlloc`
// contract, so this wrapper does too.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(true, layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(true, layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        grow(false, -(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's `realloc` contract is passed through.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grow(true, new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// The calling thread's counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocations (including reallocations) made so far.
    pub allocs: u64,
    /// Bytes allocated and not yet freed on this thread.
    pub live: i64,
    /// The high-water mark of `live` since the last [`enter`].
    pub peak: i64,
}

/// Opens a measurement scope on the calling thread: returns the counters
/// as they stand and restarts the peak from the current live bytes. Pass
/// the result to [`exit`] when the scope ends.
pub fn enter() -> Snapshot {
    let s = now();
    let _ = PEAK.try_with(|p| p.set(s.live));
    s
}

/// Closes a scope opened by [`enter`]: returns `(allocations, peak heap
/// bytes above the live count at entry)` and folds the scope's peak back
/// into the enclosing scope's.
pub fn exit(at_enter: Snapshot) -> (u64, u64) {
    let s = now();
    let _ = PEAK.try_with(|p| p.set(p.get().max(at_enter.peak)));
    (
        s.allocs - at_enter.allocs,
        (s.peak - at_enter.live).max(0) as u64,
    )
}

fn now() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.try_with(Cell::get).unwrap_or(0),
        live: LIVE.try_with(Cell::get).unwrap_or(0),
        peak: PEAK.try_with(Cell::get).unwrap_or(0),
    }
}
