//! A counting global allocator: every allocation (and reallocation)
//! bumps a per-thread counter, so a measured section reports allocations
//! per probe for the thread that issued the probes, apart from the server
//! threads sharing the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus a per-thread allocation counter.
pub struct Counting;

thread_local! {
    // `Cell<u64>` has no destructor, so touching it never allocates and
    // stays usable while a thread is being torn down.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only during thread-local teardown; such late
    // allocations go uncounted.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// is a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller passed, non-zero-sized per contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: same layout the caller passed.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: `ptr` came from this allocator, i.e. from `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` are the pair `System` handed out.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `ptr` came from `System` with `layout`, per the caller.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: arguments forwarded unchanged to the allocator that owns `ptr`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made by the calling thread so far.
pub fn this_thread() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}
