//! A counting wrapper around the system allocator for the
//! allocation-regression tests
//! (`crates/{sim,copss,core,names,ndn}/tests/alloc_*.rs`), which
//! `#[path]`-include this file: integration tests sit outside the
//! libraries' `#![forbid(unsafe_code)]`, as `benchmark/src/alloc.rs` does.
//!
//! Calls are counted per thread, so the test harness's own threads and
//! tests running beside this one never show up in a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator neither allocates nor outlives the thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// `alloc` + `alloc_zeroed` + `realloc` calls made by this thread so far.
pub fn heap_calls() -> u64 {
    CALLS.with(Cell::get)
}

fn count() {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

/// The system allocator, counting calls.
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the wrapper only bumps a thread-local counter and
// never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator only hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as in `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
