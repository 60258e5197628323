//! A counting wrapper around the system allocator.
//!
//! Wall time on the benchmark box swings by tens of percent between
//! identical invocations; the number of heap calls, the bytes they request
//! and the high-water mark of live bytes repeat exactly. They are the
//! benchmark's noise-free cost metrics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Heap counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeapStats {
    /// `alloc` + `alloc_zeroed` + `realloc` calls so far.
    pub calls: u64,
    /// Bytes requested by those calls (a `realloc` requests its new size).
    pub bytes: u64,
    /// Bytes currently live.
    pub live: u64,
    /// High-water mark of `live` since the last [`Counting::reset_peak`].
    pub peak: u64,
}

impl HeapStats {
    /// Calls and bytes spent since `earlier`; `live`/`peak` are `self`'s.
    pub fn since(self, earlier: HeapStats) -> HeapStats {
        HeapStats {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
            ..self
        }
    }
}

/// The system allocator with counters. The counters are statistics that
/// publish no other data, hence `Relaxed`.
pub struct Counting {
    calls: AtomicU64,
    bytes: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

impl Counting {
    pub const fn new() -> Self {
        Self {
            calls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    pub fn stats(&self) -> HeapStats {
        HeapStats {
            calls: self.calls.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            live: self.live.load(Relaxed),
            peak: self.peak.load(Relaxed),
        }
    }

    /// Restarts the high-water mark from the current live size.
    pub fn reset_peak(&self) {
        self.peak.store(self.live.load(Relaxed), Relaxed);
    }

    fn requested(&self, size: usize) {
        self.calls.fetch_add(1, Relaxed);
        self.bytes.fetch_add(size as u64, Relaxed);
    }

    fn grew(&self, by: usize) {
        let live = self.live.fetch_add(by as u64, Relaxed) + by as u64;
        self.peak.fetch_max(live, Relaxed);
    }

    fn shrank(&self, by: usize) {
        self.live.fetch_sub(by as u64, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the wrapper only updates counters and never
// touches the returned memory. Failed calls (null) are not counted as live.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        let p = unsafe { System.alloc(layout) };
        self.requested(layout.size());
        if !p.is_null() {
            self.grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        self.requested(layout.size());
        if !p.is_null() {
            self.grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator only hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) };
        self.shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`; `new_size` is the caller's obligation.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        self.requested(new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                self.grew(new_size - layout.size());
            } else {
                self.shrank(layout.size() - new_size);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounts_alloc_realloc_dealloc_and_peak_reset() {
        // A private instance, so parallel tests do not disturb the counts.
        let a = Counting::new();
        let l64 = Layout::from_size_align(64, 8).unwrap();
        // SAFETY: layouts are non-zero-sized and every block is released
        // with the layout (or realloc'd size) it was obtained with.
        unsafe {
            let p = a.alloc(l64);
            assert!(!p.is_null());
            assert_eq!(
                a.stats(),
                HeapStats {
                    calls: 1,
                    bytes: 64,
                    live: 64,
                    peak: 64
                }
            );

            let p = a.realloc(p, l64, 256); // grow
            assert_eq!(
                a.stats(),
                HeapStats {
                    calls: 2,
                    bytes: 320,
                    live: 256,
                    peak: 256
                }
            );

            let l256 = Layout::from_size_align(256, 8).unwrap();
            let p = a.realloc(p, l256, 32); // shrink: peak stays
            assert_eq!(
                a.stats(),
                HeapStats {
                    calls: 3,
                    bytes: 352,
                    live: 32,
                    peak: 256
                }
            );

            a.reset_peak();
            assert_eq!(a.stats().peak, 32);

            let q = a.alloc_zeroed(l64);
            assert_eq!(*q, 0);
            assert_eq!(
                a.stats(),
                HeapStats {
                    calls: 4,
                    bytes: 416,
                    live: 96,
                    peak: 96
                }
            );

            a.dealloc(q, l64);
            a.dealloc(p, Layout::from_size_align(32, 8).unwrap());
            assert_eq!(
                a.stats(),
                HeapStats {
                    calls: 4,
                    bytes: 416,
                    live: 0,
                    peak: 96
                }
            );
        }
    }

    #[test]
    fn since_subtracts_flows_and_keeps_levels() {
        let before = HeapStats {
            calls: 10,
            bytes: 1000,
            live: 50,
            peak: 70,
        };
        let after = HeapStats {
            calls: 15,
            bytes: 1800,
            live: 60,
            peak: 90,
        };
        assert_eq!(
            after.since(before),
            HeapStats {
                calls: 5,
                bytes: 800,
                live: 60,
                peak: 90
            }
        );
    }
}
