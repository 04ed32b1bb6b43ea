//! Counting global allocator: live bytes with a high-water mark, plus
//! allocation count and allocated bytes. `peak_mem_mb` and the
//! `alloc.*` layer metrics read it; byte counts are requested sizes,
//! not OS RSS, so they do not depend on the host's allocator state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counting wrapper over the system allocator.
pub struct CountingAlloc {
    live: AtomicUsize,
    peak: AtomicUsize,
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl CountingAlloc {
    /// A fresh counter, for `#[global_allocator]`.
    pub const fn new() -> Self {
        CountingAlloc {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// High-water mark of live bytes since process start.
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// `(allocations, bytes allocated)` since process start; callers
    /// difference two readings.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.allocs.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }

    fn grow(&self, by: usize) {
        let now = self.live.fetch_add(by, Ordering::Relaxed) + by;
        self.peak.fetch_max(now, Ordering::Relaxed);
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(by as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are side effects only and
// never influence the pointers or layouts passed through.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.live.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                self.grow(new_size - layout.size());
            } else {
                self.live
                    .fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_keeps_the_high_water_mark_after_a_free() {
        // A private instance driven by hand: the global one is shared
        // with every other test thread.
        let a = CountingAlloc::new();
        let big = Layout::from_size_align(1 << 20, 8).unwrap();
        let small = Layout::from_size_align(64, 8).unwrap();
        // SAFETY: each pointer is freed exactly once with the layout it
        // was allocated with.
        unsafe {
            let p = a.alloc(big);
            let q = a.alloc(small);
            assert_eq!(a.peak(), (1 << 20) + 64);
            a.dealloc(p, big);
            assert_eq!(a.peak(), (1 << 20) + 64, "peak survives the free");
            let r = a.realloc(q, small, 128);
            a.dealloc(r, Layout::from_size_align(128, 8).unwrap());
        }
        assert_eq!(a.live.load(Ordering::Relaxed), 0);
        assert_eq!(a.totals(), (3, (1 << 20) + 64 + 64));
    }
}
