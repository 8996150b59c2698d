//! A counting global allocator, switched on only while the traced run
//! measures an operation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn record(size: usize) {
    if ENABLED.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics and publish no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations and bytes requested while `f` ran (counting is process-wide,
/// so only call this while no other thread of the process allocates).
pub fn count<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    ENABLED.store(true, Relaxed);
    let out = f();
    ENABLED.store(false, Relaxed);
    (out, ALLOCS.load(Relaxed) - a0, BYTES.load(Relaxed) - b0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_only_inside_the_window() {
        let (v, allocs, bytes) = super::count(|| std::hint::black_box(vec![0u8; 1000]));
        assert_eq!(v.len(), 1000);
        // The test harness may allocate on other threads, so only bound
        // from below.
        assert!(
            allocs >= 1 && bytes >= 1000,
            "{allocs} allocs, {bytes} bytes"
        );
    }
}
