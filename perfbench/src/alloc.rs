//! A counting global allocator: every heap request of the process —
//! the load generator, the service, and whatever threads the service
//! spawns — bumps two relaxed counters. Allocation counts are a pure
//! function of (code, seed), so they give later performance claims a
//! path that does not depend on the wall clock.
//!
//! The allocator lives only in this binary; no crate of the
//! repository is built against it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two relaxed atomic adds per request.
pub struct CountingAlloc;

/// The counters publish no other data, so `Relaxed` is enough.
fn count(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract the caller already upholds; the
// counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: same block, layout and size, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same block and layout, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap requests and requested bytes since process start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    pub calls: u64,
    pub bytes: u64,
}

impl AllocSnapshot {
    pub fn now() -> Self {
        AllocSnapshot {
            calls: CALLS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// Requests made between `earlier` and `self`.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests share the process-wide counters with every other test
    /// thread, so only lower bounds are exact.
    #[test]
    fn counts_requests_and_bytes() {
        let before = AllocSnapshot::now();
        let block: Vec<u8> = std::hint::black_box(Vec::with_capacity(4096));
        let mut grown: Vec<u64> = std::hint::black_box(Vec::with_capacity(8));
        grown.extend(0..1024); // forces at least one realloc
        let delta = AllocSnapshot::now().since(before);
        drop((block, grown));
        assert!(delta.calls >= 3, "alloc + alloc + realloc, got {delta:?}");
        assert!(delta.bytes >= 4096 + 64 + 1024 * 8, "got {delta:?}");
    }
}
