//! Heap-allocation accounting and peak RSS.
//!
//! With the `alloc-count` feature enabled this module installs a global
//! allocator that wraps [`std::alloc::System`] and counts every
//! allocation (and reallocation) with a relaxed atomic — cheap enough to
//! leave on for timed runs. `tests/alloc_steady.rs` divides the count
//! delta across a steady-state dumbbell run by the packets forwarded and
//! asserts the data path stays allocation-free once the packet pool is
//! warm; `tva-node`'s `tests/loopback.rs` asserts the same of the daemon.
//! The repo benchmark (`bash benchmark/run.sh`, `BENCHMARK.json`) reads
//! `peak_rss_mb` through [`peak_rss_kb`].
//!
//! Without the feature the counters read as zero and
//! [`counting_enabled`] reports `false`; callers skip the metric rather
//! than reporting a misleading 0. Peak RSS ([`peak_rss_kb`]) is plain
//! procfs parsing and works regardless of the feature.

#[cfg(feature = "alloc-count")]
mod counting {
    #![allow(unsafe_code)]

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
    pub static FREES: AtomicU64 = AtomicU64::new(0);

    /// A [`System`] wrapper that counts calls. Registered as the global
    /// allocator for every target in this crate when `alloc-count` is on.
    pub struct CountingAlloc;

    // SAFETY: defers entirely to `System`; the only addition is a relaxed
    // counter bump, which allocates nothing and cannot unwind.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            FREES.fetch_add(1, Relaxed);
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // A realloc that moves is a fresh allocation from the data
            // path's point of view; counting every call overstates rather
            // than hides churn, which is the conservative direction for a
            // regression gate.
            ALLOCS.fetch_add(1, Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Relaxed);
            unsafe { System.alloc_zeroed(layout) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

/// Whether allocation counting is compiled in (the `alloc-count` feature).
pub const fn counting_enabled() -> bool {
    cfg!(feature = "alloc-count")
}

/// Heap allocations observed so far (0 when counting is disabled).
pub fn alloc_count() -> u64 {
    #[cfg(feature = "alloc-count")]
    {
        counting::ALLOCS.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        0
    }
}

/// Heap frees observed so far (0 when counting is disabled).
pub fn free_count() -> u64 {
    #[cfg(feature = "alloc-count")]
    {
        counting::FREES.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        0
    }
}

/// This process's peak resident set size in KiB (`VmHWM` from
/// `/proc/self/status`), or `None` off Linux / if procfs is unreadable.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resets the kernel's RSS high-water mark for this process (writes `5`
/// to `/proc/self/clear_refs`), so the next [`peak_rss_kb`] reads the
/// peak of the *following* phase instead of the whole process lifetime —
/// without this, a scale run's "peak RSS" is whatever any earlier phase
/// happened to touch. Returns whether the reset took effect (`false` off
/// Linux or when procfs is read-only); callers should then fall back to
/// reporting a before/after delta.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(kb) = peak_rss_kb() {
            assert!(kb > 0, "a running process has resident memory");
        }
    }

    #[cfg(feature = "alloc-count")]
    #[test]
    fn counter_observes_a_boxed_allocation() {
        let before = alloc_count();
        let b = std::hint::black_box(Box::new([0u8; 1024]));
        let after = alloc_count();
        drop(b);
        assert!(after > before, "Box::new must be counted ({before} -> {after})");
        assert!(free_count() > 0, "the drop above must be counted");
    }
}
