//! Peak resident set size: the repo benchmark (`bash benchmark/run.sh`,
//! `BENCHMARK.json`) reads `peak_rss_mb` through [`peak_rss_kb`], after
//! [`reset_peak_rss`] has started a fresh high-water mark. Both are plain
//! procfs reads and writes. Allocation counting lives in the root
//! `tests/zero_alloc.rs`, whose test binary installs its own counting
//! global allocator.

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
}
