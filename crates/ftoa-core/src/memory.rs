//! Deterministic memory accounting for the algorithms' data structures.
//!
//! The paper reports the memory cost of each algorithm (Figures 4–6, bottom
//! rows). Reproducing OS-level RSS measurements is noisy and
//! allocator-dependent, so instead each algorithm reports the peak size of
//! the data structures it keeps alive, computed with the helpers below: the
//! figure is the same on every run and host, so it can be compared across
//! algorithms. A small constant base cost is added to model the runtime
//! overhead every algorithm shares.

use std::mem::size_of;

/// Base overhead added to every algorithm's estimate (buffers, the event
/// stream cursor, bookkeeping), in bytes.
pub const BASE_OVERHEAD_BYTES: usize = 512 * 1024;

/// Tracks the peak of a running byte count.
#[derive(Debug, Clone, Default)]
pub struct MemoryTracker {
    current: usize,
    peak: usize,
}

impl MemoryTracker {
    /// Create a tracker with zero usage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a tracker starting at a fixed baseline (e.g. a prebuilt guide).
    pub fn with_baseline(bytes: usize) -> Self {
        Self { current: bytes, peak: bytes }
    }

    /// Record an allocation of `bytes`.
    pub fn allocate(&mut self, bytes: usize) {
        self.current += bytes;
        if self.current > self.peak {
            self.peak = self.current;
        }
    }

    /// Record a release of `bytes` (saturating).
    pub fn release(&mut self, bytes: usize) {
        self.current = self.current.saturating_sub(bytes);
    }

    /// Current live bytes.
    pub fn current(&self) -> usize {
        self.current
    }

    /// Peak live bytes observed, plus the shared base overhead.
    pub fn peak_with_overhead(&self) -> usize {
        self.peak + BASE_OVERHEAD_BYTES
    }
}

/// Estimated bytes used to store `n` elements of type `T` in a `Vec`.
pub fn vec_bytes<T>(n: usize) -> usize {
    size_of::<T>() * n + size_of::<Vec<T>>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_records_peak() {
        let mut t = MemoryTracker::new();
        t.allocate(100);
        t.allocate(200);
        t.release(250);
        t.allocate(10);
        assert_eq!(t.current(), 60);
        assert_eq!(t.peak_with_overhead(), 300 + BASE_OVERHEAD_BYTES);
    }

    #[test]
    fn release_saturates_at_zero() {
        let mut t = MemoryTracker::with_baseline(10);
        t.release(100);
        assert_eq!(t.current(), 0);
        assert_eq!(t.peak_with_overhead(), 10 + BASE_OVERHEAD_BYTES);
    }

    #[test]
    fn size_helpers_scale_linearly() {
        assert!(vec_bytes::<u64>(100) >= 800);
        assert!(vec_bytes::<u8>(0) > 0);
    }
}
