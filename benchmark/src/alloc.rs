//! Counting wrapper around the system allocator: live bytes and their
//! high-water mark, so a timed region can report the peak heap it added.
//!
//! `falcon-bench`'s `ingest` binary counts every call on two shared
//! atomics. Here that doubled the wall of `gen_fvs` (two cores allocating
//! one vector per pair fight over the counters' cache line), so each
//! thread batches its own changes and publishes them only once they pass
//! [`FLUSH_BYTES`]. The reported peak can miss at most that much per
//! thread — noise against peaks of tens of megabytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering};

// Installed by `main.rs`, except in unit tests.
#[cfg_attr(test, allow(dead_code))]
pub struct TrackingAlloc;

/// A thread's unpublished change may not exceed this, either way.
const FLUSH_BYTES: isize = 64 * 1024;

// Relaxed is enough: both are statistics that publish no other data.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor outlives the thread.
    static UNPUBLISHED: Cell<isize> = const { Cell::new(0) };
}

fn note(change: isize) {
    // `try_with` only fails while a thread is being torn down; its last
    // few bytes then go uncounted.
    let _ = UNPUBLISHED.try_with(|u| {
        let pending = u.get() + change;
        if pending.abs() < FLUSH_BYTES {
            u.set(pending);
        } else {
            u.set(0);
            let live = LIVE.fetch_add(pending, Ordering::Relaxed) + pending;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's own arguments,
// so `System`'s guarantees carry over; the counters never touch the memory.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Marks the start of a region whose peak live heap is wanted.
pub struct PeakScope {
    baseline: isize,
}

impl PeakScope {
    /// Reset the high-water mark to the current live size. Scopes do not
    /// nest: starting one forgets the peak of any scope still open.
    pub fn start() -> Self {
        let baseline = LIVE.load(Ordering::Relaxed);
        PEAK.store(baseline, Ordering::Relaxed);
        Self { baseline }
    }

    /// Peak live bytes above the level at `start`.
    pub fn peak_bytes(&self) -> usize {
        (PEAK.load(Ordering::Relaxed) - self.baseline).max(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install `TrackingAlloc`, so drive the
    // bookkeeping directly. One test only: the counters are process-wide.
    #[test]
    fn a_scope_reports_the_peak_above_its_baseline() {
        note(10 * FLUSH_BYTES);
        let scope = PeakScope::start();
        assert_eq!(scope.peak_bytes(), 0);
        note(3 * FLUSH_BYTES);
        note(-2 * FLUSH_BYTES);
        assert_eq!(scope.peak_bytes(), 3 * FLUSH_BYTES as usize);
        // Small changes wait in the thread's batch...
        note(FLUSH_BYTES / 2);
        assert_eq!(scope.peak_bytes(), 3 * FLUSH_BYTES as usize);
        // ...until together they pass the threshold.
        note(FLUSH_BYTES / 2 + 2 * FLUSH_BYTES);
        assert_eq!(scope.peak_bytes(), 4 * FLUSH_BYTES as usize);
        // Falling below the baseline is not a negative peak.
        let later = PeakScope::start();
        note(-5 * FLUSH_BYTES);
        assert_eq!(later.peak_bytes(), 0);
    }
}
