//! Heap held by a map-reduce job's shuffle: a shuffled record is stored
//! once between `emit` and `reduce_fn`, so a job's peak stays near its
//! payload. One test in its own binary — the counters are process-wide.

// A `GlobalAlloc` cannot be written without `unsafe`; this binary is the
// workspace's only one.
#![allow(unsafe_code)]

use falcon_dataflow::{run_map_reduce, Cluster, ClusterConfig, Emitter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct CountingAlloc;

// Relaxed is enough: both are statistics that publish no other data.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn note(change: isize) {
    let live = LIVE.fetch_add(change, Ordering::Relaxed) + change;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's own arguments,
// so `System`'s guarantees carry over; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
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

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Pairs the job shuffles, and the bytes they are: `(u32, u32)`.
const PAIRS: usize = 400_000;
const PAYLOAD: usize = PAIRS * 8;

#[test]
fn a_shuffled_pair_is_held_about_once() {
    // The probe job's shape: few keys next to the pairs (a reduce task's
    // grouped copy of its own partition is small against the whole
    // shuffle), every split feeding every partition.
    const SPLITS: usize = 10;
    const KEYS: u32 = 2_000;
    let per_split = PAIRS / SPLITS;
    for threads in [1usize, 2] {
        let cluster = Cluster::new(ClusterConfig::default()).with_threads(threads);
        let splits: Vec<Vec<u32>> = (0..SPLITS)
            .map(|s| (0..per_split).map(|i| (s * per_split + i) as u32).collect())
            .collect();
        let baseline = LIVE.load(Ordering::Relaxed);
        PEAK.store(baseline, Ordering::Relaxed);
        let out = run_map_reduce(
            &cluster,
            splits,
            cluster.reduce_partitions(),
            |xs: &[u32], e: &mut Emitter<u32, u32>| xs.iter().for_each(|&x| e.emit(x % KEYS, x)),
            |_: &u32, vs: Vec<u32>, out: &mut Vec<usize>| out.push(vs.len()),
        )
        .expect("job");
        let peak = (PEAK.load(Ordering::Relaxed) - baseline) as usize;
        assert_eq!(out.stats.shuffled_records, PAIRS);
        assert_eq!(out.output.iter().sum::<usize>(), PAIRS);
        assert!(
            peak <= PAYLOAD * 3 / 2,
            "{threads} thread(s): the job peaked at {peak} B, {:.2}x its {PAYLOAD} B of pairs",
            peak as f64 / PAYLOAD as f64
        );
    }
}
