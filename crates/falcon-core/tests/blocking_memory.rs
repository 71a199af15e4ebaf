//! Heap the blocking stage holds from stage to stage: what no later stage
//! reads is freed at its last reader. One test in its own binary — the
//! counters are process-wide.

// A `GlobalAlloc` cannot be written without `unsafe`; this binary and
// `falcon-dataflow/tests/shuffle_memory.rs` are the workspace's only ones.
#![allow(unsafe_code)]

use falcon_core::driver::{Falcon, FalconConfig};
use falcon_core::features::generate_features;
use falcon_core::plan::PlanKind;
use falcon_core::stage::{StageControl, StageEvent, StageGate};
use falcon_crowd::sim::{GroundTruth, OracleCrowd};
use falcon_dataflow::ClusterConfig;
use falcon_datagen::songs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Arc, Mutex};

struct CountingAlloc;

// Relaxed is enough: a statistic that publishes no other data.
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` with the caller's own arguments,
// so `System`'s guarantees carry over; the counter never touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Records, at every stage boundary, the stage's label and the live heap
/// above `baseline` (the tables and everything else made before the run).
struct LiveAtBoundary {
    seen: Mutex<Vec<(String, isize)>>,
    baseline: isize,
}

impl StageGate for LiveAtBoundary {
    fn on_stage(&self, event: StageEvent) -> StageControl {
        let live = LIVE.load(Ordering::Relaxed) - self.baseline;
        self.seen.lock().expect("gate").push((event.label, live));
        StageControl::Continue
    }
}

/// Live heap above the pre-run baseline at two pairs of stage boundaries
/// of a songs run, sample 4 000 pairs × 29 blocking features:
///
/// | boundary | before the frees | with them |
/// | --- | --- | --- |
/// | `get_block_rules` | 5 037 215 B | 5 037 215 B |
/// | first `eval_rules` | 5 051 778 B | 4 025 474 B |
/// | `sel_opt_seq` | 9 171 331 B | 8 145 027 B |
/// | `apply_block_rules` | 8 176 516 B (0.89×) | 3 107 409 B (0.38×) |
///
/// (a) The sample's feature vectors — 928 000 B of `f64`s — are freed
/// once `get_blocking_rules` has read them: `eval_rules` reads the pairs.
/// (b) Once the sequence's indexes are built, only its filterable
/// conjuncts' stay: the unprobed indexes and the rank-space columns go
/// before `apply_block_rules` probes.
///
/// Every job's worker threads are joined before its stage boundary, so
/// the figures do not depend on the worker-thread count (they move by a
/// few hundred bytes of crowd bookkeeping between runs); CI also runs
/// this binary pinned to one core, where the cluster has one thread.
#[test]
fn blocking_frees_what_no_later_stage_reads() {
    let d = songs::generate(0.004, 5);
    let arity = generate_features(&d.a, &d.b).blocking.features.len();
    let falcon = Falcon::new(FalconConfig {
        cluster: ClusterConfig::small(4),
        sample_size: 4_000,
        sample_fanout: 20,
        force_plan: Some(PlanKind::BlockAndMatch),
        ..FalconConfig::default()
    });
    let crowd = OracleCrowd::new(GroundTruth::new(d.truth.iter().copied()));
    // Fields initialise in the order written: the record is allocated
    // below the baseline.
    let gate = Arc::new(LiveAtBoundary {
        seen: Mutex::new(Vec::with_capacity(4_096)),
        baseline: LIVE.load(Ordering::Relaxed),
    });
    let report = falcon
        .try_run_gated(
            &d.a,
            &d.b,
            crowd,
            None,
            Arc::clone(&gate) as Arc<dyn StageGate>,
        )
        .expect("run");
    let seen = gate.seen.lock().expect("gate");
    // Live heap at the first boundary labeled `label`.
    let live_at = |label: &str| {
        let (_, live) = (seen.iter())
            .find(|(l, _)| l == label)
            .unwrap_or_else(|| panic!("no {label} boundary"));
        *live
    };

    let vectors = (report.sample_size * arity * 8) as isize;
    let (rules, eval) = (live_at("get_block_rules"), live_at("eval_rules"));
    assert!(
        eval <= rules - vectors,
        "live heap went {rules} B -> {eval} B from get_block_rules to eval_rules: \
         the sample's {vectors} B of vectors are still held"
    );

    let (select, apply) = (live_at("sel_opt_seq"), live_at("apply_block_rules"));
    assert!(
        apply < select / 2,
        "live heap went {select} B -> {apply} B from sel_opt_seq to apply_block_rules \
         ({:.2}x): unprobed indexes or the column cache are still held",
        apply as f64 / select as f64
    );
}
