//! The physical operators of `apply_blocking_rules` (Sections 7, 10.1).
//!
//! Four index-based solutions balance mapper memory against reducer work:
//!
//! * [`PhysicalOp::ApplyAll`] — every filterable conjunct's indexes in
//!   each mapper; reducers evaluate the rule sequence on the surviving
//!   pairs,
//! * [`PhysicalOp::ApplyGreedy`] — only the most selective conjunct's
//!   indexes map-side,
//! * [`PhysicalOp::ApplyConjunct`] — one probing wave per conjunct (each
//!   wave holds a single conjunct's indexes); waves are intersected,
//! * [`PhysicalOp::ApplyPredicate`] — one probing wave per *predicate*
//!   (smallest memory footprint; most post-processing),
//!
//! plus the two prior-work baselines that enumerate `A × B`:
//! [`PhysicalOp::MapSide`] (table `A` in mapper memory) and
//! [`PhysicalOp::ReduceSplit`] (pairs shuffled to reducers) — both guarded
//! by a pair budget, mirroring how the paper "had to kill" them on the
//! large datasets.
//!
//! All six produce *identical* candidate sets (the filters are necessary
//! conditions and the reducers evaluate the exact rule sequence);
//! integration tests assert this equivalence.
//!
//! Two of the paper's Section 7.3 engine optimizations are structural
//! here: mappers emit only `(a_id, b_id)` pairs (never whole `B` tuples —
//! the "reducing intermediate output size" optimization; reducers resolve
//! ids against shared table handles), and every mapper processes both
//! probing and pass-through work from the same interleaved split stream
//! (the "load balancing at map phase" optimization falls out of the
//! engine's work-stealing split queue).

use crate::features::FeatureSet;
use crate::indexing::{BuiltIndexes, ConjunctSpecs};
use crate::rules::RuleSequence;
use crate::tokens::{build_pair_profiles_seq, PairProfiles};
use falcon_dataflow::{run_map_only, run_map_reduce, Cluster, DataflowError, Emitter, JobStats};
use falcon_index::spec::Candidates;
use falcon_index::{CandidateBitmap, PredicateIndex, ProbeMode, ProbeStats};
use falcon_table::{IdPair, Table, TupleId};
use falcon_textsim::{SimContext, SimScratch};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The physical operator choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhysicalOp {
    /// All filterable conjuncts' indexes in every mapper.
    ApplyAll,
    /// Only the most selective conjunct's indexes.
    ApplyGreedy,
    /// One probing wave per conjunct.
    ApplyConjunct,
    /// One probing wave per predicate.
    ApplyPredicate,
    /// Prior work: table A in mapper memory, enumerate `A × B`.
    MapSide,
    /// Prior work: shuffle all of `A × B` to reducers.
    ReduceSplit,
}

impl PhysicalOp {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            PhysicalOp::ApplyAll => "apply-all",
            PhysicalOp::ApplyGreedy => "apply-greedy",
            PhysicalOp::ApplyConjunct => "apply-conjunct",
            PhysicalOp::ApplyPredicate => "apply-predicate",
            PhysicalOp::MapSide => "map-side",
            PhysicalOp::ReduceSplit => "reduce-split",
        }
    }

    /// One-line description of what the operator does and what it costs,
    /// for `falcon plan check --explain`.
    pub fn describe(self) -> &'static str {
        match self {
            PhysicalOp::ApplyAll => {
                "probe every filterable conjunct's indexes in each mapper; \
                 needs all indexes to fit mapper memory"
            }
            PhysicalOp::ApplyGreedy => {
                "probe only the most selective conjunct's indexes, then \
                 evaluate the rest of the sequence on the survivors"
            }
            PhysicalOp::ApplyConjunct => {
                "one probing wave per conjunct; bounds mapper memory at one \
                 conjunct's indexes per wave"
            }
            PhysicalOp::ApplyPredicate => {
                "one probing wave per predicate; smallest memory footprint, \
                 most waves"
            }
            PhysicalOp::MapSide => {
                "prior-work baseline: broadcast table A into every mapper \
                 and enumerate A x B"
            }
            PhysicalOp::ReduceSplit => "prior-work baseline: shuffle all of A x B to reducers",
        }
    }
}

/// Errors from blocking execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockingError {
    /// A Cartesian-enumeration baseline exceeded the pair budget (the
    /// in-harness analog of "did not complete / had to be killed").
    TooManyPairs {
        /// Pairs the operator would enumerate.
        pairs: u128,
        /// The configured budget.
        budget: u128,
    },
    /// The chosen operator needs at least one filterable conjunct.
    NoFilterableConjunct,
    /// The underlying dataflow engine failed (worker panic, lost split).
    Dataflow(DataflowError),
}

impl std::fmt::Display for BlockingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockingError::TooManyPairs { pairs, budget } => {
                write!(f, "would enumerate {pairs} pairs (budget {budget})")
            }
            BlockingError::NoFilterableConjunct => write!(f, "no filterable conjunct"),
            BlockingError::Dataflow(e) => write!(f, "dataflow failure: {e}"),
        }
    }
}

impl std::error::Error for BlockingError {}

impl From<DataflowError> for BlockingError {
    fn from(e: DataflowError) -> Self {
        BlockingError::Dataflow(e)
    }
}

/// Result of one blocking execution.
#[derive(Debug)]
pub struct BlockingOutput {
    /// Surviving candidate pairs, sorted.
    pub candidates: Vec<IdPair>,
    /// The operator that ran.
    pub op: PhysicalOp,
    /// Simulated cluster duration of all jobs involved.
    pub duration: Duration,
    /// Per-job statistics.
    pub jobs: Vec<JobStats>,
    /// Per-conjunct probe instrumentation (empty for the `A × B`
    /// enumeration baselines, which never probe an index).
    pub blocking: BlockingStats,
}

/// Per-conjunct blocking counters: how many candidate probes the conjunct
/// examined and where they were eliminated. The balance invariant
/// `pairs_examined == pruned_by_signature + pruned_by_exact + survived`
/// holds by construction (every examined probe lands in exactly one
/// bucket).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConjunctStats {
    /// Conjunct position within the rule sequence.
    pub conjunct: usize,
    /// Planned probe mode per predicate of the conjunct
    /// ("off" / "gate" / "dense").
    pub modes: Vec<String>,
    /// Candidate probes examined (postings walked, signatures scanned, or
    /// scalar-index hits considered).
    pub pairs_examined: u64,
    /// Probes refuted by the signature popcount bound alone, before any
    /// exact filter ran.
    pub pruned_by_signature: u64,
    /// Probes refuted by the exact filters (length / position / range
    /// bounds) after surviving or bypassing the signature.
    pub pruned_by_exact: u64,
    /// Probes emitted into the candidate union.
    pub survived: u64,
}

/// Blocking-wide roll-up: one [`ConjunctStats`] entry per conjunct that
/// probed at least once.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockingStats {
    /// Per-conjunct counters, ordered by conjunct position.
    pub conjuncts: Vec<ConjunctStats>,
}

impl BlockingStats {
    /// Total probes examined across conjuncts.
    pub fn pairs_examined(&self) -> u64 {
        self.conjuncts.iter().map(|c| c.pairs_examined).sum()
    }

    /// Total probes pruned by the signature pre-filter.
    pub fn pruned_by_signature(&self) -> u64 {
        self.conjuncts.iter().map(|c| c.pruned_by_signature).sum()
    }

    /// Total probes pruned by the exact filters.
    pub fn pruned_by_exact(&self) -> u64 {
        self.conjuncts.iter().map(|c| c.pruned_by_exact).sum()
    }

    /// Total probes that survived into candidate unions.
    pub fn survived(&self) -> u64 {
        self.conjuncts.iter().map(|c| c.survived).sum()
    }
}

/// Lock-free sink for per-conjunct probe counters shared by all map
/// tasks. Only order-independent sums are stored, so the totals are
/// deterministic for any thread count, split order or fault schedule
/// (the dataflow layer executes each map body exactly once per task,
/// even under injected faults).
struct StatsCollector {
    cells: Vec<[AtomicU64; 4]>,
}

impl StatsCollector {
    fn new(conjuncts: usize) -> Self {
        Self {
            cells: std::iter::repeat_with(Default::default)
                .take(conjuncts)
                .collect(),
        }
    }

    fn add(&self, ci: usize, s: &ProbeStats) {
        if s.pairs_examined == 0 && s.survived == 0 {
            return;
        }
        let Some(c) = self.cells.get(ci) else { return };
        c[0].fetch_add(s.pairs_examined, Ordering::Relaxed);
        c[1].fetch_add(s.pruned_by_signature, Ordering::Relaxed);
        c[2].fetch_add(s.pruned_by_exact, Ordering::Relaxed);
        c[3].fetch_add(s.survived, Ordering::Relaxed);
    }

    /// Assemble the final stats; `modes[ci]` carries the per-predicate
    /// probe modes recorded when conjunct `ci`'s bundle was assembled.
    fn finish(&self, modes: &[Vec<String>]) -> BlockingStats {
        let conjuncts = self
            .cells
            .iter()
            .enumerate()
            .filter_map(|(ci, c)| {
                let v: Vec<u64> = c.iter().map(|a| a.load(Ordering::Relaxed)).collect();
                let modes = modes.get(ci).cloned().unwrap_or_default();
                if v.iter().all(|&x| x == 0) && modes.is_empty() {
                    return None; // conjunct never probed
                }
                Some(ConjunctStats {
                    conjunct: ci,
                    modes,
                    pairs_examined: v[0],
                    pruned_by_signature: v[1],
                    pruned_by_exact: v[2],
                    survived: v[3],
                })
            })
            .collect();
        BlockingStats { conjuncts }
    }
}

/// Record the probe modes of each bundle's predicates into the
/// per-conjunct mode table (appending, so the per-predicate waves of
/// `ApplyPredicate` accumulate one entry each).
fn record_modes(modes: &mut [Vec<String>], bundles: &[Bundle]) {
    for bu in bundles {
        if let Some(slot) = modes.get_mut(bu.ci) {
            slot.extend(bu.preds.iter().map(|(_, _, m)| m.name().to_string()));
        }
    }
}

/// Rough in-memory footprint of a table (gates MapSide). Computed
/// column-at-a-time over rendered lengths; the formula (32 bytes per
/// row plus 24 per cell plus rendered length) is
/// representation-invariant so the optimizer picks the same physical
/// plan under either table layout.
pub fn estimate_table_bytes(t: &Table) -> usize {
    let mut total = 32 * t.len();
    let mut scratch = String::new();
    for idx in 0..t.schema().arity() {
        t.for_each_value(idx, |_, v| {
            total += 24;
            match v.as_str() {
                Some(s) => total += s.len(),
                None => {
                    scratch.clear();
                    v.render_into(&mut scratch);
                    total += scratch.len();
                }
            }
        });
    }
    total
}

/// Shared exact rule-sequence evaluator used by every reducer/mapper:
/// computes only the features the sequence references (the computation
/// caching of Section 7.3).
pub struct PairEvaluator {
    a: Table,
    b: Table,
    features: FeatureSet,
    seq: RuleSequence,
    needed: Vec<usize>,
    arity: usize,
    /// Full-table token profiles for the needed features' columns, so the
    /// per-pair evaluation uses the sorted-id kernels instead of
    /// re-tokenizing each value for every pair it appears in.
    profiles: PairProfiles,
}

impl PairEvaluator {
    /// Build an evaluator. Pre-tokenizes both tables for the columns the
    /// sequence's features need (blocking sequences reference only a
    /// handful of features, so this is a short full-table pass amortized
    /// over up to `|A| × |B|` evaluations).
    pub fn new(a: &Table, b: &Table, features: &FeatureSet, seq: &RuleSequence) -> Self {
        let needed: Vec<usize> = seq.features().into_iter().collect();
        // Blocking rules never reference a TF/IDF measure: no corpus model.
        let profiles = build_pair_profiles_seq(a, b, needed.iter().map(|&i| features.get(i)), None);
        Self {
            a: a.clone(),
            b: b.clone(),
            features: features.clone(),
            seq: seq.clone(),
            needed,
            arity: features.len(),
            profiles,
        }
    }

    /// True iff the pair survives the rule sequence.
    pub fn keeps(&self, aid: TupleId, bid: TupleId) -> bool {
        let mut fv = Vec::new();
        self.keeps_scratch(aid, bid, &mut fv)
    }

    /// [`PairEvaluator::keeps`] with a caller-owned feature-vector
    /// buffer, so hot loops evaluate pairs without a per-pair allocation.
    pub fn keeps_scratch(&self, aid: TupleId, bid: TupleId, fv: &mut Vec<f64>) -> bool {
        // A pair referencing an unknown id cannot be a match of real
        // tuples; dropping it is exact, not lossy.
        if aid as usize >= self.a.len() || bid as usize >= self.b.len() {
            return false;
        }
        let p = &self.profiles;
        let ctx = SimContext::empty().with_profiles(&p.a, &p.b, &p.dict);
        // Allocates nothing up front; blocking measures only ever borrow
        // its DP rows (Levenshtein).
        let mut scratch = SimScratch::new();
        fv.clear();
        fv.resize(self.arity, f64::NAN);
        for &i in &self.needed {
            let f = self.features.get(i);
            fv[i] = f.compute_at(&self.a, &self.b, aid, bid, &ctx, &mut scratch);
        }
        self.seq.keeps(fv)
    }
}

/// One conjunct's probe bundle: `(index, B-side attribute index, planned
/// probe mode)` per predicate, tagged with the conjunct's sequence
/// position so stats land on the right counter row.
struct Bundle {
    ci: usize,
    preds: Vec<(Arc<PredicateIndex>, usize, ProbeMode)>,
}

/// Assemble probe bundles for the given conjunct indices, planning each
/// predicate's probe mode once up front (the planner hook: signature
/// density and postings statistics decide per predicate whether the
/// pre-filter pays off).
///
/// A conjunct whose spec or built index is missing is skipped *whole*:
/// dropping an entire conjunct only weakens the filter (more candidates
/// pass), which preserves recall. Dropping a single predicate inside a
/// conjunct would instead shrink the probe union and could lose matches.
/// The probe mode for `idx`: normally [`PredicateIndex::plan_probe_mode`],
/// but the `FALCON_PROBE_MODE` environment variable (`off` | `gate` |
/// `dense`) forces one mode process-wide on every signature-wrapped index
/// for differential testing — every mode is lossless, so final candidate
/// pairs cannot change. Read once and cached so a run never mixes modes.
fn planned_mode(idx: &PredicateIndex) -> ProbeMode {
    static FORCED: std::sync::OnceLock<Option<ProbeMode>> = std::sync::OnceLock::new();
    let forced = *FORCED.get_or_init(|| match std::env::var("FALCON_PROBE_MODE").as_deref() {
        Ok("off") => Some(ProbeMode::Off),
        Ok("gate") => Some(ProbeMode::Gate),
        Ok("dense") => Some(ProbeMode::Dense),
        _ => None,
    });
    match forced {
        Some(mode) if matches!(idx, PredicateIndex::Signature { .. }) => mode,
        _ => idx.plan_probe_mode(),
    }
}

fn bundles_for(conjuncts: &ConjunctSpecs, built: &BuiltIndexes, which: &[usize]) -> Vec<Bundle> {
    which
        .iter()
        .filter_map(|&ci| {
            let preds = conjuncts.specs[ci]
                .iter()
                .enumerate()
                .map(|(pi, s)| {
                    let (_, b_idx) = s.as_ref()?;
                    // Cache lookup through the key hoisted at spec
                    // derivation — no per-conjunct key formatting here.
                    let idx = built.get_by_key(conjuncts.key_of(ci, pi)?)?;
                    let mode = planned_mode(&idx);
                    Some((idx, *b_idx, mode))
                })
                .collect::<Option<Vec<_>>>()?;
            Some(Bundle { ci, preds })
        })
        .collect()
}

/// Reusable per-map-task probe state: the bitmap union / intersection
/// buffers, the sorted emit vector, and per-conjunct counter deltas
/// flushed to the shared [`StatsCollector`] once per chunk. Marking ids
/// in a bitmap deduplicates for free, intersection is a word-wise AND,
/// and iteration yields ascending ids — the whole union/dedup/intersect
/// pipeline runs without a single sort or per-tuple allocation.
struct ProbeScratch {
    union: CandidateBitmap,
    acc: CandidateBitmap,
    out: Vec<TupleId>,
    locals: Vec<ProbeStats>,
    /// Feature-vector buffer for evaluator stages (kept here so the
    /// pool recycles one allocation set for probe *and* evaluate work).
    fv: Vec<f64>,
}

impl ProbeScratch {
    fn empty() -> Self {
        Self {
            union: CandidateBitmap::new(0),
            acc: CandidateBitmap::new(0),
            out: Vec::new(),
            locals: Vec::new(),
            fv: Vec::new(),
        }
    }

    /// Make the scratch ready for a task over `a_len` A-tuples and
    /// `n_bundles` conjunct bundles, keeping existing allocations.
    fn prepare(&mut self, a_len: usize, n_bundles: usize) {
        self.union.reset(a_len);
        self.acc.reset(a_len);
        self.out.clear();
        self.locals.clear();
        self.locals.resize(n_bundles, ProbeStats::default());
        self.fv.clear();
    }

    /// Flush the accumulated per-conjunct deltas and zero them.
    fn flush(&mut self, bundles: &[Bundle], collector: &StatsCollector) {
        for (local, bu) in self.locals.iter_mut().zip(bundles) {
            collector.add(bu.ci, local);
            *local = ProbeStats::default();
        }
    }
}

/// Pool of [`ProbeScratch`] buffers, shared by the map tasks of one or
/// more blocking executions. The bitmaps inside a scratch are sized to
/// `|A|`, so recycling them across the optimizer's speculative stages
/// (one `execute` per candidate rule over the same `A`) avoids
/// re-zeroing multi-kilobyte buffers per stage — the single-job masking
/// cost the stage-yielding driver must not regress.
#[derive(Default)]
pub struct ScratchPool {
    slots: parking_lot::Mutex<Vec<ProbeScratch>>,
}

impl ScratchPool {
    /// Fresh shared pool.
    pub fn new() -> Arc<ScratchPool> {
        Arc::new(Self::default())
    }

    fn checkout(&self, a_len: usize, n_bundles: usize) -> ProbeScratch {
        let mut scratch = self.slots.lock().pop().unwrap_or_else(ProbeScratch::empty);
        scratch.prepare(a_len, n_bundles);
        scratch
    }

    fn restore(&self, scratch: ProbeScratch) {
        self.slots.lock().push(scratch);
    }
}

/// Candidate A-ids for one B tuple across the given bundles, collected
/// into `scratch.out` (ascending, deduplicated). Returns `false` when
/// every bundle probed to "All" — the caller pairs `bid` with all of `A`.
fn candidates_for(
    b: &Table,
    bid: TupleId,
    a_len: usize,
    bundles: &[Bundle],
    scratch: &mut ProbeScratch,
) -> bool {
    let mut restricted = false;
    for (bi, bundle) in bundles.iter().enumerate() {
        scratch.union.reset(a_len);
        let mut unrestricted = false;
        let stats = &mut scratch.locals[bi];
        for (idx, b_idx, mode) in &bundle.preds {
            let bv = b.value_ref(bid, *b_idx).unwrap_or_default();
            match idx.probe_ref_stats(bv, *mode, stats) {
                Candidates::All => {
                    unrestricted = true;
                    break;
                }
                Candidates::Some(ids) => {
                    for id in ids {
                        scratch.union.insert(id);
                    }
                }
                Candidates::Bitmap(bm) => scratch.union.union_with(&bm),
            }
        }
        if unrestricted {
            continue;
        }
        if restricted {
            scratch.acc.intersect(&scratch.union);
        } else {
            scratch.acc.copy_from(&scratch.union);
            restricted = true;
        }
        if scratch.acc.ones() == 0 {
            break;
        }
    }
    scratch.out.clear();
    if restricted {
        let (acc, out) = (&scratch.acc, &mut scratch.out);
        acc.for_each(|id| out.push(id));
    }
    restricted
}

/// B-side splits carry tuple ids only; mappers resolve cells against a
/// shared table handle (cheap `Arc` clone), so no rows are materialized.
fn b_splits(b: &Table, cluster: &Cluster) -> Vec<Vec<TupleId>> {
    b.splits(cluster.threads() * 2)
        .into_iter()
        .map(|r| (r.start as TupleId..r.end as TupleId).collect())
        .collect()
}

/// Chunk-as-record B-side splits for the probing operators: each split
/// carries one id chunk as a single record, so a map task allocates its
/// [`ProbeScratch`] once per chunk and streams ids through it. Callers
/// restore `JobStats::input_records` to the true tuple count afterwards.
fn b_chunk_splits(b: &Table, cluster: &Cluster) -> Vec<Vec<Vec<TupleId>>> {
    b.splits(cluster.threads() * 2)
        .into_iter()
        .map(|r| vec![(r.start as TupleId..r.end as TupleId).collect()])
        .collect()
}

/// Index-probing + reducer-evaluation execution (ApplyAll / ApplyGreedy).
#[allow(clippy::too_many_arguments)]
fn run_probe_reduce(
    cluster: &Cluster,
    a: &Table,
    b: &Table,
    evaluator: Arc<PairEvaluator>,
    bundles: Vec<Bundle>,
    collector: &Arc<StatsCollector>,
    pool: &Arc<ScratchPool>,
    op: PhysicalOp,
) -> Result<BlockingOutput, BlockingError> {
    let a_len = a.len();
    let bundles = Arc::new(bundles);
    let b_handle = b.clone();
    let n_b = b.len();
    let collector = Arc::clone(collector);
    let pool = Arc::clone(pool);
    let mut out = run_map_reduce(
        cluster,
        b_chunk_splits(b, cluster),
        cluster.threads(),
        move |chunk: &Vec<TupleId>, e: &mut Emitter<TupleId, TupleId>| {
            let mut scratch = pool.checkout(a_len, bundles.len());
            for &bid in chunk {
                if candidates_for(&b_handle, bid, a_len, &bundles, &mut scratch) {
                    for &aid in &scratch.out {
                        e.emit(aid, bid);
                    }
                } else {
                    for aid in 0..a_len as TupleId {
                        e.emit(aid, bid);
                    }
                }
            }
            scratch.flush(&bundles, &collector);
            pool.restore(scratch);
        },
        move |aid: &TupleId, bids: Vec<TupleId>, out: &mut Vec<IdPair>| {
            let mut fv = Vec::new();
            for bid in bids {
                if evaluator.keeps_scratch(*aid, bid, &mut fv) {
                    out.push((*aid, bid));
                }
            }
        },
    )?;
    // Chunk-as-record wrapping counted chunks; restore the true count.
    out.stats.input_records = n_b;
    let duration = out.stats.sim_duration(&cluster.config);
    let mut candidates = out.output;
    candidates.sort_unstable();
    Ok(BlockingOutput {
        candidates,
        op,
        duration,
        jobs: vec![out.stats],
        blocking: BlockingStats::default(),
    })
}

/// Probe-only wave for one bundle set: returns the pair set it admits.
fn run_probe_wave(
    cluster: &Cluster,
    a: &Table,
    b: &Table,
    bundles: Vec<Bundle>,
    collector: &Arc<StatsCollector>,
    pool: &Arc<ScratchPool>,
) -> Result<(HashSet<IdPair>, JobStats), BlockingError> {
    let a_len = a.len();
    let bundles = Arc::new(bundles);
    let b_handle = b.clone();
    let n_b = b.len();
    let collector = Arc::clone(collector);
    let pool = Arc::clone(pool);
    let mut out = run_map_only(
        cluster,
        b_chunk_splits(b, cluster),
        move |chunk: &Vec<TupleId>, out: &mut Vec<IdPair>| {
            let mut scratch = pool.checkout(a_len, bundles.len());
            for &bid in chunk {
                if candidates_for(&b_handle, bid, a_len, &bundles, &mut scratch) {
                    out.extend(scratch.out.iter().map(|&aid| (aid, bid)));
                } else {
                    out.extend((0..a_len as TupleId).map(|aid| (aid, bid)));
                }
            }
            scratch.flush(&bundles, &collector);
            pool.restore(scratch);
        },
    )?;
    out.stats.input_records = n_b;
    Ok((out.output.iter().copied().collect(), out.stats))
}

/// Final evaluation of the rule sequence over a pair set (map-only).
fn run_evaluate(
    cluster: &Cluster,
    evaluator: Arc<PairEvaluator>,
    pairs: Vec<IdPair>,
    pool: &Arc<ScratchPool>,
) -> Result<(Vec<IdPair>, JobStats), BlockingError> {
    // Each split carries one whole pair chunk as a single record, so a map
    // task streams its chunk through the evaluator without per-pair
    // dispatch through the dataflow record loop (and with one shared
    // feature-vector scratch buffer per chunk, recycled via the pool).
    let n_pairs = pairs.len();
    let chunk = n_pairs.div_ceil((cluster.threads() * 2).max(1)).max(1);
    let splits: Vec<Vec<Vec<IdPair>>> = pairs.chunks(chunk).map(|c| vec![c.to_vec()]).collect();
    let pool = Arc::clone(pool);
    let mut out = run_map_only(cluster, splits, move |pair_chunk: &Vec<IdPair>, out| {
        let mut scratch = pool.checkout(0, 0);
        for &(aid, bid) in pair_chunk {
            if evaluator.keeps_scratch(aid, bid, &mut scratch.fv) {
                out.push((aid, bid));
            }
        }
        pool.restore(scratch);
    })?;
    // Chunk-as-record wrapping counted chunks; restore the true count.
    out.stats.input_records = n_pairs;
    let mut kept = out.output;
    kept.sort_unstable();
    Ok((kept, out.stats))
}

/// Execute a blocking plan with an explicit physical operator.
#[allow(clippy::too_many_arguments)]
pub fn execute(
    op: PhysicalOp,
    cluster: &Cluster,
    a: &Table,
    b: &Table,
    features: &FeatureSet,
    seq: &RuleSequence,
    conjuncts: &ConjunctSpecs,
    built: &BuiltIndexes,
    rule_selectivities: &[f64],
    max_pairs: u128,
) -> Result<BlockingOutput, BlockingError> {
    execute_pooled(
        op,
        cluster,
        a,
        b,
        features,
        seq,
        conjuncts,
        built,
        rule_selectivities,
        max_pairs,
        &ScratchPool::new(),
    )
}

/// [`execute`] with a caller-owned [`ScratchPool`], so consecutive
/// executions over the same `A` (the optimizer's speculative stages, the
/// final `apply_blocking_rules`) recycle probe buffers instead of
/// reallocating them per stage.
#[allow(clippy::too_many_arguments)]
pub fn execute_pooled(
    op: PhysicalOp,
    cluster: &Cluster,
    a: &Table,
    b: &Table,
    features: &FeatureSet,
    seq: &RuleSequence,
    conjuncts: &ConjunctSpecs,
    built: &BuiltIndexes,
    rule_selectivities: &[f64],
    max_pairs: u128,
    pool: &Arc<ScratchPool>,
) -> Result<BlockingOutput, BlockingError> {
    let evaluator = Arc::new(PairEvaluator::new(a, b, features, seq));
    let filterable = conjuncts.filterable();
    let collector = Arc::new(StatsCollector::new(conjuncts.specs.len()));
    let mut modes: Vec<Vec<String>> = vec![Vec::new(); conjuncts.specs.len()];
    let mut result = match op {
        PhysicalOp::ApplyAll => {
            if filterable.is_empty() {
                return Err(BlockingError::NoFilterableConjunct);
            }
            let bundles = bundles_for(conjuncts, built, &filterable);
            record_modes(&mut modes, &bundles);
            run_probe_reduce(cluster, a, b, evaluator, bundles, &collector, pool, op)?
        }
        PhysicalOp::ApplyGreedy => {
            let best = filterable
                .iter()
                .copied()
                .min_by(|&x, &y| {
                    let sx = rule_selectivities.get(x).copied().unwrap_or(1.0);
                    let sy = rule_selectivities.get(y).copied().unwrap_or(1.0);
                    sx.total_cmp(&sy)
                })
                .ok_or(BlockingError::NoFilterableConjunct)?;
            let bundles = bundles_for(conjuncts, built, &[best]);
            record_modes(&mut modes, &bundles);
            run_probe_reduce(cluster, a, b, evaluator, bundles, &collector, pool, op)?
        }
        PhysicalOp::ApplyConjunct => {
            if filterable.is_empty() {
                return Err(BlockingError::NoFilterableConjunct);
            }
            let mut jobs = Vec::new();
            let mut acc: Option<HashSet<IdPair>> = None;
            for &ci in &filterable {
                let bundles = bundles_for(conjuncts, built, &[ci]);
                if bundles.is_empty() {
                    // Conjunct not probe-able: skipping its wave keeps
                    // every candidate it would have admitted (recall-safe).
                    continue;
                }
                record_modes(&mut modes, &bundles);
                let (set, stats) = run_probe_wave(cluster, a, b, bundles, &collector, pool)?;
                jobs.push(stats);
                acc = Some(match acc {
                    None => set,
                    Some(prev) => prev.intersection(&set).copied().collect(),
                });
            }
            let mut pairs: Vec<IdPair> = acc.unwrap_or_default().into_iter().collect();
            pairs.sort_unstable();
            let (candidates, stats) = run_evaluate(cluster, evaluator, pairs, pool)?;
            jobs.push(stats);
            let duration = jobs.iter().map(|s| s.sim_duration(&cluster.config)).sum();
            BlockingOutput {
                candidates,
                op,
                duration,
                jobs,
                blocking: BlockingStats::default(),
            }
        }
        PhysicalOp::ApplyPredicate => {
            if filterable.is_empty() {
                return Err(BlockingError::NoFilterableConjunct);
            }
            let mut jobs = Vec::new();
            let mut acc: Option<HashSet<IdPair>> = None;
            for &ci in &filterable {
                // Union across this conjunct's predicates, each probed in
                // its own wave holding a single predicate index. If *any*
                // predicate of the conjunct cannot be probed, the whole
                // conjunct is skipped: a partial union would shrink the
                // candidate set and lose recall, while skipping the
                // conjunct only admits extra candidates.
                let specs: Option<Vec<Bundle>> = conjuncts.specs[ci]
                    .iter()
                    .enumerate()
                    .map(|(pi, s)| {
                        let (_, b_idx) = s.as_ref()?;
                        let idx = built.get_by_key(conjuncts.key_of(ci, pi)?)?;
                        let mode = planned_mode(&idx);
                        Some(Bundle {
                            ci,
                            preds: vec![(idx, *b_idx, mode)],
                        })
                    })
                    .collect();
                let Some(pred_bundles) = specs else { continue };
                record_modes(&mut modes, &pred_bundles);
                let mut union: HashSet<IdPair> = HashSet::new();
                for bundle in pred_bundles {
                    let (set, stats) =
                        run_probe_wave(cluster, a, b, vec![bundle], &collector, pool)?;
                    jobs.push(stats);
                    union.extend(set);
                }
                acc = Some(match acc {
                    None => union,
                    Some(prev) => prev.intersection(&union).copied().collect(),
                });
            }
            let mut pairs: Vec<IdPair> = acc.unwrap_or_default().into_iter().collect();
            pairs.sort_unstable();
            let (candidates, stats) = run_evaluate(cluster, evaluator, pairs, pool)?;
            jobs.push(stats);
            let duration = jobs.iter().map(|s| s.sim_duration(&cluster.config)).sum();
            BlockingOutput {
                candidates,
                op,
                duration,
                jobs,
                blocking: BlockingStats::default(),
            }
        }
        PhysicalOp::MapSide | PhysicalOp::ReduceSplit => {
            let pairs = a.len() as u128 * b.len() as u128;
            if pairs > max_pairs {
                return Err(BlockingError::TooManyPairs {
                    pairs,
                    budget: max_pairs,
                });
            }
            if op == PhysicalOp::MapSide {
                let a_len = a.len() as TupleId;
                let out =
                    run_map_only(cluster, b_splits(b, cluster), move |&bid: &TupleId, out| {
                        let mut fv = Vec::new();
                        for aid in 0..a_len {
                            if evaluator.keeps_scratch(aid, bid, &mut fv) {
                                out.push((aid, bid));
                            }
                        }
                    })?;
                let duration = out.stats.sim_duration(&cluster.config);
                let mut candidates = out.output;
                candidates.sort_unstable();
                BlockingOutput {
                    candidates,
                    op,
                    duration,
                    jobs: vec![out.stats],
                    blocking: BlockingStats::default(),
                }
            } else {
                let a_len = a.len() as TupleId;
                let out = run_map_reduce(
                    cluster,
                    b_splits(b, cluster),
                    cluster.threads(),
                    move |&bid: &TupleId, e: &mut Emitter<TupleId, TupleId>| {
                        for aid in 0..a_len {
                            e.emit(aid, bid);
                        }
                    },
                    move |aid: &TupleId, bids: Vec<TupleId>, out: &mut Vec<IdPair>| {
                        let mut fv = Vec::new();
                        for bid in bids {
                            if evaluator.keeps_scratch(*aid, bid, &mut fv) {
                                out.push((*aid, bid));
                            }
                        }
                    },
                )?;
                let duration = out.stats.sim_duration(&cluster.config);
                let mut candidates = out.output;
                candidates.sort_unstable();
                BlockingOutput {
                    candidates,
                    op,
                    duration,
                    jobs: vec![out.stats],
                    blocking: BlockingStats::default(),
                }
            }
        }
    };
    result.blocking = collector.finish(&modes);
    Ok(result)
}

/// The Section 10.1 physical-operator selection rules.
#[allow(clippy::too_many_arguments)]
pub fn select_physical(
    conjuncts: &ConjunctSpecs,
    built: &BuiltIndexes,
    rule_selectivities: &[f64],
    seq_selectivity: f64,
    mapper_memory: usize,
    a_bytes: usize,
    greedy_ratio: f64,
) -> PhysicalOp {
    let filterable = conjuncts.filterable();
    if !filterable.is_empty() {
        // Per-conjunct index byte totals, via the hoisted cache keys.
        let conj_bytes: Vec<(usize, usize)> = filterable
            .iter()
            .map(|&ci| {
                let bytes = (0..conjuncts.specs[ci].len())
                    .filter_map(|pi| conjuncts.key_of(ci, pi))
                    .map(|k| built.bytes_of_key(k))
                    .sum();
                (ci, bytes)
            })
            .collect();
        // Most selective filterable conjunct (`conj_bytes` is non-empty
        // because `filterable` is; the if-let keeps this panic-free).
        if let Some((best_ci, best_bytes)) = conj_bytes.iter().copied().min_by(|(x, _), (y, _)| {
            let sx = rule_selectivities.get(*x).copied().unwrap_or(1.0);
            let sy = rule_selectivities.get(*y).copied().unwrap_or(1.0);
            sx.total_cmp(&sy)
        }) {
            let best_sel = rule_selectivities.get(best_ci).copied().unwrap_or(1.0);
            if best_sel > 0.0
                && seq_selectivity / best_sel >= greedy_ratio
                && best_bytes <= mapper_memory
            {
                return PhysicalOp::ApplyGreedy;
            }
            let total: usize = conj_bytes.iter().map(|(_, b)| b).sum();
            if total <= mapper_memory {
                return PhysicalOp::ApplyAll;
            }
            if conj_bytes.iter().any(|(_, b)| *b <= mapper_memory) {
                return PhysicalOp::ApplyConjunct;
            }
            // Per-predicate granularity.
            let max_pred = filterable
                .iter()
                .flat_map(|&ci| (0..conjuncts.specs[ci].len()).map(move |pi| (ci, pi)))
                .filter_map(|(ci, pi)| conjuncts.key_of(ci, pi))
                .map(|k| built.bytes_of_key(k))
                .max()
                .unwrap_or(usize::MAX);
            if max_pred <= mapper_memory {
                return PhysicalOp::ApplyPredicate;
            }
        }
    }
    if a_bytes <= mapper_memory {
        PhysicalOp::MapSide
    } else {
        PhysicalOp::ReduceSplit
    }
}
