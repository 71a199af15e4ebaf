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
//! [`PhysicalOp::ReduceSplit`] (pairs shuffled to reducers: the probe job
//! of `ApplyAll` over an empty plan) — both guarded by a pair budget,
//! mirroring how the paper "had to kill" them on the large datasets.
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

use crate::features::{slot_of, FeatureSet, ScoreScratch, Scorer};
use crate::indexing::{BuiltIndexes, ConjunctSpecs};
use crate::rules::{Predicate, RuleSequence};
use crate::stage::StageCost;
use crate::tokens::{id_splits, requirements, ProfileSpec, TokenStore};
use falcon_dataflow::{
    run_map_only, run_map_reduce, Cluster, ClusterConfig, DataflowError, Emitter, JobStats,
};
use falcon_forest::SplitOp;
use falcon_index::{
    CandidateBitmap, PredicateIndex, ProbeMode, ProbeStats, ProbeTokens, TokenOrder,
};
use falcon_table::{IdPair, Table, TupleId, ValueRef};
use falcon_textsim::{sets, SimContext, SimFunction, Tokenizer};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The physical operator choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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
                "probe every filterable conjunct's indexes in each mapper, most \
                 selective first, each within the candidates of those before it; \
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
    /// Per-job statistics.
    pub jobs: Vec<JobStats>,
    /// Per-conjunct probe instrumentation (empty for the `A × B`
    /// enumeration baselines, which never probe an index).
    pub blocking: BlockingStats,
}

impl BlockingOutput {
    /// `candidates`, sorted, as `op`'s output (the probe counters are
    /// filled in once the operator is done).
    fn new(op: PhysicalOp, mut candidates: Vec<IdPair>, jobs: Vec<JobStats>) -> Self {
        candidates.sort_unstable();
        let blocking = BlockingStats::default();
        Self {
            candidates,
            op,
            jobs,
            blocking,
        }
    }

    /// Price of all jobs involved, on the cluster `cfg` describes.
    pub fn cost(&self, cfg: &ClusterConfig) -> StageCost {
        StageCost::of(&self.jobs, cfg)
    }
}

/// Per-conjunct blocking counters: how many candidate probes the conjunct
/// examined and where they were eliminated. The balance invariant
/// `pairs_examined == pruned_by_signature + pruned_by_exact + survived`
/// holds by construction (every examined probe lands in exactly one
/// bucket). Under `ApplyAll` a conjunct is probed within the candidates
/// of the more selective ones, so what it examines and prunes depends on
/// the probe order; the candidates do not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConjunctStats {
    /// Conjunct position within the rule sequence.
    pub conjunct: usize,
    /// Planned probe mode per predicate of the conjunct.
    pub modes: Vec<ProbeMode>,
    /// Candidate probes examined: postings walked, signatures scanned,
    /// scalar-index hits and missing-value ids considered.
    pub pairs_examined: u64,
    /// Probes refuted by the signature popcount bound alone, before any
    /// exact filter ran.
    pub pruned_by_signature: u64,
    /// Probes refuted exactly: by the conjunct's own filters (length /
    /// position bounds) after surviving or bypassing the signature, or
    /// because the id was already outside the running candidate set —
    /// an earlier conjunct's refutation, answered before the signature.
    pub pruned_by_exact: u64,
    /// Probes admitted into the conjunct's candidate union (within the
    /// running candidate set, when there is one).
    pub survived: u64,
}

/// Blocking-wide roll-up: one [`ConjunctStats`] entry per conjunct that
/// probed at least once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    fn finish(&self, modes: &[Vec<ProbeMode>]) -> BlockingStats {
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
fn record_modes(modes: &mut [Vec<ProbeMode>], bundles: &[Bundle]) {
    for bu in bundles {
        if let Some(slot) = modes.get_mut(bu.ci) {
            slot.extend(bu.preds.iter().map(|p| p.mode));
        }
    }
}

/// Rough in-memory footprint of a table (gates MapSide). Computed
/// column-at-a-time over rendered lengths: 32 bytes per row plus 24 per
/// cell plus rendered length — a function of the cell contents, not of
/// the column store's own layout, so physical plans do not move when
/// that layout does.
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

/// Shared exact rule-sequence evaluator used by every reducer/mapper.
///
/// Evaluation follows the sequence's own contract — rules in sequence
/// order, predicates in rule order, stop at the first rule that fires —
/// and computes a feature only when a predicate first reads it, at most
/// once per pair. That early exit is what `select_opt_seq` prices when it
/// orders the rules (a rule's features are charged only to the pairs that
/// reach it), and it is what makes the reducers cheap: most shuffled
/// pairs are dropped by an early rule and pay for its features alone.
///
/// Before a set measure (Jaccard, Dice, overlap, cosine over a profiled
/// token column) is computed, its exact upper bound from the two values'
/// 128-bit token prints is consulted ([`sets::intersection_bound`]): when
/// the bound is at most the threshold, so is the value, and the predicate
/// is settled — `Le` true, `Gt` false — with no merge and no value. The
/// bound speaks only for two present values, so the verdicts are the
/// definition's; it only changes which values get computed.
pub struct PairEvaluator<'p> {
    /// The feature set, compiled against the tables and `profiles`: every
    /// value a predicate reads comes from it, so the features of one token
    /// column share one merge per pair, run when the first of them is read.
    scorer: Scorer<'p>,
    /// The distinct features the sequence reads, in first-read order (an
    /// index outside the feature set reads as missing exactly like
    /// [`Predicate::eval`] on a too-short vector).
    slots: Vec<usize>,
    /// Every predicate of the sequence with the slot of its feature,
    /// rule after rule.
    preds: Vec<(usize, Predicate)>,
    /// `preds[rule_ends[i-1]..rule_ends[i]]` is rule `i`.
    rule_ends: Vec<usize>,
    /// The token store holding the needed features' columns, so the
    /// per-pair evaluation uses the sorted-id kernels instead of
    /// re-tokenizing each value for every pair it appears in: the run's,
    /// or the evaluator's own.
    store: Cow<'p, TokenStore>,
    /// Per slot, where the bound reads its feature (`None`: not a set
    /// measure over profiled token columns).
    bounds: Vec<Option<SetRead>>,
    /// One print column per distinct `B` token column the bounds read:
    /// the fingerprint of every `B` tuple's token set.
    b_prints: Vec<Vec<u128>>,
    /// Distinct `A` token columns the bounds read (their prints are made
    /// on first use, in the scratch).
    a_columns: usize,
    /// Unique per evaluator: keys the `A` prints a scratch holds.
    id: u64,
}

/// Where the bound of one set feature reads its inputs.
#[derive(Debug, Clone, Copy)]
struct SetRead {
    sim: SimFunction,
    /// The `A` token column's slot in the store's profile, and its print's
    /// index in [`EvalScratch`]'s memo.
    a: (usize, usize),
    /// The `B` token column's slot, and its print column's index.
    b: (usize, usize),
}

/// Source of [`PairEvaluator::id`].
static EVALUATORS: AtomicU64 = AtomicU64::new(0);

/// Per-task state of [`PairEvaluator::keeps_scratch`]: the feature values
/// already computed for the current pair, the current `A` tuple's token
/// prints and the scorer's state, kept across pairs so the hot loops
/// allocate nothing per pair.
#[derive(Default)]
pub struct EvalScratch {
    /// Per slot, the value once computed (`NaN`: missing).
    vals: Vec<Option<f64>>,
    /// `(evaluator, aid)` whose `A` prints `a_prints` holds: pairs arrive
    /// grouped by `aid`, and no evaluator reads another's prints.
    a_key: Option<(u64, TupleId)>,
    /// Per `A` token column of the evaluator, the print once made.
    a_prints: Vec<Option<u128>>,
    /// Set predicates settled by the bound alone, over all pairs.
    pub settled: u64,
    /// The scorer's per-pair memo and kernel buffers.
    pub score: ScoreScratch,
}

/// What evaluating `seq` over `features` reads of the token store.
fn seq_requirements(features: &FeatureSet, seq: &RuleSequence) -> (ProfileSpec, ProfileSpec) {
    let predicates = seq.rules.iter().flat_map(|r| &r.predicates);
    requirements(predicates.filter_map(|p| features.features.get(p.feature)))
}

impl<'p> PairEvaluator<'p> {
    /// Build an evaluator over a store of its own: pre-tokenizes both
    /// tables for the columns the sequence's features need (a handful; a
    /// short pass amortized over up to `|A| × |B|` evaluations).
    pub fn new(a: &Table, b: &Table, features: &'p FeatureSet, seq: &RuleSequence) -> Self {
        let needs = seq_requirements(features, seq);
        let store = TokenStore::default().covering(a, b, &needs).into_owned();
        Self::compile(a, b, features, seq, Cow::Owned(store))
    }

    /// An evaluator over `store`, which holds the columns the sequence's
    /// features read (the driver's holds every blocking column).
    pub fn over(
        store: &'p TokenStore,
        a: &Table,
        b: &Table,
        features: &'p FeatureSet,
        seq: &RuleSequence,
    ) -> Self {
        Self::compile(a, b, features, seq, Cow::Borrowed(store))
    }

    /// Compile `seq` into slots and predicates, and print the `B` token
    /// columns its set features read.
    fn compile(
        a: &Table,
        b: &Table,
        features: &'p FeatureSet,
        seq: &RuleSequence,
        store: Cow<'p, TokenStore>,
    ) -> Self {
        let mut slots: Vec<usize> = Vec::new();
        let mut preds = Vec::new();
        let mut rule_ends = Vec::with_capacity(seq.len());
        for rule in &seq.rules {
            for p in &rule.predicates {
                preds.push((slot_of(&mut slots, p.feature), *p));
            }
            rule_ends.push(preds.len());
        }
        let scorer = Scorer::new(features, a, b, &store.context());
        let (mut a_cols, mut b_cols) = (Vec::new(), Vec::new());
        let bounds = (slots.iter())
            .map(|&fi| {
                let (sa, sb) = scorer.token_columns(fi)?;
                Some(SetRead {
                    sim: features.features.get(fi)?.sim,
                    a: (sa, slot_of(&mut a_cols, sa)),
                    b: (sb, slot_of(&mut b_cols, sb)),
                })
            })
            .collect();
        let print = |sb| {
            let tokens = |bid| store.b().tokens_at(sb, bid);
            (0..b.len() as TupleId)
                .map(|bid| tokens(bid).map_or(0, sets::fingerprint))
                .collect()
        };
        Self {
            b_prints: b_cols.into_iter().map(print).collect(),
            a_columns: a_cols.len(),
            id: EVALUATORS.fetch_add(1, Ordering::Relaxed),
            scorer,
            store,
            slots,
            preds,
            rule_ends,
            bounds,
        }
    }

    /// True iff the pair survives the rule sequence.
    pub fn keeps(&self, aid: TupleId, bid: TupleId) -> bool {
        self.keeps_scratch(aid, bid, &mut EvalScratch::default())
    }

    /// [`PairEvaluator::keeps`] with caller-owned per-task state, so hot
    /// loops evaluate pairs without a per-pair allocation.
    pub fn keeps_scratch(&self, aid: TupleId, bid: TupleId, scratch: &mut EvalScratch) -> bool {
        // A pair referencing an unknown id cannot be a match of real
        // tuples; dropping it is exact, not lossy.
        if aid as usize >= self.scorer.a.len() || bid as usize >= self.scorer.b.len() {
            return false;
        }
        let ctx = self.store.context();
        if scratch.a_key != Some((self.id, aid)) {
            scratch.a_key = Some((self.id, aid));
            scratch.a_prints.clear();
            scratch.a_prints.resize(self.a_columns, None);
        }
        let EvalScratch {
            vals,
            a_prints,
            settled,
            score,
            ..
        } = scratch;
        vals.clear();
        vals.resize(self.slots.len(), None);
        self.scorer.start(score);
        let mut start = 0;
        for &end in &self.rule_ends {
            let fires = self.preds[start..end].iter().all(|&(slot, pred)| {
                let v = match vals[slot] {
                    Some(v) => v,
                    None => {
                        let bound = self.upper_bound(slot, (aid, bid), &ctx, a_prints, score);
                        if bound.is_some_and(|ub| ub <= pred.threshold) {
                            // v <= ub <= t: `Le` holds and `Gt` fails.
                            *settled += 1;
                            return pred.op == SplitOp::Le;
                        }
                        let v = (self.scorer).value(self.slots[slot], (aid, bid), &ctx, score);
                        vals[slot] = Some(v);
                        v
                    }
                };
                pred.eval_value(v)
            });
            if fires {
                return false;
            }
            start = end;
        }
        true
    }

    /// An upper bound on set feature `slot`'s value for `pair`, from the
    /// token prints alone: the measure of `(hi, |x|, |y|)`. `None` when the
    /// slot is no set measure over profiled columns, or either value is
    /// missing or uncovered — the bound speaks for present values only.
    fn upper_bound(
        &self,
        slot: usize,
        (aid, bid): IdPair,
        ctx: &SimContext<'_>,
        a_prints: &mut [Option<u128>],
        score: &mut ScoreScratch,
    ) -> Option<f64> {
        let read = (*self.bounds.get(slot)?)?;
        if self
            .scorer
            .missing(self.slots[slot], (aid, bid), ctx, score)?
        {
            return None;
        }
        let x = self.store.a().tokens_at(read.a.0, aid)?;
        let ny = self.store.b().tokens_at(read.b.0, bid)?.len();
        let fx = *a_prints
            .get_mut(read.a.1)?
            .get_or_insert_with(|| sets::fingerprint(x));
        let fy = *self.b_prints.get(read.b.1)?.get(bid as usize)?;
        let hi = sets::intersection_bound((fx, x.len()), (fy, ny));
        read.sim.score_counts((hi, x.len(), ny))
    }

    /// Indices of the features computed for the last pair evaluated with
    /// `scratch`, in the order they were first read (a feature whose
    /// predicates the bound settled was not computed).
    pub fn computed(&self, scratch: &EvalScratch) -> Vec<usize> {
        self.slots
            .iter()
            .zip(&scratch.vals)
            .filter(|(_, v)| v.is_some())
            .map(|(feature, _)| *feature)
            .collect()
    }
}

/// One predicate's probe: its index, the B-side attribute the probe
/// reads, the planned probe mode, and — for a set-similarity index — the
/// slot of the [`ProbeTokens`] it shares with every other predicate
/// reading the same tokens (see [`ProbePlan::new`]).
struct Pred {
    index: Arc<PredicateIndex>,
    b_idx: usize,
    mode: ProbeMode,
    tokens: Option<usize>,
}

/// One conjunct's probe bundle, tagged with the conjunct's sequence
/// position so stats land on the right counter row.
struct Bundle {
    ci: usize,
    preds: Vec<Pred>,
}

impl Bundle {
    /// Bundle the built indexes of conjunct `ci`'s predicates `which`,
    /// planning each predicate's probe mode once up front (signature
    /// density and postings statistics decide per predicate whether the
    /// pre-filter pays off). `None` when a spec or built index is missing.
    fn new(
        conjuncts: &ConjunctSpecs,
        built: &BuiltIndexes<'_>,
        ci: usize,
        which: impl IntoIterator<Item = usize>,
    ) -> Option<Bundle> {
        let preds = which
            .into_iter()
            .map(|pi| {
                let (spec, b_idx) = conjuncts.specs[ci][pi].as_ref()?;
                let index = built.get(spec)?;
                Some(Pred {
                    mode: index.plan_probe_mode(),
                    index,
                    b_idx: *b_idx,
                    tokens: None,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Bundle { ci, preds })
    }
}

/// Assemble probe bundles for the given conjunct indices.
///
/// A conjunct whose spec or built index is missing is skipped *whole*:
/// dropping an entire conjunct only weakens the filter (more candidates
/// pass), which preserves recall. Dropping a single predicate inside a
/// conjunct would instead shrink the probe union and could lose matches.
fn bundles_for(
    conjuncts: &ConjunctSpecs,
    built: &BuiltIndexes<'_>,
    which: &[usize],
) -> Vec<Bundle> {
    which
        .iter()
        .filter_map(|&ci| Bundle::new(conjuncts, built, ci, 0..conjuncts.specs[ci].len()))
        .collect()
}

/// What one [`ProbeTokens`] slot reads: a `B` attribute under a
/// tokenizer, in a token order.
type TokenSource = (usize, Tokenizer, Arc<TokenOrder>);

/// What the map tasks of one job probe with: the conjunct bundles, the
/// source of every shared [`ProbeTokens`] slot, and the token store whose
/// `B` columns the slots are loaded from.
struct ProbePlan<'p> {
    bundles: Vec<Bundle>,
    sources: Vec<TokenSource>,
    store: &'p TokenStore,
}

impl<'p> ProbePlan<'p> {
    /// Give every set-similarity predicate the slot of the
    /// [`ProbeTokens`] it reads, one slot per distinct source, so a B
    /// value is loaded, rank-ordered and signed once per tuple however
    /// many predicates of however many bundles probe with it. Scalar and
    /// edit indexes read no tokens and get no slot.
    fn new(mut bundles: Vec<Bundle>, store: &'p TokenStore) -> Self {
        let mut sources: Vec<TokenSource> = Vec::new();
        for pred in bundles.iter_mut().flat_map(|bu| &mut bu.preds) {
            if let Some((tokenizer, order)) = pred.index.token_source() {
                let same = |s: &TokenSource| {
                    s.0 == pred.b_idx && s.1 == tokenizer && Arc::ptr_eq(&s.2, order)
                };
                let slot = sources.iter().position(same).unwrap_or_else(|| {
                    sources.push((pred.b_idx, tokenizer, Arc::clone(order)));
                    sources.len() - 1
                });
                pred.tokens = Some(slot);
            }
        }
        Self {
            bundles,
            sources,
            store,
        }
    }

    /// Number of [`ProbeTokens`] slots a task needs (a predicate without
    /// one is handed slot 0, which it ignores).
    fn slots(&self) -> usize {
        self.sources.len().max(1)
    }

    /// Load `slot`, predicate `p`'s, for B tuple `bid` from the store's
    /// column of its source.
    fn preload(&self, p: &Pred, bid: TupleId, slot: &mut ProbeTokens, b_value: ValueRef<'_>) {
        if let Some((b_idx, tokenizer, order)) = p.tokens.and_then(|t| self.sources.get(t)) {
            if let Some(ids) = self.store.b().tokens(*b_idx, *tokenizer, bid) {
                slot.load_ids(b_value, ids, order, self.store.dict());
            }
        }
    }
}

/// Per-map-task probe state: the bitmap union / intersection buffers,
/// the sorted emit vector, and per-conjunct counter deltas flushed to the
/// shared [`StatsCollector`] when the task ends. Marking ids in a bitmap
/// deduplicates for free, intersection is a word-wise AND, and iteration
/// yields ascending ids — the whole union/dedup/intersect pipeline runs
/// without a single sort or per-tuple allocation.
struct ProbeScratch {
    union: CandidateBitmap,
    acc: CandidateBitmap,
    out: Vec<TupleId>,
    locals: Vec<ProbeStats>,
    /// Per-B-tuple probe inputs, one per slot of the task's probe plan
    /// (see [`ProbePlan::new`]).
    tokens: Vec<ProbeTokens>,
}

impl ProbeScratch {
    /// Fresh state for one task probing `plan` over `a_len` A-tuples.
    fn new(a_len: usize, plan: &ProbePlan<'_>) -> Self {
        Self {
            union: CandidateBitmap::new(a_len),
            acc: CandidateBitmap::new(a_len),
            out: Vec::new(),
            locals: vec![ProbeStats::default(); plan.bundles.len()],
            tokens: std::iter::repeat_with(ProbeTokens::default)
                .take(plan.slots())
                .collect(),
        }
    }
}

/// Candidate A-ids for one B tuple across the given bundles, collected
/// into `scratch.out` (ascending, deduplicated). Returns `false` when
/// every bundle probed to "All" — the caller pairs `bid` with all of `A`.
///
/// The bundles are walked in plan order with `acc`, the running candidate
/// set: the first restricting bundle's union becomes `acc`, and every
/// later bundle is probed *within* it, so its union is already `acc ∩`
/// its full union — what intersecting full unions reaches in any order.
/// A bundle stops once its union covers `acc` (whatever its remaining
/// predicates answer, `acc` keeps its value); the walk stops when `acc`
/// is empty. What is examined depends on the order, what is emitted not.
///
/// Probes sink ids straight into the task's `union` bitmap and read the
/// B value's tokens through the task's shared [`ProbeTokens`] slots,
/// loaded from the store's `B` column by the first predicate that needs
/// them.
fn candidates_for(
    b: &Table,
    bid: TupleId,
    a_len: usize,
    plan: &ProbePlan<'_>,
    scratch: &mut ProbeScratch,
) -> bool {
    let ProbeScratch {
        union,
        acc,
        out,
        locals,
        tokens,
        ..
    } = scratch;
    tokens.iter_mut().for_each(ProbeTokens::reset);
    let mut restricted = false;
    for (bundle, stats) in plan.bundles.iter().zip(locals) {
        union.reset(a_len);
        let within = restricted.then_some(&*acc);
        let mut unrestricted = false;
        for p in &bundle.preds {
            let bv = b.value_ref(bid, p.b_idx).unwrap_or_default();
            let slot = &mut tokens[p.tokens.unwrap_or(0)];
            if !slot.is_loaded() {
                plan.preload(p, bid, slot, bv);
            }
            let sink = &mut |id| union.insert(id);
            unrestricted = !p.index.probe_into(bv, p.mode, slot, within, stats, sink);
            if unrestricted || within.is_some_and(|w| union.ones() == w.ones()) {
                break;
            }
        }
        if unrestricted {
            continue;
        }
        if restricted {
            acc.intersect(union);
        } else {
            acc.copy_from(union);
            restricted = true;
        }
        if acc.ones() == 0 {
            break;
        }
    }
    out.clear();
    if restricted {
        acc.for_each(|id| out.push(id));
    }
    restricted
}

/// The map task of both probe jobs: every `B` tuple of `bids` paired
/// with its candidates — or with all of `A` when no bundle restricts it —
/// in `bid` order, then the task's counters flushed.
fn probe_split(
    b: &Table,
    a_len: usize,
    plan: &ProbePlan<'_>,
    collector: &StatsCollector,
    bids: &[TupleId],
    mut emit: impl FnMut(TupleId, TupleId),
) {
    let mut scratch = ProbeScratch::new(a_len, plan);
    for &bid in bids {
        if candidates_for(b, bid, a_len, plan, &mut scratch) {
            scratch.out.iter().for_each(|&aid| emit(aid, bid));
        } else {
            (0..a_len as TupleId).for_each(|aid| emit(aid, bid));
        }
    }
    for (local, bu) in scratch.locals.iter().zip(&plan.bundles) {
        collector.add(bu.ci, local);
    }
}

/// Index probing + reducer evaluation (ApplyAll, ApplyGreedy, and
/// ReduceSplit over an empty plan): probes pair each `B` tuple with its
/// candidates, shuffled by `aid` to reducers that evaluate the sequence.
fn run_probe_reduce(
    cluster: &Cluster,
    a: &Table,
    b: &Table,
    evaluator: &PairEvaluator<'_>,
    plan: ProbePlan<'_>,
    collector: &StatsCollector,
    op: PhysicalOp,
) -> Result<BlockingOutput, BlockingError> {
    let out = run_map_reduce(
        cluster,
        id_splits(cluster, b),
        cluster.reduce_partitions(),
        |bids: &[TupleId], e: &mut Emitter<TupleId, TupleId>| {
            probe_split(b, a.len(), &plan, collector, bids, |aid, bid| {
                e.emit(aid, bid)
            });
        },
        |aid: &TupleId, bids: Vec<TupleId>, out: &mut Vec<IdPair>| {
            let mut scratch = EvalScratch::default();
            for bid in bids {
                if evaluator.keeps_scratch(*aid, bid, &mut scratch) {
                    out.push((*aid, bid));
                }
            }
        },
    )?;
    Ok(BlockingOutput::new(op, out.output, vec![out.stats]))
}

/// Probe-only wave for one bundle set: returns the pairs it admits.
fn run_probe_wave(
    cluster: &Cluster,
    a: &Table,
    b: &Table,
    plan: ProbePlan<'_>,
    collector: &StatsCollector,
) -> Result<(Vec<IdPair>, JobStats), BlockingError> {
    let out = run_map_only(
        cluster,
        id_splits(cluster, b),
        |bids: &[TupleId], out: &mut Vec<IdPair>| {
            probe_split(b, a.len(), &plan, collector, bids, |aid, bid| {
                out.push((aid, bid));
            });
        },
    )?;
    Ok((out.output, out.stats))
}

/// Final evaluation of the rule sequence over a pair set (map-only);
/// returns the surviving pairs, sorted.
pub(crate) fn run_evaluate(
    cluster: &Cluster,
    evaluator: &PairEvaluator<'_>,
    pairs: &[IdPair],
) -> Result<(Vec<IdPair>, JobStats), BlockingError> {
    // A map task streams its split through the evaluator with one
    // evaluator scratch.
    let splits = cluster.split_slice(pairs);
    let out = run_map_only(cluster, splits, |pair_chunk: &[IdPair], out| {
        let mut scratch = EvalScratch::default();
        for &(aid, bid) in pair_chunk {
            if evaluator.keeps_scratch(aid, bid, &mut scratch) {
                out.push((aid, bid));
            }
        }
    })?;
    let mut kept = out.output;
    kept.sort_unstable();
    Ok((kept, out.stats))
}

/// Conjunct positions by ascending sample selectivity (a missing entry
/// reads 1.0): `min_by` and a stable sort both break ties towards the
/// earlier conjunct.
fn by_selectivity(selectivities: &[f64]) -> impl Fn(&usize, &usize) -> std::cmp::Ordering + '_ {
    let sel = |ci: usize| selectivities.get(ci).copied().unwrap_or(1.0);
    move |&x, &y| sel(x).total_cmp(&sel(y))
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
    built: &BuiltIndexes<'_>,
    rule_selectivities: &[f64],
    max_pairs: u128,
) -> Result<BlockingOutput, BlockingError> {
    // The evaluator and the probes read the columns of the sequence's
    // features (`conjuncts` is its filter layout). A cache over the run's
    // store holds them; one filled on demand holds `A`'s index columns
    // only, so they are profiled here, over its dictionary, for this call.
    let needs = seq_requirements(features, seq);
    let store = &*built.store().covering(a, b, &needs);
    let evaluator = PairEvaluator::over(store, a, b, features, seq);
    let filterable = conjuncts.filterable();
    let collector = StatsCollector::new(conjuncts.specs.len());
    let mut modes: Vec<Vec<ProbeMode>> = vec![Vec::new(); conjuncts.specs.len()];
    let mut result = match op {
        PhysicalOp::ApplyAll => {
            if filterable.is_empty() {
                return Err(BlockingError::NoFilterableConjunct);
            }
            // Most selective conjunct first: the running candidate set
            // every later conjunct is probed within starts small.
            let mut order = filterable;
            order.sort_by(by_selectivity(rule_selectivities));
            let mut bundles = bundles_for(conjuncts, built, &order);
            record_modes(&mut modes, &bundles);
            // Token-free predicates first (the modes above are recorded
            // in the conjunct's own order): a missing scalar skips the
            // bundle before a posting is walked, cheap hits cover `acc`.
            let reads_tokens = |p: &Pred| p.index.token_source().is_some();
            (bundles.iter_mut()).for_each(|bu| bu.preds.sort_by_key(reads_tokens));
            let plan = ProbePlan::new(bundles, store);
            run_probe_reduce(cluster, a, b, &evaluator, plan, &collector, op)?
        }
        PhysicalOp::ApplyGreedy => {
            let best = filterable
                .iter()
                .copied()
                .min_by(by_selectivity(rule_selectivities))
                .ok_or(BlockingError::NoFilterableConjunct)?;
            let plan = ProbePlan::new(bundles_for(conjuncts, built, &[best]), store);
            record_modes(&mut modes, &plan.bundles);
            run_probe_reduce(cluster, a, b, &evaluator, plan, &collector, op)?
        }
        PhysicalOp::ApplyConjunct | PhysicalOp::ApplyPredicate => {
            if filterable.is_empty() {
                return Err(BlockingError::NoFilterableConjunct);
            }
            // Per conjunct, the bundles whose waves are unioned: the whole
            // conjunct in one wave (`ApplyConjunct`), or one wave per
            // predicate, each holding a single predicate index
            // (`ApplyPredicate`). If *any* predicate of the conjunct cannot
            // be probed, the whole conjunct is skipped: a partial union
            // would shrink the candidate set and lose recall, while
            // skipping the conjunct only admits extra candidates.
            let groups = filterable.iter().filter_map(|&ci| {
                let preds = 0..conjuncts.specs[ci].len();
                if op == PhysicalOp::ApplyConjunct {
                    Bundle::new(conjuncts, built, ci, preds).map(|bundle| vec![bundle])
                } else {
                    preds
                        .map(|pi| Bundle::new(conjuncts, built, ci, [pi]))
                        .collect::<Option<Vec<Bundle>>>()
                }
            });
            let mut jobs = Vec::new();
            // Sorted, deduplicated pair lists throughout.
            let mut acc: Option<Vec<IdPair>> = None;
            for bundles in groups {
                record_modes(&mut modes, &bundles);
                let mut union: Vec<IdPair> = Vec::new();
                for bundle in bundles {
                    let plan = ProbePlan::new(vec![bundle], store);
                    let (pairs, stats) = run_probe_wave(cluster, a, b, plan, &collector)?;
                    jobs.push(stats);
                    union.extend(pairs);
                }
                union.sort_unstable();
                union.dedup();
                acc = Some(match acc {
                    None => union,
                    Some(mut prev) => {
                        prev.retain(|p| union.binary_search(p).is_ok());
                        prev
                    }
                });
            }
            let pairs = acc.unwrap_or_default();
            let (candidates, stats) = run_evaluate(cluster, &evaluator, &pairs)?;
            jobs.push(stats);
            BlockingOutput::new(op, candidates, jobs)
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
                let out = run_map_only(cluster, id_splits(cluster, b), |bids: &[TupleId], out| {
                    let mut scratch = EvalScratch::default();
                    // `A` outermost: each `A` tuple is printed once per
                    // task (the output is sorted below).
                    for aid in 0..a_len {
                        for &bid in bids {
                            if evaluator.keeps_scratch(aid, bid, &mut scratch) {
                                out.push((aid, bid));
                            }
                        }
                    }
                })?;
                BlockingOutput::new(op, out.output, vec![out.stats])
            } else {
                // No bundle restricts a `B` tuple: the probe job pairs it
                // with all of `A`.
                let plan = ProbePlan::new(Vec::new(), store);
                run_probe_reduce(cluster, a, b, &evaluator, plan, &collector, op)?
            }
        }
    };
    result.blocking = collector.finish(&modes);
    Ok(result)
}

/// `apply_greedy`'s selection ratio (paper: 0.8): it is chosen when the
/// sequence keeps at least this share of what its most selective
/// filterable conjunct keeps.
pub const GREEDY_RATIO: f64 = 0.8;

/// The Section 10.1 physical-operator selection rules.
pub fn select_physical(
    conjuncts: &ConjunctSpecs,
    built: &BuiltIndexes<'_>,
    rule_selectivities: &[f64],
    seq_selectivity: f64,
    mapper_memory: usize,
    a_bytes: usize,
) -> PhysicalOp {
    let filterable = conjuncts.filterable();
    if !filterable.is_empty() {
        // The index bytes of each predicate of conjunct `ci`.
        let pred_bytes = |ci: usize| {
            conjuncts.specs[ci]
                .iter()
                .flatten()
                .map(|(s, _)| built.bytes_of(s))
        };
        // Per-conjunct index byte totals.
        let conj_bytes: Vec<(usize, usize)> = filterable
            .iter()
            .map(|&ci| (ci, pred_bytes(ci).sum()))
            .collect();
        // Most selective filterable conjunct (`conj_bytes` is non-empty
        // because `filterable` is; the if-let keeps this panic-free).
        let most_selective = by_selectivity(rule_selectivities);
        if let Some((best_ci, best_bytes)) =
            (conj_bytes.iter().copied()).min_by(|(x, _), (y, _)| most_selective(x, y))
        {
            let best_sel = rule_selectivities.get(best_ci).copied().unwrap_or(1.0);
            if best_sel > 0.0
                && seq_selectivity / best_sel >= GREEDY_RATIO
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
            let max_pred = (filterable.iter())
                .flat_map(|&ci| pred_bytes(ci))
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
