//! Per-predicate filter specification, index bundle, and the probe routine
//! (`FindProbableCandidates` of Algorithm 1): one kernel, fed from `B`'s
//! token-id column or, decoded first, from a value.
//!
//! ## Missing-value semantics
//!
//! Blocking must be recall-safe on dirty data: a pair may never be
//! dropped because a value is *missing*. Falcon's rule layer therefore
//! treats a missing feature value as "maximally similar", which means
//! every filterable positive-rule predicate (`sim > t`, `dist <= v`) is
//! **satisfied** when either side's value is missing. Consequences for
//! every filter kind:
//!
//! * `A` tuples whose indexed value is missing are *permanent candidates*
//!   (kept in a `missing` side list returned by every probe), and
//! * a probe with a missing `B` value matches **all** of `A`
//!   ([`Candidates::All`]).
//!
//! Similarity-below-threshold and distance-above-threshold predicates
//! match (almost) all dissimilar pairs and admit no index:
//! [`FilterSpec`] construction reports them as unfilterable.

use crate::bitmap::CandidateBitmap;
use crate::inverted::{PrefixIndex, TokenColumn, TokenOrder};
use crate::scalar::{HashIndex, LengthIndex, RangeIndex};
use crate::signature::{token_hash, ProbeSig, ProbeStats, SignatureIndex};
use crate::verdict::VerdictTable;
use falcon_table::{Table, TupleId, Value, ValueRef};
use falcon_textsim::DetMap;
use falcon_textsim::{prefix, SimFunction, TokenDict, Tokenizer};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// Widest allowed signature (64 words = 4096 bits): wider adds memory
/// without measurable extra pruning, and the cap keeps `words × 64`
/// arithmetic comfortably inside `u64`.
pub const MAX_SIGNATURE_WORDS: usize = 64;

/// What kind of index-based filtering a positive-rule predicate admits.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterSpec {
    /// `exact_match(a.x, b.y) = 1` → equivalence filter (hash index).
    Equals {
        /// Indexed A-side attribute.
        a_attr: String,
    },
    /// `abs_diff/rel_diff(a.x, b.y) <= v` → range filter (sorted index).
    Range {
        /// Indexed A-side attribute.
        a_attr: String,
        /// Distance threshold `v`.
        width: f64,
        /// True for `rel_diff` (relative width).
        relative: bool,
    },
    /// `sim(a.x, b.y) > t` for a set measure → prefix + position + length
    /// filters.
    SetSim {
        /// Indexed A-side attribute.
        a_attr: String,
        /// The set similarity measure (carries its tokenizer).
        sim: SimFunction,
        /// Similarity threshold `t`.
        threshold: f64,
    },
    /// `levenshtein(a.x, b.y) > t` → character-length filter plus a
    /// share-a-qgram filter where provably sound.
    EditSim {
        /// Indexed A-side attribute.
        a_attr: String,
        /// Similarity threshold `t`.
        threshold: f64,
    },
    /// Signature pre-filter wrapped around a set-similarity filter: the
    /// inner filters still run, but each pair is first tested with a
    /// `words × 64`-bit Bloom fingerprint popcount bound (see
    /// [`crate::signature`]). Only provably a candidate-superset over
    /// [`FilterSpec::SetSim`] inners — the static verifier rejects
    /// anything else.
    Signature {
        /// The exact filter the signature gates (must be `SetSim`).
        inner: Box<FilterSpec>,
        /// Signature width in 64-bit words (1..=64).
        words: usize,
    },
}

impl FilterSpec {
    /// Classify a positive-rule predicate `sim(a.x, b.y) op v` into a
    /// filter spec. `gt` is true for `> v` predicates (from complementing
    /// `<=` splits), false for `<= v`. Returns `None` when the predicate is
    /// unfilterable (dissimilarity predicates, exotic measures).
    pub fn from_predicate(sim: SimFunction, a_attr: &str, gt: bool, v: f64) -> Option<FilterSpec> {
        // Similarity must EXCEED a threshold, or distance stay BELOW one.
        let filterable = match sim {
            SimFunction::ExactMatch => gt && (0.0..1.0).contains(&v),
            SimFunction::Levenshtein => gt && v > 0.0,
            SimFunction::AbsDiff => !gt,
            SimFunction::RelDiff => !gt && v < 1.0,
            s => gt && s.is_set_based() && v > 0.0,
        };
        filterable.then(|| FilterSpec::for_sim(sim, a_attr, v))
    }

    /// The filter kind `sim` indexes with, over `a_attr`, at threshold
    /// (set/edit similarity) or width (ranges) `v`: the one similarity →
    /// filter-kind mapping. No domain guard applies, so an out-of-domain
    /// `v` or a non-set measure yields a spec [`FilterSpec::verify`]
    /// rejects; [`FilterSpec::from_predicate`] adds the guards.
    pub fn for_sim(sim: SimFunction, a_attr: &str, v: f64) -> FilterSpec {
        let a_attr = a_attr.to_string();
        match sim {
            SimFunction::ExactMatch => FilterSpec::Equals { a_attr },
            SimFunction::AbsDiff => FilterSpec::Range {
                a_attr,
                width: v,
                relative: false,
            },
            SimFunction::RelDiff => FilterSpec::Range {
                a_attr,
                width: v,
                relative: true,
            },
            SimFunction::Levenshtein => FilterSpec::EditSim {
                a_attr,
                threshold: v,
            },
            sim => FilterSpec::SetSim {
                a_attr,
                sim,
                threshold: v,
            },
        }
    }

    /// True when this spec is the kind [`FilterSpec::for_sim`] gives `sim`
    /// over `a_attr`, at any threshold or width.
    pub fn is_for(&self, sim: SimFunction, a_attr: &str) -> bool {
        self.a_attr() == a_attr
            && match (self, FilterSpec::for_sim(sim, a_attr, 0.0)) {
                (FilterSpec::Range { relative: r, .. }, FilterSpec::Range { relative: k, .. }) => {
                    *r == k
                }
                (FilterSpec::SetSim { sim: s, .. }, FilterSpec::SetSim { sim: k, .. }) => *s == k,
                (FilterSpec::Equals { .. }, FilterSpec::Equals { .. })
                | (FilterSpec::EditSim { .. }, FilterSpec::EditSim { .. }) => true,
                _ => false,
            }
    }

    /// The A-side attribute the filter indexes.
    pub fn a_attr(&self) -> &str {
        match self {
            FilterSpec::Equals { a_attr }
            | FilterSpec::Range { a_attr, .. }
            | FilterSpec::SetSim { a_attr, .. }
            | FilterSpec::EditSim { a_attr, .. } => a_attr,
            FilterSpec::Signature { inner, .. } => inner.a_attr(),
        }
    }

    /// Wrap this spec with a `words`-word signature pre-filter when the
    /// signature layer is provably lossless for it (set-similarity
    /// filters only); other specs are returned unchanged. This is the
    /// only constructor planner code should use — it can never produce a
    /// spec that `verify()` rejects for a valid `words`.
    pub fn with_signature(self, words: usize) -> FilterSpec {
        match self {
            spec @ FilterSpec::SetSim { .. } => FilterSpec::Signature {
                inner: Box::new(spec),
                words,
            },
            spec => spec,
        }
    }

    /// Strip any signature wrapper, yielding the exact filter spec.
    pub fn without_signature(&self) -> &FilterSpec {
        match self {
            FilterSpec::Signature { inner, .. } => inner.without_signature(),
            spec => spec,
        }
    }

    /// The recall-safety proof obligations this spec must discharge, each
    /// paired with whether it holds. The obligations are exactly the
    /// monotonicity conditions `falcon-index/tests/lossless.rs` exercises
    /// dynamically: a spec that discharges all of them prunes only pairs
    /// that provably fail its predicate, so blocking stays lossless.
    pub fn obligations(&self) -> Vec<(Obligation, bool)> {
        match self {
            // Hash-equality pruning never drops a satisfying pair:
            // `exact_match = 1` implies identical rendered values.
            FilterSpec::Equals { .. } => Vec::new(),
            FilterSpec::Range {
                width, relative, ..
            } => {
                let mut obs = vec![
                    (Obligation::WidthFinite, width.is_finite()),
                    (Obligation::WidthNonNegative, *width >= 0.0),
                ];
                if *relative {
                    // rel_diff ranges over [0, 2]; the sorted-index window
                    // `|a-b| <= w·max(|a|,|b|)` is only invertible to a
                    // probe range when w < 1.
                    obs.push((Obligation::RelativeWidthBelowOne, *width < 1.0));
                }
                obs
            }
            FilterSpec::SetSim { sim, threshold, .. } => vec![
                // Prefix/position/length filtering is derived from token
                // *set* overlap bounds; a non-set measure (even one that
                // happens to carry a tokenizer, like MongeElkan) admits no
                // such bound.
                (Obligation::SetBasedSim, sim.is_set_based()),
                (Obligation::ThresholdFinite, threshold.is_finite()),
                // t <= 0 would make the prefix filter prune zero-overlap
                // pairs that still satisfy `sim > t` — false negatives.
                (Obligation::ThresholdPositive, *threshold > 0.0),
            ],
            FilterSpec::EditSim { threshold, .. } => vec![
                (Obligation::ThresholdFinite, threshold.is_finite()),
                (Obligation::ThresholdPositive, *threshold > 0.0),
            ],
            FilterSpec::Signature { inner, words } => {
                // The inner filter's obligations still apply verbatim (the
                // exact path runs behind the gate), plus two signature
                // obligations: a usable width, and the superset proof —
                // the popcount bound is derived from the set-overlap
                // requirement `required_overlap`, which exists only for
                // set-similarity filters. Wrapping anything else (ranges,
                // equality, edit distance, another signature) has no such
                // bound and could prune satisfying pairs.
                let mut obs = inner.obligations();
                obs.push((
                    Obligation::SignatureWidthValid,
                    (1..=MAX_SIGNATURE_WORDS).contains(words),
                ));
                obs.push((
                    Obligation::SignatureSuperset,
                    matches!(**inner, FilterSpec::SetSim { .. }),
                ));
                obs
            }
        }
    }

    /// Check every obligation, returning the first that fails.
    pub fn verify(&self) -> Result<(), Obligation> {
        match self.obligations().into_iter().find(|(_, holds)| !holds) {
            None => Ok(()),
            Some((ob, _)) => Err(ob),
        }
    }
}

/// One recall-safety proof obligation on a [`FilterSpec`]: a condition
/// under which the index's pruning is provably lossless (prunes only
/// pairs that fail the predicate). See [`FilterSpec::obligations`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Obligation {
    /// A similarity threshold must be finite (NaN/∞ break the prefix and
    /// length bound arithmetic).
    ThresholdFinite,
    /// A similarity threshold must be strictly positive: at `t <= 0` even
    /// zero-overlap pairs satisfy `sim > t`, but the prefix filter would
    /// prune them.
    ThresholdPositive,
    /// A set-similarity spec's measure must actually be set-based
    /// (prefix/position/length bounds exist only for set-overlap
    /// measures).
    SetBasedSim,
    /// A range width must be finite.
    WidthFinite,
    /// A range width must be non-negative (a negative width matches
    /// nothing numerically, yet missing-value pairs still satisfy the
    /// predicate).
    WidthNonNegative,
    /// A relative range width must be below one for the probe window to
    /// be invertible (`rel_diff` ranges over [0, 2]).
    RelativeWidthBelowOne,
    /// A signature width must lie in `1..=MAX_SIGNATURE_WORDS` 64-bit
    /// words (zero-width signatures have no bits to compare; absurd
    /// widths waste memory for no pruning).
    SignatureWidthValid,
    /// A signature pre-filter must be provably a candidate-superset: the
    /// popcount bound exists only for set-similarity filters, so only a
    /// `SetSim` inner can be wrapped.
    SignatureSuperset,
}

impl Obligation {
    /// Human-readable statement of the condition.
    pub fn describe(self) -> &'static str {
        match self {
            Obligation::ThresholdFinite => "similarity threshold is finite",
            Obligation::ThresholdPositive => "similarity threshold is strictly positive",
            Obligation::SetBasedSim => "similarity function is set-based",
            Obligation::WidthFinite => "range width is finite",
            Obligation::WidthNonNegative => "range width is non-negative",
            Obligation::RelativeWidthBelowOne => "relative range width is below one",
            Obligation::SignatureWidthValid => "signature width is between 1 and 64 words",
            Obligation::SignatureSuperset => {
                "signature pre-filter provably passes a candidate superset \
                 (requires a set-similarity inner filter)"
            }
        }
    }
}

impl std::fmt::Display for Obligation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.describe())
    }
}

/// Candidate set returned by the allocating probe wrappers
/// ([`PredicateIndex::probe`] and friends).
#[derive(Debug, Clone, PartialEq)]
pub enum Candidates {
    /// Every `A` tuple is a candidate (no pruning possible for this probe).
    All,
    /// These ids (possibly with duplicates) are the only candidates.
    Some(Vec<TupleId>),
}

impl ProbeMode {
    /// Short display name ("off" / "gate" / "dense").
    pub fn name(self) -> &'static str {
        match self {
            ProbeMode::Off => "off",
            ProbeMode::Gate => "gate",
            ProbeMode::Dense => "dense",
        }
    }
}

/// What a set-similarity probe reads of one `B` value, computed once and
/// shared by every predicate probing the same `(B attribute, tokenizer,
/// token order)`: the value's distinct tokens in the order's rank space,
/// one [`ProbeSig`] per signature width asked for, and the reusable
/// [`VerdictTable`] buffer. Callers holding `B`'s token profile load it
/// with [`ProbeTokens::load_ids`]; otherwise [`PredicateIndex::probe_into`]
/// tokenizes the value on first use. Either way it is
/// [`ProbeTokens::reset`] before the next `B` value.
#[derive(Debug, Default)]
pub struct ProbeTokens {
    loaded: bool,
    /// The rendered value was empty (missing): the probe matches all of `A`.
    missing: bool,
    /// Ranks of the value's ranked tokens, ascending. The other tokens are
    /// outside the order: they sort before every ranked one and hit no
    /// posting.
    pub(crate) seen: Vec<u32>,
    /// [`token_hash`] of every token, ranked or not.
    pub(crate) hashes: Vec<u64>,
    sigs: Vec<ProbeSig>,
    table: VerdictTable,
}

impl ProbeTokens {
    /// Forget the current value (keeps the buffers).
    pub fn reset(&mut self) {
        self.loaded = false;
    }

    /// True once a value was loaded since the last [`ProbeTokens::reset`].
    pub fn is_loaded(&self) -> bool {
        self.loaded
    }

    fn fill(&mut self, missing: bool, tokens: impl Iterator<Item = (Option<u32>, u64)>) {
        self.loaded = true;
        self.missing = missing;
        self.seen.clear();
        self.hashes.clear();
        self.sigs.clear();
        for (rank, hash) in tokens {
            self.seen.extend(rank);
            self.hashes.push(hash);
        }
        self.seen.sort_unstable();
    }

    /// Load `b_value` from `ids`, its distinct tokens as ids of `dict` —
    /// the dictionary `order` was built over, or a later state of it.
    pub fn load_ids(
        &mut self,
        b_value: ValueRef<'_>,
        ids: &[u32],
        order: &TokenOrder,
        dict: &TokenDict,
    ) {
        let token = |&id: &u32| match order.rank_of(id) {
            Some(rank) => (Some(rank), order.hash(rank)),
            None => (None, token_hash(dict.resolve(id).unwrap_or_default())),
        };
        // A value with tokens is not missing; numbers always have some.
        let missing = ids.is_empty() && rendered_key(b_value, &mut String::new()).is_empty();
        self.fill(missing, ids.iter().map(token));
    }

    /// Load `b_value` by tokenizing it and looking each token up in the
    /// order's dictionary: the decode step in front of the same kernel.
    pub(crate) fn load(&mut self, b_value: ValueRef<'_>, tokenizer: Tokenizer, order: &TokenOrder) {
        let mut scratch = String::new();
        let raw = rendered_key(b_value, &mut scratch);
        let token = |t: &String| (order.rank(t), token_hash(t));
        self.fill(
            raw.is_empty(),
            tokenizer.tokenize_sorted(raw).iter().map(token),
        );
    }
}

/// The `words`-wide signature of the probe's tokens, built on first use.
fn probe_sig<'a>(sigs: &'a mut Vec<ProbeSig>, hashes: &[u64], words: usize) -> &'a ProbeSig {
    let i = sigs
        .iter()
        .position(|s| s.words() == words)
        .unwrap_or_else(|| {
            sigs.push(ProbeSig::build(hashes.iter().copied(), words));
            sigs.len() - 1
        });
    &sigs[i]
}

/// How a signature-wrapped predicate index answers a probe. Chosen per
/// conjunct by the planner from signature density and postings stats
/// ([`PredicateIndex::plan_probe_mode`]); every mode yields a lossless
/// candidate set, they differ only in cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeMode {
    /// Exact filters only (signatures too dense to prune anything).
    Off,
    /// Walk the inverted index, gating each posting with the signature
    /// popcount bound before exact length/position filtering.
    Gate,
    /// Skip the inverted index: scan the dense signature column and keep
    /// every id the popcount + length bounds cannot refute. Returns a
    /// superset of the exact probe's output — downstream exact rule
    /// evaluation makes the final candidate pairs identical.
    Dense,
}

/// Built index bundle for one filterable predicate.
///
/// ```
/// use falcon_index::{FilterSpec, PredicateIndex};
/// use falcon_index::spec::Candidates;
/// use falcon_table::{AttrType, Schema, Table, Value};
/// use falcon_textsim::{SimFunction, Tokenizer};
///
/// let schema = Schema::new([("title", AttrType::Str)]);
/// let a = Table::new("A", schema, vec![
///     vec![Value::str("digital camera")],
///     vec![Value::str("gaming mouse")],
/// ]);
/// let spec = FilterSpec::SetSim {
///     a_attr: "title".into(),
///     sim: SimFunction::Jaccard(Tokenizer::Word),
///     threshold: 0.5,
/// };
/// let index = PredicateIndex::try_build(&a, &spec, None).expect("valid filter spec");
/// match index.probe(&Value::str("compact digital camera")) {
///     Candidates::Some(ids) => assert!(ids.contains(&0) && !ids.contains(&1)),
///     Candidates::All => unreachable!(),
/// }
/// ```
#[derive(Debug, Clone)]
pub enum PredicateIndex {
    /// Equivalence filter; `missing` lists A-ids with absent values
    /// (always candidates under missing-is-similar semantics).
    Equals {
        /// Hash index over present values.
        index: HashIndex,
        /// Ids with missing values.
        missing: Vec<TupleId>,
    },
    /// Range filter over numeric values; `missing` lists A-ids whose value
    /// is absent (they satisfy `dist <= v` vacuously under Le/NaN
    /// semantics).
    Range {
        /// Sorted numeric index.
        index: RangeIndex,
        /// Ids with missing values (always candidates).
        missing: Vec<TupleId>,
        /// Distance threshold.
        width: f64,
        /// True for `rel_diff`.
        relative: bool,
    },
    /// Prefix/position/length filters for one set-similarity predicate.
    SetSim {
        /// Prefix inverted index (over the shared [`TokenColumn`]).
        index: PrefixIndex,
        /// Global token order shared between index and probes (one
        /// allocation per `(attribute, tokenizer)`, however many
        /// thresholds are indexed over it).
        order: Arc<TokenOrder>,
        /// The measure.
        sim: SimFunction,
        /// Threshold.
        threshold: f64,
        /// Ids with missing values (always candidates); the column's list.
        missing: Arc<[TupleId]>,
    },
    /// Signature pre-filter over an exact set-similarity bundle: a dense
    /// Bloom fingerprint column consulted before (or instead of) the
    /// inner inverted-index probe.
    Signature {
        /// Per-tuple fingerprints (one allocation per column and width).
        sigs: Arc<SignatureIndex>,
        /// The exact filter bundle behind the gate (always `SetSim`).
        exact: Box<PredicateIndex>,
        /// The cheapest lossless probe mode, planned once at build
        /// ([`PredicateIndex::plan_probe_mode`]).
        mode: ProbeMode,
    },
    /// Character-length + shared-qgram filters for Levenshtein predicates.
    Edit {
        /// Length index over character counts.
        lengths: LengthIndex,
        /// qgram -> ids, for ids where the shared-qgram condition is sound.
        qgrams: DetMap<String, Vec<TupleId>>,
        /// `Σ (qgram length + 48 + 4 · ids)` over `qgrams`, counted at build.
        qgram_bytes: usize,
        /// Ids where qgram pruning is not sound (always candidates after
        /// the length filter).
        unprunable: Vec<TupleId>,
        /// Per-id character length (usize::MAX = missing).
        char_lens: Vec<usize>,
        /// Threshold.
        threshold: f64,
        /// Ids with missing values (always candidates).
        missing: Vec<TupleId>,
    },
}

const QGRAM: usize = 3;

/// A structural problem with a [`FilterSpec`] discovered while building
/// its index: the spec references something the table or similarity
/// function does not provide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexError {
    /// The spec names an attribute that the `A` table's schema lacks.
    MissingAttribute {
        /// The missing attribute name.
        attr: String,
    },
    /// A set-similarity spec carries a similarity function with no
    /// tokenizer (i.e. not actually set-based).
    NotSetBased {
        /// Debug rendering of the offending similarity function.
        sim: String,
    },
    /// The spec fails one of its recall-safety proof obligations
    /// ([`FilterSpec::obligations`]): building this index could prune
    /// pairs that satisfy the predicate, i.e. introduce false negatives.
    RecallUnsafe {
        /// The obligation that does not hold.
        obligation: Obligation,
        /// Debug rendering of the offending spec.
        spec: String,
    },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingAttribute { attr } => {
                write!(f, "attribute {attr:?} missing from table A")
            }
            Self::NotSetBased { sim } => {
                write!(f, "similarity function {sim} is not set-based")
            }
            Self::RecallUnsafe { obligation, spec } => {
                write!(
                    f,
                    "recall-unsafe filter {spec}: obligation not met: {obligation}"
                )
            }
        }
    }
}

impl std::error::Error for IndexError {}

impl PredicateIndex {
    /// Build the index bundle for `spec` over table `a`. A set-similarity
    /// spec is built over `shared`, its attribute's column from the
    /// caller's token store; without one the attribute is tokenized here.
    pub fn try_build(
        a: &Table,
        spec: &FilterSpec,
        shared: Option<&mut TokenColumn>,
    ) -> Result<PredicateIndex, IndexError> {
        spec.verify()
            .map_err(|obligation| IndexError::RecallUnsafe {
                obligation,
                spec: format!("{spec:?}"),
            })?;
        let attr_idx =
            a.schema()
                .index_of(spec.a_attr())
                .ok_or_else(|| IndexError::MissingAttribute {
                    attr: spec.a_attr().to_string(),
                })?;
        Ok(match spec {
            FilterSpec::Equals { .. } => {
                // One streaming pass over the column: no per-row Value
                // materialization, no intermediate rendered vector.
                let mut index = HashIndex::default();
                let mut missing = Vec::new();
                a.for_each_rendered(attr_idx, |id, s| {
                    if s.is_empty() {
                        missing.push(id);
                    } else {
                        index.insert(id, s);
                    }
                });
                PredicateIndex::Equals { index, missing }
            }
            FilterSpec::Range {
                width, relative, ..
            } => {
                let mut missing = Vec::new();
                let mut present = Vec::new();
                a.for_each_value(attr_idx, |id, v| match v.as_num() {
                    Some(x) => present.push((id, x)),
                    None => missing.push(id),
                });
                PredicateIndex::Range {
                    index: RangeIndex::build(present.into_iter()),
                    missing,
                    width: *width,
                    relative: *relative,
                }
            }
            FilterSpec::SetSim { sim, threshold, .. } => {
                build_setsim(a, attr_idx, *sim, *threshold, shared, None)?
            }
            FilterSpec::Signature { inner, words } => {
                // `verify()` above proved the inner is SetSim; the fallback
                // arm keeps the function total if that invariant ever
                // weakens (an unwrapped build is recall-safe regardless).
                match &**inner {
                    FilterSpec::SetSim { sim, threshold, .. } => {
                        build_setsim(a, attr_idx, *sim, *threshold, shared, Some(*words))?
                    }
                    other => Self::try_build(a, other, shared)?,
                }
            }
            FilterSpec::EditSim { threshold, .. } => {
                let t = *threshold;
                let mut lengths = Vec::new();
                let mut qgrams: DetMap<String, Vec<TupleId>> = DetMap::new();
                let mut qgram_bytes = 0;
                let mut unprunable = Vec::new();
                let mut missing = Vec::new();
                let mut char_lens = vec![usize::MAX; a.len()];
                a.for_each_rendered(attr_idx, |id, s| {
                    if s.is_empty() {
                        missing.push(id); // missing is always a candidate
                        return;
                    }
                    let n = s.chars().count();
                    char_lens[id as usize] = n;
                    lengths.push((id, n));
                    // Shared-qgram condition: any y with lev_sim >= t has
                    // ED <= (1-t)·max(|x|,|y|) <= (1-t)/t·|x| =: d. x and y
                    // then share >= (|x| - q + 1) - d·q qgrams. Pruning by
                    // "shares >= 1 qgram" is sound iff that bound >= 1.
                    let d = ((1.0 - t) / t * n as f64).floor();
                    let min_shared = (n as f64 - QGRAM as f64 + 1.0) - d * QGRAM as f64;
                    if min_shared >= 1.0 {
                        for g in falcon_textsim::tokenize::qgrams(s, QGRAM) {
                            let slot = qgrams.entry(g);
                            if let Entry::Vacant(v) = &slot {
                                qgram_bytes += v.key().len() + 48;
                            }
                            let list = slot.or_default();
                            if list.last() != Some(&id) {
                                list.push(id);
                                qgram_bytes += 4;
                            }
                        }
                    } else {
                        unprunable.push(id);
                    }
                });
                PredicateIndex::Edit {
                    lengths: LengthIndex::build(lengths.into_iter()),
                    qgrams,
                    qgram_bytes,
                    unprunable,
                    char_lens,
                    threshold: t,
                    missing,
                }
            }
        })
    }

    /// Probe with the `B`-side value of the predicate. Returns candidate
    /// `A` ids passing every filter of this predicate.
    pub fn probe(&self, b_value: &Value) -> Candidates {
        self.probe_ref(b_value.as_value_ref())
    }

    /// Borrowed-value form of [`PredicateIndex::probe`]: probe with a
    /// [`ValueRef`] pulled straight from a columnar table.
    /// Signature-wrapped indexes probe in their self-planned mode.
    pub fn probe_ref(&self, b_value: ValueRef<'_>) -> Candidates {
        let mut stats = ProbeStats::default();
        self.probe_ref_stats(b_value, self.plan_probe_mode(), &mut stats)
    }

    /// The cheapest lossless probe mode for this index, planned when it
    /// was built. Non-signature indexes always run exact
    /// ([`ProbeMode::Off`]); for signature bundles the decision weighs
    /// signature density (dense fingerprints cannot prune) against
    /// expected inverted-index work per probe (when a probe is expected
    /// to touch more postings than there are signed tuples, a flat
    /// signature scan is cheaper than walking postings).
    pub fn plan_probe_mode(&self) -> ProbeMode {
        match self {
            PredicateIndex::Signature { mode, .. } => *mode,
            _ => ProbeMode::Off,
        }
    }

    /// [`PredicateIndex::probe_into`] collected into a fresh vector, with
    /// one-shot probe inputs.
    pub fn probe_ref_stats(
        &self,
        b_value: ValueRef<'_>,
        mode: ProbeMode,
        stats: &mut ProbeStats,
    ) -> Candidates {
        let mut out = Vec::new();
        let mut tokens = ProbeTokens::default();
        if self.probe_into(b_value, mode, &mut tokens, None, stats, &mut |id| {
            out.push(id)
        }) {
            Candidates::Some(out)
        } else {
            Candidates::All
        }
    }

    /// The tokenizer and global token order a set-similarity index reads
    /// its probe tokens through (`None` for scalar and edit indexes).
    /// Predicates that agree on both — and on the `B` attribute — can
    /// share one [`ProbeTokens`] per `B` value.
    pub fn token_source(&self) -> Option<(Tokenizer, &Arc<TokenOrder>)> {
        match self {
            PredicateIndex::SetSim { order, sim, .. } => Some((sim.tokenizer()?, order)),
            PredicateIndex::Signature { exact, .. } => exact.token_source(),
            _ => None,
        }
    }

    /// The probe kernel: send every `A` id passing this predicate's
    /// filters to `sink` (ids may repeat) and account for each examined
    /// probe in `stats`. Returns `false` — without calling `sink` — when
    /// the probe cannot prune (a missing `B` value is "similar" to
    /// everything), i.e. all of `A` is a candidate.
    ///
    /// Under `within = Some(w)` — the caller's running candidate set —
    /// exactly the passing ids in `w` reach the sink: an id outside `w` is
    /// refuted before any filter of this predicate runs (examined,
    /// `pruned_by_exact`), and a dense scan visits only `w`'s members.
    ///
    /// `mode` is ignored by non-signature indexes. Every mode is
    /// lossless; `Dense` may admit a *superset* of the exact probe's
    /// candidates (exact rule evaluation downstream makes final candidate
    /// pairs identical). `tokens` must be fresh, reset, or already loaded
    /// from this `b_value` by an index with the same
    /// [`PredicateIndex::token_source`]; scalar indexes ignore it.
    pub fn probe_into(
        &self,
        b_value: ValueRef<'_>,
        mode: ProbeMode,
        tokens: &mut ProbeTokens,
        within: Option<&CandidateBitmap>,
        stats: &mut ProbeStats,
        sink: &mut impl FnMut(TupleId),
    ) -> bool {
        let mut scratch = String::new();
        match self {
            PredicateIndex::Equals { index, missing } => {
                let key = rendered_key(b_value, &mut scratch);
                if key.is_empty() {
                    return false; // missing probe is "similar" to everything
                }
                admit(missing, within, stats, sink);
                admit(index.probe(key), within, stats, sink);
            }
            PredicateIndex::Range {
                index,
                missing,
                width,
                relative,
            } => {
                let Some(y) = b_value.as_num() else {
                    // dist(missing, anything) is missing -> Le satisfied.
                    return false;
                };
                let w = if *relative {
                    if *width >= 1.0 {
                        return false;
                    }
                    // |x-y| <= w·max(|x|,|y|) implies
                    // x ∈ [y - w|y|/(1-w), y + w|y|/(1-w)].
                    width * y.abs() / (1.0 - width)
                } else {
                    *width
                };
                admit(missing, within, stats, sink);
                let hits = index.range(y - w, y + w).iter().map(|(_, id)| id);
                admit(hits, within, stats, sink);
            }
            PredicateIndex::SetSim { .. } => {
                return self.probe_set(None, b_value, ProbeMode::Off, tokens, within, stats, sink);
            }
            PredicateIndex::Signature { sigs, exact, .. } => {
                return exact.probe_set(Some(sigs), b_value, mode, tokens, within, stats, sink);
            }
            PredicateIndex::Edit {
                lengths,
                qgrams,
                unprunable,
                char_lens,
                threshold,
                missing,
                ..
            } => {
                let raw = rendered_key(b_value, &mut scratch);
                if raw.is_empty() {
                    return false;
                }
                let y_len = raw.chars().count();
                let Some((lo, hi)) =
                    prefix::length_bounds(SimFunction::Levenshtein, *threshold, y_len)
                else {
                    return false;
                };
                admit(missing, within, stats, sink);
                if qgrams.is_empty() && unprunable.is_empty() {
                    return true;
                }
                // Short probes can't contribute qgram evidence reliably;
                // fall back to the length filter alone.
                if y_len < QGRAM {
                    for bucket in lengths.buckets(lo, hi) {
                        admit(bucket, within, stats, sink);
                    }
                    return true;
                }
                let mut filter = |ids: &[TupleId]| {
                    stats.pairs_examined += ids.len() as u64;
                    for &id in ids {
                        let l = char_lens[id as usize];
                        if is_within(within, id) && l != usize::MAX && l >= lo && l <= hi {
                            stats.survived += 1;
                            sink(id);
                        } else {
                            stats.pruned_by_exact += 1;
                        }
                    }
                };
                filter(unprunable);
                for g in falcon_textsim::tokenize::qgrams(raw, QGRAM) {
                    if let Some(list) = qgrams.get(&g) {
                        filter(list);
                    }
                }
            }
        }
        true
    }

    /// Set-similarity arm of [`PredicateIndex::probe_into`], for the exact
    /// bundle alone (`sigs = None`) or behind its signature column.
    #[allow(clippy::too_many_arguments)]
    fn probe_set(
        &self,
        sigs: Option<&SignatureIndex>,
        b_value: ValueRef<'_>,
        mode: ProbeMode,
        tokens: &mut ProbeTokens,
        within: Option<&CandidateBitmap>,
        stats: &mut ProbeStats,
        sink: &mut impl FnMut(TupleId),
    ) -> bool {
        // The static verifier only admits SetSim inners; the fallback arm
        // keeps this total (an ungated exact probe is always lossless).
        let PredicateIndex::SetSim {
            index,
            order,
            sim,
            threshold,
            missing,
        } = self
        else {
            return self.probe_into(b_value, ProbeMode::Off, tokens, within, stats, sink);
        };
        // `try_build` only constructs SetSim from set-based sims; if that
        // invariant ever breaks, skip filtering (returning everything is
        // recall-safe — the reducer re-checks rules).
        let Some(tokenizer) = sim.tokenizer() else {
            return false;
        };
        if !tokens.loaded {
            tokens.load(b_value, tokenizer, order);
        }
        if tokens.missing {
            return false;
        }
        admit(&missing[..], within, stats, sink);
        let y_len = tokens.hashes.len();
        let ProbeTokens {
            seen,
            hashes,
            sigs: probe_sigs,
            table,
            ..
        } = tokens;
        // A tokenless probe has no signature to test (and no postings).
        let gate = sigs
            .filter(|_| mode != ProbeMode::Off && y_len > 0)
            .map(|s| (s, probe_sig(probe_sigs, hashes, s.words())));
        match gate {
            Some((sigs, probe)) if mode == ProbeMode::Dense => {
                sigs.scan_dense(probe, *sim, *threshold, within, table, stats, sink);
            }
            _ => index.probe_gated(
                seen, y_len, *sim, *threshold, gate, within, table, stats, sink,
            ),
        }
        true
    }

    /// Estimated memory footprint in bytes (gates physical-operator
    /// selection against the mapper memory budget).
    pub fn estimated_bytes(&self) -> usize {
        match self {
            PredicateIndex::Equals { index, missing } => {
                index.estimated_bytes() + missing.len() * 4
            }
            PredicateIndex::Range { index, missing, .. } => {
                index.estimated_bytes() + missing.len() * 4
            }
            PredicateIndex::SetSim {
                index,
                order,
                missing,
                ..
            } => index.estimated_bytes() + order.estimated_bytes() + missing.len() * 4,
            PredicateIndex::Signature { sigs, exact, .. } => {
                sigs.estimated_bytes() + exact.estimated_bytes()
            }
            PredicateIndex::Edit {
                lengths,
                qgram_bytes,
                unprunable,
                char_lens,
                missing,
                ..
            } => {
                lengths.estimated_bytes()
                    + qgram_bytes
                    + (unprunable.len() + missing.len()) * 4
                    + char_lens.len() * 8
            }
        }
    }
}

/// True unless `id` is outside the running candidate set `within`.
#[inline]
pub(crate) fn is_within(within: Option<&CandidateBitmap>, id: TupleId) -> bool {
    within.is_none_or(|w| w.contains(id))
}

/// Send ids no per-id filter of this predicate applies to (missing-value
/// ids are permanent candidates; equality, range and length-bucket hits
/// are already filtered) to the sink: each is examined, and survives
/// unless it is outside `within` (`pruned_by_exact`), so `examined =
/// pruned + survived` holds and `survived` is what the sink received.
fn admit<'a>(
    ids: impl IntoIterator<Item = &'a TupleId>,
    within: Option<&CandidateBitmap>,
    stats: &mut ProbeStats,
    sink: &mut impl FnMut(TupleId),
) {
    for &id in ids {
        stats.pairs_examined += 1;
        if is_within(within, id) {
            stats.survived += 1;
            sink(id);
        } else {
            stats.pruned_by_exact += 1;
        }
    }
}

/// Render a probe value into `scratch` only when a numeric needs
/// formatting; nulls are `""` and strings borrow the columnar slice.
fn rendered_key<'a>(v: ValueRef<'a>, scratch: &'a mut String) -> &'a str {
    match v {
        ValueRef::Null => "",
        ValueRef::Str(s) => s,
        ValueRef::Num(_) => {
            v.render_into(scratch);
            scratch
        }
    }
}

/// Assemble the prefix-filter bundle for one set-similarity predicate
/// over its rank-space column — the postings are all this spec builds of
/// its own — wrapped in that column's `w`-word fingerprints when
/// `sig_words = Some(w)`.
fn build_setsim(
    a: &Table,
    attr_idx: usize,
    sim: SimFunction,
    threshold: f64,
    shared: Option<&mut TokenColumn>,
    sig_words: Option<usize>,
) -> Result<PredicateIndex, IndexError> {
    let tokenizer = sim.tokenizer().ok_or_else(|| IndexError::NotSetBased {
        sim: format!("{sim:?}"),
    })?;
    let mut own = None;
    let column = match shared {
        Some(shared) => shared,
        None => own.insert(TokenColumn::of_table(a, attr_idx, tokenizer)),
    };
    let exact = PredicateIndex::SetSim {
        index: PrefixIndex::build(column, sim, threshold),
        order: Arc::clone(&column.order),
        missing: Arc::clone(&column.missing),
        sim,
        threshold,
    };
    Ok(match sig_words.map(|w| column.fingerprints(w)) {
        Some(sigs) => PredicateIndex::Signature {
            mode: plan_mode(&sigs, &exact),
            sigs,
            exact: Box::new(exact),
        },
        None => exact,
    })
}

/// See [`PredicateIndex::plan_probe_mode`].
fn plan_mode(sigs: &SignatureIndex, exact: &PredicateIndex) -> ProbeMode {
    // A near-saturated fingerprint column refutes almost nothing:
    // popcounts become pure overhead, so run the exact path alone.
    if sigs.density() >= 0.5 {
        return ProbeMode::Off;
    }
    let signed = sigs.signed_count() as f64;
    match exact {
        PredicateIndex::SetSim { index, .. } if signed > 0.0 && index.probe_work >= signed => {
            ProbeMode::Dense
        }
        _ => ProbeMode::Gate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_table::{AttrType, Schema};

    fn table() -> Table {
        let schema = Schema::new([
            ("title", AttrType::Str),
            ("year", AttrType::Str),
            ("price", AttrType::Num),
        ]);
        Table::new(
            "A",
            schema,
            vec![
                vec![
                    Value::str("the quick brown fox"),
                    Value::str("1999"),
                    Value::num(10.0),
                ],
                vec![Value::str("lazy dog"), Value::str("2001"), Value::num(25.0)],
                vec![
                    Value::str("quick brown foxes"),
                    Value::str("1999"),
                    Value::Null,
                ],
                vec![Value::Null, Value::Null, Value::num(11.0)],
            ],
        )
    }

    #[test]
    fn from_predicate_classification() {
        let w = Tokenizer::Word;
        assert!(matches!(
            FilterSpec::from_predicate(SimFunction::ExactMatch, "year", true, 0.5),
            Some(FilterSpec::Equals { .. })
        ));
        assert!(matches!(
            FilterSpec::from_predicate(SimFunction::Jaccard(w), "title", true, 0.6),
            Some(FilterSpec::SetSim { .. })
        ));
        assert!(matches!(
            FilterSpec::from_predicate(SimFunction::AbsDiff, "price", false, 10.0),
            Some(FilterSpec::Range { .. })
        ));
        assert!(matches!(
            FilterSpec::from_predicate(SimFunction::Levenshtein, "title", true, 0.8),
            Some(FilterSpec::EditSim { .. })
        ));
        // Dissimilarity predicates are unfilterable.
        assert_eq!(
            FilterSpec::from_predicate(SimFunction::Jaccard(w), "title", false, 0.6),
            None
        );
        assert_eq!(
            FilterSpec::from_predicate(SimFunction::AbsDiff, "price", true, 10.0),
            None
        );
        // exact_match <= 0.5 ("not equal") is unfilterable.
        assert_eq!(
            FilterSpec::from_predicate(SimFunction::ExactMatch, "year", false, 0.5),
            None
        );
    }

    #[test]
    fn equals_probe() {
        let idx = PredicateIndex::try_build(
            &table(),
            &FilterSpec::Equals {
                a_attr: "year".into(),
            },
            None,
        )
        .expect("valid filter spec");
        match idx.probe(&Value::str("1999")) {
            Candidates::Some(mut ids) => {
                ids.sort_unstable();
                // 0 and 2 share the year; 3 has a missing year and is a
                // permanent candidate.
                assert_eq!(ids, vec![0, 2, 3]);
            }
            Candidates::All => panic!("expected Some"),
        }
        // Missing probe value is "similar" to everything.
        assert_eq!(idx.probe(&Value::Null), Candidates::All);
    }

    #[test]
    fn range_probe_includes_missing() {
        let idx = PredicateIndex::try_build(
            &table(),
            &FilterSpec::Range {
                a_attr: "price".into(),
                width: 5.0,
                relative: false,
            },
            None,
        )
        .expect("valid filter spec");
        match idx.probe(&Value::num(12.0)) {
            Candidates::Some(mut ids) => {
                ids.sort_unstable();
                // 10.0 and 11.0 in range; id 2 missing -> always candidate.
                assert_eq!(ids, vec![0, 2, 3]);
            }
            Candidates::All => panic!(),
        }
        // Missing probe satisfies dist <= v for every A tuple.
        assert_eq!(idx.probe(&Value::Null), Candidates::All);
    }

    #[test]
    fn rel_range_probe() {
        let idx = PredicateIndex::try_build(
            &table(),
            &FilterSpec::Range {
                a_attr: "price".into(),
                width: 0.2,
                relative: true,
            },
            None,
        )
        .expect("valid filter spec");
        match idx.probe(&Value::num(10.0)) {
            Candidates::Some(mut ids) => {
                ids.sort_unstable();
                // w' = 0.2·10/0.8 = 2.5 -> [7.5, 12.5]: ids 0 (10), 3 (11),
                // plus missing id 2.
                assert_eq!(ids, vec![0, 2, 3]);
            }
            Candidates::All => panic!(),
        }
    }

    #[test]
    fn setsim_probe() {
        let idx = PredicateIndex::try_build(
            &table(),
            &FilterSpec::SetSim {
                a_attr: "title".into(),
                sim: SimFunction::Jaccard(Tokenizer::Word),
                threshold: 0.4,
            },
            None,
        )
        .expect("valid filter spec");
        match idx.probe(&Value::str("quick brown fox")) {
            Candidates::Some(mut ids) => {
                ids.sort_unstable();
                ids.dedup();
                assert!(ids.contains(&0));
                assert!(ids.contains(&2));
                assert!(!ids.contains(&1));
            }
            Candidates::All => panic!(),
        }
    }

    #[test]
    fn editsim_probe_lossless() {
        let idx = PredicateIndex::try_build(
            &table(),
            &FilterSpec::EditSim {
                a_attr: "title".into(),
                threshold: 0.8,
            },
            None,
        )
        .expect("valid filter spec");
        // "the quick brown fox" vs itself with one typo: sim >= 0.8.
        match idx.probe(&Value::str("the quick browm fox")) {
            Candidates::Some(ids) => assert!(ids.contains(&0), "{ids:?}"),
            Candidates::All => {}
        }
        assert_eq!(idx.probe(&Value::Null), Candidates::All);
    }

    /// Brute-force losslessness across all four filter kinds.
    #[test]
    fn all_filters_lossless() {
        use falcon_textsim::SimContext;
        let a = table();
        let ctx = SimContext::empty();
        let b_vals = [
            Value::str("the quick brown fox"),
            Value::str("lazy dogs"),
            Value::str("1999"),
            Value::num(9.0),
            Value::Null,
        ];
        let specs: Vec<(FilterSpec, SimFunction, bool, f64, &str)> = vec![
            (
                FilterSpec::Equals {
                    a_attr: "year".into(),
                },
                SimFunction::ExactMatch,
                true,
                0.5,
                "year",
            ),
            (
                FilterSpec::SetSim {
                    a_attr: "title".into(),
                    sim: SimFunction::Jaccard(Tokenizer::Word),
                    threshold: 0.5,
                },
                SimFunction::Jaccard(Tokenizer::Word),
                true,
                0.5,
                "title",
            ),
            (
                FilterSpec::Range {
                    a_attr: "price".into(),
                    width: 3.0,
                    relative: false,
                },
                SimFunction::AbsDiff,
                false,
                3.0,
                "price",
            ),
            (
                FilterSpec::EditSim {
                    a_attr: "title".into(),
                    threshold: 0.7,
                },
                SimFunction::Levenshtein,
                true,
                0.7,
                "title",
            ),
        ];
        for (spec, sim, gt, v, attr) in specs {
            let idx = PredicateIndex::try_build(&a, &spec, None).expect("valid filter spec");
            for b in &b_vals {
                let cands = idx.probe(b);
                for row in a.rows() {
                    let av = row.value(a.schema().index_of(attr).unwrap());
                    let score = sim.score_str(&av.render(), &b.render(), &ctx);
                    // Missing values are maximally similar: they satisfy
                    // every filterable predicate.
                    let satisfied = match (score, gt) {
                        (Some(s), true) => s > v,
                        (Some(s), false) => s <= v,
                        (None, _) => true,
                    };
                    if satisfied {
                        match &cands {
                            Candidates::All => {}
                            Candidates::Some(ids) => assert!(
                                ids.contains(&row.id),
                                "{spec:?} missed a={} for b={b:?}",
                                row.id
                            ),
                        }
                    }
                }
            }
        }
    }
}
