//! The tabulated probe kernels against their definition.
//!
//! `PrefixIndex::probe_gated` and the dense signature scan decide each
//! posting / tuple from a per-probe verdict table indexed by set size,
//! over postings indexed by frequency rank. This test states what they
//! must compute in token *strings*: its own frequency order (count, then
//! text) and prefix postings from `Tokenizer::tokenize`, and per posting
//! `required_overlap`, `length_bounds` and `may_overlap` called directly —
//! the arithmetic the table replaces. For all four set measures,
//! thresholds on and off the similarity values small sets produce,
//! signature widths 1, 2 and 4 and all three probe modes, the probe fed
//! from a `B` value and the probe fed from `B`'s token-id column must
//! both admit exactly the definition's ids (duplicates included) and
//! account for every probe in the same `ProbeStats` bucket — over `B`
//! values with tokens `A` never saw, tokens only another attribute's
//! column interned, numbers, nulls, punctuation-only and empty strings.
//!
//! The second property defines the `within` argument against the first:
//! probing within a bitmap `W` sends exactly the unrestricted probe's ids
//! that are in `W`, for every index kind and probe mode, with every
//! examined pair still in exactly one counter bucket.

use falcon_index::spec::{Candidates, ProbeMode};
use falcon_index::{
    token_hash, CandidateBitmap, FilterSpec, PredicateIndex, ProbeSig, ProbeStats, ProbeTokens,
    SignatureIndex, TokenColumn,
};
use falcon_table::{AttrType, Schema, Table, TupleId, Value};
use falcon_textsim::{prefix, SimFunction, TokenDict, Tokenizer};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The `A` column as the definition sees it: strings only.
struct Column {
    /// Token frequency over the tuples (the order is count, then text).
    freq: BTreeMap<String, usize>,
    /// Per tuple: its distinct tokens in that order.
    ordered: Vec<Vec<String>>,
    /// Ids whose value renders empty.
    missing: Vec<TupleId>,
}

impl Column {
    fn new(a_vals: &[Value], tokenizer: Tokenizer) -> Self {
        let sets: Vec<BTreeSet<String>> = a_vals
            .iter()
            .map(|v| tokenizer.tokenize(&v.render()))
            .collect();
        let mut freq = BTreeMap::new();
        for tok in sets.iter().flatten() {
            *freq.entry(tok.clone()).or_insert(0) += 1;
        }
        let ordered = sets.into_iter().map(|s| in_order(&freq, s)).collect();
        let is_missing = |v: &Value| v.render().is_empty();
        let missing = (0..a_vals.len() as TupleId)
            .filter(|&id| is_missing(&a_vals[id as usize]))
            .collect();
        Column {
            freq,
            ordered,
            missing,
        }
    }

    /// Token → `(tuple id, position)` over each tuple's prefix.
    fn postings(&self, sim: SimFunction, t: f64) -> BTreeMap<&str, Vec<(TupleId, usize)>> {
        let mut postings: BTreeMap<&str, Vec<(TupleId, usize)>> = BTreeMap::new();
        for (id, toks) in self.ordered.iter().enumerate() {
            let p = prefix::prefix_len(sim, t, toks.len());
            for (pos, tok) in toks.iter().take(p).enumerate() {
                postings.entry(tok).or_default().push((id as TupleId, pos));
            }
        }
        postings
    }
}

/// A token set in the global order: tokens the column never saw first,
/// then by ascending frequency, ties on the text.
fn in_order(freq: &BTreeMap<String, usize>, tokens: BTreeSet<String>) -> Vec<String> {
    let mut toks: Vec<String> = tokens.into_iter().collect();
    toks.sort_by_key(|t| (freq.get(t).copied(), t.clone()));
    toks
}

/// The definition: `None` when the probe admits all of `A`.
fn definition(
    col: &Column,
    sim: SimFunction,
    t: f64,
    sigs: &SignatureIndex,
    b: &Value,
    mode: ProbeMode,
) -> Option<(Vec<TupleId>, ProbeStats)> {
    let raw = b.render();
    if raw.is_empty() {
        return None;
    }
    let tokens = sim.tokenizer().expect("set measure").tokenize(&raw);
    let y_len = tokens.len();
    let probe = ProbeSig::build(tokens.iter().map(|t| token_hash(t)), sigs.words());
    let gated = mode != ProbeMode::Off && y_len > 0;
    let bounds = prefix::length_bounds(sim, t, y_len);
    let n_missing = col.missing.len() as u64;
    let mut stats = ProbeStats {
        pairs_examined: n_missing,
        survived: n_missing,
        ..ProbeStats::default()
    };
    let mut ids = col.missing.clone();
    // One examined probe: `at` is the shared token's positions (in x, in
    // y) for a posting, `None` for a dense-scan tuple.
    let mut judge = |id: TupleId, x_len: usize, at: Option<(usize, usize)>| {
        stats.pairs_examined += 1;
        let need = prefix::required_overlap(sim, t, x_len, y_len);
        if gated && need.is_some_and(|n| !sigs.may_overlap(id, &probe, n)) {
            stats.pruned_by_signature += 1;
        } else if bounds.is_some_and(|(lo, hi)| x_len < lo || x_len > hi)
            || need
                .zip(at)
                .is_some_and(|(n, (i, j))| 1 + (x_len - i - 1).min(y_len - j - 1) < n)
        {
            stats.pruned_by_exact += 1;
        } else {
            stats.survived += 1;
            ids.push(id);
        }
    };
    if gated && mode == ProbeMode::Dense {
        for (id, toks) in col.ordered.iter().enumerate() {
            if !toks.is_empty() {
                judge(id as TupleId, toks.len(), None);
            }
        }
    } else {
        let postings = col.postings(sim, t);
        let p = prefix::prefix_len(sim, t, y_len);
        for (j, tok) in in_order(&col.freq, tokens).iter().take(p).enumerate() {
            for &(id, i) in postings.get(tok.as_str()).map_or(&[][..], Vec::as_slice) {
                judge(id, col.ordered[id as usize].len(), Some((i, j)));
            }
        }
    }
    ids.sort_unstable();
    Some((ids, stats))
}

/// A tiny token alphabet (heavy fingerprint collisions in narrow
/// signatures), numeric-as-string, numeric, punctuation-only and Null.
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        6 => proptest::collection::vec("[a-d]{1,3}", 0..9).prop_map(|v| Value::str(v.join(" "))),
        1 => "[0-9]{1,3}".prop_map(Value::str),
        1 => (0i64..40).prop_map(|x| Value::Num(x as f64)),
        1 => Just(Value::str("?! .")),
        1 => Just(Value::Null),
    ]
}

/// Tokens "another attribute's column" interned before `A`'s: the
/// dictionary numbers them first, and `A` sees at most the short ones.
const OTHER_COLUMN: [&str; 5] = ["other", "only", "ab", "c", "12"];

fn intern(dict: &mut TokenDict, tokenizer: Tokenizer, v: &Value) -> Vec<u32> {
    let mut ids: Vec<u32> = tokenizer
        .tokenize(&v.render())
        .into_iter()
        .map(|t| dict.intern_owned(t))
        .collect();
    ids.sort_unstable();
    ids
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tabulated_kernels_equal_the_per_posting_definition(
        a_vals in proptest::collection::vec(value(), 1..30),
        b_vals in proptest::collection::vec(value(), 1..8),
        tokenizer in prop_oneof![Just(Tokenizer::Word), Just(Tokenizer::QGram(2))],
    ) {
        let mut b_vals = b_vals;
        b_vals.push(Value::str("other only ab zz"));
        b_vals.push(Value::Str(String::new()));
        let schema = Schema::new([("x", AttrType::Str)]);
        let a = Table::new("A", schema, a_vals.iter().cloned().map(|v| vec![v]));
        let col = Column::new(&a_vals, tokenizer);
        // The token store: another column's tokens, then A's; B's ids come
        // from a later state of the same dictionary.
        let mut dict = TokenDict::new();
        for tok in OTHER_COLUMN {
            dict.intern(tok);
        }
        let a_ids: Vec<Vec<u32>> = a_vals.iter().map(|v| intern(&mut dict, tokenizer, v)).collect();
        let mut column = TokenColumn::build(&a, 0, &a_ids, Arc::new(dict.clone()));
        let b_ids: Vec<Vec<u32>> = b_vals.iter().map(|v| intern(&mut dict, tokenizer, v)).collect();
        for sim in [
            SimFunction::Jaccard(tokenizer),
            SimFunction::Dice(tokenizer),
            SimFunction::Cosine(tokenizer),
            SimFunction::Overlap(tokenizer),
        ] {
            for threshold in [0.2, 1.0 / 3.0, 0.5, 0.5 + 1e-9, 0.75, 1.0] {
                for words in [1usize, 2, 4] {
                    let spec = FilterSpec::SetSim { a_attr: "x".into(), sim, threshold }
                        .with_signature(words);
                    let idx = PredicateIndex::try_build(&a, &spec, Some(&mut column)).expect("valid filter spec");
                    let PredicateIndex::Signature { sigs, .. } = &idx else {
                        panic!("expected a signature bundle");
                    };
                    let (_, order) = idx.token_source().expect("set-similarity index");
                    for (b, ids) in b_vals.iter().zip(&b_ids) {
                        for mode in [ProbeMode::Off, ProbeMode::Gate, ProbeMode::Dense] {
                            let want = definition(&col, sim, threshold, sigs, b, mode);
                            let mut stats = ProbeStats::default();
                            let by_value = match idx.probe_ref_stats(b.as_value_ref(), mode, &mut stats) {
                                Candidates::All => None,
                                Candidates::Some(mut ids) => {
                                    ids.sort_unstable();
                                    Some((ids, stats))
                                }
                            };
                            prop_assert_eq!(
                                &by_value, &want,
                                "value-fed {:?} words={} {:?} b={:?}", spec, words, mode, b
                            );
                            let (mut tokens, mut stats) = (ProbeTokens::default(), ProbeStats::default());
                            tokens.load_ids(b.as_value_ref(), ids, order, &dict);
                            let mut out = Vec::new();
                            let pruned = idx.probe_into(
                                b.as_value_ref(), mode, &mut tokens, None, &mut stats, &mut |id| out.push(id),
                            );
                            out.sort_unstable();
                            prop_assert_eq!(
                                pruned.then_some((out, stats)), want,
                                "column-fed {:?} words={} {:?} b={:?}", spec, words, mode, b
                            );
                        }
                    }
                }
            }
        }
    }
}

/// One probe's sorted output (duplicates kept) and counters; `None` when
/// it admits all of `A`.
fn probe(
    idx: &PredicateIndex,
    b: &Value,
    mode: ProbeMode,
    within: Option<&CandidateBitmap>,
) -> Option<(Vec<TupleId>, ProbeStats)> {
    let (mut tokens, mut stats, mut out) =
        (ProbeTokens::default(), ProbeStats::default(), Vec::new());
    let sink = &mut |id| out.push(id);
    let pruned = idx.probe_into(
        b.as_value_ref(),
        mode,
        &mut tokens,
        within,
        &mut stats,
        sink,
    );
    out.sort_unstable();
    pruned.then_some((out, stats))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn probing_within_a_bitmap_is_the_probe_intersected_with_it(
        a_vals in proptest::collection::vec(value(), 1..40),
        b_vals in proptest::collection::vec(value(), 1..8),
        // Bit k decides id k's membership; the bitmap is wider than A.
        sparse in proptest::collection::vec(any::<bool>(), 48),
    ) {
        let schema = Schema::new([("x", AttrType::Str)]);
        let a = Table::new("A", schema, a_vals.iter().cloned().map(|v| vec![v]));
        let bitmap = |member: &dyn Fn(usize) -> bool| {
            let mut w = CandidateBitmap::new(48);
            (0..48).filter(|&id| member(id)).for_each(|id| w.insert(id as TupleId));
            w
        };
        let bitmaps = [
            bitmap(&|_| false),
            bitmap(&|id| id < a_vals.len()),
            bitmap(&|id| sparse[id]),
            bitmap(&|id| id >= a_vals.len()),
        ];
        let word = Tokenizer::Word;
        let set = |sim, threshold| FilterSpec::SetSim { a_attr: "x".into(), sim, threshold };
        let specs = [
            FilterSpec::Equals { a_attr: "x".into() },
            FilterSpec::Range { a_attr: "x".into(), width: 3.0, relative: false },
            FilterSpec::Range { a_attr: "x".into(), width: 0.3, relative: true },
            FilterSpec::EditSim { a_attr: "x".into(), threshold: 0.6 },
            FilterSpec::EditSim { a_attr: "x".into(), threshold: 0.9 },
            set(SimFunction::Jaccard(word), 0.5),
            set(SimFunction::Cosine(Tokenizer::QGram(2)), 0.4).with_signature(1),
            set(SimFunction::Overlap(word), 0.5).with_signature(2),
            set(SimFunction::Dice(word), 0.3).with_signature(4),
        ];
        for spec in &specs {
            let idx = PredicateIndex::try_build(&a, spec, None).expect("valid filter spec");
            let signed = |id: usize| match (&idx, a_vals.get(id)) {
                (PredicateIndex::Signature { sigs, .. }, Some(_)) => {
                    sigs.size(id as TupleId) != falcon_index::signature::SIG_NO_TOKENS
                }
                _ => false,
            };
            for b in &b_vals {
                for mode in [ProbeMode::Off, ProbeMode::Gate, ProbeMode::Dense] {
                    let Some((ids, full)) = probe(&idx, b, mode, None) else {
                        for w in &bitmaps {
                            prop_assert!(probe(&idx, b, mode, Some(w)).is_none(), "{:?} b={:?}", spec, b);
                        }
                        continue;
                    };
                    prop_assert_eq!(full.survived, ids.len() as u64);
                    prop_assert_eq!(
                        full.pairs_examined,
                        full.pruned_by_signature + full.pruned_by_exact + full.survived
                    );
                    if !matches!(spec, FilterSpec::SetSim { .. } | FilterSpec::Signature { .. } | FilterSpec::EditSim { .. }) {
                        // Scalar hits are pre-filtered: nothing to prune.
                        prop_assert_eq!(full.pairs_examined, full.survived);
                    }
                    for w in &bitmaps {
                        let what = format!("{spec:?} {mode:?} b={b:?} within {:?}", w.to_vec());
                        let (got, stats) = probe(&idx, b, mode, Some(w)).expect("restricted as without W");
                        let want: Vec<TupleId> = ids.iter().copied().filter(|&id| w.contains(id)).collect();
                        prop_assert_eq!(&got, &want, "{}", &what);
                        prop_assert_eq!(stats.survived, got.len() as u64, "{}", &what);
                        prop_assert_eq!(
                            stats.pairs_examined,
                            stats.pruned_by_signature + stats.pruned_by_exact + stats.survived,
                            "{}", &what
                        );
                        prop_assert!(stats.pruned_by_signature <= full.pruned_by_signature, "{}", &what);
                        // A dense scan walks W's signed members (and the
                        // missing list); every other probe examines what
                        // it examines without W.
                        let tokenizer = idx.token_source().map(|(t, _)| t);
                        let dense = mode == ProbeMode::Dense
                            && matches!(idx, PredicateIndex::Signature { .. })
                            && tokenizer.is_some_and(|t| !t.tokenize(&b.render()).is_empty());
                        if dense {
                            let missing = a_vals.iter().filter(|v| v.render().is_empty()).count();
                            let scanned = (0..48).filter(|&id| w.contains(id as TupleId) && signed(id)).count();
                            prop_assert_eq!(stats.pairs_examined, (missing + scanned) as u64, "{}", &what);
                        } else {
                            prop_assert_eq!(stats.pairs_examined, full.pairs_examined, "{}", &what);
                        }
                    }
                }
            }
        }
    }
}
