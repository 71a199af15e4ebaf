//! The tabulated probe kernels against their definition.
//!
//! `PrefixIndex::probe_gated` and the dense signature scan decide each
//! posting / tuple from a per-probe verdict table indexed by set size.
//! This test states what they must compute — per posting, calling
//! `required_overlap`, `length_bounds` and `may_overlap` directly, the
//! arithmetic the table replaces — and checks that, for all four set
//! measures, thresholds on and off the similarity values small sets
//! produce, signature widths 1, 2 and 4 and all three probe modes, the
//! kernels admit exactly the same ids (duplicates included) and account
//! for every probe in the same `ProbeStats` bucket.

use falcon_index::signature::SIG_NO_TOKENS;
use falcon_index::spec::{Candidates, ProbeMode};
use falcon_index::{FilterSpec, PredicateIndex, ProbeSig, ProbeStats};
use falcon_table::{AttrType, Schema, Table, TupleId, Value};
use falcon_textsim::{prefix, SimFunction, Tokenizer};
use proptest::prelude::*;

/// The definition: `None` when the probe admits all of `A`.
fn definition(
    idx: &PredicateIndex,
    b: &Value,
    mode: ProbeMode,
) -> Option<(Vec<TupleId>, ProbeStats)> {
    let PredicateIndex::Signature { sigs, exact } = idx else {
        panic!("expected a signature bundle");
    };
    let PredicateIndex::SetSim {
        index,
        order,
        sim,
        threshold,
        missing,
    } = &**exact
    else {
        panic!("expected a set-similarity inner index");
    };
    let (sim, t) = (*sim, *threshold);
    let raw = b.render();
    if raw.is_empty() {
        return None;
    }
    let tokens = sim.tokenizer().expect("set measure").tokenize(&raw);
    let y_len = tokens.len();
    let probe = ProbeSig::build(&tokens, sigs.words());
    let gated = mode != ProbeMode::Off && y_len > 0;
    let bounds = prefix::length_bounds(sim, t, y_len);
    let n_missing = missing.len() as u64;
    let mut stats = ProbeStats {
        pairs_examined: n_missing,
        survived: n_missing,
        ..ProbeStats::default()
    };
    let mut ids = missing.clone();
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
        for id in 0..sigs.len() as TupleId {
            if sigs.size(id) != SIG_NO_TOKENS {
                judge(id, sigs.size(id) as usize, None);
            }
        }
    } else {
        let ordered = order.order_tokens(tokens);
        let p = prefix::prefix_len(sim, t, y_len);
        for (j, tok) in ordered.iter().take(p).enumerate() {
            for &(id, i) in index.postings(tok) {
                let x_len = index.set_size(id).expect("posted ids have tokens");
                judge(id, x_len, Some((i as usize, j)));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tabulated_kernels_equal_the_per_posting_definition(
        a_vals in proptest::collection::vec(value(), 1..30),
        b_vals in proptest::collection::vec(value(), 1..8),
        tokenizer in prop_oneof![Just(Tokenizer::Word), Just(Tokenizer::QGram(2))],
    ) {
        let schema = Schema::new([("x", AttrType::Str)]);
        let a = Table::new("A", schema, a_vals.into_iter().map(|v| vec![v]));
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
                    let idx = PredicateIndex::build(&a, &spec, None);
                    for b in &b_vals {
                        for mode in [ProbeMode::Off, ProbeMode::Gate, ProbeMode::Dense] {
                            let mut stats = ProbeStats::default();
                            let got = match idx.probe_ref_stats(b.as_value_ref(), mode, &mut stats) {
                                Candidates::All => None,
                                Candidates::Some(mut ids) => {
                                    ids.sort_unstable();
                                    Some((ids, stats))
                                }
                            };
                            prop_assert_eq!(
                                got,
                                definition(&idx, b, mode),
                                "{:?} words={} {:?} b={:?}", spec, words, mode, b
                            );
                        }
                    }
                }
            }
        }
    }
}
