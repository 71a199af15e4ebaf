//! Property test: no filter ever prunes a tuple pair that satisfies its
//! predicate — the invariant that makes Falcon's blocking lossless.

use falcon_index::spec::Candidates;
use falcon_index::{FilterSpec, PredicateIndex};
use falcon_table::{AttrType, Schema, Table, Value};
use falcon_textsim::{SimContext, SimFunction, Tokenizer};
use proptest::prelude::*;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        2 => proptest::collection::vec("[a-d]{1,3}", 0..6).prop_map(|v| Value::str(v.join(" "))),
        1 => (0i64..40).prop_map(|x| Value::Num(x as f64)),
        1 => Just(Value::Null),
    ]
}

fn table_strategy() -> impl Strategy<Value = Table> {
    proptest::collection::vec(value_strategy(), 1..25).prop_map(|vals| {
        let schema = Schema::new([("x", AttrType::Str)]);
        Table::new("A", schema, vals.into_iter().map(|v| vec![v]))
    })
}

/// Adversarial values for the signature pre-filter: multi-byte Unicode
/// tokens (token bits must come from whole-codepoint hashing, not byte
/// truncation), numeric strings (rendered-key path), and Nulls
/// (missing-value semantics). A tiny token alphabet forces heavy bit
/// collisions in narrow signatures.
fn adversarial_value_strategy() -> impl Strategy<Value = Value> {
    let token = prop_oneof![
        Just("é".to_string()),
        Just("漢字".to_string()),
        Just("ßß".to_string()),
        Just("🦅".to_string()),
        Just("naïve".to_string()),
        Just("12.5".to_string()),
        Just("0001".to_string()),
        "[a-c]{1,2}".prop_map(|s| s),
    ];
    prop_oneof![
        4 => proptest::collection::vec(token, 0..7).prop_map(|v| Value::str(v.join(" "))),
        1 => (0i64..40).prop_map(|x| Value::Num(x as f64)),
        1 => Just(Value::Null),
    ]
}

fn adversarial_table_strategy() -> impl Strategy<Value = Table> {
    proptest::collection::vec(adversarial_value_strategy(), 1..20).prop_map(|vals| {
        let schema = Schema::new([("x", AttrType::Str)]);
        Table::new("A", schema, vals.into_iter().map(|v| vec![v]))
    })
}

/// Thresholds that sit exactly on — or a hair around — the similarity
/// values small token sets actually produce, where an off-by-one in the
/// required-overlap ceiling would surface as a lost candidate.
fn near_threshold_strategy() -> impl Strategy<Value = f64> {
    let anchors = prop_oneof![
        Just(1.0 / 3.0),
        Just(0.5),
        Just(2.0 / 3.0),
        Just(0.25),
        Just(0.75),
    ];
    prop_oneof![
        3 => (anchors, 0u8..3).prop_map(|(t, k)| match k {
            0 => t,
            1 => t - 1e-9,
            _ => t + 1e-9,
        }),
        1 => 0.05f64..=1.0,
    ]
}

fn check(spec: FilterSpec, sim: SimFunction, gt: bool, v: f64, a: &Table, b_vals: &[Value]) {
    let ctx = SimContext::empty();
    let idx = PredicateIndex::try_build(a, &spec, None).expect("valid filter spec");
    for b in b_vals {
        let cands = idx.probe(b);
        for row in a.rows() {
            let score = sim.score_str(&row.value(0).render(), &b.render(), &ctx);
            // Missing values are maximally similar: they satisfy every
            // filterable predicate (see spec.rs module docs).
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
                        "{spec:?} pruned satisfying pair: a={:?} b={:?} score={score:?}",
                        row.value(0),
                        b
                    ),
                }
            }
        }
    }
}

/// Sorted, deduplicated id set of a candidate answer (`None` = All).
fn cand_set(c: &Candidates) -> Option<Vec<falcon_table::TupleId>> {
    match c {
        Candidates::All => None,
        Candidates::Some(ids) => {
            let mut v = ids.clone();
            v.sort_unstable();
            v.dedup();
            Some(v)
        }
    }
}

/// Signature-specific losslessness: probe the signature-wrapped index in
/// every mode (exact-only, gated, dense) — the mode is an argument here,
/// so each one is forced in turn, whatever the planner would pick — and
/// check that none of them ever loses a ground-truth candidate of the
/// exact-only path, that gating only shrinks the exact answer and the
/// dense scan only grows the gated one, and that the probe counters
/// balance.
fn check_signature(sim: SimFunction, t: f64, words: usize, a: &Table, b_vals: &[Value]) {
    use falcon_index::spec::ProbeMode;
    use falcon_index::ProbeStats;
    let ctx = SimContext::empty();
    let spec = FilterSpec::SetSim {
        a_attr: "x".into(),
        sim,
        threshold: t,
    }
    .with_signature(words);
    let idx = PredicateIndex::try_build(a, &spec, None).expect("valid filter spec");
    for b in b_vals {
        let mut per_mode = Vec::new();
        for mode in [ProbeMode::Off, ProbeMode::Gate, ProbeMode::Dense] {
            let mut stats = ProbeStats::default();
            let cands = idx.probe_ref_stats(b.as_value_ref(), mode, &mut stats);
            assert_eq!(
                stats.pairs_examined,
                stats.pruned_by_signature + stats.pruned_by_exact + stats.survived,
                "{spec:?} {mode:?}: probe counters do not balance: {stats:?}"
            );
            // Dynamic losslessness per mode.
            for row in a.rows() {
                let score = sim.score_str(&row.value(0).render(), &b.render(), &ctx);
                let satisfied = match score {
                    Some(s) => s > t,
                    None => true,
                };
                if satisfied {
                    let ok = match &cands {
                        Candidates::All => true,
                        Candidates::Some(ids) => ids.contains(&row.id),
                    };
                    assert!(
                        ok,
                        "{spec:?} {mode:?} pruned satisfying pair: a={:?} b={:?} score={score:?}",
                        row.value(0),
                        b
                    );
                }
            }
            per_mode.push(cand_set(&cands));
        }
        // Gate ⊆ exact (the gate only removes provably-failing pairs) and
        // gate ⊆ dense (a gated survivor passed the signature and length
        // verdicts, which are all the dense scan applies); dense may add
        // false positives, which the ground truth above allows.
        if let (Some(exact), Some(gated), Some(dense)) = (&per_mode[0], &per_mode[1], &per_mode[2])
        {
            assert!(
                gated.iter().all(|id| exact.contains(id)),
                "gated probe returned an id the exact probe did not: exact={exact:?} gated={gated:?}"
            );
            assert!(
                gated.iter().all(|id| dense.contains(id)),
                "dense probe lost an id the gated probe kept: gated={gated:?} dense={dense:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn setsim_filters_lossless(
        a in table_strategy(),
        b_vals in proptest::collection::vec(value_strategy(), 1..10),
        t in 0.05f64..=1.0,
    ) {
        for sim in [
            SimFunction::Jaccard(Tokenizer::Word),
            SimFunction::Dice(Tokenizer::Word),
            SimFunction::Cosine(Tokenizer::Word),
            SimFunction::Overlap(Tokenizer::Word),
            SimFunction::Jaccard(Tokenizer::QGram(3)),
        ] {
            check(
                FilterSpec::SetSim { a_attr: "x".into(), sim, threshold: t },
                sim,
                true,
                t,
                &a,
                &b_vals,
            );
        }
    }

    /// Tentpole invariant: random signature widths × adversarial values
    /// (multi-byte Unicode, numeric strings, Nulls, near-threshold
    /// similarities) never lose a ground-truth candidate vs the
    /// exact-only path, in any probe mode.
    #[test]
    fn signature_prefilter_lossless(
        a in adversarial_table_strategy(),
        b_vals in proptest::collection::vec(adversarial_value_strategy(), 1..8),
        words in 1usize..=8,
        t in near_threshold_strategy(),
    ) {
        for sim in [
            SimFunction::Jaccard(Tokenizer::Word),
            SimFunction::Dice(Tokenizer::Word),
            SimFunction::Cosine(Tokenizer::QGram(2)),
            SimFunction::Overlap(Tokenizer::Word),
            SimFunction::Jaccard(Tokenizer::QGram(3)),
        ] {
            check_signature(sim, t, words, &a, &b_vals);
        }
    }

    #[test]
    fn equals_filter_lossless(
        a in table_strategy(),
        b_vals in proptest::collection::vec(value_strategy(), 1..10),
    ) {
        check(
            FilterSpec::Equals { a_attr: "x".into() },
            SimFunction::ExactMatch,
            true,
            0.5,
            &a,
            &b_vals,
        );
    }

    #[test]
    fn range_filter_lossless(
        a in table_strategy(),
        b_vals in proptest::collection::vec(value_strategy(), 1..10),
        w in 0.0f64..20.0,
    ) {
        check(
            FilterSpec::Range { a_attr: "x".into(), width: w, relative: false },
            SimFunction::AbsDiff,
            false,
            w,
            &a,
            &b_vals,
        );
        if w < 1.0 {
            check(
                FilterSpec::Range { a_attr: "x".into(), width: w, relative: true },
                SimFunction::RelDiff,
                false,
                w,
                &a,
                &b_vals,
            );
        }
    }

    #[test]
    fn edit_filter_lossless(
        a in table_strategy(),
        b_vals in proptest::collection::vec(value_strategy(), 1..10),
        t in 0.05f64..=1.0,
    ) {
        check(
            FilterSpec::EditSim { a_attr: "x".into(), threshold: t },
            SimFunction::Levenshtein,
            true,
            t,
            &a,
            &b_vals,
        );
    }
}

/// The static twin of the properties above: a spec whose configuration
/// *would* let the dynamic checks fail is refused at build time with the
/// violated proof obligation, so a lossy index can never exist.
mod static_rejection {
    use falcon_index::{FilterSpec, IndexError, Obligation, PredicateIndex};
    use falcon_table::{AttrType, Schema, Table, Value};
    use falcon_textsim::{SimFunction, Tokenizer};

    fn table() -> Table {
        let schema = Schema::new([("x", AttrType::Str)]);
        Table::new(
            "A",
            schema,
            vec![vec![Value::str("a b c")], vec![Value::Null]],
        )
    }

    fn rejected(spec: FilterSpec) -> Obligation {
        match PredicateIndex::try_build(&table(), &spec, None) {
            Err(IndexError::RecallUnsafe { obligation, .. }) => obligation,
            other => panic!("expected RecallUnsafe for {spec:?}, got {other:?}"),
        }
    }

    #[test]
    fn non_set_based_measure_is_rejected() {
        // MongeElkan carries a tokenizer but admits no prefix/length
        // bound; building a SetSim index over it would prune arbitrarily.
        let ob = rejected(FilterSpec::SetSim {
            a_attr: "x".into(),
            sim: SimFunction::MongeElkan,
            threshold: 0.5,
        });
        assert_eq!(ob, Obligation::SetBasedSim);
    }

    #[test]
    fn nonpositive_and_nonfinite_thresholds_are_rejected() {
        let jac = |threshold: f64| FilterSpec::SetSim {
            a_attr: "x".into(),
            sim: SimFunction::Jaccard(Tokenizer::Word),
            threshold,
        };
        assert_eq!(rejected(jac(0.0)), Obligation::ThresholdPositive);
        assert_eq!(rejected(jac(-1.0)), Obligation::ThresholdPositive);
        assert_eq!(rejected(jac(f64::NAN)), Obligation::ThresholdFinite);
        assert_eq!(rejected(jac(f64::INFINITY)), Obligation::ThresholdFinite);
        let edit = FilterSpec::EditSim {
            a_attr: "x".into(),
            threshold: 0.0,
        };
        assert_eq!(rejected(edit), Obligation::ThresholdPositive);
    }

    #[test]
    fn degenerate_range_widths_are_rejected() {
        let range = |width: f64, relative: bool| FilterSpec::Range {
            a_attr: "x".into(),
            width,
            relative,
        };
        assert_eq!(rejected(range(-1.0, false)), Obligation::WidthNonNegative);
        assert_eq!(rejected(range(f64::NAN, false)), Obligation::WidthFinite);
        // rel_diff ranges over [0, 2]: width >= 1 makes the probe window
        // non-invertible.
        assert_eq!(
            rejected(range(1.5, true)),
            Obligation::RelativeWidthBelowOne
        );
    }

    /// Static twin of `signature_prefilter_lossless`: any signature
    /// configuration that cannot be proved a candidate-superset is
    /// refused at build time with the violated obligation.
    #[test]
    fn unsound_signature_configs_are_rejected() {
        let setsim = FilterSpec::SetSim {
            a_attr: "x".into(),
            sim: SimFunction::Jaccard(Tokenizer::Word),
            threshold: 0.5,
        };
        // Zero-width and absurd-width signatures.
        for words in [0usize, 65, 1000] {
            let ob = rejected(FilterSpec::Signature {
                inner: Box::new(setsim.clone()),
                words,
            });
            assert_eq!(ob, Obligation::SignatureWidthValid, "words={words}");
        }
        // The popcount bound only exists for set-overlap measures: any
        // non-SetSim inner has no superset proof.
        for inner in [
            FilterSpec::Equals { a_attr: "x".into() },
            FilterSpec::Range {
                a_attr: "x".into(),
                width: 1.0,
                relative: false,
            },
            FilterSpec::EditSim {
                a_attr: "x".into(),
                threshold: 0.5,
            },
            FilterSpec::Signature {
                inner: Box::new(setsim.clone()),
                words: 2,
            },
        ] {
            let ob = rejected(FilterSpec::Signature {
                inner: Box::new(inner.clone()),
                words: 2,
            });
            assert_eq!(ob, Obligation::SignatureSuperset, "inner={inner:?}");
        }
        // Inner obligations propagate through the wrapper.
        let ob = rejected(FilterSpec::Signature {
            inner: Box::new(FilterSpec::SetSim {
                a_attr: "x".into(),
                sim: SimFunction::Jaccard(Tokenizer::Word),
                threshold: 0.0,
            }),
            words: 2,
        });
        assert_eq!(ob, Obligation::ThresholdPositive);
        // `with_signature` never wraps what it cannot prove.
        let eq = FilterSpec::Equals { a_attr: "x".into() };
        assert_eq!(eq.clone().with_signature(2), eq);
    }

    #[test]
    fn safe_specs_still_build() {
        for spec in [
            FilterSpec::Equals { a_attr: "x".into() },
            FilterSpec::SetSim {
                a_attr: "x".into(),
                sim: SimFunction::Jaccard(Tokenizer::Word),
                threshold: 0.4,
            }
            .with_signature(2),
            FilterSpec::SetSim {
                a_attr: "x".into(),
                sim: SimFunction::Jaccard(Tokenizer::Word),
                threshold: 0.4,
            },
            FilterSpec::EditSim {
                a_attr: "x".into(),
                threshold: 0.4,
            },
            FilterSpec::Range {
                a_attr: "x".into(),
                width: 2.0,
                relative: false,
            },
        ] {
            assert!(
                PredicateIndex::try_build(&table(), &spec, None).is_ok(),
                "{spec:?}"
            );
        }
    }
}
