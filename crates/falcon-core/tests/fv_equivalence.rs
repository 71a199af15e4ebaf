//! Property test for the token-profile layer: feature vectors computed via
//! pre-tokenized profiles (sorted-id kernels, per-tuple token / tf·idf /
//! char columns, rendered-value cache) must be **bit-identical** to their
//! definition: the same `vector_at` under a context without profiles,
//! which renders and tokenizes per feature per pair (`score_value_refs` →
//! `score_str`). Checked across random tables, every similarity measure
//! and both tokenizers — including `Null`s, punctuation-only strings
//! (non-empty string, empty token set), numeric strings with whitespace,
//! non-ASCII text, and masked (partial-coverage) profile builds. Below the proptests: the frozen feature-vector digests
//! of the three datasets and the scheduling-independence checks of the
//! matching feature set.

use falcon_core::features::{generate_features, Feature, FeatureSet, ScoreScratch, Scorer};
use falcon_core::ops::gen_fvs::{gen_fvs, tfidf_model_for, GenFvsOutput};
use falcon_core::tokens::{requirements, TokenStore};
use falcon_dataflow::{Cluster, ClusterConfig, FaultPlan};
use falcon_datagen::EmDataset;
use falcon_table::{AttrType, IdPair, Schema, Table, Value};
use falcon_textsim::{SimContext, SimFunction, Tokenizer};
use proptest::prelude::*;

/// Values that exercise every branch of the missing/empty/numeric logic.
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        // Possibly empty, possibly punctuation-only (empty token set).
        "[a-e.!? ]{0,12}".prop_map(Value::str),
        proptest::collection::vec("[a-e]{1,4}", 0..6).prop_map(|v| Value::str(v.join(" "))),
        (-100.0f64..100.0).prop_map(Value::num),
        "[0-9]{1,3}".prop_map(Value::str),
        Just(Value::str(" 42 ")),
        // Multi-byte chars, `İ`/`ß` (lowercasing changes their length), a
        // combining mark: exercises the decoded-char columns and mixed
        // ASCII / non-ASCII pairs.
        "[a-cßéİ\u{301}日 .]{0,10}".prop_map(Value::str),
        proptest::collection::vec("[a-cßİé]{1,4}", 0..5).prop_map(|v| Value::str(v.join(" "))),
    ]
}

/// Every measure, over both attribute correspondences plus a crossed one.
fn all_features() -> FeatureSet {
    use SimFunction::*;
    let sims = [
        ExactMatch,
        Jaccard(Tokenizer::Word),
        Jaccard(Tokenizer::QGram(3)),
        Dice(Tokenizer::Word),
        Dice(Tokenizer::QGram(3)),
        Overlap(Tokenizer::Word),
        Overlap(Tokenizer::QGram(3)),
        Cosine(Tokenizer::Word),
        Cosine(Tokenizer::QGram(3)),
        Levenshtein,
        Jaro,
        JaroWinkler,
        MongeElkan,
        NeedlemanWunsch,
        SmithWaterman,
        SmithWatermanGotoh,
        TfIdf,
        SoftTfIdf,
        AbsDiff,
        RelDiff,
    ];
    let mut fs = FeatureSet::default();
    for (ai, bi) in [(0usize, 0usize), (1, 1), (0, 1)] {
        for sim in sims {
            fs.features.push(Feature {
                name: format!("{}({ai},{bi})", sim.name()),
                a_attr: "x".into(),
                b_attr: "y".into(),
                sim,
                a_idx: ai,
                b_idx: bi,
            });
        }
    }
    fs
}

fn table(name: &str, rows: Vec<(Value, Value)>) -> Table {
    let schema = Schema::new([("x", AttrType::Str), ("y", AttrType::Str)]);
    Table::new(name, schema, rows.into_iter().map(|(x, y)| vec![x, y]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `FeatureSet::vector_at` with profiles attached equals the string
    /// path bit for bit (NaNs included, via `to_bits`).
    #[test]
    fn vectors_bit_identical_with_profiles(
        a_rows in proptest::collection::vec((value(), value()), 1..6),
        b_rows in proptest::collection::vec((value(), value()), 1..6),
    ) {
        let a = table("a", a_rows);
        let b = table("b", b_rows);
        let fs = all_features();
        let tfidf = tfidf_model_for(&fs, &a, &b);
        let base = match &tfidf {
            Some(m) => SimContext::with_tfidf(m),
            None => SimContext::empty(),
        };
        let mut store = TokenStore::default();
        let needs = requirements(&fs.features);
        store.require(&small_cluster(2), &a, &b, &needs, tfidf.as_ref()).expect("profiles");
        let profiled = base.with_profiles(store.a(), store.b(), store.dict());
        let mut scratch = ScoreScratch::default();
        for aid in 0..a.len() as u32 {
            for bid in 0..b.len() as u32 {
                let string_fv = fs.vector_at(&a, &b, aid, bid, &base, &mut ScoreScratch::default());
                let fast_fv = fs.vector_at(&a, &b, aid, bid, &profiled, &mut scratch);
                for (k, (x, y)) in fast_fv.iter().zip(&string_fv).enumerate() {
                    prop_assert_eq!(
                        x.to_bits(), y.to_bits(),
                        "pair ({},{}) feature {} ({} vs {})",
                        aid, bid, fs.get(k).name, x, y
                    );
                }
            }
        }
    }

    /// One token column feeding all four set measures — read in an order
    /// that interleaves two columns — is merged once per pair and column,
    /// and only when both values are present; every value still equals
    /// the string path's, bit for bit.
    #[test]
    fn measures_of_one_column_share_one_merge(
        a_rows in proptest::collection::vec((value(), value()), 1..6),
        b_rows in proptest::collection::vec((value(), value()), 1..6),
    ) {
        use SimFunction::*;
        let (w, g) = (Tokenizer::Word, Tokenizer::QGram(3));
        let sims = [Cosine(w), Jaccard(g), Dice(w), Overlap(g), Jaccard(w), Dice(g), Overlap(w), Cosine(g)];
        let fs = FeatureSet {
            features: sims
                .iter()
                .map(|&sim| Feature {
                    name: sim.name(),
                    a_attr: "x".into(),
                    b_attr: "y".into(),
                    sim,
                    a_idx: 0,
                    b_idx: 1,
                })
                .collect(),
        };
        let (a, b) = (table("a", a_rows), table("b", b_rows));
        let store = TokenStore::default();
        let store = store.covering(&a, &b, &requirements(&fs.features));
        let base = SimContext::empty();
        let profiled = store.context();
        let scorer = Scorer::new(&fs, &a, &b, &profiled);
        let mut scratch = ScoreScratch::default();
        for aid in 0..a.len() as u32 {
            for bid in 0..b.len() as u32 {
                let before = scratch.merges;
                let fast = scorer.vector((aid, bid), &profiled, &mut scratch);
                let want = fs.vector_at(&a, &b, aid, bid, &base, &mut ScoreScratch::default());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&fast), bits(&want), "pair ({}, {})", aid, bid);
                let present = !want[0].is_nan();
                prop_assert_eq!(scratch.merges - before, if present { 2 } else { 0 });
            }
        }
    }

    /// The character-level families — NW / SW / SW-Gotoh and Jaro /
    /// Jaro-Winkler — read in an order that interleaves two attribute
    /// pairs, run one kernel per pair, family and attribute pair, only when
    /// both values are present, and none when no member is read; every
    /// value still equals the string path's, bit for bit.
    #[test]
    fn members_of_one_family_share_one_sweep(
        a_rows in proptest::collection::vec((value(), value()), 1..6),
        b_rows in proptest::collection::vec((value(), value()), 1..6),
    ) {
        use SimFunction::*;
        let sims = [
            (SmithWatermanGotoh, 0), (Jaro, 1), (NeedlemanWunsch, 1), (JaroWinkler, 0),
            (SmithWaterman, 0), (Levenshtein, 1), (NeedlemanWunsch, 0), (Jaro, 0),
            (SmithWatermanGotoh, 1), (JaroWinkler, 1), (SmithWaterman, 1), (Levenshtein, 0),
        ];
        let fs = FeatureSet {
            features: sims
                .iter()
                .map(|&(sim, k)| Feature {
                    name: format!("{}({k})", sim.name()),
                    a_attr: "x".into(),
                    b_attr: "y".into(),
                    sim,
                    a_idx: k,
                    b_idx: 1 - k,
                })
                .collect(),
        };
        let (a, b) = (table("a", a_rows), table("b", b_rows));
        let store = TokenStore::default();
        let store = store.covering(&a, &b, &requirements(&fs.features));
        let base = SimContext::empty();
        let profiled = store.context();
        let scorer = Scorer::new(&fs, &a, &b, &profiled);
        let mut scratch = ScoreScratch::default();
        let levenshtein = [11, 5];
        for aid in 0..a.len() as u32 {
            for bid in 0..b.len() as u32 {
                let before = scratch.sweeps;
                let fast = scorer.vector((aid, bid), &profiled, &mut scratch);
                let want = fs.vector_at(&a, &b, aid, bid, &base, &mut ScoreScratch::default());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&fast), bits(&want), "pair ({}, {})", aid, bid);
                let present = levenshtein.iter().filter(|&&fi| !want[fi].is_nan()).count() as u64;
                prop_assert_eq!(scratch.sweeps - before, 2 * present);
                // Reading only the features outside every family runs none.
                scorer.start(&mut scratch);
                for fi in levenshtein {
                    scorer.value(fi, (aid, bid), &profiled, &mut scratch);
                }
                prop_assert_eq!(scratch.sweeps - before, 2 * present);
            }
        }
    }

    /// `gen_fvs` (parallel build of a call-scoped token store) equals the
    /// per-pair `vector_at` loop under a context without profiles, bit
    /// for bit, on a random subset of pairs.
    #[test]
    fn gen_fvs_equals_the_unprofiled_vector_at_loop(
        a_rows in proptest::collection::vec((value(), value()), 1..5),
        b_rows in proptest::collection::vec((value(), value()), 1..5),
        salt in 0u32..1000,
    ) {
        let a = table("a", a_rows);
        let b = table("b", b_rows);
        let fs = all_features();
        // Sparse pair subset: some tuples are profiled and never scored.
        let pairs: Vec<IdPair> = (0..a.len() as u32)
            .flat_map(|i| (0..b.len() as u32).map(move |j| (i, j)))
            .filter(|(i, j)| (i * 7 + j * 13 + salt) % 3 != 0)
            .collect();
        let cluster = Cluster::new(ClusterConfig::small(2)).with_threads(2);
        let out = gen_fvs(&cluster, &a, &b, &pairs, &fs).expect("gen_fvs");
        prop_assert_eq!(&out.fvs.pairs, &pairs);
        let tfidf = tfidf_model_for(&fs, &a, &b);
        let ctx = match &tfidf {
            Some(m) => SimContext::with_tfidf(m),
            None => SimContext::empty(),
        };
        for (&(aid, bid), fv) in pairs.iter().zip(&out.fvs.fvs) {
            let want = fs.vector_at(&a, &b, aid, bid, &ctx, &mut ScoreScratch::default());
            for (k, (x, y)) in fv.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "pair ({},{}) feature {} ({} vs {})",
                    aid, bid, fs.get(k).name, x, y
                );
            }
        }
    }
}

/// Rows every batching table starts with: ASCII values that align (the
/// `i16` lanes), a missing value, a non-ASCII one (the one-lane path) and
/// a lone symbol.
fn batch_rows() -> Vec<(Value, Value)> {
    vec![
        (
            Value::str("sony wh-1000xm4 headphones"),
            Value::str("sony wh1000 xm4"),
        ),
        (Value::Null, Value::str("bose qc45")),
        (Value::str("naïve café"), Value::str("cafe naive")),
        (Value::str("q"), Value::str("bose quietcomfort 45")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `gen_fvs` scores each run of eight pairs with one alignment sweep
    /// per family group; its vectors equal a `Scorer::vector` loop over the
    /// same store bit for bit — on splits whose length is not a multiple
    /// of 8 (one short split, or a full split of 512 and a short one), with
    /// missing, non-ASCII and ASCII values inside one run.
    #[test]
    fn batched_gen_fvs_equals_the_per_pair_vector_loop(
        a_rows in proptest::collection::vec((value(), value()), 0..5),
        b_rows in proptest::collection::vec((value(), value()), 0..5),
        runs in 0usize..5,
        tail in 1usize..8,
        full_split in any::<bool>(),
        salt in 0u32..1000,
    ) {
        let full = if full_split { falcon_dataflow::SPLIT_RECORDS } else { 0 };
        let n = full + 8 * runs + tail;
        let a = table("a", batch_rows().into_iter().chain(a_rows).collect());
        let b = table("b", batch_rows().into_iter().rev().chain(b_rows).collect());
        let (na, nb) = (a.len() as u32, b.len() as u32);
        // The first run pairs the fixed rows with each other; the rest walk
        // both tables.
        let pairs: Vec<IdPair> = (0..n as u32)
            .map(|k| if k < 8 { (k % 4, k / 2) } else { ((k * 7 + salt) % na, (k * 3 + salt / 7) % nb) })
            .collect();
        let fs = all_features();
        let cluster = small_cluster(2);
        let out = gen_fvs(&cluster, &a, &b, &pairs, &fs).expect("gen_fvs");
        let tfidf = tfidf_model_for(&fs, &a, &b);
        let mut store = TokenStore::default();
        store.require(&cluster, &a, &b, &requirements(&fs.features), tfidf.as_ref()).expect("profiles");
        let ctx = SimContext { tfidf: tfidf.as_ref(), ..store.context() };
        let scorer = Scorer::new(&fs, &a, &b, &ctx);
        let mut scratch = ScoreScratch::default();
        prop_assert_eq!(out.fvs.len(), n);
        for (&pair, fv) in pairs.iter().zip(&out.fvs.fvs) {
            let want = scorer.vector(pair, &ctx, &mut scratch);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(fv), bits(&want), "pair {:?}", pair);
        }
    }
}

/// FNV-1a over every pair id and every feature value's bits.
fn fv_digest(out: &GenFvsOutput) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for ((a, b), fv) in out.fvs.iter() {
        eat(&a.to_le_bytes());
        eat(&b.to_le_bytes());
        for v in fv {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// A fixed pair list per dataset: a quarter true matches (high scores,
/// shared tokens), the rest pseudo-random (mostly disjoint).
fn golden_pairs(d: &EmDataset, n: usize) -> Vec<IdPair> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = |m: usize| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((x >> 33) % m as u64) as u32
    };
    let mut pairs: Vec<IdPair> = d.truth.iter().copied().take(n / 4).collect();
    while pairs.len() < n {
        pairs.push((next(d.a.len()), next(d.b.len())));
    }
    pairs
}

fn golden_datasets() -> [(EmDataset, u64); 3] {
    [
        (
            falcon_datagen::products::generate(0.015, 7),
            0x5c89_ed54_9a75_d121,
        ),
        (
            falcon_datagen::songs::generate(0.001, 7),
            0x929f_b7a6_76ee_ad91,
        ),
        (
            falcon_datagen::citations::generate(0.0005, 7),
            0xb760_5f9c_998b_32c4,
        ),
    ]
}

fn small_cluster(threads: usize) -> Cluster {
    Cluster::new(ClusterConfig::small(2)).with_threads(threads)
}

/// The matching-set feature vectors of 2 000 fixed pairs per dataset hash
/// to the digests recorded before the slice kernels replaced the
/// allocating ones: later changes diff against these bytes, not against a
/// second implementation. A digest moves only when scores move — that is
/// a change of results, to be made on purpose and re-recorded.
#[test]
fn matching_fv_matrix_matches_frozen_digest() {
    for (d, want) in golden_datasets() {
        let lib = generate_features(&d.a, &d.b);
        let pairs = golden_pairs(&d, 2000);
        let out = gen_fvs(&small_cluster(2), &d.a, &d.b, &pairs, &lib.matching).expect("gen_fvs");
        assert_eq!(out.fvs.pairs, pairs, "{}", d.name);
        assert_eq!(
            fv_digest(&out),
            want,
            "{}: matching feature vectors changed ({:#018x})",
            d.name,
            fv_digest(&out)
        );
    }
}

/// Scores cannot depend on scheduling: the thread count decides which
/// worker scores which split, fault plans charge retries and speculative
/// copies, and the job shape that stages are priced from is the same at
/// every thread count.
#[test]
fn matching_fvs_are_scheduling_independent() {
    for (d, want) in golden_datasets() {
        let lib = generate_features(&d.a, &d.b);
        let pairs = golden_pairs(&d, 2000);
        for threads in [1usize, 2, 8] {
            let out = gen_fvs(&small_cluster(threads), &d.a, &d.b, &pairs, &lib.matching)
                .expect("gen_fvs");
            assert_eq!(fv_digest(&out), want, "{} at {threads} threads", d.name);
            // One split per `SPLIT_RECORDS` pairs; one profile job per
            // table.
            let splits = pairs.len().div_ceil(falcon_dataflow::SPLIT_RECORDS);
            assert_eq!(out.stats.map_tasks, splits, "{}", d.name);
            assert_eq!(out.stats.input_records, pairs.len(), "{}", d.name);
            assert_eq!(out.stats.output_records, pairs.len(), "{}", d.name);
            assert_eq!(out.prep_stats.len(), 2, "{}", d.name);
        }
        let plan = FaultPlan::seeded(11)
            .with_failure_rate(0.3)
            .with_straggler_rate(0.3)
            .with_max_attempts(12);
        let faulty = small_cluster(2).with_faults(plan);
        let out = gen_fvs(&faulty, &d.a, &d.b, &pairs, &lib.matching).expect("faulty gen_fvs");
        assert_eq!(fv_digest(&out), want, "{} under faults", d.name);
        let faults = faulty.fault_stats().expect("fault plan installed");
        assert!(
            faults.retries > 0 && faults.speculative > 0,
            "the plan must actually inject: {faults:?}"
        );
    }
}

/// A pair's vector does not depend on which other pairs the call scores:
/// a list touching few tuples yields the corresponding rows of the larger
/// list's run.
#[test]
fn masked_profiles_score_like_covering_ones() {
    let (d, _) = &golden_datasets()[0];
    let lib = generate_features(&d.a, &d.b);
    let pairs = golden_pairs(d, 2000);
    let all = gen_fvs(&small_cluster(2), &d.a, &d.b, &pairs, &lib.matching).expect("gen_fvs");
    let few: Vec<IdPair> = pairs.iter().copied().step_by(97).collect();
    let some = gen_fvs(&small_cluster(2), &d.a, &d.b, &few, &lib.matching).expect("gen_fvs");
    for (k, fv) in some.fvs.fvs.iter().enumerate() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(fv), bits(&all.fvs.fvs[k * 97]), "pair {:?}", few[k]);
    }
}
