//! The run's token store against its definition.
//!
//! (a) Whatever order the store was grown in, every column read through
//! it equals — tuple by tuple — the tokenizer's output on the rendered
//! value, mapped through the dictionary. (b) Dictionary ids and column
//! contents are the same at 1, 2 and 8 threads and equal a sequential
//! first-occurrence interning written here. (c) A request the store
//! already holds runs no job. (d) Growing the store once the indexes
//! built over it are gone does not copy the dictionary.
//!
//! The tables are dirty on purpose — empty, punctuation-only, numeric,
//! null and non-ASCII values — and longer than two splits, so dictionary
//! merging across map tasks is on the path.

use falcon_core::features::{generate_features, FeatureLibrary};
use falcon_core::indexing::BuiltIndexes;
use falcon_core::ops::gen_fvs::tfidf_model_for;
use falcon_core::ops::sample_pairs::word_columns;
use falcon_core::tokens::{requirements, ProfileSpec, TokenStore};
use falcon_dataflow::{Cluster, ClusterConfig, SPLIT_RECORDS};
use falcon_index::FilterSpec;
use falcon_table::{AttrType, Schema, Table, Value};
use falcon_textsim::tokenize::word_tokens;
use falcon_textsim::{Syms, TfIdfModel, TokenProfile};
use std::collections::HashMap;
use std::sync::Arc;

const DIRTY: [&str; 8] = [
    "",
    "... ,",
    "  -- ",
    "ΟΔΟΣ Σ ΟΔΟΣ.",
    "İstanbul ǅ ﬁn café",
    "日本語 テキスト 日本語",
    "x",
    "The the THE",
];

fn table(name: &str, rows: usize, salt: usize) -> Table {
    let schema = Schema::new([
        ("title", AttrType::Str),
        ("brand", AttrType::Str),
        ("price", AttrType::Num),
        ("blurb", AttrType::Str),
    ]);
    let word = |k: usize| ["alpha", "Beta", "gamma,", "delta", "épsilon", "zeta", "eta"][k % 7];
    let row = |i: usize| {
        let k = i * 31 + salt;
        let title = match i % 11 {
            0 => Value::str(DIRTY[k % DIRTY.len()]),
            1 => Value::Null,
            2 => Value::num(k as f64 / 4.0),
            _ => Value::str(format!("{} {} model {}", word(k), word(k / 7), k % 97)),
        };
        let brand = match i % 13 {
            0 => Value::Null,
            1 => Value::str(DIRTY[(k + 3) % DIRTY.len()]),
            _ => Value::str(word(k / 3)),
        };
        let price = match i % 17 {
            0 => Value::Null,
            _ => Value::num((k % 500) as f64 + 0.5),
        };
        let blurb = match i % 19 {
            0 => Value::str(DIRTY[(k + 5) % DIRTY.len()]),
            _ => Value::str(
                (0..12 + k % 5)
                    .map(|j| word(k + j * j))
                    .collect::<Vec<_>>()
                    .join(" "),
            ),
        };
        vec![title, brand, price, blurb]
    };
    Table::new(name, schema, (0..rows).map(row))
}

fn tables() -> (Table, Table) {
    (
        table("a", 2 * SPLIT_RECORDS + 77, 1),
        table("b", 2 * SPLIT_RECORDS + 300, 5),
    )
}

fn cluster(threads: usize) -> Cluster {
    Cluster::new(ClusterConfig::small(threads)).with_threads(threads)
}

type Needs = (ProfileSpec, ProfileSpec);

/// The three requests a run makes, in the order it makes them.
fn requests(lib: &FeatureLibrary) -> [Needs; 3] {
    [
        (word_columns(&lib.a_strings), word_columns(&lib.b_strings)),
        requirements(&lib.blocking.features),
        requirements(&lib.matching.features),
    ]
}

fn union(requests: &[Needs]) -> Needs {
    let mut all = Needs::default();
    for (a, b) in requests {
        all.0.merge(a);
        all.1.merge(b);
    }
    all
}

/// (a): every column of `spec` in `profile` is the tokenizer's output on
/// the rendered cell, as ids of `store`'s dictionary.
fn assert_is_the_definition(
    store: &TokenStore,
    profile: &TokenProfile,
    table: &Table,
    spec: &ProfileSpec,
    tfidf: &TfIdfModel,
    what: &str,
) {
    let dict = store.dict();
    let id_of = |t: &String| {
        dict.get(t)
            .unwrap_or_else(|| panic!("{what}: {t:?} not interned"))
    };
    for id in 0..table.len() as u32 {
        let text = |attr: usize| table.value_ref(id, attr).unwrap_or_default().render();
        for &attr in &spec.rendered_attrs {
            assert_eq!(
                profile.rendered(attr, id),
                Some(text(attr).as_str()),
                "{what}"
            );
        }
        for &(attr, tokenizer) in &spec.token_columns {
            let mut want: Vec<u32> = tokenizer
                .tokenize_sorted(&text(attr))
                .iter()
                .map(id_of)
                .collect();
            want.sort_unstable();
            let got = profile.tokens(attr, tokenizer, id);
            assert_eq!(
                got,
                Some(&want[..]),
                "{what} tuple {id} {attr}/{tokenizer:?}"
            );
        }
        for &attr in &spec.seq_attrs {
            let want: Vec<u32> = word_tokens(&text(attr)).iter().map(id_of).collect();
            assert_eq!(
                profile.token_seq(attr, id),
                Some(&want[..]),
                "{what} tuple {id} seq {attr}"
            );
        }
        for &attr in &spec.weight_attrs {
            let want = tfidf.weight_vector(&text(attr));
            let got = profile.weights(attr, id).expect("weights");
            let tokens: Vec<&str> = got.ids.iter().filter_map(|&t| dict.resolve(t)).collect();
            assert_eq!(
                tokens,
                want.iter().map(|(t, _)| t.as_str()).collect::<Vec<_>>()
            );
            let bits = |w: &f64| w.to_bits();
            assert_eq!(
                got.weights.iter().map(bits).collect::<Vec<_>>(),
                want.iter().map(|(_, w)| w.to_bits()).collect::<Vec<_>>()
            );
            let norm = want.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
            assert_eq!(
                got.norm.to_bits(),
                norm.to_bits(),
                "{what} tuple {id} norm {attr}"
            );
        }
        for &attr in &spec.char_attrs {
            let text = text(attr);
            match profile.syms(attr, id).expect("syms") {
                Syms::Ascii(bytes) => assert_eq!(bytes, text.as_bytes(), "{what}"),
                Syms::Wide(chars) => assert_eq!(chars, &text.chars().collect::<Vec<_>>()[..]),
            }
        }
    }
}

#[test]
fn every_growth_order_reads_as_the_definition() {
    let (a, b) = tables();
    let lib = generate_features(&a, &b);
    let tfidf = tfidf_model_for(&lib.matching, &a, &b).expect("a long-string attribute");
    let [words, blocking, matching] = requests(&lib);
    assert!(!matching.0.weight_attrs.is_empty() && !matching.0.seq_attrs.is_empty());
    assert!(!matching.0.char_attrs.is_empty() && !words.0.is_empty());
    let orders: [(&str, Vec<&Needs>); 3] = [
        ("blocking, matching", vec![&blocking, &matching]),
        ("matching only", vec![&matching]),
        (
            "sample, blocking, matching",
            vec![&words, &blocking, &matching],
        ),
    ];
    for (what, order) in orders {
        let mut store = TokenStore::default();
        for needs in &order {
            // The corpus model arrives with the matching request, as in
            // the driver.
            let model = std::ptr::eq(*needs, &matching).then_some(&tfidf);
            store
                .require(&cluster(2), &a, &b, needs, model)
                .expect(what);
        }
        let held = union(&order.iter().map(|n| (*n).clone()).collect::<Vec<_>>());
        assert_is_the_definition(&store, store.a(), &a, &held.0, &tfidf, what);
        assert_is_the_definition(&store, store.b(), &b, &held.1, &tfidf, what);
    }
}

/// (b)'s definition: intern every token occurrence tuple by tuple — `A`
/// first; per tuple the word sequences, then the token columns, then the
/// weight vectors, each in text order — numbering tokens by first sight.
fn sequential_interning(sides: [(&Table, &ProfileSpec); 2], tfidf: &TfIdfModel) -> Vec<String> {
    let mut ids: HashMap<String, usize> = HashMap::new();
    let mut tokens = Vec::new();
    let mut intern = |t: String| {
        if !ids.contains_key(&t) {
            ids.insert(t.clone(), tokens.len());
            tokens.push(t);
        }
    };
    for (table, spec) in sides {
        for id in 0..table.len() as u32 {
            let text = |attr: usize| table.value_ref(id, attr).unwrap_or_default().render();
            for &attr in &spec.seq_attrs {
                word_tokens(&text(attr)).into_iter().for_each(&mut intern);
            }
            for &(attr, tokenizer) in &spec.token_columns {
                (tokenizer.tokenize_seq(&text(attr)).into_iter()).for_each(&mut intern);
            }
            for &attr in &spec.weight_attrs {
                let vector = tfidf.weight_vector(&text(attr));
                vector.into_iter().for_each(|(t, _)| intern(t));
            }
        }
    }
    tokens
}

#[test]
fn ids_follow_sequential_first_occurrence_at_any_thread_count() {
    let (a, b) = tables();
    let lib = generate_features(&a, &b);
    let tfidf = tfidf_model_for(&lib.matching, &a, &b).expect("a long-string attribute");
    let needs = union(&requests(&lib));
    let want = sequential_interning([(&a, &needs.0), (&b, &needs.1)], &tfidf);
    let mut first: Option<TokenStore> = None;
    for threads in [1, 2, 8] {
        let mut store = TokenStore::default();
        let jobs = store.require(&cluster(threads), &a, &b, &needs, Some(&tfidf));
        let jobs = jobs.expect("jobs");
        assert_eq!(jobs.len(), 2, "one job per table");
        assert!(
            jobs[0].map_tasks == 3 && jobs[1].map_tasks == 3,
            "three splits a table"
        );
        let got: Vec<&str> = store.dict().tokens().collect();
        assert_eq!(got, want, "{threads} threads");
        let one = first.get_or_insert_with(|| store.clone());
        for (side, table, spec) in [(0, &a, &needs.0), (1, &b, &needs.1)] {
            let (p, q) = match side {
                0 => (store.a(), one.a()),
                _ => (store.b(), one.b()),
            };
            for id in 0..table.len() as u32 {
                for &(attr, tokenizer) in &spec.token_columns {
                    assert_eq!(p.tokens(attr, tokenizer, id), q.tokens(attr, tokenizer, id));
                }
                for &attr in &spec.seq_attrs {
                    assert_eq!(p.token_seq(attr, id), q.token_seq(attr, id));
                }
                for &attr in &spec.weight_attrs {
                    assert_eq!(
                        p.weights(attr, id).map(|w| w.ids),
                        q.weights(attr, id).map(|w| w.ids)
                    );
                }
            }
        }
    }
}

#[test]
fn a_request_already_held_runs_no_job() {
    let (a, b) = tables();
    let lib = generate_features(&a, &b);
    let [words, blocking, matching] = requests(&lib);
    let cluster = cluster(2);
    let mut store = TokenStore::default();
    let first = store
        .require(&cluster, &a, &b, &matching, None)
        .expect("jobs");
    assert_eq!((first.len(), cluster.jobs_run()), (2, 2));
    // Blocking ⊂ matching: nothing to build, nothing to price.
    for needs in [&blocking, &matching] {
        let again = store
            .require(&cluster, &a, &b, needs, None)
            .expect("no job");
        assert!(again.is_empty());
    }
    assert_eq!(cluster.jobs_run(), 2);
    // Only the tables that miss a column run a job, and only for it.
    let only_a = (words.0.clone(), ProfileSpec::default());
    let grown = store.require(&cluster, &a, &b, &only_a, None).expect("job");
    let missing = (words.0.token_columns.iter())
        .filter(|k| !matching.0.token_columns.contains(k))
        .count();
    assert_eq!(grown.len(), usize::from(missing > 0));
    assert_eq!(cluster.jobs_run(), 2 + grown.len() as u64);
}

#[test]
fn growth_after_the_indexes_are_gone_keeps_the_dictionary_in_place() {
    let (a, b) = tables();
    let lib = generate_features(&a, &b);
    let tfidf = tfidf_model_for(&lib.matching, &a, &b);
    let [_, blocking, matching] = requests(&lib);
    let cluster = cluster(2);
    let mut store = TokenStore::default();
    store
        .require(&cluster, &a, &b, &blocking, None)
        .expect("jobs");
    {
        // The blocking stage: indexes share the dictionary.
        let mut built = BuiltIndexes::over(&store);
        let feature = (lib.blocking.features.iter())
            .find(|f| f.sim.is_set_based())
            .expect("a set measure");
        let spec = FilterSpec::SetSim {
            a_attr: feature.a_attr.clone(),
            sim: feature.sim,
            threshold: 0.5,
        };
        built.build_spec(&cluster, &a, &spec).expect("build");
        assert!(Arc::strong_count(store.dict()) > 1);
    }
    assert_eq!(Arc::strong_count(store.dict()), 1);
    let (before, known) = (Arc::as_ptr(store.dict()), store.dict().len());
    let grown = store.require(&cluster, &a, &b, &matching, tfidf.as_ref());
    assert_eq!(grown.expect("jobs").len(), 2);
    assert_eq!(
        Arc::as_ptr(store.dict()),
        before,
        "the dictionary was copied"
    );
    assert!(store.dict().len() >= known);
}
