//! Frozen contents of the set-similarity indexes: for three datasets at
//! fixed seeds, every set-based blocking feature and thresholds 0.3 / 0.5
//! / 0.8, the token order (every column token's
//! rank), the prefix postings (every column token's posting list), the
//! per-tuple set sizes, the missing list, the byte estimates that feed
//! `select_physical` and the planned probe mode must equal the lines of
//! `goldens/index.txt` — whichever way the store came to hold the column.
//!
//! The golden file was recorded at the commit *before* the index layer
//! moved onto the profiles' token-id columns, through string accessors
//! both sides have, so it pins "same index" against the retired
//! `String`-keyed structures without keeping them alive. To re-record
//! after an intended change, empty the file and run this test: it fails
//! printing the full replacement content.

use falcon_core::features::{generate_features, Feature, FeatureSet};
use falcon_core::indexing::BuiltIndexes;
use falcon_core::tokens::{requirements, TokenStore};
use falcon_dataflow::{Cluster, ClusterConfig};
use falcon_datagen::{citations, products, songs, EmDataset};
use falcon_index::{FilterSpec, PredicateIndex};
use falcon_table::{Table, TupleId};
use std::collections::BTreeSet;

const GOLDEN: &str = include_str!("goldens/index.txt");
const THRESHOLDS: [f64; 3] = [0.3, 0.5, 0.8];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn num(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

fn spec_of(f: &Feature, threshold: f64) -> FilterSpec {
    FilterSpec::SetSim {
        a_attr: f.a_attr.clone(),
        sim: f.sim,
        threshold,
    }
}

/// The distinct tokens of the feature's `A` column, in text order.
fn column_tokens(a: &Table, f: &Feature) -> BTreeSet<String> {
    let tokenizer = f.sim.tokenizer().expect("set measure");
    let mut all = BTreeSet::new();
    a.for_each_rendered(f.a_idx, |_, s| all.extend(tokenizer.tokenize(s)));
    all
}

/// Everything observable about one built index, as `(column part, spec
/// part)`: the first must not depend on the threshold.
fn describe(idx: &PredicateIndex, tokens: &BTreeSet<String>, n: usize) -> (String, String) {
    let PredicateIndex::SetSim {
        index,
        order,
        missing,
        sigs,
        ..
    } = idx
    else {
        panic!("expected a set-similarity index");
    };
    let mut h = Fnv::new();
    for tok in tokens {
        h.bytes(tok.as_bytes());
        h.num(u64::from(order.rank(tok).expect("column token is ranked")));
        let list = index.postings(tok);
        h.num(list.len() as u64);
        for &(id, pos) in list {
            h.num(u64::from(id));
            h.num(u64::from(pos));
        }
    }
    for id in 0..n as TupleId {
        h.num(index.set_size(id).map_or(u64::MAX, |s| s as u64));
        h.num(u64::from(sigs.size(id)));
    }
    h.num(missing.len() as u64);
    missing.iter().for_each(|&id| h.num(u64::from(id)));
    (
        format!(
            "tokens={} order_bytes={} missing={}",
            order.len(),
            order.estimated_bytes(),
            missing.len()
        ),
        format!(
            "postings={} bytes={}+{}={} density={:.6} mode={} digest={:016x}",
            index.len(),
            index.estimated_bytes(),
            sigs.estimated_bytes(),
            idx.estimated_bytes(),
            sigs.density(),
            idx.plan_probe_mode().name(),
            h.0
        ),
    )
}

fn set_features(features: &FeatureSet) -> Vec<&Feature> {
    features
        .features
        .iter()
        .filter(|f| f.sim.is_set_based())
        .collect()
}

/// One golden line per set-based blocking feature, in `order` (the order
/// the columns reach the store in; the lines come back in feature order).
fn lines(
    name: &str,
    d: &EmDataset,
    features: &FeatureSet,
    built: &mut BuiltIndexes,
    cluster: &Cluster,
    reversed: bool,
) -> Vec<String> {
    let mut feats = set_features(features);
    if reversed {
        feats.reverse();
    }
    let mut out: Vec<String> = feats
        .iter()
        .map(|f| {
            let tokens = column_tokens(&d.a, f);
            let mut column = None;
            let mut specs = Vec::new();
            for threshold in THRESHOLDS {
                let spec = spec_of(f, threshold);
                built.build_spec(cluster, &d.a, &spec).expect("build");
                let idx = built.get(&spec).expect("built");
                let (col, part) = describe(&idx, &tokens, d.a.len());
                assert_eq!(*column.get_or_insert(col.clone()), col, "{}", f.name);
                // `/2`: the signature is two 64-bit words wide.
                specs.push(format!("{threshold}/2 {part}"));
            }
            format!(
                "{name} {} {} | {}",
                f.name,
                column.unwrap_or_default(),
                specs.join(" | ")
            )
        })
        .collect();
    if reversed {
        out.reverse();
    }
    out
}

/// A token store holding every blocking-feature column before any index
/// is asked for (what the driver's blocking stage starts from).
fn prebuilt(cluster: &Cluster, d: &EmDataset, features: &FeatureSet) -> TokenStore {
    let mut store = TokenStore::default();
    let needs = requirements(&features.features);
    let jobs = store.require(cluster, &d.a, &d.b, &needs, None);
    assert_eq!(jobs.expect("profiles").len(), 2);
    store
}

#[test]
fn built_indexes_match_the_recorded_goldens() {
    let datasets: [(&str, EmDataset); 3] = [
        ("products", products::generate(0.05, 11)),
        ("songs", songs::generate(0.001, 5)),
        ("citations", citations::generate(0.0005, 3)),
    ];
    let cluster = |n: usize| Cluster::new(ClusterConfig::small(n)).with_threads(n);
    let mut recorded = Vec::new();
    for (name, d) in &datasets {
        let features = generate_features(&d.a, &d.b).blocking;
        // Filled on demand by `build_spec`, column after column.
        let reference = lines(
            name,
            d,
            &features,
            &mut BuiltIndexes::new(),
            &cluster(1),
            false,
        );
        for threads in [2, 8] {
            let got = lines(
                name,
                d,
                &features,
                &mut BuiltIndexes::new(),
                &cluster(threads),
                false,
            );
            assert_eq!(got, reference, "{name}: moved with {threads} threads");
        }
        // The same columns interned in the opposite order: dictionary
        // numbering must not leak into ranks, postings or byte estimates.
        let got = lines(
            name,
            d,
            &features,
            &mut BuiltIndexes::new(),
            &cluster(2),
            true,
        );
        assert_eq!(got, reference, "{name}: moved with the interning order");
        // Over a store that was asked for every blocking column first.
        let store = prebuilt(&cluster(2), d, &features);
        let mut built = BuiltIndexes::over(&store);
        let got = lines(name, d, &features, &mut built, &cluster(2), false);
        assert_eq!(
            got, reference,
            "{name}: prebuilt store differs from on-demand"
        );
        recorded.extend(reference);
    }
    let missing: Vec<&String> = recorded
        .iter()
        .filter(|l| !GOLDEN.lines().any(|g| g == l.as_str()))
        .collect();
    assert!(
        missing.is_empty() && GOLDEN.lines().count() == recorded.len(),
        "indexes differ from goldens/index.txt; {} line(s) not in it.\n\nfull replacement:\n{}\n",
        missing.len(),
        recorded.join("\n")
    );
}
