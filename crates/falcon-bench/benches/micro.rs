//! Criterion micro-benchmarks for the hot primitives: similarity
//! functions, tokenization, index probes, forest training/prediction and
//! bitmap calculus.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use falcon::forest::{Dataset, Forest, ForestConfig};
use falcon::index::{FilterSpec, PredicateIndex};
use falcon::table::{AttrType, Schema, Table, Value};
use falcon::textsim::{SimContext, SimFunction, Tokenizer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn bench_similarity(c: &mut Criterion) {
    let a = "sony wireless noise-canceling headphones wh-1000xm4 premium";
    let b = "sony wirelss noise canceling headphone wh-1000xm4";
    let ctx = SimContext::empty();
    let mut g = c.benchmark_group("similarity");
    for sim in [
        SimFunction::Jaccard(Tokenizer::Word),
        SimFunction::Jaccard(Tokenizer::QGram(3)),
        SimFunction::Dice(Tokenizer::Word),
        SimFunction::Cosine(Tokenizer::Word),
        SimFunction::Levenshtein,
        SimFunction::Jaro,
        SimFunction::JaroWinkler,
        SimFunction::MongeElkan,
        SimFunction::SmithWaterman,
        SimFunction::ExactMatch,
    ] {
        g.bench_function(sim.name(), |bench| {
            bench.iter(|| sim.score_str(black_box(a), black_box(b), &ctx))
        });
    }
    g.finish();
}

fn bench_index_probe(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(1);
    let words = [
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    ];
    let schema = Schema::new([("x", AttrType::Str)]);
    let rows: Vec<Vec<Value>> = (0..5000)
        .map(|_| {
            let n = rng.gen_range(2..6);
            let s: Vec<&str> = (0..n)
                .map(|_| words[rng.gen_range(0..words.len())])
                .collect();
            vec![Value::str(s.join(" "))]
        })
        .collect();
    let table = Table::new("a", schema, rows);
    let idx = PredicateIndex::try_build(
        &table,
        &FilterSpec::SetSim {
            a_attr: "x".into(),
            sim: SimFunction::Jaccard(Tokenizer::Word),
            threshold: 0.6,
        },
        None,
    )
    .expect("valid filter spec");
    let probe = Value::str("alpha beta gamma");
    c.bench_function("prefix_index_probe_5k", |b| {
        b.iter(|| idx.probe(black_box(&probe)))
    });

    let ridx = PredicateIndex::try_build(
        &table,
        &FilterSpec::EditSim {
            a_attr: "x".into(),
            threshold: 0.8,
        },
        None,
    )
    .expect("valid filter spec");
    c.bench_function("edit_index_probe_5k", |b| {
        b.iter(|| ridx.probe(black_box(&probe)))
    });
}

fn bench_forest(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(2);
    let mut data = Dataset::new();
    for _ in 0..1000 {
        let fv: Vec<f64> = (0..20).map(|_| rng.gen::<f64>()).collect();
        let label = fv[0] + fv[3] * 0.5 > 0.8;
        data.push(fv, label);
    }
    c.bench_function("forest_train_1k_x20", |b| {
        b.iter(|| {
            Forest::train(
                black_box(&data),
                &ForestConfig::default(),
                &mut SmallRng::seed_from_u64(3),
            )
        })
    });
    let forest = Forest::train(&data, &ForestConfig::default(), &mut rng);
    let fv: Vec<f64> = (0..20).map(|i| i as f64 / 20.0).collect();
    c.bench_function("forest_predict", |b| {
        b.iter(|| forest.predict(black_box(&fv)))
    });
    c.bench_function("forest_disagreement", |b| {
        b.iter(|| forest.disagreement(black_box(&fv)))
    });
}

fn bench_bitmap(c: &mut Criterion) {
    use falcon::core::ops::bitmap::Bitmap;
    let mut a = Bitmap::zeros(1_000_000);
    let mut b = Bitmap::zeros(1_000_000);
    for i in (0..1_000_000).step_by(3) {
        a.set(i);
    }
    for i in (0..1_000_000).step_by(7) {
        b.set(i);
    }
    c.bench_function("bitmap_union_count_1m", |bench| {
        bench.iter(|| black_box(&a).union_count(black_box(&b)))
    });
}

criterion_group!(
    benches,
    bench_similarity,
    bench_index_probe,
    bench_forest,
    bench_bitmap
);
criterion_main!(benches);
