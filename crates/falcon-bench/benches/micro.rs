//! Criterion micro-benchmarks for the hot primitives: similarity
//! functions, tokenization, index probes, the blocking rule evaluator,
//! forest training (one-shot and active learning's growing set) and
//! prediction, and bitmap calculus.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use falcon::core::physical::{EvalScratch, PairEvaluator};
use falcon::core::{Feature, FeatureSet, Predicate, Rule, RuleSequence};
use falcon::forest::{default_threads, Dataset, Forest, ForestConfig, RankedDataset, SplitOp};
use falcon::index::{FilterSpec, PredicateIndex};
use falcon::table::{AttrType, Schema, Table, Value};
use falcon::textsim::tokenize::word_tokens;
use falcon::textsim::{
    hybrid, CharFamily, SimContext, SimFunction, SimScratch, Syms, TokenDict, Tokenizer,
};
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
        SimFunction::ExactMatch,
    ] {
        g.bench_function(sim.name(), |bench| {
            bench.iter(|| sim.score_str(black_box(a), black_box(b), &ctx))
        });
    }
    // The matching-only kernels: NW, SW and SW-Gotoh of one pair from one
    // `i32` sweep over the bytes (the per-pair path), the same three of
    // eight pairs from one sweep in `i16` lanes (as `gen_fvs` runs them),
    // and Monge-Elkan over interned ids with a task's (warm) Jaro-Winkler
    // memo.
    let mut scratch = SimScratch::new();
    g.bench_function("align_triple", |bench| {
        bench.iter(|| {
            let (x, y) = (Syms::Ascii(a.as_bytes()), Syms::Ascii(b.as_bytes()));
            CharFamily::Align.score_syms(black_box(x), black_box(y), &mut scratch)
        })
    });
    let titles = [
        a,
        b,
        "sony wh-1000xm4 wireless headphones black",
        "bose quietcomfort 45 bluetooth headphones",
        "bose qc45 noise cancelling wireless headphone white",
        "sennheiser momentum 4 wireless",
        "apple airpods max space gray",
        "jbl tune 760nc over-ear",
    ];
    let batch: Vec<(Syms, Syms)> = (0..titles.len())
        .map(|k| {
            let (x, y) = (titles[k], titles[(k + 3) % titles.len()]);
            (Syms::Ascii(x.as_bytes()), Syms::Ascii(y.as_bytes()))
        })
        .collect();
    let mut out = [[0.0; 3]; 8];
    g.bench_function("align_batch8", |bench| {
        bench.iter(|| {
            CharFamily::Align.score_batch(black_box(&batch), &mut scratch, &mut out);
            out
        })
    });
    let mut dict = TokenDict::new();
    let mut ids = |s: &str| -> Vec<u32> {
        word_tokens(s)
            .into_iter()
            .map(|t| dict.intern_owned(t))
            .collect()
    };
    let (ta, tb) = (ids(a), ids(b));
    g.bench_function("monge_elkan_ids", |bench| {
        bench.iter(|| hybrid::monge_elkan_ids(black_box(&ta), black_box(&tb), &dict, &mut scratch))
    });
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
    // Active learning's training side: 30 rounds of +20 labeled rows over
    // 39 features, a 10-tree forest per round on the ranks the set
    // carries. Similarity-like values: two decimals, some missing.
    let mut rng_al = SmallRng::seed_from_u64(5);
    let rounds: Vec<Vec<(Vec<f64>, bool)>> = (0..30)
        .map(|_| {
            (0..20)
                .map(|_| {
                    let fv: Vec<f64> = (0..39)
                        .map(|_| match rng_al.gen_range(0..10) {
                            0 => f64::NAN,
                            _ => (rng_al.gen::<f64>() * 100.0).round() / 100.0,
                        })
                        .collect();
                    let label = fv[0] + fv[5] * 0.5 > 0.8;
                    (fv, label)
                })
                .collect()
        })
        .collect();
    c.bench_function("forest_train_al_rounds", |b| {
        b.iter(|| {
            let mut set = RankedDataset::new();
            let mut trng = SmallRng::seed_from_u64(4);
            for batch in &rounds {
                set.extend(batch.iter().cloned());
                black_box(Forest::train_ranked(&set, &mut trng, default_threads()));
            }
        })
    });
    let forest = Forest::train(&data, &ForestConfig::default(), &mut rng);
    let fv: Vec<f64> = (0..20).map(|i| i as f64 / 20.0).collect();
    c.bench_function("forest_predict", |b| {
        b.iter(|| forest.predict(black_box(&fv)))
    });
    // Active learning's scoring pass: every unlabeled vector through a
    // 10-tree forest, one vector at a time down all trees.
    let mut data = Dataset::new();
    for _ in 0..1000 {
        let fv: Vec<f64> = (0..29).map(|_| rng.gen::<f64>()).collect();
        let label = fv[0] + fv[7] * 0.5 > 0.8;
        data.push(fv, label);
    }
    let forest = Forest::train(&data, &ForestConfig::default(), &mut rng);
    let fvs: Vec<Vec<f64>> = (0..8000)
        .map(|_| (0..29).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let mut votes = Vec::new();
    c.bench_function("flat_count_votes", |b| {
        b.iter(|| forest.count_votes_into(fvs.len(), |j| black_box(&fvs[j]), &mut votes))
    });
}

/// The blocking reducers' inner call: one rule over a title 3-gram
/// column, on a pair whose token prints settle the predicate and on a
/// near-copy they cannot (one merge).
fn bench_pair_evaluator(c: &mut Criterion) {
    let schema = Schema::new([("title", AttrType::Str)]);
    let title = |t: &str| vec![Value::str(t)];
    let a = Table::new(
        "a",
        schema.clone(),
        [title("sony wireless noise-canceling headphones")],
    );
    let b = Table::new(
        "b",
        schema,
        [
            title("canon eos rebel t7 dslr camera kit"),
            title("sony wireless noise canceling headphone"),
        ],
    );
    let sim = SimFunction::Dice(Tokenizer::QGram(3));
    let features = FeatureSet {
        features: vec![Feature {
            name: "dice_3gram(title,title)".into(),
            a_attr: "title".into(),
            b_attr: "title".into(),
            sim,
            a_idx: 0,
            b_idx: 0,
        }],
    };
    let seq = RuleSequence::new(vec![Rule {
        predicates: vec![Predicate {
            feature: 0,
            op: SplitOp::Le,
            threshold: 0.4,
            nan_is_high: true,
        }],
    }]);
    let evaluator = PairEvaluator::new(&a, &b, &features, &seq);
    let mut scratch = EvalScratch::default();
    let mut g = c.benchmark_group("pair_evaluator_keeps");
    for (name, bid, settled) in [("settled", 0, 1), ("merged", 1, 0)] {
        let before = scratch.settled;
        evaluator.keeps_scratch(0, bid, &mut scratch);
        assert_eq!(scratch.settled - before, settled, "{name}");
        g.bench_function(name, |bench| {
            bench.iter(|| evaluator.keeps_scratch(0, black_box(bid), &mut scratch))
        });
    }
    g.finish();
}

fn bench_bitmap(c: &mut Criterion) {
    use falcon::index::CandidateBitmap;
    let mut a = CandidateBitmap::new(1_000_000);
    let mut b = CandidateBitmap::new(1_000_000);
    for i in (0..1_000_000).step_by(3) {
        a.insert(i);
    }
    for i in (0..1_000_000).step_by(7) {
        b.insert(i);
    }
    c.bench_function("bitmap_union_count_1m", |bench| {
        bench.iter(|| black_box(&a).union_ones(black_box(&b)))
    });
}

criterion_group!(
    benches,
    bench_similarity,
    bench_index_probe,
    bench_pair_evaluator,
    bench_forest,
    bench_bitmap
);
criterion_main!(benches);
