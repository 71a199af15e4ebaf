//! Criterion benchmarks for the blocking stage: the four index-based
//! physical operators against the two enumeration baselines on a fixed
//! products-like workload, plus index construction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use falcon::core::features::generate_features;
use falcon::core::indexing::{BuiltIndexes, ConjunctSpecs};
use falcon::core::physical::{self, PhysicalOp};
use falcon::core::rules::{Predicate, Rule, RuleSequence};
use falcon::forest::SplitOp;
use falcon::prelude::*;
use falcon::textsim::{SimFunction, Tokenizer};

struct Fixture {
    a: Table,
    b: Table,
    features: falcon::core::features::FeatureSet,
    seq: RuleSequence,
    conjuncts: ConjunctSpecs,
    built: BuiltIndexes<'static>,
    cluster: Cluster,
}

fn fixture() -> Fixture {
    let d = falcon::datagen::products::generate(0.02, 3);
    let lib = generate_features(&d.a, &d.b);
    let find = |sim: SimFunction, attr: &str| {
        lib.blocking
            .features
            .iter()
            .position(|f| f.sim == sim && f.a_attr == attr)
            .expect("feature")
    };
    let seq = RuleSequence::new(vec![
        Rule {
            predicates: vec![Predicate {
                feature: find(SimFunction::Jaccard(Tokenizer::QGram(3)), "title"),
                op: SplitOp::Le,
                threshold: 0.3,
                nan_is_high: true,
            }],
        },
        Rule {
            predicates: vec![
                Predicate {
                    feature: find(SimFunction::ExactMatch, "brand"),
                    op: SplitOp::Le,
                    threshold: 0.5,
                    nan_is_high: true,
                },
                Predicate {
                    feature: find(SimFunction::AbsDiff, "price"),
                    op: SplitOp::Gt,
                    threshold: 50.0,
                    nan_is_high: false,
                },
            ],
        },
    ]);
    let cluster = Cluster::new(ClusterConfig::default());
    let conjuncts = ConjunctSpecs::derive(&seq, &lib.blocking);
    let mut built = BuiltIndexes::new();
    for spec in conjuncts.all_specs() {
        built.build_spec(&cluster, &d.a, &spec).expect("build");
    }
    Fixture {
        a: d.a,
        b: d.b,
        features: lib.blocking,
        seq,
        conjuncts,
        built,
        cluster,
    }
}

fn bench_operators(c: &mut Criterion) {
    let f = fixture();
    let mut g = c.benchmark_group("apply_blocking_rules");
    g.sample_size(10);
    for op in [
        PhysicalOp::ApplyAll,
        PhysicalOp::ApplyGreedy,
        PhysicalOp::ApplyConjunct,
        PhysicalOp::ApplyPredicate,
        PhysicalOp::MapSide,
        PhysicalOp::ReduceSplit,
    ] {
        g.bench_with_input(BenchmarkId::from_parameter(op.name()), &op, |bench, &op| {
            bench.iter(|| {
                physical::execute(
                    op,
                    &f.cluster,
                    &f.a,
                    &f.b,
                    &f.features,
                    &f.seq,
                    &f.conjuncts,
                    &f.built,
                    &[0.3, 0.5],
                    1 << 40,
                )
                .expect("execute")
            })
        });
    }
    g.finish();
}

fn bench_index_build(c: &mut Criterion) {
    let d = falcon::datagen::products::generate(0.05, 4);
    let cluster = Cluster::new(ClusterConfig::default());
    let mut g = c.benchmark_group("index_build");
    g.sample_size(10);
    g.bench_function("prefix_jaccard_title", |bench| {
        bench.iter(|| {
            let mut built = BuiltIndexes::new();
            built.build_spec(
                &cluster,
                &d.a,
                &falcon::index::FilterSpec::SetSim {
                    a_attr: "title".into(),
                    sim: SimFunction::Jaccard(Tokenizer::Word),
                    threshold: 0.5,
                },
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_operators, bench_index_build);
criterion_main!(benches);
