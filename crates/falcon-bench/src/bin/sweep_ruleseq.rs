//! Section 11.2, `sel_opt_seq`: compare the selected optimal rule
//! sequence against executing *all* retained rules, only the top-1, and
//! the top-3 (in `eval_rules` rank order) — recall, run time and
//! candidate-set size, per dataset.

use falcon::core::features::generate_features;
use falcon::core::indexing::{BuiltIndexes, ConjunctSpecs};
use falcon::core::ops::al_matcher::{al_matcher, AlConfig};
use falcon::core::ops::eval_rules::{eval_rules, EvalConfig};
use falcon::core::ops::gen_fvs::gen_fvs;
use falcon::core::ops::get_blocking_rules::get_blocking_rules;
use falcon::core::ops::sample_pairs::sample_pairs;
use falcon::core::ops::select_opt_seq::{select_opt_seq, SeqConfig};
use falcon::core::physical::{self, PhysicalOp};
use falcon::core::rules::RuleSequence;
use falcon::core::timeline::Timeline;
use falcon::prelude::*;
use falcon_bench::{dataset, fmt_dur, title, Args, DATASETS};

fn main() {
    let args = Args::parse();
    let scale: f64 = args.get("scale", 1.0);
    let seed: u64 = args.get("seed", 1);

    title("Rule-sequence quality: optimal sequence vs all / top-1 / top-3 rules");
    println!(
        "{:<11} {:<10} {:>6} {:>12} {:>12} {:>9}",
        "Dataset", "variant", "rules", "candidates", "sim time", "recall%"
    );
    for name in DATASETS {
        let d = dataset(name, scale, seed);
        let cluster = Cluster::new(ClusterConfig::default());
        let truth = GroundTruth::new(d.truth.iter().copied());
        let mut session = CrowdSession::new(OracleCrowd::new(truth));
        let mut tl = Timeline::new();
        let lib = generate_features(&d.a, &d.b);
        let sample = sample_pairs(&cluster, &d.a, &d.b, 8_000, 40, seed).expect("sample");
        let s_fvs = gen_fvs(&cluster, &d.a, &d.b, &sample.pairs, &lib.blocking).expect("gen_fvs");
        let higher: Vec<bool> = lib
            .blocking
            .features
            .iter()
            .map(|f| f.sim.higher_is_similar())
            .collect();
        let al = al_matcher(
            &cluster,
            &mut session,
            &mut tl,
            "al",
            &s_fvs.fvs,
            &higher,
            &AlConfig::default(),
        )
        .expect("al");
        let ranked = get_blocking_rules(&al.forest, &s_fvs.fvs, 20, &higher);
        let eval = eval_rules(
            &mut session,
            &mut tl,
            &ranked,
            &s_fvs.fvs,
            &EvalConfig::default(),
        );
        let opt = select_opt_seq(&ranked, &eval.retained, &s_fvs.fvs, &SeqConfig::default());
        let retained_rules: Vec<_> = eval.retained.iter().map(|e| e.rule.clone()).collect();
        let variants: Vec<(&str, RuleSequence)> = vec![
            ("optimal", opt.seq.clone()),
            ("all", RuleSequence::new(retained_rules.clone())),
            (
                "top-1",
                RuleSequence::new(retained_rules.iter().take(1).cloned().collect()),
            ),
            (
                "top-3",
                RuleSequence::new(retained_rules.iter().take(3).cloned().collect()),
            ),
        ];
        for (label, seq) in variants {
            if seq.is_empty() {
                println!("{name:<11} {label:<10} (no rules retained)");
                continue;
            }
            let conjuncts = ConjunctSpecs::derive(&seq, &lib.blocking);
            let mut built = BuiltIndexes::new();
            for spec in conjuncts.all_specs() {
                built.build_spec(&cluster, &d.a, &spec).expect("build");
            }
            let sels = vec![0.5; seq.len()];
            match physical::execute(
                PhysicalOp::ApplyAll,
                &cluster,
                &d.a,
                &d.b,
                &lib.blocking,
                &seq,
                &conjuncts,
                &built,
                &sels,
                1 << 40,
            ) {
                Ok(out) => {
                    let recall =
                        falcon::core::metrics::blocking_recall(&out.candidates, &d.truth) * 100.0;
                    println!(
                        "{:<11} {:<10} {:>6} {:>12} {:>12} {:>8.1}",
                        name,
                        label,
                        seq.len(),
                        out.candidates.len(),
                        fmt_dur(out.cost(&cluster.config).dur()),
                        recall
                    );
                }
                Err(e) => println!("{name:<11} {label:<10} failed: {e}"),
            }
        }
    }
    println!("\nExpected shape (paper): the optimal sequence has (near-)highest recall with (near-)lowest time and a small candidate set.");
}
