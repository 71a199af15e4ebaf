//! Section 3.2: key-based blocking (KBB) vs rule-based blocking (RBB)
//! recall on the three datasets. Paper numbers: KBB 72.6 / 98.6 / 38.8 vs
//! RBB 98.09 / 99.99 / 99.67 — KBB collapses on dirty Products/Citations
//! while RBB stays near-lossless.

use falcon::core::kbb::best_kbb;
use falcon::core::metrics::blocking_recall;
use falcon::core::snb::best_snb;
use falcon_bench::{dataset, run_once, standard_config, title, Args, DATASETS};

fn main() {
    let args = Args::parse();
    let scale: f64 = args.get("scale", 1.0);
    let seed: u64 = args.get("seed", 1);

    title("KBB / SNB vs RBB blocking recall (paper KBB: 72.6/98.6/38.8; RBB: 98.09/99.99/99.67)");
    println!(
        "{:<11} {:>7} {:>18} {:>7} {:>12} {:>7} {:>10}",
        "Dataset", "KBB%", "best key", "SNB%", "snb key(w=10)", "RBB%", "RBB cands"
    );
    for name in DATASETS {
        let d = dataset(name, scale, seed);
        let kbb = best_kbb(&d.a, &d.b, &d.truth).expect("generated tables share attributes");
        // RBB: learn rules hands-off with an oracle crowd, then measure
        // the candidate set the driver produced.
        let report = run_once(&d, standard_config(8_000), 0.0, seed);
        // Recompute candidates exhaustively for exact recall.
        let lib = falcon::core::features::generate_features(&d.a, &d.b);
        let out = falcon::core::corleone::corleone_blocking(
            &d.a,
            &d.b,
            &lib.blocking,
            &report.rule_sequence,
            1 << 42,
        )
        .expect("bench scale is enumerable");
        let rbb = blocking_recall(&out.candidates, &d.truth);
        let snb = best_snb(&d.a, &d.b, &d.truth, 10);
        let snb_recall = blocking_recall(&snb.candidates, &d.truth);
        println!(
            "{:<11} {:>7.1} {:>18} {:>7.1} {:>12} {:>7.1} {:>10}",
            name,
            kbb.recall * 100.0,
            format!("{:?}", kbb.key),
            snb_recall * 100.0,
            snb.key,
            rbb * 100.0,
            out.candidates.len()
        );
    }
}
