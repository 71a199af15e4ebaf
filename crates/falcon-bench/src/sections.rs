//! `repro`'s sections, one per paper artifact, in report order. A
//! section builds its tables from runs of [`crate::run`] (or the pieces
//! of one) and checks the shape claims EXPERIMENTS.md makes about them;
//! a claim no check holds is not made.

use crate::*;
use falcon::core::indexing::{predicate_key, BuiltIndexes, ConjunctSpecs};
use falcon::core::ops::sample_pairs::{corleone_sample, sample_pairs};
use falcon::core::physical::{self, estimate_table_bytes, BlockingOutput};
use falcon::core::rules::RuleSequence;
use falcon::crowd::sim::UnreliableCrowd;
use falcon::serve::chaos::{run_cell, sweep, ChaosCell};
use falcon::serve::DegradedPolicy;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

/// Every section, in the order `repro` runs them.
pub const SECTIONS: [Section; 16] = [
    sec("table1", "Table 1: datasets, feature counts", table1),
    sec("table2", "Tables 2 and 3: overall performance", table2),
    sec("table4", "Table 4: virtual time per operator", table4),
    sec("table5", "Table 5: masking ablation", table5),
    sec("fig9", "Figure 9: crowd error rate", fig9),
    sec("fig10", "Figure 10: table size", fig10),
    sec("physical", "§11.2: physical operators", physical),
    sec("ruleseq", "§11.2: rule-sequence selection", ruleseq),
    sec("cluster", "§11.4: cluster size", cluster),
    sec("sample", "§11.4: sample size", sample),
    sec("iters", "§11.4: active-learning cap", iters),
    sec("sampler", "§5: matches per sampler", sampler),
    sec("kbb", "§3.2: KBB vs RBB recall", kbb),
    sec("workflow", "§12: iterative workflow", workflow),
    sec("serve", "shared pool vs serial", serve),
    sec("chaos", "kill/resume identity", chaos),
];

const fn sec(name: &'static str, about: &'static str, run: fn(Mode) -> Output) -> Section {
    Section { name, about, run }
}

/// Which problems a title's cells summarize.
fn problems(mode: Mode) -> String {
    match mode.problems() {
        [p] => format!("problem {p}"),
        ps => format!("median [min, max] over problems 1-{}", ps.len()),
    }
}

/// `metrics(p)` over the mode's problems: one column per metric.
fn per_problem(mode: Mode, mut metrics: impl FnMut(u64) -> Vec<f64>) -> Vec<Vec<f64>> {
    let runs: Vec<Vec<f64>> = mode.problems().iter().map(|&p| metrics(p)).collect();
    (0..runs[0].len())
        .map(|i| runs.iter().map(|r| r[i]).collect())
        .collect()
}

/// One [`spread`] cell per column, at the matching precision.
fn spreads(cols: &[Vec<f64>], prec: &[usize]) -> Vec<Cell> {
    cols.iter().zip(prec).map(|(c, &p)| spread(c, p)).collect()
}

fn table1(mode: Mode) -> Output {
    let mut out = Output::default();
    let head = "dataset, |A|, |B|, matches, blocking features, matching features";
    let mut t = Table::new("Table 1: datasets, problem 1", head);
    let mut fewer = true;
    for name in DATASETS {
        let d = dataset(name, mode, 1);
        let lib = generate_features(&d.a, &d.b);
        let (a, b, m) = (d.a.len(), d.b.len(), d.truth.len());
        let (fb, fm) = (lib.blocking.len(), lib.matching.len());
        fewer &= fb < fm;
        t.row(&[&name, &a, &b, &m, &fb, &fm], []);
    }
    out.tables.push(t);
    out.check("table1::fewer_blocking_features", fewer);
    out
}

const RUN_HEAD: &str = "P%, R%, F1%, cost $, questions, machine s, crowd s, total s, candidates";
const RUN_PREC: [usize; 9] = [1, 1, 1, 2, 0, 3, 3, 3, 0];

/// Table 2's metrics of one run, in [`RUN_HEAD`] order.
fn run_metrics(d: &EmDataset, r: &RunReport) -> Vec<f64> {
    let q = r.quality(&d.truth);
    vec![
        q.precision * 100.0,
        q.recall * 100.0,
        q.f1 * 100.0,
        r.ledger.cost,
        r.ledger.questions as f64,
        r.machine_time().as_secs_f64(),
        r.crowd_time().as_secs_f64(),
        r.total_time().as_secs_f64(),
        r.candidate_size.unwrap_or(0) as f64,
    ]
}

fn table2(mode: Mode) -> Output {
    let mut out = Output::default();
    let title = format!("Table 2: overall performance, {}", problems(mode));
    let mut t2 = Table::new(title, &format!("dataset, {RUN_HEAD}"));
    let mut t3 = Table::new(
        "Table 3: every run",
        &format!("dataset, problem, {RUN_HEAD}"),
    );
    let (mut capped, mut crowd_bound, mut small) = (true, true, true);
    for name in DATASETS {
        let cols = per_problem(mode, |p| {
            let d = dataset(name, mode, p);
            let r = run(&d, config(mode, p), 0.05, 0);
            let m = run_metrics(&d, &r);
            capped &= r.ledger.cost < falcon::crowd::session::paper_cost_cap();
            crowd_bound &= r.unmasked_machine_time() * 10 < r.crowd_time();
            small &= m[8] * 10.0 < (d.a.len() * d.b.len()) as f64;
            let one: Vec<Vec<f64>> = m.iter().map(|&x| vec![x]).collect();
            t3.row(&[&name, &p], spreads(&one, &RUN_PREC));
            m
        });
        t2.row(&[&name], spreads(&cols, &RUN_PREC));
    }
    out.tables.extend([t2, t3]);
    out.check("table2::cost_under_cap", capped);
    out.check("table2::crowd_over_10x_unmasked_machine", crowd_bound);
    out.check("table2::candidates_under_tenth_of_cross", small);
    out
}

/// Table 4's operators in pipeline order; `al_matcher_*` and `eval_rules`
/// wait for the crowd.
const OPS: &str = "sample_pairs gen_fvs_b al_matcher_b get_block_rules eval_rules \
    sel_opt_seq apply_block_rules gen_fvs_m al_matcher_m apply_matcher";

fn table4(mode: Mode) -> Output {
    let mut out = Output::default();
    let title = "Table 4: virtual seconds per operator, problem 1 (unoptimized in parentheses where it differs)";
    let mut t = Table::new(title, "operator, products, songs, citations");
    let runs: Vec<[RunReport; 2]> = (DATASETS.iter())
        .map(|name| {
            let d = dataset(name, mode, 1);
            let mut none = config(mode, 1);
            none.opt = OptFlags::none();
            [config(mode, 1), none].map(|cfg| run(&d, cfg, 0.05, 0))
        })
        .collect();
    let at = |r: &RunReport, op: &str| r.op_times().get(op).copied().unwrap_or_default();
    for op in OPS.split(' ') {
        let cells = runs.iter().map(|[o, u]| {
            let (o, u) = (at(o, op).as_secs_f64(), at(u, op).as_secs_f64());
            let unopt = if u == o {
                String::new()
            } else {
                format!(" ({u:.3})")
            };
            det(format!("{o:.3}{unopt}"))
        });
        t.row(&[&op], cells);
    }
    let totals = |r: &RunReport| {
        let m = r.machine_time();
        [
            m,
            m - r.unmasked_machine_time(),
            r.crowd_time(),
            r.total_time(),
        ]
    };
    let labels = ["machine", "of which masked", "crowd", "total"];
    for (i, label) in labels.iter().enumerate() {
        t.row(&[label], runs.iter().map(|[o, _]| secs(totals(o)[i])));
    }
    let dominate = runs.iter().all(|[o, _]| {
        let crowd = ["al_matcher_b", "eval_rules", "al_matcher_m"];
        let machine = OPS.split(' ').filter(|op| !crowd.contains(op));
        let machine = machine.map(|op| at(o, op)).max().unwrap_or_default();
        at(o, "al_matcher_b").min(at(o, "eval_rules")) > machine
    });
    out.tables.push(t);
    out.check("table4::crowd_operators_dominate", dominate);
    out
}

fn table5(mode: Mode) -> Output {
    let mut out = Output::default();
    let title = "Table 5: unmasked machine seconds under each masking ablation, problem 1";
    let mut t = Table::new(title, "dataset, U, O, reduction %, O-O1, O-O2, O-O3");
    // U, O, and O without index prebuilding, speculation, masked pair
    // selection.
    let mut variants = [OptFlags::default(); 5];
    variants[0] = OptFlags::none();
    variants[2].prebuild_indexes = false;
    variants[3].speculative_execution = false;
    variants[4].mask_pair_selection = false;
    let (mut o_le_u, mut within) = (true, true);
    for name in DATASETS {
        let d = dataset(name, mode, 1);
        let [u, o, o1, o2, o3] = variants.map(|opt| {
            let mut cfg = config(mode, 1);
            cfg.opt = opt;
            // Let masked pair selection kick in at bench scale.
            cfg.mask_selection_threshold = mode.sample_size() / 8;
            run(&d, cfg, 0.05, 0).unmasked_machine_time()
        });
        o_le_u &= o <= u;
        within &= [o1, o2, o3].iter().all(|&x| o <= x && x <= u);
        let reduction = pct(1.0 - o.as_secs_f64() / u.as_secs_f64());
        let [u, o, o1, o2, o3] = [u, o, o1, o2, o3].map(secs);
        t.row(&[&name], [u, o, reduction, o1, o2, o3]);
    }
    out.tables.push(t);
    out.check("table5::o_le_u", o_le_u);
    out.check("table5::ablations_within_o_u", within);
    out
}

fn fig9(mode: Mode) -> Output {
    let mut out = Output::default();
    let title = format!("Figure 9: crowd error rate, {}", problems(mode));
    let mut t = Table::new(title, "dataset, error %, F1%, total s, cost $");
    let mut graceful = true;
    for name in DATASETS {
        let mut error_free = None;
        for err in [0.0, 0.05, 0.10, 0.15] {
            let cols = per_problem(mode, |p| {
                let d = dataset(name, mode, p);
                let r = run(&d, config(mode, p), err, 0);
                let f1 = r.quality(&d.truth).f1 * 100.0;
                vec![f1, r.total_time().as_secs_f64(), r.ledger.cost]
            });
            let f1 = median(&cols[0]);
            graceful &= f1 >= *error_free.get_or_insert(f1) - 15.0;
            t.row(&[&name, &(err * 100.0)], spreads(&cols, &[1, 3, 2]));
        }
    }
    out.tables.push(t);
    out.check("fig9::f1_within_15_points_of_error_free", graceful);
    out
}

fn fig10(mode: Mode) -> Output {
    let mut out = Output::default();
    let title = format!("Figure 10: table size, {}", problems(mode));
    let head = "dataset, size %, |A|, F1%, machine s, total s, cost $";
    let mut t = Table::new(title, head);
    let mut sublinear = true;
    for name in ["songs", "citations"] {
        let mut machine = Vec::new();
        for frac in [0.25, 0.5, 0.75, 1.0] {
            let cols = per_problem(mode, |p| {
                let d = dataset(name, mode, p).fraction(frac);
                let r = run(&d, config(mode, p), 0.05, 0);
                let f1 = r.quality(&d.truth).f1 * 100.0;
                let (m, total) = (r.machine_time(), r.total_time());
                let (m, total) = (m.as_secs_f64(), total.as_secs_f64());
                vec![d.a.len() as f64, f1, m, total, r.ledger.cost]
            });
            machine.push(median(&cols[2]));
            t.row(&[&name, &(frac * 100.0)], spreads(&cols, &[0, 1, 3, 3, 2]));
        }
        sublinear &= machine[3] < 4.0 * machine[0];
    }
    out.tables.push(t);
    out.check("fig10::machine_sublinear_in_size", sublinear);
    out
}

/// `seq`'s conjuncts over `lib`'s blocking features, with their indexes
/// built on `d.a`.
fn indexes(
    cluster: &Cluster,
    d: &EmDataset,
    lib: &FeatureLibrary,
    seq: &RuleSequence,
) -> (ConjunctSpecs, BuiltIndexes<'static>) {
    let conjuncts = ConjunctSpecs::derive(seq, &lib.blocking);
    let mut built = BuiltIndexes::new();
    for spec in conjuncts.all_specs() {
        built.build_spec(cluster, &d.a, &spec).expect("index build");
    }
    (conjuncts, built)
}

/// `op` blocking `d` with `seq` (rule selectivities `sels`).
fn block(
    op: PhysicalOp,
    cluster: &Cluster,
    d: &EmDataset,
    lib: &FeatureLibrary,
    seq: &RuleSequence,
    sels: &[f64],
) -> BlockingOutput {
    let (c, ix) = indexes(cluster, d, lib, seq);
    let (a, b, f) = (&d.a, &d.b, &lib.blocking);
    physical::execute(op, cluster, a, b, f, seq, &c, &ix, sels, u128::MAX)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", op.name(), d.name))
}

fn physical(mode: Mode) -> Output {
    let mut out = Output::default();
    let d = dataset("songs", mode, 1);
    let cluster = Cluster::new(ClusterConfig::default());
    let l = learn_sequence(&cluster, &d, mode, 1);
    let (seq, sels) = (&l.opt.seq, &l.opt.rule_selectivities);
    let (a, b, n) = (d.a.len(), d.b.len(), seq.len());
    let title = format!("§11.2 physical operators: songs problem 1, {a} × {b}, {n} rules");
    let mut t = Table::new(title, "operator, candidates, virtual s, recall %");
    let ops = [
        PhysicalOp::ApplyAll,
        PhysicalOp::ApplyGreedy,
        PhysicalOp::ApplyConjunct,
        PhysicalOp::ApplyPredicate,
        PhysicalOp::MapSide,
        PhysicalOp::ReduceSplit,
    ];
    let outs = ops.map(|op| {
        let o = block(op, &cluster, &d, &l.lib, seq, sels);
        let cost = o.cost(&cluster.config).dur();
        let recall = pct(blocking_recall(&o.candidates, &d.truth));
        t.row(&[&op.name(), &o.candidates.len()], [secs(cost), recall]);
        (o.candidates, cost)
    });
    out.tables.push(t);
    let same = outs.iter().all(|o| o.0 == outs[0].0);
    out.check("physical::identical_candidates", same);
    let aa_cheapest = outs[1..4].iter().all(|o| outs[0].1 <= o.1);
    out.check("physical::aa_no_dearer_than_ag_ac_ap", aa_cheapest);

    // Mapper-memory budgets relative to the built index sizes, so the
    // Section 10.1 selection rules meet the same transitions at any scale.
    let (conjuncts, built) = indexes(&cluster, &d, &l.lib, seq);
    let bytes: Vec<usize> = (conjuncts.filterable().into_iter())
        .map(|ci| {
            let keys = conjuncts.specs[ci].iter().flatten();
            built.bytes_of(&keys.map(|s| predicate_key(&s.0)).collect::<Vec<_>>())
        })
        .collect();
    let total: usize = bytes.iter().sum();
    let hi = bytes.iter().copied().max().unwrap_or(0);
    let lo = bytes.iter().copied().min().unwrap_or(0);
    let title = "§11.2 mapper-memory sweep: the operator Section 10.1 selects";
    let mut m = Table::new(title, "mapper memory, bytes, selected");
    let budgets = [
        ("4x all indexes", total * 4),
        ("1x all indexes", total),
        ("largest conjunct", hi),
        ("smallest conjunct", lo.max(1)),
        ("largest / 8", hi / 8),
        ("zero", 0),
    ];
    let a_bytes = estimate_table_bytes(&d.a);
    let picks = budgets.map(|(label, budget)| {
        let (c, ix, s) = (&conjuncts, &built, l.opt.selectivity);
        let op = physical::select_physical(c, ix, sels, s, budget, a_bytes);
        m.row(&[&label, &budget, &op.name()], []);
        op
    });
    out.tables.push(m);
    out.check(
        "physical::memory_cascade_from_aa_ag_to_enumeration",
        matches!(picks[0], PhysicalOp::ApplyAll | PhysicalOp::ApplyGreedy)
            && matches!(picks[5], PhysicalOp::MapSide | PhysicalOp::ReduceSplit),
    );
    out
}

fn ruleseq(mode: Mode) -> Output {
    let mut out = Output::default();
    let title = "§11.2 rule sequences under apply-all, problem 1: the selected one vs all / top-1 / top-3 retained rules";
    let head = "dataset, variant, rules, candidates, virtual s, recall %";
    let mut t = Table::new(title, head);
    let (mut fewest, mut under_top1) = (true, true);
    let cluster = Cluster::new(ClusterConfig::default());
    for name in DATASETS {
        let d = dataset(name, mode, 1);
        let l = learn_sequence(&cluster, &d, mode, 1);
        let top = |k: usize| RuleSequence::new(l.retained.iter().take(k).cloned().collect());
        let variants = [
            ("optimal", l.opt.seq.clone()),
            ("all", top(usize::MAX)),
            ("top-1", top(1)),
            ("top-3", top(3)),
        ];
        let cands = variants.map(|(label, seq)| {
            let sels = vec![0.5; seq.len()];
            let o = block(PhysicalOp::ApplyAll, &cluster, &d, &l.lib, &seq, &sels);
            let cost = secs(o.cost(&cluster.config).dur());
            let recall = pct(blocking_recall(&o.candidates, &d.truth));
            let n = o.candidates.len();
            t.row(&[&name, &label, &seq.len(), &n], [cost, recall]);
            n
        });
        fewest &= cands.iter().all(|&c| cands[1] <= c);
        under_top1 &= cands[0] <= cands[2];
    }
    out.tables.push(t);
    out.check("ruleseq::all_rules_fewest_candidates", fewest);
    out.check("ruleseq::optimal_no_more_candidates_than_top1", under_top1);
    out
}

fn cluster(mode: Mode) -> Output {
    let mut out = Output::default();
    let head = "nodes, machine s, unmasked s, speedup over 5 nodes";
    let mut t = Table::new("§11.4 cluster size: songs problem 1", head);
    let d = dataset("songs", mode, 1);
    let runs = [5, 10, 15, 20].map(|nodes| {
        let mut cfg = config(mode, 1);
        cfg.cluster.nodes = nodes;
        let r = run(&d, cfg, 0.05, 0);
        (nodes, r.machine_time(), r.unmasked_machine_time())
    });
    for (nodes, m, u) in runs {
        let speedup = runs[0].1.as_secs_f64() / m.as_secs_f64();
        t.row(&[&nodes], [secs(m), secs(u), det(format!("{speedup:.2}x"))]);
    }
    out.tables.push(t);
    let never_slower = runs.windows(2).all(|w| w[1].1 <= w[0].1);
    out.check("cluster::more_nodes_never_slower", never_slower);
    out
}

fn sample(mode: Mode) -> Output {
    let mut out = Output::default();
    let title = format!("§11.4 sample size: songs, {}", problems(mode));
    let mut t = Table::new(title, "target |S|, drawn, F1%, total s, cost $");
    let mut f1s = Vec::new();
    for mult in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let target = (mode.sample_size() as f64 * mult) as usize;
        let cols = per_problem(mode, |p| {
            let d = dataset("songs", mode, p);
            let mut cfg = config(mode, p);
            cfg.sample_size = target;
            let r = run(&d, cfg, 0.05, 0);
            let f1 = r.quality(&d.truth).f1 * 100.0;
            let total = r.total_time().as_secs_f64();
            vec![r.sample_size as f64, f1, total, r.ledger.cost]
        });
        f1s.push(median(&cols[1]));
        t.row(&[&target], spreads(&cols, &[0, 1, 3, 2]));
    }
    out.tables.push(t);
    let (lo, hi) = range(&f1s);
    out.check("sample::f1_band_under_10_points", hi - lo < 10.0);
    out
}

fn iters(mode: Mode) -> Output {
    let mut out = Output::default();
    let title = format!("§11.4 active-learning iteration cap k, {}", problems(mode));
    let mut t = Table::new(title, "dataset, k, F1%, questions, crowd s, cost $");
    let mut band = true;
    for name in DATASETS {
        let mut f1s = Vec::new();
        for k in [10, 30, 60, 100] {
            let cols = per_problem(mode, |p| {
                let d = dataset(name, mode, p);
                let mut cfg = config(mode, p);
                cfg.al.max_iterations = k;
                let r = run(&d, cfg, 0.05, 0);
                let f1 = r.quality(&d.truth).f1 * 100.0;
                let crowd = r.crowd_time().as_secs_f64();
                vec![f1, r.ledger.questions as f64, crowd, r.ledger.cost]
            });
            f1s.push(median(&cols[0]));
            t.row(&[&name, &k], spreads(&cols, &[1, 0, 3, 2]));
        }
        band &= f1s[2..].iter().all(|&f| (f - f1s[1]).abs() < 10.0);
    }
    out.tables.push(t);
    out.check("iters::f1_above_k30_within_10_points", band);
    out
}

fn sampler(mode: Mode) -> Output {
    let mut out = Output::default();
    let n = mode.sample_size();
    let title = format!("§5 true matches in a sample of {n} pairs, problem 1");
    let mut t = Table::new(title, "dataset, matches, falcon, corleone, uniform");
    let mut beats = true;
    let cluster = Cluster::new(ClusterConfig::default());
    for name in DATASETS {
        let d = dataset(name, mode, 1);
        let truth: BTreeSet<(u32, u32)> = d.truth.iter().copied().collect();
        let hits = |pairs: &[(u32, u32)]| pairs.iter().filter(|p| truth.contains(p)).count();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let mut draw = |len: usize| rng.gen_range(0..len) as u32;
        let uniform: Vec<_> = (0..n).map(|_| (draw(d.a.len()), draw(d.b.len()))).collect();
        let ours = sample_pairs(&cluster, &d.a, &d.b, n, 20, 1).expect("sample");
        let (ours, corleone) = (hits(&ours.pairs), hits(&corleone_sample(&d.a, &d.b, n, 1)));
        beats &= ours > corleone;
        t.row(
            &[&name, &d.truth.len(), &ours, &corleone, &hits(&uniform)],
            [],
        );
    }
    out.tables.push(t);
    out.check("sampler::falcon_beats_corleone", beats);
    out
}

fn kbb(mode: Mode) -> Output {
    let mut out = Output::default();
    let title = "§3.2 blocking recall %, problem 1: best key (KBB), sorted neighbourhood w=10 (SNB), learned rules (RBB)";
    let head = "dataset, KBB, KBB key, SNB, SNB key, RBB, RBB candidates";
    let mut t = Table::new(title, head);
    let mut beats = true;
    for name in DATASETS {
        let d = dataset(name, mode, 1);
        let kbb = falcon::core::kbb::best_kbb(&d.a, &d.b, &d.truth).expect("shared attributes");
        let snb = falcon::core::snb::best_snb(&d.a, &d.b, &d.truth, 10);
        // The rules a noiseless crowd teaches, applied to all of A × B.
        let rules = run(&d, config(mode, 1), 0.0, 0).rule_sequence;
        let lib = generate_features(&d.a, &d.b);
        let rbb =
            falcon::core::corleone::corleone_blocking(&d.a, &d.b, &lib.blocking, &rules, 1 << 42)
                .expect("bench scale is enumerable");
        let rbb_recall = blocking_recall(&rbb.candidates, &d.truth);
        beats &= name != "citations" || rbb_recall > kbb.recall;
        let snb_recall = blocking_recall(&snb.candidates, &d.truth);
        let (kbb_key, n) = (kbb.key.join("+"), rbb.candidates.len());
        let cells = [
            pct(kbb.recall),
            det(kbb_key),
            pct(snb_recall),
            det(&snb.key),
        ];
        t.row(&[&name], cells.into_iter().chain([pct(rbb_recall), det(n)]));
    }
    out.tables.push(t);
    out.check("kbb::rbb_beats_kbb_on_citations", beats);
    out
}

fn workflow(mode: Mode) -> Output {
    let mut out = Output::default();
    let title = format!("§12 iterative workflow, {}", problems(mode));
    let head = "dataset, max rounds, rounds run, F1%, questions, cost $, estimated F1%";
    let mut t = Table::new(title, head);
    let mut more = true;
    for name in DATASETS {
        let mut questions = Vec::new();
        for rounds in [1, 2, 3] {
            let cols = per_problem(mode, |p| {
                let d = dataset(name, mode, p);
                let r = run(&d, config(mode, p), 0.05, rounds);
                let est = r.estimates.last().map_or(0.0, |e| e.f1);
                let (f1, q) = (r.quality(&d.truth).f1, r.ledger.questions as f64);
                vec![
                    r.estimates.len() as f64,
                    f1 * 100.0,
                    q,
                    r.ledger.cost,
                    est * 100.0,
                ]
            });
            questions.push(median(&cols[2]));
            t.row(&[&name, &rounds], spreads(&cols, &[0, 1, 0, 2, 1]));
        }
        more &= questions.windows(2).all(|w| w[0] <= w[1]);
    }
    out.tables.push(t);
    out.check("workflow::more_rounds_never_fewer_questions", more);
    out
}

/// Tenant `i` of the service sections (seeds as in `benchmark/`'s serve
/// workload): products at `scale`, a crowd with 5 % error, and a small
/// simulated cluster and sample per tenant.
fn tenant(i: u64, scale: f64) -> (EmDataset, RandomWorkerCrowd, FalconConfig) {
    let d = falcon::datagen::generate("products", scale, 1 + i);
    let truth = GroundTruth::new(d.truth.iter().copied());
    let crowd = RandomWorkerCrowd::new(truth, 0.05, 17 + i);
    let cfg = FalconConfig {
        sample_size: 200,
        sample_fanout: 20,
        cluster: ClusterConfig::small(4),
        force_plan: Some(PlanKind::BlockAndMatch),
        seed: 31 + i,
        ..FalconConfig::default()
    };
    (d, crowd, cfg)
}

/// Template `i` as a job whose crowd answers in 15-minute rounds.
fn template_job(i: u64, name: String) -> JobSpec {
    let (d, crowd, cfg) = tenant(i, 0.02);
    let crowd = crowd.with_latency(Duration::from_secs(900));
    JobSpec::new(name, d.a, d.b, cfg, Arc::new(crowd))
}

fn serve(mode: Mode) -> Output {
    let mut out = Output::default();
    let (jobs, templates) = match mode {
        Mode::Full => (200, 8),
        Mode::Quick => (8, 2),
    };
    let (solo, solo_wall) = timed(|| {
        (0..templates)
            .map(|i| template_job(i, format!("solo-{i}")).run_solo())
            .map(|r| r.expect("solo run").matches)
            .collect::<Vec<_>>()
    });
    let specs = (0..jobs)
        .map(|i| template_job(i % templates, format!("tenant-{i}")))
        .collect();
    let cfg = ServeConfig {
        pool_nodes: 10,
        threads: 4,
        seed: 1,
        ..ServeConfig::default()
    };
    let (rep, serve_wall) = timed(|| falcon::serve::serve(specs, &cfg).expect("service"));
    let same = rep.outcomes.iter().enumerate().all(|(i, o)| {
        o.result.as_ref().expect("tenant run").matches == solo[i % templates as usize]
    });
    let title = format!(
        "Serving {jobs} tenants ({templates} templates) on a 10-node pool, fair share, 15-minute crowd rounds, {} scheduler rounds",
        rep.rounds
    );
    let head = "schedule, makespan s, utilization %, p50 latency s, p99 latency s, wall";
    let mut t = Table::new(title, head);
    let mut row = |label: &str, makespan, util, p: [Duration; 2], w: f64| {
        let cells = [secs(makespan), pct(util), secs(p[0]), secs(p[1])];
        t.row(
            &[&label],
            cells.into_iter().chain([wall(format!("{w:.2}s"))]),
        );
    };
    let shared = [50.0, 99.0].map(|q| rep.latency_percentile(q));
    row(
        "shared pool",
        rep.makespan,
        rep.utilization,
        shared,
        serve_wall,
    );
    let serial = [50.0, 99.0].map(|q| rep.serial_latency_percentile(q));
    row(
        "serial",
        rep.serial_makespan,
        rep.serial_utilization,
        serial,
        solo_wall,
    );
    out.tables.push(t);
    out.check("serve::every_tenant_equals_its_solo_run", same);
    let speedup = rep.throughput_speedup();
    out.check("serve::throughput_over_2x_serial", speedup >= 2.0);
    out
}

/// Fresh identically-seeded tenants for `cell`; crowd journals under
/// `dir`.
fn cell_jobs(tenants: u64, scale: f64, cell: &ChaosCell, dir: &Path) -> Vec<JobSpec> {
    std::fs::create_dir_all(dir).expect("scratch dir");
    (0..tenants)
        .map(|i| {
            let (d, base, mut cfg) = tenant(i, 0.015 * scale);
            let crowd: Arc<dyn falcon::crowd::Crowd> = if cell.crowd_loss > 0.0 {
                Arc::new(UnreliableCrowd::new(base, cell.crowd_loss, 1 ^ (i + 9)))
            } else {
                Arc::new(base)
            };
            if cell.fault_rate > 0.0 && i == 0 {
                cfg.fault = Some(FaultPlan::seeded(0xfb).with_failure_rate(cell.fault_rate));
            }
            JobSpec::new(format!("tenant-{i}"), d.a, d.b, cfg, crowd)
                .with_priority(i as i32)
                .with_arrival(Duration::from_secs(i * 60))
                .with_journal(dir.join(format!("tenant-{i}.crowd.journal")))
        })
        .collect()
}

fn chaos(mode: Mode) -> Output {
    let mut out = Output::default();
    let policies = [Policy::FairShare, Policy::Priority];
    let (tenants, scale, policies, kills) = match mode {
        Mode::Full => (4, 1.0, &policies[..], &[1, 3][..]),
        Mode::Quick => (2, 0.7, &policies[..1], &[1][..]),
    };
    // Pool shrink is the innermost axis: cells come in (stable, shrunk)
    // pairs that differ in nothing else.
    let (losses, shrinks, threads) = ([0.0, 0.25], [0.0, 0.5], tenants as usize);
    let cells = sweep(policies, kills, &[0.0], &losses, &shrinks, &[threads]);
    let jobs = |c: &ChaosCell, dir: &Path| cell_jobs(tenants, scale, c, dir);
    let scratch = std::env::temp_dir().join(format!("falcon-repro-chaos-{}", std::process::id()));
    let base = ServeConfig {
        pool_nodes: 10,
        seed: 1,
        degraded: DegradedPolicy {
            threshold: 0.5,
            masked_node_cap: 1,
        },
        ..ServeConfig::default()
    };
    let title = format!(
        "Kill/resume matrix: {tenants} tenants, each cell killed after its round and resumed"
    );
    let head = "cell, identical, re-asked questions, replayed rounds, makespan s, recovery";
    let mut t = Table::new(title, head);
    let mut holds = true;
    let makespans: Vec<Duration> = (cells.iter())
        .map(|cell| {
            let o = run_cell(cell, &base, &scratch, jobs)
                .unwrap_or_else(|e| panic!("cell {}: {e}", cell.label()));
            holds &= o.holds();
            let asked = o.killed_live_questions + o.resumed_live_questions;
            let reasked = asked as i64 - o.ref_live_questions as i64;
            let recovery = wall(format!("{:.2}x", o.recovery_overhead()));
            let cells = [secs(o.ref_report.makespan), recovery];
            t.row(&[&o.cell, &o.holds(), &reasked, &o.replayed_rounds], cells);
            o.ref_report.makespan
        })
        .collect();
    let _ = std::fs::remove_dir_all(&scratch);
    out.tables.push(t);
    out.check("chaos::every_cell_resumes_identically", holds);
    let shrink_never_helps = makespans.chunks(2).all(|p| p[1] >= p[0]);
    out.check(
        "chaos::losing_half_the_pool_never_speeds_up",
        shrink_never_helps,
    );
    out
}
