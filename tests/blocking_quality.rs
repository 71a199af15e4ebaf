//! Blocking-quality integration tests: rule-based blocking (RBB) must
//! beat key-based blocking (KBB) on dirty data — the Section 3.2 argument
//! (paper: KBB recall 72.6 / 98.6 / 38.8 vs RBB 98.09 / 99.99 / 99.67).

use falcon::core::kbb::best_kbb;
use falcon::core::metrics::blocking_recall;
use falcon::prelude::*;
use std::collections::HashSet;

/// Run just the blocking stage via the driver and recover the candidate
/// recall by re-running the selected sequence exhaustively.
fn rbb_recall(data: &EmDataset, seed: u64) -> (f64, usize) {
    let truth = GroundTruth::new(data.truth.iter().copied());
    let cfg = FalconConfig {
        cluster: ClusterConfig::small(4),
        sample_size: 6_000,
        sample_fanout: 40,
        force_plan: Some(PlanKind::BlockAndMatch),
        seed,
        ..FalconConfig::default()
    };
    let report = Falcon::new(cfg)
        .try_run(&data.a, &data.b, OracleCrowd::new(truth))
        .expect("run");
    let lib = falcon::core::features::generate_features(&data.a, &data.b);
    let out = falcon::core::corleone::corleone_blocking(
        &data.a,
        &data.b,
        &lib.blocking,
        &report.rule_sequence,
        1 << 40,
    )
    .expect("small enough to enumerate");
    (
        blocking_recall(&out.candidates, &data.truth),
        out.candidates.len(),
    )
}

#[test]
fn rbb_beats_kbb_on_citations() {
    // Citations is where KBB collapses in the paper (38.8% recall).
    let data = falcon::datagen::citations::generate(0.001, 51);
    let kbb = best_kbb(&data.a, &data.b, &data.truth);
    let (rbb, _) = rbb_recall(&data, 1);
    assert!(
        rbb > kbb.recall + 0.1,
        "RBB {rbb:.3} should clearly beat KBB {:.3} (key {:?})",
        kbb.recall,
        kbb.key
    );
    assert!(kbb.recall < 0.75, "KBB should struggle: {:.3}", kbb.recall);
}

#[test]
fn rbb_high_recall_on_songs() {
    let data = falcon::datagen::songs::generate(0.0015, 52);
    let (rbb, cands) = rbb_recall(&data, 2);
    // Paper: 99.99% with a 1M-pair sample at full scale. At this reduced
    // scale the sample holds only a few dozen matches, so rule quality is
    // noisier; it must still stay high and beat the best KBB key.
    // (No RBB-vs-KBB assertion here: Songs is the one dataset where the
    // paper itself reports KBB doing well — 98.6% vs RBB's 99.99%.)
    assert!(rbb > 0.8, "songs RBB recall {rbb:.3}");
    // And it actually blocks.
    assert!(cands < data.a.len() * data.b.len() / 4);
}

#[test]
fn kbb_candidates_subset_of_exact_agreement() {
    let data = falcon::datagen::products::generate(0.02, 53);
    let kbb = best_kbb(&data.a, &data.b, &data.truth);
    // Sanity: the KBB search returns a shared attribute and bounded recall.
    assert!(!kbb.key.is_empty());
    assert!((0.0..=1.0).contains(&kbb.recall));
    // The returned key's candidates truly agree on the key.
    let refs: Vec<&str> = kbb.key.iter().map(String::as_str).collect();
    let cands = falcon::core::kbb::kbb_candidates(&data.a, &data.b, &refs);
    let set: HashSet<_> = cands.iter().collect();
    assert_eq!(set.len(), cands.len(), "no duplicate candidates");
    for (aid, bid) in cands.iter().take(200) {
        for k in &refs {
            let key_of = |t: &falcon::table::Table, id| {
                let idx = t.schema().index_of(k).unwrap();
                t.value_ref(id, idx).unwrap().render().to_lowercase()
            };
            assert_eq!(key_of(&data.a, *aid), key_of(&data.b, *bid));
        }
    }
}
