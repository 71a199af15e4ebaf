//! `gen_fvs` (Section 8): convert tuple pairs into feature vectors with a
//! map-only job.

use crate::error::FalconError;
use crate::features::{FeatureSet, ScoreScratch, Scorer};
use crate::fv::FvSet;
use crate::stage::StageCost;
use crate::tokens::{requirements, TokenStore};
use falcon_dataflow::{run_map_only, Cluster, ClusterConfig, JobStats};
use falcon_table::{IdPair, Table};
use falcon_textsim::tfidf::TfIdfBuilder;
use falcon_textsim::{SimContext, SimFunction, TfIdfModel};

/// Output of `gen_fvs`.
#[derive(Debug)]
pub struct GenFvsOutput {
    /// Pairs plus vectors, in input order.
    pub fvs: FvSet,
    /// Statistics of the scoring job.
    pub stats: JobStats,
    /// Statistics of the token-store jobs that preceded scoring (empty
    /// when the caller's store already held every column).
    pub prep_stats: Vec<JobStats>,
}

impl GenFvsOutput {
    /// Price of the whole operator on the cluster `cfg` describes: the
    /// profiling jobs plus the scoring job.
    pub fn cost(&self, cfg: &ClusterConfig) -> StageCost {
        StageCost::of(self.prep_stats.iter().chain([&self.stats]), cfg)
    }
}

/// Build the TF/IDF corpus model needed by a feature set, if any of its
/// features require one. The model is built over the union of both tables'
/// values of the TF/IDF features' attributes.
pub fn tfidf_model_for(features: &FeatureSet, a: &Table, b: &Table) -> Option<TfIdfModel> {
    let mut needs = features
        .features
        .iter()
        .filter(|f| matches!(f.sim, SimFunction::TfIdf | SimFunction::SoftTfIdf))
        .peekable();
    needs.peek()?;
    // Values stream from the column scans into the document counts; the
    // corpus is never materialized.
    let mut corpus = TfIdfBuilder::default();
    for f in needs {
        a.for_each_rendered(f.a_idx, |_, s| corpus.add(s));
        b.for_each_rendered(f.b_idx, |_, s| corpus.add(s));
    }
    Some(corpus.finish())
}

/// Run `gen_fvs` over `pairs`: score every pair via the sorted-id merge
/// kernels in one map-only job, over a token store of the call's own
/// (one map-only pass per table first).
///
/// Every pair id must resolve in its table; a dangling id is an
/// upstream-operator contract violation and is rejected before the job
/// starts.
pub fn gen_fvs(
    cluster: &Cluster,
    a: &Table,
    b: &Table,
    pairs: &[IdPair],
    features: &FeatureSet,
) -> Result<GenFvsOutput, FalconError> {
    let mut store = TokenStore::default();
    gen_fvs_in(cluster, a, b, pairs.to_vec(), features, &mut store)
}

/// [`gen_fvs`] over `store`, which is asked for what `features` read and
/// tokenizes only the columns it does not hold yet.
pub fn gen_fvs_in(
    cluster: &Cluster,
    a: &Table,
    b: &Table,
    pairs: Vec<IdPair>,
    features: &FeatureSet,
    store: &mut TokenStore,
) -> Result<GenFvsOutput, FalconError> {
    for &(aid, bid) in &pairs {
        // Ids are dense from 0, so a length check suffices.
        if aid as usize >= a.len() {
            return Err(FalconError::UnknownTupleId {
                table: "A",
                id: aid,
            });
        }
        if bid as usize >= b.len() {
            return Err(FalconError::UnknownTupleId {
                table: "B",
                id: bid,
            });
        }
    }
    let tfidf = tfidf_model_for(features, a, b);
    let needs = requirements(&features.features);
    let prep_stats = store.require(cluster, a, b, &needs, tfidf.as_ref())?;
    // The feature set is compiled once for the job; a map task scores its
    // split through it, eight pairs per alignment sweep, with one
    // `ScoreScratch` (the per-pair merge and family memos, DP rows and
    // lanes, Jaro buffers, the token-pair Jaro-Winkler memo). The scratch
    // lives and dies with the task attempt: it never meets another run's
    // `TokenDict`, and a retried or speculative attempt starts cold —
    // which cannot matter, no score depends on what the memo holds. The
    // scoped dataflow workers borrow the pair list, scorer and store
    // directly — no per-job copies.
    let ctx = SimContext {
        tfidf: tfidf.as_ref(),
        ..store.context()
    };
    let scorer = Scorer::new(features, a, b, &ctx);
    let splits = cluster.split_slice(&pairs);
    let out = run_map_only(cluster, splits, |pair_chunk: &[IdPair], out| {
        out.reserve(pair_chunk.len());
        scorer.vectors(pair_chunk, &ctx, &mut ScoreScratch::default(), out);
    })?;
    // Tasks emit exactly one vector per pair and the job concatenates
    // task outputs in split order, so the vectors align with `pairs` and
    // both move into the result without re-buffering.
    debug_assert_eq!(out.output.len(), pairs.len());
    Ok(GenFvsOutput {
        fvs: FvSet {
            pairs,
            fvs: out.output,
        },
        stats: out.stats,
        prep_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::generate_features;
    use falcon_dataflow::ClusterConfig;
    use falcon_table::{AttrType, Schema, Value};

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::small(2)).with_threads(2)
    }

    #[test]
    fn vectors_align_with_pairs() {
        let schema = Schema::new([("t", AttrType::Str), ("p", AttrType::Num)]);
        let a = Table::new(
            "a",
            schema.clone(),
            (0..10).map(|i| vec![Value::str(format!("item alpha {i}")), Value::num(i as f64)]),
        );
        let b = Table::new(
            "b",
            schema,
            (0..10).map(|i| vec![Value::str(format!("item alpha {i}")), Value::num(i as f64)]),
        );
        let lib = generate_features(&a, &b);
        let pairs: Vec<IdPair> = vec![(0, 0), (1, 2), (9, 9)];
        let out = gen_fvs(&cluster(), &a, &b, &pairs, &lib.blocking).expect("gen_fvs");
        assert_eq!(out.fvs.len(), 3);
        assert_eq!(out.fvs.arity(), lib.blocking.len());
        assert_eq!(out.fvs.pairs, pairs);
        // Identical pair (0,0): all blocking sims maximal / distances zero.
        for (f, v) in lib.blocking.features.iter().zip(&out.fvs.fvs[0]) {
            if f.sim.higher_is_similar() {
                assert!(*v > 0.99, "{} = {v}", f.name);
            } else {
                assert!(*v < 1e-9, "{} = {v}", f.name);
            }
        }
    }

    #[test]
    fn empty_pairs_ok() {
        let schema = Schema::new([("t", AttrType::Str)]);
        let a = Table::new("a", schema.clone(), vec![vec![Value::str("x")]]);
        let b = Table::new("b", schema, vec![vec![Value::str("x")]]);
        let lib = generate_features(&a, &b);
        let out = gen_fvs(&cluster(), &a, &b, &[], &lib.blocking).expect("gen_fvs");
        assert!(out.fvs.is_empty());
    }

    #[test]
    fn dangling_pair_id_is_a_typed_error() {
        let schema = Schema::new([("t", AttrType::Str)]);
        let a = Table::new("a", schema.clone(), vec![vec![Value::str("x")]]);
        let b = Table::new("b", schema, vec![vec![Value::str("x")]]);
        let lib = generate_features(&a, &b);
        let err = gen_fvs(&cluster(), &a, &b, &[(0, 7)], &lib.blocking)
            .expect_err("id 7 does not exist in b");
        assert_eq!(err, FalconError::UnknownTupleId { table: "B", id: 7 });
    }
}
