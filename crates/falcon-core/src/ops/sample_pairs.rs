//! `sample_pairs` (Section 5): draw a sample `S` of tuple pairs from
//! `A × B` that is both representative and match-rich, without
//! materializing the Cartesian product.
//!
//! Algorithm: build an inverted index over the word tokens of `A`'s string
//! attributes (MR job 1); randomly select `n / y` tuples from `B`; for
//! each selected `b`, pair it with the top `y/2` `A` tuples by shared
//! token count (likely matches) and `y/2` random `A` tuples
//! (representativeness) — MR job 2.

use crate::error::FalconError;
use crate::tokens::id_splits;
use falcon_dataflow::{run_map_only, run_map_reduce, Cluster, Emitter, JobStats};
use falcon_table::{AttrType, IdPair, Table, TableProfile, TupleId};
use falcon_textsim::tokenize::word_tokens;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Output of the sampling operator.
#[derive(Debug)]
pub struct SampleOutput {
    /// The sampled pairs `S`.
    pub pairs: Vec<IdPair>,
    /// Stats of the index-building job.
    pub index_job: JobStats,
    /// Stats of the pair-generation job.
    pub pair_job: JobStats,
}

/// Convert a tuple to its token "document" over string attributes
/// (Section 5's `d(a)`), reading columnar cells directly by id.
fn document_at(table: &Table, id: TupleId, string_attrs: &[usize]) -> Vec<String> {
    let mut toks = Vec::new();
    let mut scratch = String::new();
    for &i in string_attrs {
        scratch.clear();
        if let Some(v) = table.value_ref(id, i) {
            v.render_into(&mut scratch);
        }
        toks.extend(word_tokens(&scratch));
    }
    toks.sort_unstable();
    toks.dedup();
    toks
}

/// Profiled string-attribute indices of a table.
fn string_attrs(table: &Table) -> Vec<usize> {
    let profile = TableProfile::scan(table);
    profile
        .attrs
        .iter()
        .enumerate()
        .filter(|(_, p)| p.ty == AttrType::Str)
        .map(|(i, _)| i)
        .collect()
}

/// Run `sample_pairs`: sample `n` pairs with fan-out `y` per selected `B`
/// tuple (the paper sets `y = 100`).
pub fn sample_pairs(
    cluster: &Cluster,
    a: &Table,
    b: &Table,
    n: usize,
    y: usize,
    seed: u64,
) -> Result<SampleOutput, FalconError> {
    let y = y.clamp(2, n.max(2));
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x53414d50);
    let a_strings = Arc::new(string_attrs(a));

    // MR job 1: inverted index over A's documents.
    let a_strings_map = Arc::clone(&a_strings);
    let index_out = run_map_reduce(
        cluster,
        id_splits(cluster, a),
        cluster.reduce_partitions(),
        move |ids: &[TupleId], e: &mut Emitter<String, TupleId>| {
            for &id in ids {
                for tok in document_at(a, id, &a_strings_map) {
                    e.emit(tok, id);
                }
            }
        },
        |tok: &String, ids: Vec<TupleId>, out: &mut Vec<(String, Vec<TupleId>)>| {
            out.push((tok.clone(), ids));
        },
    )?;
    let index: Arc<HashMap<String, Vec<TupleId>>> =
        Arc::new(index_out.output.into_iter().collect());

    // Select n/y tuples from B.
    let n_b = (n / y).clamp(1, b.len());
    let mut b_ids: Vec<usize> = (0..b.len()).collect();
    b_ids.shuffle(&mut rng);
    b_ids.truncate(n_b);
    let selected: Vec<TupleId> = b_ids.iter().map(|&i| i as TupleId).collect();

    // MR job 2 (map-only): generate pairs for each selected B tuple.
    let b_splits: Vec<Vec<(TupleId, u64)>> = cluster
        .splits(selected.len())
        .into_iter()
        .map(|r| selected[r].iter().map(|&id| (id, rng.gen())).collect())
        .collect();
    let a_len = a.len();
    let b_strings = Arc::new(string_attrs(b));
    let pair_out = run_map_only(
        cluster,
        b_splits,
        move |selected: &[(TupleId, u64)], out| {
            for &(bid, pseed) in selected {
                let mut local = SmallRng::seed_from_u64(pseed);
                // Shared-token counts against the inverted index.
                let mut counts: HashMap<TupleId, usize> = HashMap::new();
                for tok in document_at(b, bid, &b_strings) {
                    if let Some(ids) = index.get(&tok) {
                        for &id in ids {
                            *counts.entry(id).or_default() += 1;
                        }
                    }
                }
                let mut ranked: Vec<(usize, TupleId)> =
                    counts.into_iter().map(|(id, c)| (c, id)).collect();
                ranked.sort_unstable_by(|x, y| y.cmp(x));
                let y1 = (y / 2).min(ranked.len());
                let mut chosen: Vec<TupleId> = ranked[..y1].iter().map(|(_, id)| *id).collect();
                // Fill with random distinct A tuples.
                let mut guard = 0;
                while chosen.len() < y.min(a_len) && guard < 20 * y {
                    let cand = local.gen_range(0..a_len) as TupleId;
                    if !chosen.contains(&cand) {
                        chosen.push(cand);
                    }
                    guard += 1;
                }
                for aid in chosen {
                    out.push((aid, bid));
                }
            }
        },
    )?;

    let mut pairs = pair_out.output.clone();
    pairs.sort_unstable();
    pairs.dedup();
    Ok(SampleOutput {
        pairs,
        index_job: index_out.stats,
        pair_job: pair_out.stats,
    })
}

/// Corleone's original sampling strategy (Section 5): randomly draw
/// `n / |A|` tuples from `B` and pair each with *all* of `A`. The paper
/// shows why this fails for large `A`: when `|A|` approaches `n` only a
/// couple of `B` tuples are drawn, so the sample may contain almost no
/// matches. Provided as a baseline for the sampler-comparison bench.
pub fn corleone_sample(a: &Table, b: &Table, n: usize, seed: u64) -> Vec<IdPair> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x434f524c);
    if a.is_empty() || b.is_empty() || n < a.len() {
        // Not applicable when |A| > n (the paper's first failure mode);
        // degrade to a single random B tuple.
        let bid = rng.gen_range(0..b.len().max(1)) as TupleId;
        return (0..a.len() as TupleId)
            .map(|aid| (aid, bid))
            .take(n)
            .collect();
    }
    let n_b = (n / a.len()).clamp(1, b.len());
    let mut b_ids: Vec<usize> = (0..b.len()).collect();
    b_ids.shuffle(&mut rng);
    b_ids.truncate(n_b);
    let mut out = Vec::with_capacity(n_b * a.len());
    for bid in b_ids {
        for aid in 0..a.len() as TupleId {
            out.push((aid, bid as TupleId));
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_dataflow::ClusterConfig;
    use falcon_table::{Schema, Value};

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::small(2)).with_threads(2)
    }

    fn tables() -> (Table, Table) {
        let schema = Schema::new([("name", AttrType::Str)]);
        let a = Table::new(
            "a",
            schema.clone(),
            (0..50).map(|i| vec![Value::str(format!("alpha item number {i}"))]),
        );
        let b = Table::new(
            "b",
            schema,
            (0..50).map(|i| vec![Value::str(format!("alpha item number {i}"))]),
        );
        (a, b)
    }

    #[test]
    fn sample_size_near_target() {
        let (a, b) = tables();
        let out = sample_pairs(&cluster(), &a, &b, 200, 10, 1).expect("sample");
        // 20 B tuples × 10 A partners = ~200 (dedup may trim).
        assert!(out.pairs.len() >= 150, "{}", out.pairs.len());
        assert!(out.pairs.len() <= 200);
        for (aid, bid) in &out.pairs {
            assert!((*aid as usize) < a.len());
            assert!((*bid as usize) < b.len());
        }
    }

    #[test]
    fn sample_contains_likely_matches() {
        // Identical tables: each sampled b should be paired with its exact
        // A twin (max shared tokens).
        let (a, b) = tables();
        let out = sample_pairs(&cluster(), &a, &b, 100, 10, 2).expect("sample");
        let twins = out.pairs.iter().filter(|(x, y)| x == y).count();
        let sampled_bs: std::collections::HashSet<_> = out.pairs.iter().map(|(_, b)| *b).collect();
        // Every sampled b has its twin among its partners.
        assert_eq!(twins, sampled_bs.len());
    }

    #[test]
    fn pairs_unique() {
        let (a, b) = tables();
        let out = sample_pairs(&cluster(), &a, &b, 300, 6, 3).expect("sample");
        let mut p = out.pairs.clone();
        p.dedup();
        assert_eq!(p.len(), out.pairs.len());
    }

    #[test]
    fn corleone_sample_shape() {
        let (a, b) = tables();
        // n = 4 * |A|: four random B tuples crossed with all of A.
        let s = corleone_sample(&a, &b, 4 * a.len(), 5);
        assert_eq!(s.len(), 4 * a.len());
        let bids: std::collections::HashSet<_> = s.iter().map(|(_, b)| *b).collect();
        assert_eq!(bids.len(), 4);
        // n < |A|: degenerate single-B fallback.
        let s = corleone_sample(&a, &b, 10, 5);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn handles_tiny_tables() {
        let schema = Schema::new([("name", AttrType::Str)]);
        let a = Table::new("a", schema.clone(), vec![vec![Value::str("only one")]]);
        let b = Table::new("b", schema, vec![vec![Value::str("only one")]]);
        let out = sample_pairs(&cluster(), &a, &b, 10, 4, 4).expect("sample");
        assert_eq!(out.pairs, vec![(0, 0)]);
    }
}
