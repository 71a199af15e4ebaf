//! `sample_pairs` (Section 5): draw a sample `S` of tuple pairs from
//! `A × B` that is both representative and match-rich, without
//! materializing the Cartesian product.
//!
//! Algorithm: index `A` by the word tokens of its string attributes (the
//! paper's MR job 1; here one driver-local pass over the token store's
//! word columns into a CSR inverted index); randomly select `n / y` tuples
//! from `B`; for each selected `b`, pair it with the top `y/2` `A` tuples
//! by shared token count (likely matches) and `y/2` random `A` tuples
//! (representativeness) — MR job 2.

use crate::error::FalconError;
use crate::stage::StageCost;
use crate::tokens::{ProfileSpec, TokenStore};
use falcon_dataflow::{run_map_only, Cluster};
use falcon_table::{IdPair, Table, TableProfile, TupleId};
use falcon_textsim::{Arena, TokenProfile, Tokenizer};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Output of the sampling operator.
#[derive(Debug)]
pub struct SampleOutput {
    /// The sampled pairs `S`, sorted.
    pub pairs: Vec<IdPair>,
    /// Price of the whole operator on `cluster`: the token-store jobs that
    /// tokenized the string attributes (none when the caller's store held
    /// their word columns), the local index pass and the pair job.
    pub cost: StageCost,
}

/// The word-token columns the sampler reads of a table whose string
/// attributes are `strings`.
pub fn word_columns(strings: &[usize]) -> ProfileSpec {
    ProfileSpec {
        token_columns: strings.iter().map(|&a| (a, Tokenizer::Word)).collect(),
        ..ProfileSpec::default()
    }
}

/// A table's word-token columns over `strings`, whose per-tuple union is
/// its token "document" (Section 5's `d(t)`).
fn word_cols<'s>(profile: &'s TokenProfile, strings: &[usize]) -> Vec<&'s Arena<u32>> {
    let column = |&attr: &usize| profile.column((attr, Tokenizer::Word));
    strings.iter().filter_map(column).collect()
}

/// `d(id)` into `doc`: the distinct word tokens of the tuple's string
/// attributes, as ids of the store's dictionary — equal ids exactly where
/// the strings are equal, on either table.
fn document(columns: &[&Arena<u32>], id: TupleId, doc: &mut Vec<u32>) {
    doc.clear();
    for column in columns {
        doc.extend_from_slice(column.get(id as usize).unwrap_or_default());
    }
    if columns.len() > 1 {
        doc.sort_unstable();
        doc.dedup();
    }
}

/// Inverted index over the documents of `A`'s `len` tuples in CSR form:
/// the tuples holding token `t` (below `n_tokens`), ascending, are
/// `ids[offsets[t]..offsets[t + 1]]`. A counting pass and a fill pass.
fn postings(columns: &[&Arena<u32>], len: usize, n_tokens: usize) -> (Vec<usize>, Vec<TupleId>) {
    let mut doc = Vec::new();
    let mut offsets = vec![0usize; n_tokens + 1];
    for id in 0..len as TupleId {
        document(columns, id, &mut doc);
        doc.iter().for_each(|&t| offsets[t as usize + 1] += 1);
    }
    (0..n_tokens).for_each(|t| offsets[t + 1] += offsets[t]);
    let mut next = offsets.clone();
    let mut ids = vec![0; offsets[n_tokens]];
    for id in 0..len as TupleId {
        document(columns, id, &mut doc);
        for &t in &doc {
            ids[next[t as usize]] = id;
            next[t as usize] += 1;
        }
    }
    (offsets, ids)
}

/// Run `sample_pairs`: sample `n` pairs with fan-out `y` per selected `B`
/// tuple (the paper sets `y = 100`), tokenizing through a store of the
/// call's own.
pub fn sample_pairs(
    cluster: &Cluster,
    a: &Table,
    b: &Table,
    n: usize,
    y: usize,
    seed: u64,
) -> Result<SampleOutput, FalconError> {
    let strings = [a, b].map(|t| TableProfile::scan(t).string_attrs());
    let mut store = TokenStore::default();
    sample_pairs_in(
        cluster,
        a,
        b,
        (&strings[0], &strings[1]),
        &mut store,
        n,
        y,
        seed,
    )
}

/// [`sample_pairs`] over `store`, which is asked for the word columns of
/// `strings` — the profiled string attributes of `A` and of `B` — and
/// tokenizes only those it does not hold yet.
#[allow(clippy::too_many_arguments)]
pub fn sample_pairs_in(
    cluster: &Cluster,
    a: &Table,
    b: &Table,
    strings: (&[usize], &[usize]),
    store: &mut TokenStore,
    n: usize,
    y: usize,
    seed: u64,
) -> Result<SampleOutput, FalconError> {
    for (what, table) in [("A", a), ("B", b)] {
        if table.is_empty() {
            return Err(FalconError::EmptyInput { what });
        }
    }
    let y = y.clamp(2, n.max(2));
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x53414d50);
    let needs = (word_columns(strings.0), word_columns(strings.1));
    let tokenized = store.require(cluster, a, b, &needs, None)?;

    // "MR job 1": inverted index over A's documents, a driver-local pass.
    let n_tokens = store.dict().len();
    let (offsets, holders) = postings(&word_cols(store.a(), strings.0), a.len(), n_tokens);

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
    let b_cols = word_cols(store.b(), strings.1);
    let pair_out = run_map_only(cluster, b_splits, |selected: &[(TupleId, u64)], out| {
        // Shared-token counts per A tuple, zero outside `touched`.
        let mut counts = vec![0u32; a_len];
        let (mut touched, mut doc) = (Vec::new(), Vec::new());
        let mut ranked: Vec<(u32, TupleId)> = Vec::new();
        for &(bid, pseed) in selected {
            let mut local = SmallRng::seed_from_u64(pseed);
            document(&b_cols, bid, &mut doc);
            for tok in doc.iter().map(|&t| t as usize) {
                for &aid in &holders[offsets[tok]..offsets[tok + 1]] {
                    if counts[aid as usize] == 0 {
                        touched.push(aid);
                    }
                    counts[aid as usize] += 1;
                }
            }
            ranked.clear();
            let count_of = |aid: TupleId| (std::mem::take(&mut counts[aid as usize]), aid);
            ranked.extend(touched.drain(..).map(count_of));
            // The top y/2 by (count, id), descending.
            let y1 = (y / 2).min(ranked.len());
            if y1 < ranked.len() {
                ranked.select_nth_unstable_by(y1, |x, y| y.cmp(x));
                ranked.truncate(y1);
            }
            ranked.sort_unstable_by(|x, y| y.cmp(x));
            let mut chosen: Vec<TupleId> = ranked.iter().map(|(_, id)| *id).collect();
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
    })?;

    let mut pairs = pair_out.output;
    pairs.sort_unstable();
    pairs.dedup();
    let jobs = tokenized.iter().chain([&pair_out.stats]);
    let cost = StageCost::of(jobs, &cluster.config) + StageCost::local(a_len);
    Ok(SampleOutput { pairs, cost })
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
    use falcon_table::{AttrType, Schema, Value};

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

    /// `(n / y).clamp(1, 0)` used to panic on an empty `B`, and an empty
    /// `A` silently sampled nothing.
    #[test]
    fn empty_tables_are_typed_errors() {
        let (a, b) = tables();
        let none = a.head(0);
        let err = sample_pairs(&cluster(), &a, &none, 100, 10, 1).expect_err("empty B");
        assert_eq!(err, FalconError::EmptyInput { what: "B" });
        let err = sample_pairs(&cluster(), &none, &b, 100, 10, 1).expect_err("empty A");
        assert_eq!(err, FalconError::EmptyInput { what: "A" });
        // Corleone's sampler keeps its documented degenerate fallback.
        assert!(corleone_sample(&a, &none, 100, 1).len() <= 100);
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
