//! `apply_matcher` (Section 9): apply a trained matcher to every candidate
//! pair — a map-only job.

use crate::error::FalconError;
use crate::fv::FvSet;
use falcon_dataflow::{run_map_only, Cluster, JobStats};
use falcon_forest::Forest;
use falcon_table::IdPair;

/// Output of `apply_matcher`.
#[derive(Debug)]
pub struct ApplyMatcherOutput {
    /// Pairs predicted "match".
    pub matches: Vec<IdPair>,
    /// Job statistics.
    pub stats: JobStats,
}

/// Predict every pair in `fvs` with `forest`; return the matches.
pub fn apply_matcher(
    cluster: &Cluster,
    forest: &Forest,
    fvs: &FvSet,
) -> Result<ApplyMatcherOutput, FalconError> {
    // A map task counts the votes of its whole split in one pass; the
    // scoped dataflow workers borrow the forest and vectors directly
    // instead of cloning them.
    let splits: Vec<Vec<usize>> = cluster
        .splits(fvs.len())
        .into_iter()
        .map(Iterator::collect)
        .collect();
    let out = run_map_only(cluster, splits, |idx_chunk: &[usize], out| {
        let gathered: Vec<(&IdPair, &[f64])> = idx_chunk
            .iter()
            .filter_map(|&i| match (fvs.pairs.get(i), fvs.fvs.get(i)) {
                (Some(pair), Some(fv)) => Some((pair, fv.as_slice())),
                _ => None,
            })
            .collect();
        let mut votes = Vec::new();
        forest.count_votes_into(gathered.len(), |j| gathered[j].1, &mut votes);
        for ((pair, _), &v) in gathered.iter().zip(&votes) {
            if forest.predict_from_votes(v) {
                out.push(**pair);
            }
        }
    })?;
    let mut matches = out.output;
    matches.sort_unstable();
    Ok(ApplyMatcherOutput {
        matches,
        stats: out.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_dataflow::ClusterConfig;
    use falcon_forest::{Dataset, ForestConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn predicts_matches() {
        let mut d = Dataset::new();
        for i in 0..100 {
            let v = i as f64 / 100.0;
            d.push(vec![v], v > 0.5);
        }
        let forest = Forest::train(
            &d,
            &ForestConfig::default(),
            &mut SmallRng::seed_from_u64(1),
        );
        let mut fvs = FvSet::default();
        for i in 0..100u32 {
            fvs.pairs.push((i, i));
            fvs.fvs.push(vec![i as f64 / 100.0]);
        }
        let cluster = Cluster::new(ClusterConfig::small(2)).with_threads(2);
        let out = apply_matcher(&cluster, &forest, &fvs).expect("apply_matcher");
        assert!(!out.matches.is_empty());
        for (a, _) in &out.matches {
            assert!(*a > 45, "unexpected match at {a}");
        }
        assert_eq!(out.stats.input_records, 100);
    }

    #[test]
    fn empty_input_ok() {
        let mut d = Dataset::new();
        d.push(vec![0.0], false);
        d.push(vec![1.0], true);
        let forest = Forest::train(
            &d,
            &ForestConfig::default(),
            &mut SmallRng::seed_from_u64(1),
        );
        let cluster = Cluster::new(ClusterConfig::small(1)).with_threads(1);
        let out = apply_matcher(&cluster, &forest, &FvSet::default()).expect("apply_matcher");
        assert!(out.matches.is_empty());
    }
}
