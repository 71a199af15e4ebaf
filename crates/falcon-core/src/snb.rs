//! Sorted-neighborhood blocking (SNB) baseline.
//!
//! The paper's related-work section points at MapReduce sorted-neighborhood
//! blocking (Kolb et al., BTW 2011) as complementary to rule-based
//! blocking. SNB sorts both tables' tuples by a sorting key and slides a
//! window of size `w` over the merged order: tuples within a window become
//! candidate pairs. Like KBB it is fast and hands-on (someone must pick
//! the key), and like KBB it loses recall when the key prefix is dirty —
//! which is what the SNB column of `repro --section kbb` demonstrates.

use falcon_table::{IdPair, Table};

/// Result of an SNB run.
#[derive(Debug, Clone)]
pub struct SnbResult {
    /// Candidate pairs, sorted and deduplicated.
    pub candidates: Vec<IdPair>,
    /// The key attribute used.
    pub key: String,
    /// Window size.
    pub window: usize,
}

/// Run sorted-neighborhood blocking over one key attribute with window
/// `w`. Missing key values sort first (they end up clustered, like real
/// SNB implementations).
pub fn snb_candidates(a: &Table, b: &Table, key: &str, w: usize) -> Vec<IdPair> {
    let (Some(ai), Some(bi)) = (a.schema().index_of(key), b.schema().index_of(key)) else {
        return Vec::new();
    };
    // Merge both tables into one sorted run, tagging the side.
    let mut merged: Vec<(String, bool, u32)> = Vec::with_capacity(a.len() + b.len());
    a.for_each_value(ai, |id, v| {
        merged.push((v.render().to_lowercase(), false, id))
    });
    b.for_each_value(bi, |id, v| {
        merged.push((v.render().to_lowercase(), true, id))
    });
    merged.sort();
    let w = w.max(2);
    let mut out = Vec::new();
    for (i, (_, is_b, id)) in merged.iter().enumerate() {
        for (_, other_b, other_id) in merged.iter().skip(i + 1).take(w - 1) {
            match (is_b, other_b) {
                (false, true) => out.push((*id, *other_id)),
                (true, false) => out.push((*other_id, *id)),
                _ => {}
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Try every shared attribute as the sorting key; return the highest-recall
/// result within a candidate budget (same discipline as `best_kbb`: a
/// window so large it keeps most of `A × B` is not blocking).
pub fn best_snb(a: &Table, b: &Table, truth: &[IdPair], w: usize) -> SnbResult {
    // SNB naturally yields about w·(|A|+|B|) pairs; the budget only
    // rejects degenerate keys whose ties blow the window up further.
    let budget =
        (((a.len() as f64 * b.len() as f64) * 0.05).ceil() as usize).max(w * (a.len() + b.len()));
    let mut best: Option<(f64, SnbResult)> = None;
    for key in a.schema().names() {
        if b.schema().index_of(key).is_none() {
            continue;
        }
        let cands = snb_candidates(a, b, key, w);
        if cands.len() > budget {
            continue;
        }
        let recall = crate::metrics::blocking_recall(&cands, truth);
        let result = SnbResult {
            candidates: cands,
            key: key.to_string(),
            window: w,
        };
        if best.as_ref().is_none_or(|(r, _)| recall > *r) {
            best = Some((recall, result));
        }
    }
    best.map(|(_, r)| r).unwrap_or(SnbResult {
        candidates: Vec::new(),
        key: String::new(),
        window: w,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_table::{AttrType, Schema, Value};

    fn tables() -> (Table, Table) {
        let schema = Schema::new([("name", AttrType::Str)]);
        let names_a = ["anna", "bert", "carl", "dora", "emil"];
        let names_b = ["anna", "berta", "carlo", "dina", "emile"];
        (
            Table::new(
                "a",
                schema.clone(),
                names_a.iter().map(|n| vec![Value::str(*n)]),
            ),
            Table::new("b", schema, names_b.iter().map(|n| vec![Value::str(*n)])),
        )
    }

    #[test]
    fn window_pairs_nearby_keys() {
        let (a, b) = tables();
        let c = snb_candidates(&a, &b, "name", 3);
        // "anna"(A) and "anna"(B) are adjacent in sort order.
        assert!(c.contains(&(0, 0)), "{c:?}");
        // Distant keys are not paired with a window of 3.
        assert!(!c.contains(&(0, 4)), "{c:?}");
    }

    #[test]
    fn larger_window_more_candidates() {
        let (a, b) = tables();
        let c2 = snb_candidates(&a, &b, "name", 2).len();
        let c4 = snb_candidates(&a, &b, "name", 4).len();
        let c10 = snb_candidates(&a, &b, "name", 10).len();
        assert!(c2 <= c4 && c4 <= c10, "{c2} {c4} {c10}");
        // Window covering everything = full cross product.
        assert_eq!(c10, a.len() * b.len());
    }

    #[test]
    fn cross_side_pairs_only() {
        let (a, b) = tables();
        for (aid, bid) in snb_candidates(&a, &b, "name", 4) {
            assert!((aid as usize) < a.len());
            assert!((bid as usize) < b.len());
        }
    }

    #[test]
    fn unknown_key_is_empty() {
        let (a, b) = tables();
        assert!(snb_candidates(&a, &b, "nope", 3).is_empty());
    }

    #[test]
    fn best_snb_picks_a_key() {
        let (a, b) = tables();
        let truth = vec![(0, 0)];
        let r = best_snb(&a, &b, &truth, 3);
        assert_eq!(r.key, "name");
        assert!(crate::metrics::blocking_recall(&r.candidates, &truth) > 0.99);
    }
}
