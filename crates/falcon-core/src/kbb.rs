//! Key-based blocking (KBB) baseline (Sections 2, 3.2).
//!
//! KBB groups tuples by an exact key and only considers same-key pairs.
//! Mirroring the paper's "extensive effort at KBB", [`best_kbb`] tries
//! every single attribute and every attribute pair as the key and reports
//! the one with the highest recall — KBB at its best, which on dirty data
//! still loses far more matches than Falcon's rule-based blocking.

use falcon_table::{IdPair, Table};
use falcon_textsim::DetMap;

/// Candidate pairs agreeing exactly on the named attributes (present in
/// both tables). Tuples with any missing key value block with nothing.
pub fn kbb_candidates(a: &Table, b: &Table, key_attrs: &[&str]) -> Vec<IdPair> {
    let a_idx: Vec<usize> = key_attrs
        .iter()
        .filter_map(|k| a.schema().index_of(k))
        .collect();
    let b_idx: Vec<usize> = key_attrs
        .iter()
        .filter_map(|k| b.schema().index_of(k))
        .collect();
    if a_idx.len() != key_attrs.len() || b_idx.len() != key_attrs.len() {
        return Vec::new();
    }
    let key_of = |table: &Table, id: u32, idx: &[usize]| -> Option<String> {
        let mut parts = Vec::with_capacity(idx.len());
        for &i in idx {
            let r = table.value_ref(id, i).unwrap_or_default().render();
            if r.is_empty() {
                return None;
            }
            parts.push(r.to_lowercase());
        }
        Some(parts.join("\u{1}"))
    };
    let mut blocks: DetMap<String, Vec<u32>> = DetMap::new();
    for id in 0..a.len() as u32 {
        if let Some(k) = key_of(a, id, &a_idx) {
            blocks.entry(k).or_default().push(id);
        }
    }
    let mut out = Vec::new();
    for id in 0..b.len() as u32 {
        if let Some(k) = key_of(b, id, &b_idx) {
            if let Some(aids) = blocks.get(&k) {
                out.extend(aids.iter().map(|&aid| (aid, id)));
            }
        }
    }
    out.sort_unstable();
    out
}

/// Result of the best-key search.
#[derive(Debug, Clone)]
pub struct KbbResult {
    /// The winning key attributes.
    pub key: Vec<String>,
    /// Blocking recall of that key.
    pub recall: f64,
    /// Candidate-set size.
    pub candidates: usize,
}

/// Try all single attributes and pairs shared by both schemas; return the
/// key with the best recall (ties broken by smaller candidate set), or
/// `None` when the schemas share no attribute and there is no key to try.
///
/// A key only counts as *blocking* if its candidate set is a small
/// fraction of `A × B` — otherwise a two-valued attribute like `pub_type`
/// would "win" with near-perfect recall while leaving the cross product
/// essentially unpruned (at paper scale, trillions of pairs). The budget
/// starts at 1% of `|A × B|` and relaxes only if no key qualifies.
pub fn best_kbb(a: &Table, b: &Table, truth: &[IdPair]) -> Option<KbbResult> {
    // The last budget admits every key, so only an empty key set is `None`.
    [0.01, 0.05, 0.2, 1.01].into_iter().find_map(|budget_frac| {
        let budget = (a.len() as f64 * b.len() as f64 * budget_frac).ceil() as usize;
        best_kbb_within(a, b, truth, budget)
    })
}

fn best_kbb_within(
    a: &Table,
    b: &Table,
    truth: &[IdPair],
    max_candidates: usize,
) -> Option<KbbResult> {
    let shared: Vec<String> = a
        .schema()
        .names()
        .filter(|n| b.schema().index_of(n).is_some())
        .map(str::to_string)
        .collect();
    let mut keys: Vec<Vec<String>> = shared.iter().map(|s| vec![s.clone()]).collect();
    for i in 0..shared.len() {
        for j in (i + 1)..shared.len() {
            keys.push(vec![shared[i].clone(), shared[j].clone()]);
        }
    }
    let mut best: Option<KbbResult> = None;
    for key in keys {
        let refs: Vec<&str> = key.iter().map(String::as_str).collect();
        let cands = kbb_candidates(a, b, &refs);
        if cands.len() > max_candidates {
            continue;
        }
        let recall = crate::metrics::blocking_recall(&cands, truth);
        let candidate = KbbResult {
            key: key.clone(),
            recall,
            candidates: cands.len(),
        };
        let better = match &best {
            None => true,
            Some(b) => {
                recall > b.recall + 1e-12
                    || ((recall - b.recall).abs() <= 1e-12 && candidate.candidates < b.candidates)
            }
        };
        if better {
            best = Some(candidate);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_table::{AttrType, Schema, Value};

    fn tables() -> (Table, Table, Vec<IdPair>) {
        let schema = Schema::new([("isbn", AttrType::Str), ("title", AttrType::Str)]);
        let a = Table::new(
            "a",
            schema.clone(),
            vec![
                vec![Value::str("111"), Value::str("book one")],
                vec![Value::str("222"), Value::str("book two")],
                vec![Value::Null, Value::str("book three")],
            ],
        );
        let b = Table::new(
            "b",
            schema,
            vec![
                vec![Value::str("111"), Value::str("book one!")],
                vec![Value::str("333"), Value::str("book two")], // dirty isbn
                vec![Value::str("444"), Value::str("book three")],
            ],
        );
        let truth = vec![(0, 0), (1, 1), (2, 2)];
        (a, b, truth)
    }

    #[test]
    fn exact_key_blocks() {
        let (a, b, _) = tables();
        let c = kbb_candidates(&a, &b, &["isbn"]);
        assert_eq!(c, vec![(0, 0)]);
    }

    #[test]
    fn missing_keys_never_block() {
        let (a, b, _) = tables();
        let c = kbb_candidates(&a, &b, &["isbn", "title"]);
        // Only (0,0) shares isbn, but titles differ -> empty.
        assert!(c.is_empty());
    }

    #[test]
    fn best_kbb_picks_highest_recall_within_budget() {
        let (a, b, truth) = tables();
        // On a 3×3 table the 1% budget admits only single-candidate keys:
        // isbn (recall 1/3) qualifies before the budget relaxes to where
        // title (2 candidates, recall 2/3) would win.
        let r = best_kbb(&a, &b, &truth).unwrap();
        assert_eq!(r.key, vec!["isbn".to_string()]);
        assert!((r.recall - 1.0 / 3.0).abs() < 1e-12);
        // With an explicit relaxed budget, title wins on recall.
        let r = best_kbb_within(&a, &b, &truth, 9).unwrap();
        assert_eq!(r.key, vec!["title".to_string()]);
        assert!((r.recall - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_schemas_have_no_best_key() {
        let (a, _, truth) = tables();
        let b = Table::new(
            "b",
            Schema::new([("name", AttrType::Str)]),
            vec![vec![Value::str("book one")]],
        );
        assert!(best_kbb(&a, &b, &truth).is_none());
    }

    #[test]
    fn unknown_key_is_empty() {
        let (a, b, _) = tables();
        assert!(kbb_candidates(&a, &b, &["nope"]).is_empty());
    }
}
