//! Plan templates and plan generation (Figure 3, Section 10.1).

use falcon_table::Table;
use serde::{Deserialize, Serialize};

/// The two plan templates of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanKind {
    /// Figure 3.a: Blocker followed by Matcher.
    BlockAndMatch,
    /// Figure 3.b: Matcher only (tables small enough to skip blocking).
    MatchOnly,
}

/// Estimated bytes of `A × B` encoded as feature vectors of the given
/// arity (8 bytes per feature plus pair ids).
pub fn estimate_fv_bytes(a: &Table, b: &Table, arity: usize) -> u128 {
    let pairs = a.len() as u128 * b.len() as u128;
    pairs * (8 * arity as u128 + 8)
}

/// Section 10.1's plan-generation heuristic: pick the matcher-only plan
/// only when the fully-materialized feature-vector set fits in node
/// memory (and under the enumeration budget); otherwise block first.
pub fn choose_plan(
    a: &Table,
    b: &Table,
    arity: usize,
    node_memory: usize,
    max_pairs: u128,
) -> PlanKind {
    let pairs = a.len() as u128 * b.len() as u128;
    if pairs <= max_pairs && estimate_fv_bytes(a, b, arity) <= node_memory as u128 {
        PlanKind::MatchOnly
    } else {
        PlanKind::BlockAndMatch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falcon_table::{AttrType, Schema, Value};

    fn table(n: usize) -> Table {
        let schema = Schema::new([("x", AttrType::Str)]);
        Table::new(
            "t",
            schema,
            (0..n).map(|i| vec![Value::str(format!("v{i}"))]),
        )
    }

    #[test]
    fn small_tables_match_only() {
        let a = table(10);
        let b = table(10);
        assert_eq!(
            choose_plan(&a, &b, 20, 1 << 30, 1_000_000),
            PlanKind::MatchOnly
        );
    }

    #[test]
    fn large_tables_block_first() {
        let a = table(2000);
        let b = table(2000);
        // 4M pairs × 168B > 64MB memory.
        assert_eq!(
            choose_plan(&a, &b, 20, 64 << 20, 1_000_000_000),
            PlanKind::BlockAndMatch
        );
        // Pair budget also forces blocking.
        assert_eq!(
            choose_plan(&a, &b, 20, 1 << 40, 1_000),
            PlanKind::BlockAndMatch
        );
    }

    #[test]
    fn fv_bytes_grow_with_arity() {
        let a = table(100);
        let b = table(100);
        assert!(estimate_fv_bytes(&a, &b, 50) > estimate_fv_bytes(&a, &b, 5));
    }
}
