//! Seeded-violation fixture: result-producing hash iteration without a
//! deterministic funnel. Scanned only by falcon-lint's own tests — not
//! compiled.

use std::collections::HashMap;

pub fn leaf_order(votes: &HashMap<u32, u32>) -> Vec<u32> {
    votes.keys().copied().collect()
}

pub fn unstable_mass(weights: &HashMap<u32, f64>) -> f64 {
    weights.values().sum::<f64>()
}

pub fn stable_count(weights: &HashMap<u32, f64>) -> usize {
    weights.values().count()
}

pub fn sorted_view(votes: &HashMap<u32, u32>) -> Vec<u32> {
    let mut ids: Vec<u32> = votes.keys().copied().collect();
    ids.sort_unstable();
    ids
}

pub fn env_knob() -> bool {
    std::env::var("FALCON_FOREST_REPR").is_ok()
}
