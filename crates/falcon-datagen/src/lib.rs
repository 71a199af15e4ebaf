//! Synthetic dataset generators standing in for the paper's three
//! real-world datasets (Table 1 / Figure 7):
//!
//! | Dataset   | Table A   | Table B   | Matches  | Character |
//! |-----------|-----------|-----------|----------|-----------|
//! | Products  | 2,554     | 22,074    | 1,154    | hard: dirty titles, shared brands/models |
//! | Songs     | 1,000,000 | 1,000,000 | 1,292,023| duplicate clusters, near-duplicate "versions" |
//! | Citations | 1,823,978 | 2,512,927 | 558,787  | very dirty: abbreviations, missing fields |
//!
//! A fourth generator, [`drugs`], models the Section 11.1 in-house
//! deployment (453K × 451K drug descriptions with cross-system format
//! drift).
//!
//! The generators are **schema faithful** (Figure 7 attribute sets), emit
//! exact ground truth, and expose a `scale` knob so the benchmark harness
//! can run the paper's experiments at laptop-friendly sizes while keeping
//! the matched/unmatched structure, attribute characteristics and
//! dirtiness that drive every algorithm under study. Citations is
//! deliberately generated so *key-based blocking has poor recall* (the
//! paper reports 38.8%) while rule-based blocking keeps nearly all
//! matches.

pub mod citations;
pub mod corrupt;
pub mod drugs;
pub mod entity;
pub mod products;
pub mod songs;

use falcon_table::{IdPair, Table};

pub use corrupt::{Corruptor, Dirtiness};

/// A complete EM task instance: two tables plus exact ground truth.
#[derive(Debug, Clone)]
pub struct EmDataset {
    /// Dataset name ("products", "songs", "citations").
    pub name: String,
    /// Table A (by convention the smaller table).
    pub a: Table,
    /// Table B.
    pub b: Table,
    /// All true matching pairs `(a_id, b_id)`.
    pub truth: Vec<IdPair>,
}

impl EmDataset {
    /// Sub-dataset with only the first `frac` of each table, keeping only
    /// ground-truth pairs that survive (the Figure 10 size sweep).
    pub fn fraction(&self, frac: f64) -> EmDataset {
        let na = (self.a.len() as f64 * frac).round() as usize;
        let nb = (self.b.len() as f64 * frac).round() as usize;
        let truth = self
            .truth
            .iter()
            .copied()
            .filter(|(a, b)| (*a as usize) < na && (*b as usize) < nb)
            .collect();
        EmDataset {
            name: format!("{}@{:.0}%", self.name, frac * 100.0),
            a: self.a.head(na),
            b: self.b.head(nb),
            truth,
        }
    }
}

/// The laptop-sized default scale of each dataset, as a fraction of the
/// paper's full size (`None` for an unknown name). The bench binaries'
/// `--scale` and the CLI's `scale=` multiply it.
pub fn default_scale(name: &str) -> Option<f64> {
    match name {
        "products" => Some(0.05),
        "songs" => Some(0.002),
        "citations" => Some(0.0015),
        "drugs" => Some(0.004),
        _ => None,
    }
}

/// Generate one of the three datasets by name at a given scale.
///
/// `scale = 1.0` produces the paper's full sizes (millions of tuples for
/// Songs/Citations — only do that with time to spare); the benchmark
/// default is 1/100-ish.
pub fn generate(name: &str, scale: f64, seed: u64) -> EmDataset {
    match name {
        "products" => products::generate(scale, seed),
        "songs" => songs::generate(scale, seed),
        "citations" => citations::generate(scale, seed),
        "drugs" => drugs::generate(scale, seed),
        other => panic!("unknown dataset {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_shrinks_consistently() {
        let d = songs::generate(0.005, 2);
        let h = d.fraction(0.5);
        assert!(h.a.len() <= d.a.len() / 2 + 1);
        for (a, b) in &h.truth {
            assert!((*a as usize) < h.a.len());
            assert!((*b as usize) < h.b.len());
        }
    }

    #[test]
    fn every_generated_dataset_has_a_default_scale() {
        for name in ["products", "songs", "citations", "drugs"] {
            assert!(default_scale(name).is_some_and(|s| s > 0.0), "{name}");
        }
        assert_eq!(default_scale("nope"), None);
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_dataset_panics() {
        generate("nope", 1.0, 0);
    }
}
