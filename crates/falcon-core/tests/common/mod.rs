//! The three hand-written blocking problems the golden and equivalence
//! tests share: datagen tables at fixed seeds, each with a drop-rule
//! sequence that mixes every filter kind.
#![allow(dead_code)]

use falcon_core::features::FeatureSet;
use falcon_core::rules::{Predicate, Rule, RuleSequence};
use falcon_datagen::{citations, products, songs, EmDataset};
use falcon_forest::SplitOp;
use falcon_table::IdPair;

/// `(feature name, op, threshold)` drop-rule predicates.
pub type RuleSpec = &'static [(&'static str, SplitOp, f64)];

pub fn sequence(features: &FeatureSet, rules: &[RuleSpec]) -> RuleSequence {
    let pred = |&(name, op, threshold): &(&str, SplitOp, f64)| {
        let feature = features
            .features
            .iter()
            .position(|f| f.name == name)
            .unwrap_or_else(|| panic!("missing blocking feature {name}"));
        Predicate {
            feature,
            op,
            threshold,
            nan_is_high: features.get(feature).sim.higher_is_similar(),
        }
    };
    RuleSequence::new(
        rules
            .iter()
            .map(|r| Rule {
                predicates: r.iter().map(pred).collect(),
            })
            .collect(),
    )
}

use SplitOp::{Gt, Le};

/// One `3gram(title)` order probed by three conjuncts, a range disjunct,
/// a word-token cosine, and a last rule whose complement is unfilterable.
pub const SONGS: &[RuleSpec] = &[
    &[("jaccard_3gram(title,title)", Le, 0.3)],
    &[
        ("dice_3gram(title,title)", Le, 0.45),
        ("abs_diff(year,year)", Gt, 1.0),
    ],
    &[
        ("overlap_3gram(title,title)", Le, 0.5),
        ("cosine_word(artist_name,artist_name)", Le, 0.4),
    ],
    &[
        ("rel_diff(duration,duration)", Gt, 0.2),
        ("jaccard_word(release,release)", Le, 0.2),
    ],
    &[
        ("exact_match(year,year)", Gt, 0.5),
        ("jaccard_word(title,title)", Le, 0.05),
    ],
];

/// Equality, range and edit-distance filters beside the set filters.
pub const PRODUCTS: &[RuleSpec] = &[
    &[("jaccard_word(title,title)", Le, 0.3)],
    &[
        ("exact_match(brand,brand)", Le, 0.5),
        ("abs_diff(price,price)", Gt, 50.0),
    ],
    &[
        ("levenshtein(modelno,modelno)", Le, 0.5),
        ("cosine_word(title,title)", Le, 0.5),
    ],
    &[
        ("dice_word(title,title)", Le, 0.4),
        ("jaccard_3gram(brand,brand)", Le, 0.3),
    ],
];

/// Long multi-token strings: word-token title filters shared by three
/// conjuncts plus 3-gram author filters.
pub const CITATIONS: &[RuleSpec] = &[
    &[("jaccard_word(title,title)", Le, 0.4)],
    &[
        ("cosine_word(title,title)", Le, 0.5),
        ("jaccard_3gram(authors,authors)", Le, 0.3),
    ],
    &[
        ("overlap_word(title,title)", Le, 0.6),
        ("exact_match(year,year)", Le, 0.5),
    ],
    &[
        ("rel_diff(year,year)", Gt, 0.001),
        ("dice_3gram(authors,authors)", Le, 0.5),
    ],
];

pub fn fnv1a(pairs: &[IdPair]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(a, b) in pairs {
        for byte in a.to_le_bytes().into_iter().chain(b.to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(name, tables, drop rules)` of the three problems.
pub fn datasets() -> [(&'static str, EmDataset, &'static [RuleSpec]); 3] {
    [
        ("products", products::generate(0.05, 11), PRODUCTS),
        ("songs", songs::generate(0.001, 5), SONGS),
        ("citations", citations::generate(0.0005, 3), CITATIONS),
    ]
}
