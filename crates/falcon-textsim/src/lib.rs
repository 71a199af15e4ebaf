//! String and numeric similarity substrate for Falcon.
//!
//! Falcon's automatically generated features are all of the form
//! `sim(a.x, b.y)` where `sim` is one of the similarity measures listed in
//! Figure 5 of the paper. This crate implements every measure in that table,
//! the tokenizers they rely on, and the prefix/length-bound arithmetic that
//! the index-based filters of Section 7.4 need.
//!
//! Measures are exposed through the [`SimFunction`] enum so that rules and
//! features can be serialized, compared, and dispatched uniformly. All
//! similarity scores are oriented so that **larger means more similar** and
//! fall in `[0, 1]`, except the two numeric distance measures
//! ([`SimFunction::AbsDiff`], [`SimFunction::RelDiff`]) where **smaller means
//! more similar** (matching the paper's blocking-rule predicates such as
//! `abs_diff(a.price, b.price) >= 10 -> drop`).

pub mod align;
pub mod edit;
pub mod hybrid;
pub mod numeric;
pub mod prefix;
pub mod profile;
pub mod scratch;
pub mod sets;
pub mod tfidf;
pub mod tokenize;

use serde::{Deserialize, Serialize};

pub use profile::{Arena, RenderedColumn, TokenDict, TokenProfile};
pub use scratch::{SimScratch, Syms};
pub use tfidf::{TfIdfModel, WeightColumn};
pub use tokenize::Tokenizer;

/// A similarity (or distance) measure over attribute values.
///
/// The set-based measures carry the [`Tokenizer`] used to turn strings into
/// token sets, mirroring feature names in the paper like `Jaccard_word` and
/// `Dice_3gram`.
///
/// ```
/// use falcon_textsim::{SimFunction, SimContext, Tokenizer};
///
/// let jaccard = SimFunction::Jaccard(Tokenizer::Word);
/// let ctx = SimContext::empty();
/// let s = jaccard.score_str("digital camera", "compact digital camera", &ctx).unwrap();
/// assert!((s - 2.0 / 3.0).abs() < 1e-9);
/// assert_eq!(jaccard.name(), "jaccard_word");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SimFunction {
    /// 1.0 if the two values are identical, else 0.0.
    ExactMatch,
    /// Jaccard coefficient `|x ∩ y| / |x ∪ y|` over token sets.
    Jaccard(Tokenizer),
    /// Dice coefficient `2|x ∩ y| / (|x| + |y|)`.
    Dice(Tokenizer),
    /// Overlap coefficient `|x ∩ y| / min(|x|, |y|)`.
    Overlap(Tokenizer),
    /// Cosine similarity `|x ∩ y| / sqrt(|x| · |y|)` over token sets.
    Cosine(Tokenizer),
    /// Normalized Levenshtein similarity `1 - ED(x, y) / max(|x|, |y|)`.
    Levenshtein,
    /// Jaro similarity.
    Jaro,
    /// Jaro-Winkler similarity (prefix-boosted Jaro).
    JaroWinkler,
    /// Monge-Elkan: average best Jaro-Winkler match of each token of x in y.
    MongeElkan,
    /// Needleman-Wunsch global alignment score, normalized to [0, 1].
    NeedlemanWunsch,
    /// Smith-Waterman local alignment score, normalized to [0, 1].
    SmithWaterman,
    /// Smith-Waterman with Gotoh affine gap penalties, normalized to [0, 1].
    SmithWatermanGotoh,
    /// TF/IDF cosine over word tokens (requires a corpus model).
    TfIdf,
    /// Soft TF/IDF: TF/IDF where tokens within Jaro-Winkler 0.9 also match.
    SoftTfIdf,
    /// Absolute numeric difference `|x - y|` (distance: smaller is closer).
    AbsDiff,
    /// Relative numeric difference `|x - y| / max(|x|, |y|)` (distance).
    RelDiff,
}

impl SimFunction {
    /// True for measures where a *larger* score means *more similar*.
    pub fn higher_is_similar(self) -> bool {
        !matches!(self, SimFunction::AbsDiff | SimFunction::RelDiff)
    }

    /// True for measures that operate on numeric values.
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            SimFunction::AbsDiff | SimFunction::RelDiff | SimFunction::ExactMatch
        )
    }

    /// True for the token-set measures that support prefix/position/length
    /// filters (the `sim ∈ {Jaccard, Dice, Overlap, Cosine, Levenshtein}`
    /// branch of Algorithm 1 in the paper).
    pub fn is_set_based(self) -> bool {
        matches!(
            self,
            SimFunction::Jaccard(_)
                | SimFunction::Dice(_)
                | SimFunction::Overlap(_)
                | SimFunction::Cosine(_)
        )
    }

    /// Tokenizer used by this measure, if it is token based.
    pub fn tokenizer(self) -> Option<Tokenizer> {
        match self {
            SimFunction::Jaccard(t)
            | SimFunction::Dice(t)
            | SimFunction::Overlap(t)
            | SimFunction::Cosine(t) => Some(t),
            SimFunction::MongeElkan | SimFunction::TfIdf | SimFunction::SoftTfIdf => {
                Some(Tokenizer::Word)
            }
            _ => None,
        }
    }

    /// True for measures cheap enough that the paper allows them in blocking
    /// rules (Figure 5 marks the rest with `*`: "Not used for blocking").
    pub fn usable_for_blocking(self) -> bool {
        !matches!(
            self,
            SimFunction::Jaro
                | SimFunction::JaroWinkler
                | SimFunction::MongeElkan
                | SimFunction::NeedlemanWunsch
                | SimFunction::SmithWaterman
                | SimFunction::SmithWatermanGotoh
                | SimFunction::TfIdf
                | SimFunction::SoftTfIdf
        )
    }

    /// Score two string values. Numeric measures parse the strings and
    /// return `None` when parsing fails; every measure returns `None` when
    /// either side is empty/missing so learners can treat it as absent.
    pub fn score_str(self, a: &str, b: &str, ctx: &SimContext<'_>) -> Option<f64> {
        if a.is_empty() || b.is_empty() {
            return None;
        }
        Some(match self {
            SimFunction::ExactMatch => {
                if a == b {
                    1.0
                } else {
                    0.0
                }
            }
            SimFunction::Jaccard(t) => sets::jaccard(&t.tokenize(a), &t.tokenize(b)),
            SimFunction::Dice(t) => sets::dice(&t.tokenize(a), &t.tokenize(b)),
            SimFunction::Overlap(t) => sets::overlap_coefficient(&t.tokenize(a), &t.tokenize(b)),
            SimFunction::Cosine(t) => sets::cosine(&t.tokenize(a), &t.tokenize(b)),
            SimFunction::Levenshtein
            | SimFunction::Jaro
            | SimFunction::JaroWinkler
            | SimFunction::NeedlemanWunsch
            | SimFunction::SmithWaterman
            | SimFunction::SmithWatermanGotoh => {
                let (mut buf_a, mut buf_b) = (Vec::new(), Vec::new());
                let (x, y) = (Syms::decode(a, &mut buf_a), Syms::decode(b, &mut buf_b));
                self.score_syms(x, y, &mut SimScratch::with_memo_slots(1))?
            }
            SimFunction::MongeElkan => hybrid::monge_elkan(a, b),
            SimFunction::TfIdf => ctx.tfidf?.cosine(a, b)?,
            SimFunction::SoftTfIdf => ctx.tfidf?.soft_cosine(a, b, 0.9)?,
            SimFunction::AbsDiff => numeric::abs_diff(a.parse().ok()?, b.parse().ok()?),
            SimFunction::RelDiff => numeric::rel_diff(a.parse().ok()?, b.parse().ok()?),
        })
    }

    /// Score a set measure from the [`sets::Counts`] of the two token sets
    /// (`None` for every other measure): the same value as
    /// [`SimFunction::score_str`] on two non-empty strings tokenizing to
    /// those sets.
    pub fn score_counts(self, counts: sets::Counts) -> Option<f64> {
        Some(match self {
            SimFunction::Jaccard(_) => sets::jaccard_of(counts),
            SimFunction::Dice(_) => sets::dice_of(counts),
            SimFunction::Overlap(_) => sets::overlap_of(counts),
            SimFunction::Cosine(_) => sets::cosine_of(counts),
            _ => return None,
        })
    }

    /// Score two non-empty values with a character-level measure straight
    /// from their symbols, borrowing every working buffer from `scratch`;
    /// `None` for the measures that are not character-level. Same scores
    /// as [`SimFunction::score_str`], which decodes and calls this. A
    /// family member runs its whole family's kernel and keeps its lane.
    pub fn score_syms(self, a: Syms<'_>, b: Syms<'_>, scratch: &mut SimScratch) -> Option<f64> {
        if let Some((family, lane)) = self.char_family() {
            return Some(family.score_syms(a, b, scratch)[lane]);
        }
        let SimScratch { rows, wide, .. } = scratch;
        match self {
            SimFunction::Levenshtein => Some(scratch::on_syms!(a, b, wide, |x, y| {
                edit::levenshtein_sim_slices(x, y, rows)
            })),
            _ => None,
        }
    }

    /// The character-level family this measure is read from, and its lane
    /// in [`CharFamily::score_syms`]' output.
    pub fn char_family(self) -> Option<(CharFamily, usize)> {
        Some(match self {
            SimFunction::Jaro => (CharFamily::Jaro, 0),
            SimFunction::JaroWinkler => (CharFamily::Jaro, 1),
            SimFunction::NeedlemanWunsch => (CharFamily::Align, 0),
            SimFunction::SmithWaterman => (CharFamily::Align, 1),
            SimFunction::SmithWatermanGotoh => (CharFamily::Align, 2),
            _ => return None,
        })
    }

    /// Score two numeric values directly.
    pub fn score_num(self, a: f64, b: f64) -> Option<f64> {
        Some(match self {
            SimFunction::ExactMatch => {
                if a == b {
                    1.0
                } else {
                    0.0
                }
            }
            SimFunction::AbsDiff => numeric::abs_diff(a, b),
            SimFunction::RelDiff => numeric::rel_diff(a, b),
            SimFunction::Levenshtein => edit::levenshtein_sim(&fmt_num(a), &fmt_num(b)),
            _ => return None,
        })
    }

    /// Stable display name used in feature names and rule dumps, e.g.
    /// `jaccard_word` or `abs_diff`.
    pub fn name(self) -> String {
        match self {
            SimFunction::ExactMatch => "exact_match".into(),
            SimFunction::Jaccard(t) => format!("jaccard_{}", t.suffix()),
            SimFunction::Dice(t) => format!("dice_{}", t.suffix()),
            SimFunction::Overlap(t) => format!("overlap_{}", t.suffix()),
            SimFunction::Cosine(t) => format!("cosine_{}", t.suffix()),
            SimFunction::Levenshtein => "levenshtein".into(),
            SimFunction::Jaro => "jaro".into(),
            SimFunction::JaroWinkler => "jaro_winkler".into(),
            SimFunction::MongeElkan => "monge_elkan".into(),
            SimFunction::NeedlemanWunsch => "needleman_wunsch".into(),
            SimFunction::SmithWaterman => "smith_waterman".into(),
            SimFunction::SmithWatermanGotoh => "smith_waterman_gotoh".into(),
            SimFunction::TfIdf => "tf_idf".into(),
            SimFunction::SoftTfIdf => "soft_tf_idf".into(),
            SimFunction::AbsDiff => "abs_diff".into(),
            SimFunction::RelDiff => "rel_diff".into(),
        }
    }
}

/// A kernel one run of which scores several character-level measures of
/// a pair: the features of one family over one attribute pair read their
/// lanes off a single run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CharFamily {
    /// `[jaro, jaro_winkler, NaN]`: Jaro-Winkler is the Jaro score plus
    /// the Winkler prefix boost ([`edit::winkler`]).
    Jaro,
    /// `[needleman_wunsch, smith_waterman, smith_waterman_gotoh]` from one
    /// sweep of the three DPs ([`align::align_slices`], or a lane of
    /// [`align::align_batch`]).
    Align,
}

impl CharFamily {
    /// Every member's score of two values, from one kernel run over their
    /// symbols with `scratch`'s buffers.
    pub fn score_syms(self, a: Syms<'_>, b: Syms<'_>, scratch: &mut SimScratch) -> [f64; 3] {
        let SimScratch {
            align, jaro, wide, ..
        } = scratch;
        scratch::on_syms!(a, b, wide, |x, y| match self {
            CharFamily::Jaro => {
                let j = edit::jaro_slices(x, y, jaro);
                [j, edit::winkler(j, x, y), f64::NAN]
            }
            CharFamily::Align => align::align_slices(x, y, align),
        })
    }

    /// [`CharFamily::score_syms`] of each pair of `pairs`, into the same
    /// slot of `out`, bit for bit: the alignment family sweeps its ASCII
    /// pairs [`align::LANES`] at a time ([`align::align_batch`]), every
    /// other pair runs alone.
    pub fn score_batch(
        self,
        pairs: &[(Syms<'_>, Syms<'_>)],
        scratch: &mut SimScratch,
        out: &mut [[f64; 3]],
    ) {
        match self {
            CharFamily::Align => align::align_batch(pairs, scratch, out),
            CharFamily::Jaro => {
                for (&(a, b), slot) in pairs.iter().zip(out) {
                    *slot = self.score_syms(a, b, scratch);
                }
            }
        }
    }
}

fn fmt_num(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// Shared evaluation context. TF/IDF-style measures need corpus statistics;
/// the optional [`TokenProfile`]s (with the [`TokenDict`] their ids come
/// from) let callers score from the per-tuple caches instead of
/// re-rendering and re-tokenizing per feature.
#[derive(Default, Clone, Copy)]
pub struct SimContext<'a> {
    /// Corpus model for [`SimFunction::TfIdf`] / [`SimFunction::SoftTfIdf`].
    pub tfidf: Option<&'a TfIdfModel>,
    /// Pre-tokenized profile of the left (A-side) table, if built.
    pub a_profile: Option<&'a TokenProfile>,
    /// Pre-tokenized profile of the right (B-side) table, if built.
    pub b_profile: Option<&'a TokenProfile>,
    /// The dictionary both profiles were interned through.
    pub dict: Option<&'a TokenDict>,
}

impl<'a> SimContext<'a> {
    /// Context without corpus statistics (TF/IDF measures return `None`).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Context with a TF/IDF corpus model.
    pub fn with_tfidf(model: &'a TfIdfModel) -> Self {
        Self {
            tfidf: Some(model),
            ..Self::default()
        }
    }

    /// Attach token profiles for the A and B tables and the dictionary
    /// they share, enabling the cached fast paths in feature computation.
    pub fn with_profiles(
        mut self,
        a: &'a TokenProfile,
        b: &'a TokenProfile,
        dict: &'a TokenDict,
    ) -> Self {
        self.a_profile = Some(a);
        self.b_profile = Some(b);
        self.dict = Some(dict);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(SimFunction::Jaccard(Tokenizer::Word).name(), "jaccard_word");
        assert_eq!(SimFunction::Dice(Tokenizer::QGram(3)).name(), "dice_3gram");
        assert_eq!(SimFunction::AbsDiff.name(), "abs_diff");
    }

    #[test]
    fn orientation_flags() {
        assert!(SimFunction::Jaccard(Tokenizer::Word).higher_is_similar());
        assert!(!SimFunction::AbsDiff.higher_is_similar());
        assert!(SimFunction::AbsDiff.is_numeric());
        assert!(SimFunction::Cosine(Tokenizer::Word).is_set_based());
        assert!(!SimFunction::Levenshtein.is_set_based());
    }

    #[test]
    fn blocking_eligibility_matches_figure5() {
        assert!(SimFunction::Jaccard(Tokenizer::Word).usable_for_blocking());
        assert!(SimFunction::Levenshtein.usable_for_blocking());
        assert!(SimFunction::ExactMatch.usable_for_blocking());
        assert!(!SimFunction::Jaro.usable_for_blocking());
        assert!(!SimFunction::TfIdf.usable_for_blocking());
        assert!(!SimFunction::MongeElkan.usable_for_blocking());
    }

    #[test]
    fn score_str_dispatches() {
        let ctx = SimContext::empty();
        let j = SimFunction::Jaccard(Tokenizer::Word)
            .score_str("a b c", "a b d", &ctx)
            .unwrap();
        assert!((j - 0.5).abs() < 1e-9);
        assert_eq!(SimFunction::ExactMatch.score_str("x", "x", &ctx), Some(1.0));
        assert_eq!(SimFunction::AbsDiff.score_str("10", "4", &ctx), Some(6.0));
        assert_eq!(SimFunction::AbsDiff.score_str("ten", "4", &ctx), None);
        assert_eq!(
            SimFunction::Jaccard(Tokenizer::Word).score_str("", "x", &ctx),
            None
        );
    }

    #[test]
    fn tfidf_requires_context() {
        let ctx = SimContext::empty();
        assert_eq!(SimFunction::TfIdf.score_str("a", "a", &ctx), None);
        let model = TfIdfModel::build(["red apple", "green apple"].iter().copied());
        let ctx = SimContext::with_tfidf(&model);
        let s = SimFunction::TfIdf
            .score_str("red apple", "red apple", &ctx)
            .unwrap();
        assert!((s - 1.0).abs() < 1e-9);
    }
}
