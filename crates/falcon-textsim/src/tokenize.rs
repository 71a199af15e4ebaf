//! Tokenizers used by the set-based similarity measures and by the
//! prefix/position filter indexes.

use std::collections::BTreeSet;

/// How a string attribute value is decomposed into tokens.
///
/// `Word` splits on whitespace after lowercasing and stripping punctuation
/// edges; `QGram(q)` slides a window of `q` characters over the padded,
/// lowercased string. Tokens are *sets* (duplicates removed) as in standard
/// set-similarity-join formulations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tokenizer {
    /// Whitespace-delimited word tokens.
    Word,
    /// Character q-grams (the paper uses q = 3).
    QGram(u8),
}

impl Tokenizer {
    /// Tokenize into a deduplicated, sorted token set.
    pub fn tokenize(self, s: &str) -> BTreeSet<String> {
        self.tokenize_seq(s).into_iter().collect()
    }

    /// Tokenize preserving order and duplicates (used by TF weighting and by
    /// the hybrid measures that align token sequences).
    pub fn tokenize_seq(self, s: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_token(s, &mut TokenBuf::default(), |t| out.push(t.to_string()));
        out
    }

    /// Call `f` with every token of `s` in text order, duplicates kept:
    /// the tokens of [`Tokenizer::tokenize_seq`], lent out of `buf` one at
    /// a time instead of allocated one `String` each.
    pub fn for_each_token(self, s: &str, buf: &mut TokenBuf, mut f: impl FnMut(&str)) {
        match self {
            Tokenizer::Word => {
                for w in s.split_whitespace() {
                    let w = w.trim_matches(|c: char| !c.is_alphanumeric());
                    if !w.is_empty() {
                        lowercase_into(w, &mut buf.text);
                        f(&buf.text);
                    }
                }
            }
            Tokenizer::QGram(q) => each_qgram(s, q as usize, buf, f),
        }
    }

    /// Tokenize into a sorted, deduplicated `Vec<String>` — the same token
    /// set as [`Tokenizer::tokenize`] but in a flat buffer, for profile
    /// building where the strings are immediately interned to ids.
    pub fn tokenize_sorted(self, s: &str) -> Vec<String> {
        let mut toks = self.tokenize_seq(s);
        toks.sort_unstable();
        toks.dedup();
        toks
    }

    /// Suffix used in feature names (`jaccard_word`, `dice_3gram`, ...).
    pub fn suffix(self) -> String {
        match self {
            Tokenizer::Word => "word".into(),
            Tokenizer::QGram(q) => format!("{q}gram"),
        }
    }
}

/// Reusable buffers of [`Tokenizer::for_each_token`]: the lowercased
/// text and, for q-grams, its character boundaries.
#[derive(Debug, Default)]
pub struct TokenBuf {
    text: String,
    bounds: Vec<usize>,
}

/// `s` lowercased into `buf` exactly as `str::to_lowercase` would: ASCII
/// text bytewise, anything else through the full Unicode mapping (which
/// looks at context — a final sigma — so it cannot run char by char).
fn lowercase_into(s: &str, buf: &mut String) {
    buf.clear();
    if s.is_ascii() {
        buf.push_str(s);
        buf.make_ascii_lowercase();
    } else {
        buf.push_str(&s.to_lowercase());
    }
}

/// Lowercased word tokens with leading/trailing punctuation stripped.
pub fn word_tokens(s: &str) -> Vec<String> {
    Tokenizer::Word.tokenize_seq(s)
}

/// Character q-grams of the lowercased string. Strings shorter than `q`
/// yield a single token (the whole string) so short values still index.
pub fn qgrams(s: &str, q: usize) -> Vec<String> {
    let mut out = Vec::new();
    each_qgram(s, q, &mut TokenBuf::default(), |t| out.push(t.to_string()));
    out
}

fn each_qgram(s: &str, q: usize, buf: &mut TokenBuf, mut f: impl FnMut(&str)) {
    let TokenBuf { text, bounds } = buf;
    lowercase_into(s, text);
    bounds.clear();
    bounds.extend(text.char_indices().map(|(at, _)| at));
    if bounds.is_empty() || q == 0 {
        return;
    }
    if bounds.len() <= q {
        return f(text);
    }
    bounds.push(text.len());
    for w in bounds.windows(q + 1) {
        f(&text[w[0]..w[q]]);
    }
}

/// Number of word tokens in a value — the "length in words" that the length
/// filter of Example 6 in the paper indexes.
pub fn word_len(s: &str) -> usize {
    word_tokens(s).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_tokens_normalize() {
        assert_eq!(
            word_tokens("The  Quick, brown fox!"),
            vec!["the", "quick", "brown", "fox"]
        );
        assert_eq!(word_tokens(""), Vec::<String>::new());
        assert_eq!(word_tokens("...  ,"), Vec::<String>::new());
    }

    #[test]
    fn qgrams_slide() {
        assert_eq!(qgrams("abcd", 3), vec!["abc", "bcd"]);
        assert_eq!(qgrams("ab", 3), vec!["ab"]);
        assert_eq!(qgrams("", 3), Vec::<String>::new());
    }

    #[test]
    fn tokenize_dedups() {
        let t = Tokenizer::Word.tokenize("a b a b c");
        assert_eq!(t.len(), 3);
        let seq = Tokenizer::Word.tokenize_seq("a b a b c");
        assert_eq!(seq.len(), 5);
    }

    #[test]
    fn tokenize_sorted_matches_set() {
        for s in ["a b a b c", "The  Quick, brown fox!", "", "... ,"] {
            for t in [Tokenizer::Word, Tokenizer::QGram(3)] {
                let sorted = t.tokenize_sorted(s);
                let set: Vec<String> = t.tokenize(s).into_iter().collect();
                assert_eq!(sorted, set, "tokenizer {t:?} on {s:?}");
            }
        }
    }

    /// The buffered tokenizers against their definitions, allocating one
    /// `String` per token: whole-word `str::to_lowercase` (context
    /// sensitive: a final sigma) and windows over the lowercased chars.
    #[test]
    fn buffered_tokens_equal_the_allocating_definition() {
        let words = |s: &str| -> Vec<String> {
            s.split_whitespace()
                .map(|w| {
                    w.trim_matches(|c: char| !c.is_alphanumeric())
                        .to_lowercase()
                })
                .filter(|w| !w.is_empty())
                .collect()
        };
        let grams = |s: &str, q: usize| -> Vec<String> {
            let lower = s.to_lowercase();
            let chars: Vec<char> = lower.chars().collect();
            match chars.len() {
                0 => Vec::new(),
                n if n <= q => vec![lower],
                _ => chars.windows(q).map(|w| w.iter().collect()).collect(),
            }
        };
        let mut buf = TokenBuf::default();
        for s in [
            "The  Quick, brown fox!",
            "ΟΔΟΣ ΟΔΟΣ. Σ",
            "İstanbul — ǅ ﬁn",
            "日本語 テキスト",
            "ab",
            "..",
            "",
        ] {
            assert_eq!(word_tokens(s), words(s), "{s:?}");
            for q in [1, 3, 300] {
                assert_eq!(qgrams(s, q), grams(s, q), "{s:?} q={q}");
            }
            // One buffer serves any sequence of calls.
            for t in [Tokenizer::QGram(3), Tokenizer::Word, Tokenizer::QGram(2)] {
                let mut out = Vec::new();
                t.for_each_token(s, &mut buf, |tok| out.push(tok.to_string()));
                assert_eq!(out, t.tokenize_seq(s), "{t:?} on {s:?}");
            }
        }
    }

    #[test]
    fn qgram_tokenizer_lowercases() {
        let t = Tokenizer::QGram(3).tokenize("ABC");
        assert!(t.contains("abc"));
    }
}
