//! Property-based tests for the similarity substrate: bounds, symmetry,
//! identity, soundness of the filter arithmetic in `prefix.rs` (critical
//! for blocking correctness), and — at the end — every slice kernel
//! checked bit-for-bit against its textbook definition written out here.

use falcon_textsim::align::{self, AlignRows, LANES, LANE_BOUND};
use falcon_textsim::tokenize::word_tokens;
use falcon_textsim::{
    edit, hybrid, prefix, sets, tfidf, CharFamily, SimContext, SimFunction, SimScratch, Syms,
    TfIdfModel, TokenDict, Tokenizer, WeightColumn,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn word_string() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-e]{1,4}", 0..8).prop_map(|v| v.join(" "))
}

fn all_sims() -> Vec<SimFunction> {
    use SimFunction::*;
    vec![
        ExactMatch,
        Jaccard(Tokenizer::Word),
        Jaccard(Tokenizer::QGram(3)),
        Dice(Tokenizer::Word),
        Overlap(Tokenizer::Word),
        Cosine(Tokenizer::Word),
        Levenshtein,
        Jaro,
        JaroWinkler,
        MongeElkan,
        NeedlemanWunsch,
        SmithWaterman,
        SmithWatermanGotoh,
    ]
}

proptest! {
    /// All string similarity measures are bounded in [0, 1].
    #[test]
    fn scores_bounded(a in word_string(), b in word_string()) {
        let ctx = SimContext::empty();
        for sim in all_sims() {
            if let Some(s) = sim.score_str(&a, &b, &ctx) {
                prop_assert!((0.0..=1.0).contains(&s), "{:?} -> {}", sim, s);
            }
        }
    }

    /// All string similarity measures are symmetric.
    #[test]
    fn scores_symmetric(a in word_string(), b in word_string()) {
        let ctx = SimContext::empty();
        for sim in all_sims() {
            let ab = sim.score_str(&a, &b, &ctx);
            let ba = sim.score_str(&b, &a, &ctx);
            match (ab, ba) {
                (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-9, "{:?}: {} vs {}", sim, x, y),
                (None, None) => {}
                _ => prop_assert!(false, "{:?}: asymmetric None", sim),
            }
        }
    }

    /// Self-similarity is 1 for every similarity-oriented measure.
    #[test]
    fn self_similarity_is_one(a in word_string().prop_filter("non-empty", |s| !s.trim().is_empty())) {
        let ctx = SimContext::empty();
        for sim in all_sims() {
            if let Some(s) = sim.score_str(&a, &a, &ctx) {
                prop_assert!((s - 1.0).abs() < 1e-9, "{:?}({:?}) = {}", sim, a, s);
            }
        }
    }

    /// Length bounds are sound: if sim(x, y) >= t then |x| is inside the
    /// bounds computed from |y|.
    #[test]
    fn length_bounds_sound(a in word_string(), b in word_string(), t in 0.05f64..1.0) {
        let w = Tokenizer::Word;
        for sim in [SimFunction::Jaccard(w), SimFunction::Dice(w), SimFunction::Cosine(w)] {
            let x = w.tokenize(&a);
            let y = w.tokenize(&b);
            if x.is_empty() || y.is_empty() { continue; }
            let score = match sim {
                SimFunction::Jaccard(_) => sets::jaccard(&x, &y),
                SimFunction::Dice(_) => sets::dice(&x, &y),
                SimFunction::Cosine(_) => sets::cosine(&x, &y),
                _ => unreachable!(),
            };
            if score >= t {
                if let Some((lo, hi)) = prefix::length_bounds(sim, t, y.len()) {
                    prop_assert!(x.len() >= lo && x.len() <= hi,
                        "{:?} t={} |x|={} not in [{},{}] (score {})", sim, t, x.len(), lo, hi, score);
                }
            }
        }
    }

    /// Levenshtein character-length bounds are sound.
    #[test]
    fn levenshtein_length_bounds_sound(a in "[a-d]{0,12}", b in "[a-d]{0,12}", t in 0.05f64..1.0) {
        if a.is_empty() || b.is_empty() { return Ok(()); }
        let s = falcon_textsim::edit::levenshtein_sim(&a, &b);
        if s >= t {
            if let Some((lo, hi)) = prefix::length_bounds(SimFunction::Levenshtein, t, b.chars().count()) {
                let n = a.chars().count();
                prop_assert!(n >= lo && n <= hi, "len {} not in [{},{}], sim {}", n, lo, hi, s);
            }
        }
    }

    /// Prefix filter soundness: if sim(x, y) >= t, the t-prefixes of x and y
    /// under a shared global token order must intersect.
    #[test]
    fn prefix_filter_sound(a in word_string(), b in word_string(), t in 0.05f64..=1.0) {
        let w = Tokenizer::Word;
        let x = w.tokenize(&a);
        let y = w.tokenize(&b);
        if x.is_empty() || y.is_empty() { return Ok(()); }
        // Global order: lexicographic (any fixed total order is valid).
        let mut xs: Vec<&String> = x.iter().collect();
        let mut ys: Vec<&String> = y.iter().collect();
        xs.sort();
        ys.sort();
        for sim in [SimFunction::Jaccard(w), SimFunction::Dice(w), SimFunction::Cosine(w), SimFunction::Overlap(w)] {
            let score = match sim {
                SimFunction::Jaccard(_) => sets::jaccard(&x, &y),
                SimFunction::Dice(_) => sets::dice(&x, &y),
                SimFunction::Cosine(_) => sets::cosine(&x, &y),
                SimFunction::Overlap(_) => sets::overlap_coefficient(&x, &y),
                _ => unreachable!(),
            };
            if score >= t {
                let px = prefix::prefix_len(sim, t, xs.len());
                let py = prefix::prefix_len(sim, t, ys.len());
                let shared = xs[..px].iter().any(|tok| ys[..py].contains(tok));
                prop_assert!(shared,
                    "{:?} t={} score={} prefixes {:?} / {:?} disjoint", sim, t, score, &xs[..px], &ys[..py]);
            }
        }
    }

    /// Required-overlap is a true lower bound on the actual intersection.
    #[test]
    fn required_overlap_sound(a in word_string(), b in word_string(), t in 0.05f64..=1.0) {
        let w = Tokenizer::Word;
        let x = w.tokenize(&a);
        let y = w.tokenize(&b);
        if x.is_empty() || y.is_empty() { return Ok(()); }
        let inter = x.intersection(&y).count();
        for sim in [SimFunction::Jaccard(w), SimFunction::Dice(w), SimFunction::Cosine(w), SimFunction::Overlap(w)] {
            let score = match sim {
                SimFunction::Jaccard(_) => sets::jaccard(&x, &y),
                SimFunction::Dice(_) => sets::dice(&x, &y),
                SimFunction::Cosine(_) => sets::cosine(&x, &y),
                SimFunction::Overlap(_) => sets::overlap_coefficient(&x, &y),
                _ => unreachable!(),
            };
            if score >= t {
                let need = prefix::required_overlap(sim, t, x.len(), y.len()).unwrap();
                prop_assert!(inter >= need, "{:?} t={}: inter {} < need {}", sim, t, inter, need);
            }
        }
    }

    /// Levenshtein distance satisfies the triangle inequality.
    #[test]
    fn levenshtein_triangle(a in "[a-c]{0,8}", b in "[a-c]{0,8}", c in "[a-c]{0,8}") {
        use falcon_textsim::edit::levenshtein;
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }
}

// ---------------------------------------------------------------------
// Slice kernels against definitions.
//
// Each reference below is the measure's definition in the plainest form
// that fixes its float operation order: full `f64` matrices for the
// alignment scores (the kernels run in `i32` or `i16` half-units), fresh `Vec`s
// for Jaro, `String` tokens and a `BTreeMap` for the token measures (the
// kernels run on interned ids and a lossy memo). Kernels must agree with
// them to the bit, on ASCII bytes, decoded chars and mixed operands.
// ---------------------------------------------------------------------

fn ref_levenshtein(a: &[char], b: &[char]) -> f64 {
    let mut d = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for (i, row) in d.iter_mut().enumerate() {
        row[0] = i;
    }
    for (j, cell) in d[0].iter_mut().enumerate() {
        *cell = j;
    }
    for i in 1..=a.len() {
        for j in 1..=b.len() {
            let sub = d[i - 1][j - 1] + usize::from(a[i - 1] != b[j - 1]);
            d[i][j] = sub.min(d[i - 1][j] + 1).min(d[i][j - 1] + 1);
        }
    }
    match a.len().max(b.len()) {
        0 => 1.0,
        max => 1.0 - d[a.len()][b.len()] as f64 / max as f64,
    }
}

fn ref_jaro(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return if a.is_empty() && b.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut used = vec![false; b.len()];
    let mut from_a = Vec::new();
    for (i, ca) in a.iter().enumerate() {
        let hit = (i.saturating_sub(window)..(i + window + 1).min(b.len()))
            .find(|&j| !used[j] && b[j] == *ca);
        if let Some(j) = hit {
            used[j] = true;
            from_a.push(*ca);
        }
    }
    if from_a.is_empty() {
        return 0.0;
    }
    let from_b: Vec<char> = (0..b.len()).filter(|&j| used[j]).map(|j| b[j]).collect();
    let t = from_a.iter().zip(&from_b).filter(|(x, y)| x != y).count() / 2;
    let m = from_a.len() as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - t as f64) / m) / 3.0
}

fn ref_jaro_winkler(a: &[char], b: &[char]) -> f64 {
    let j = ref_jaro(a, b);
    let prefix = a.iter().zip(b).take(4).take_while(|(x, y)| x == y).count() as f64;
    j + prefix * 0.1 * (1.0 - j)
}

/// Alignment DP over a full `f64` matrix. `local` floors cells at 0 and
/// takes the best cell; `affine` charges open -1 / extend -0.5 instead of
/// a flat -1 per gap symbol.
fn ref_align(a: &[char], b: &[char], local: bool, affine: bool) -> f64 {
    if a.is_empty() || b.is_empty() {
        return if a.is_empty() && b.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    let (n, m) = (a.len(), b.len());
    let inf = f64::NEG_INFINITY;
    let mut h = vec![vec![0.0f64; m + 1]; n + 1];
    let mut e = vec![vec![inf; m + 1]; n + 1]; // gap in a, affine only
    let mut f = vec![vec![inf; m + 1]; n + 1]; // gap in b, affine only
    if !local {
        for (i, row) in h.iter_mut().enumerate() {
            row[0] = -(i as f64);
        }
        for (j, cell) in h[0].iter_mut().enumerate() {
            *cell = -(j as f64);
        }
    }
    let mut best = 0.0f64;
    for i in 1..=n {
        for j in 1..=m {
            let diag = h[i - 1][j - 1] + if a[i - 1] == b[j - 1] { 1.0 } else { -1.0 };
            let (up, left) = if affine {
                e[i][j] = (h[i - 1][j] - 1.0).max(e[i - 1][j] - 0.5);
                f[i][j] = (h[i][j - 1] - 1.0).max(f[i][j - 1] - 0.5);
                (e[i][j], f[i][j])
            } else {
                (h[i - 1][j] - 1.0, h[i][j - 1] - 1.0)
            };
            h[i][j] = diag.max(up).max(left);
            if local {
                h[i][j] = h[i][j].max(0.0);
            }
            best = best.max(h[i][j]);
        }
    }
    let raw = if local { best } else { h[n][m] };
    (raw / n.min(m) as f64).clamp(0.0, 1.0)
}

fn ref_token_jw(x: &str, y: &str) -> f64 {
    let (x, y): (Vec<char>, Vec<char>) = (x.chars().collect(), y.chars().collect());
    ref_jaro_winkler(&x, &y)
}

fn ref_monge_elkan(a: &str, b: &str) -> f64 {
    let (ta, tb) = (word_tokens(a), word_tokens(b));
    if ta.is_empty() || tb.is_empty() {
        return if ta.is_empty() && tb.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    let dir = |xs: &[String], ys: &[String]| {
        let best = |x: &String| ys.iter().map(|y| ref_token_jw(x, y)).fold(0.0f64, f64::max);
        xs.iter().map(best).fold(-0.0f64, |acc, v| acc + v) / xs.len() as f64
    };
    dir(&ta, &tb).max(dir(&tb, &ta))
}

/// tf·idf weights keyed (and therefore iterated) in token-string order.
fn ref_weights(model: &TfIdfModel, s: &str) -> BTreeMap<String, f64> {
    let mut w = BTreeMap::new();
    for tok in word_tokens(s) {
        *w.entry(tok).or_insert(0.0) += 1.0;
    }
    for (tok, tf) in w.iter_mut() {
        *tf *= model.idf(tok);
    }
    w
}

fn ref_norm(w: &BTreeMap<String, f64>) -> f64 {
    w.values().fold(-0.0f64, |acc, x| acc + x * x).sqrt()
}

/// Sums run from -0.0 (the float `Sum` identity the original kernel
/// inherited), so documents sharing no token score -0.0.
fn ref_tfidf(model: &TfIdfModel, a: &str, b: &str) -> Option<f64> {
    let (va, vb) = (ref_weights(model, a), ref_weights(model, b));
    if va.is_empty() || vb.is_empty() {
        return None;
    }
    let shared = va.iter().filter_map(|(t, wa)| vb.get(t).map(|wb| wa * wb));
    let dot = shared.fold(-0.0f64, |acc, x| acc + x);
    Some((dot / (ref_norm(&va) * ref_norm(&vb))).clamp(0.0, 1.0))
}

fn ref_soft_tfidf(model: &TfIdfModel, a: &str, b: &str, theta: f64) -> Option<f64> {
    let (va, vb) = (ref_weights(model, a), ref_weights(model, b));
    if va.is_empty() || vb.is_empty() {
        return None;
    }
    let mut dot = 0.0;
    for (ta, wa) in &va {
        let mut best: Option<(f64, f64)> = None; // first best in token order
        for (tb, wb) in &vb {
            let s = if ta == tb { 1.0 } else { ref_token_jw(ta, tb) };
            if s >= theta && best.is_none_or(|(bs, _)| s > bs) {
                best = Some((s, *wb));
            }
        }
        if let Some((s, wb)) = best {
            dot += wa * wb * s;
        }
    }
    Some((dot / (ref_norm(&va) * ref_norm(&vb))).clamp(0.0, 1.0))
}

/// Words that stress decoding and tokenization: multi-byte chars, `İ`/`ß`
/// (lowercasing changes their length), a combining mark, punctuation-only.
const TRICKY: [&str; 12] = [
    "İstanbul",
    "istanbul",
    "Straße",
    "STRASSE",
    "e\u{301}cole",
    "école",
    "naïve",
    "日本語",
    "...",
    "!?",
    "x",
    "",
];

fn word() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-c]{1,5}",
        "[a-cA-C.,]{1,6}",
        "[a-cßéİ日]{1,4}",
        (0..TRICKY.len()).prop_map(|i| TRICKY[i].to_string()),
    ]
}

/// Empty, ASCII, non-ASCII and mixed texts of up to six words.
fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(word(), 0..6).prop_map(|w| w.join(" "))
}

/// Every way the kernels can be handed `s`: decoded chars always, the
/// bytes too when it is ASCII.
fn views<'a>(s: &'a str, chars: &'a [char]) -> Vec<Syms<'a>> {
    let mut v = vec![Syms::Wide(chars)];
    if s.is_ascii() {
        v.push(Syms::Ascii(s.as_bytes()));
    }
    v
}

fn assert_bits(got: f64, want: f64, what: &str) {
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "{}: got {} want {}",
        what,
        got,
        want
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Levenshtein, Jaro, Jaro-Winkler, NW, SW and SW-Gotoh over bytes,
    /// chars and mixed operands equal their definitions, from one scratch
    /// reused across measures (its rows carry junk from the last call).
    #[test]
    fn char_kernels_match_definitions(a in text(), b in text()) {
        let (ca, cb): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
        let want = [
            (SimFunction::Levenshtein, ref_levenshtein(&ca, &cb)),
            (SimFunction::Jaro, ref_jaro(&ca, &cb)),
            (SimFunction::JaroWinkler, ref_jaro_winkler(&ca, &cb)),
            (SimFunction::NeedlemanWunsch, ref_align(&ca, &cb, false, false)),
            (SimFunction::SmithWaterman, ref_align(&ca, &cb, true, false)),
            (SimFunction::SmithWatermanGotoh, ref_align(&ca, &cb, true, true)),
        ];
        let mut scratch = SimScratch::new();
        for va in views(&a, &ca) {
            for vb in views(&b, &cb) {
                for (sim, want) in want {
                    let got = sim.score_syms(va, vb, &mut scratch).expect("character-level");
                    assert_bits(got, want, &format!("{sim:?} {va:?} {vb:?}"));
                }
                // One family run yields every member: all three alignment
                // scores from one sweep, Jaro-Winkler from its own Jaro.
                let [nw, sw, swg] = CharFamily::Align.score_syms(va, vb, &mut scratch);
                for (got, k) in [(nw, 3), (sw, 4), (swg, 5)] {
                    assert_bits(got, want[k].1, &format!("align lane {} {va:?} {vb:?}", k - 3));
                }
                let [j, jw, _] = CharFamily::Jaro.score_syms(va, vb, &mut scratch);
                assert_bits(j, want[1].1, &format!("jaro lane {va:?} {vb:?}"));
                assert_bits(jw, want[2].1, &format!("jaro_winkler lane {va:?} {vb:?}"));
            }
        }
        // The `&str` entry points are the same kernels behind a decode.
        assert_bits(edit::levenshtein_sim(&a, &b), want[0].1, "levenshtein_sim");
        if !a.is_empty() && !b.is_empty() {
            for (sim, want) in want {
                let got = sim.score_str(&a, &b, &SimContext::empty()).expect("non-empty");
                assert_bits(got, want, &format!("{sim:?} score_str"));
            }
        }
    }

    /// Monge-Elkan, TF/IDF and Soft TF/IDF over interned ids equal their
    /// definitions over strings — with the memo at its real size and with
    /// one slot (every lookup evicts), cold and warm (second round).
    #[test]
    fn token_kernels_match_definitions(docs in proptest::collection::vec(text(), 2..5)) {
        let model = TfIdfModel::build(docs.iter().map(String::as_str));
        let mut dict = TokenDict::new();
        let mut weights = WeightColumn::default();
        let mut seqs: Vec<Vec<u32>> = Vec::new();
        for d in &docs {
            weights.push(model.weight_vector(d), &mut dict);
            seqs.push(word_tokens(d).into_iter().map(|t| dict.intern_owned(t)).collect());
        }
        let mut scratches = [SimScratch::new(), SimScratch::with_memo_slots(1)];
        for round in 0..2 {
            for (i, a) in docs.iter().enumerate() {
                for (j, b) in docs.iter().enumerate() {
                    let (wa, wb) = (weights.get(i).expect("pushed"), weights.get(j).expect("pushed"));
                    let at = format!("round {round} {a:?} vs {b:?}");
                    let tfidf = tfidf::cosine_weights(wa, wb);
                    prop_assert_eq!(tfidf.map(f64::to_bits), ref_tfidf(&model, a, b).map(f64::to_bits), "tf_idf {}", &at);
                    prop_assert_eq!(model.cosine(a, b).map(f64::to_bits), tfidf.map(f64::to_bits), "cosine() {}", &at);
                    for scratch in &mut scratches {
                        let me = hybrid::monge_elkan_ids(&seqs[i], &seqs[j], &dict, scratch);
                        assert_bits(me, ref_monge_elkan(a, b), &format!("monge_elkan {at}"));
                        let soft = tfidf::soft_cosine_weights(wa, wb, 0.9, &dict, scratch);
                        prop_assert_eq!(soft.map(f64::to_bits), ref_soft_tfidf(&model, a, b, 0.9).map(f64::to_bits), "soft_tf_idf {}", &at);
                    }
                    assert_bits(hybrid::monge_elkan(a, b), ref_monge_elkan(a, b), &format!("monge_elkan() {at}"));
                    prop_assert_eq!(model.soft_cosine(a, b, 0.9).map(f64::to_bits), ref_soft_tfidf(&model, a, b, 0.9).map(f64::to_bits), "soft_cosine() {}", &at);
                }
            }
        }
    }
}

/// One pair of an alignment batch. Mostly independent ASCII values over
/// a small alphabet (so lanes match) of 1 to 40 symbols; sometimes a pair
/// at the `i16` bound or one past it (1–3 symbols against a long run), or
/// a pair of `text()`s (empty and non-ASCII values).
fn batch_pair() -> impl Strategy<Value = (String, String)> {
    let short = || prop_oneof!["[a-c]", "[a-d ]{1,12}", "[a-c]{1,40}"];
    let long = (1usize..=3, 0usize..=1, 1usize..7).prop_map(|(k, past, step)| {
        let sym = |j: usize| char::from(b'a' + (j * step % 3) as u8);
        let a: String = (0..k).map(sym).collect();
        let b: String = (0..LANE_BOUND + past - k).map(|j| sym(j / 2)).collect();
        (a, b)
    });
    prop_oneof![
        12 => (short(), short()),
        1 => long,
        2 => (text(), text()),
    ]
}

/// The form a scorer hands `s` to a kernel in: bytes when ASCII.
fn syms<'a>(s: &'a str, chars: &'a [char]) -> Syms<'a> {
    if s.is_ascii() {
        Syms::Ascii(s.as_bytes())
    } else {
        Syms::Wide(chars)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every pair of a batch of 1 to 8 — swept in `i16` lanes, or alone
    /// when it is over the bound, empty or non-ASCII — scores `[nw, sw,
    /// swg]` bit-equal to the three definitions and to `align_slices`, in
    /// either order of the batch (which moves pairs between lanes), from
    /// one scratch reused throughout.
    #[test]
    fn align_batch_lanes_match_definitions(
        pairs in proptest::collection::vec(batch_pair(), 1..=LANES),
    ) {
        let chars: Vec<(Vec<char>, Vec<char>)> = pairs
            .iter()
            .map(|(a, b)| (a.chars().collect(), b.chars().collect()))
            .collect();
        let want: Vec<[f64; 3]> = chars
            .iter()
            .map(|(ca, cb)| {
                let one = align::align_slices(ca, cb, &mut AlignRows::default());
                let def = [(false, false), (true, false), (true, true)]
                    .map(|(local, affine)| ref_align(ca, cb, local, affine));
                for k in 0..3 {
                    assert_bits(one[k], def[k], &format!("align_slices lane {k}"));
                }
                def
            })
            .collect();
        let batch: Vec<(Syms, Syms)> = pairs
            .iter()
            .zip(&chars)
            .map(|((a, b), (ca, cb))| (syms(a, ca), syms(b, cb)))
            .collect();
        let mut scratch = SimScratch::new();
        for reversed in [false, true] {
            let mut batch = batch.clone();
            if reversed {
                batch.reverse();
            }
            let mut got = vec![[f64::NAN; 3]; batch.len()];
            CharFamily::Align.score_batch(&batch, &mut scratch, &mut got);
            for (k, got) in got.iter().enumerate() {
                let at = if reversed { batch.len() - 1 - k } else { k };
                let (a, b) = &pairs[at];
                for m in 0..3 {
                    let what = format!("pair {at} member {m} ({}+{} symbols)", a.len(), b.len());
                    assert_bits(got[m], want[at][m], &what);
                }
            }
        }
    }
}

/// Every string of length `0..=max_len` over the symbols `0..alphabet`.
fn all_strings(alphabet: u8, max_len: usize) -> Vec<Vec<u8>> {
    let mut all = vec![Vec::new()];
    let mut last = vec![Vec::new()];
    for _ in 0..max_len {
        last = last
            .iter()
            .flat_map(|s: &Vec<u8>| {
                (0..alphabet).map(move |c| {
                    let mut t = s.clone();
                    t.push(c);
                    t
                })
            })
            .collect();
        all.extend(last.iter().cloned());
    }
    all
}

/// Jaro and Jaro-Winkler of every pair of strings up to `max_len` over
/// `alphabet` symbols are equal, bits included, in both argument orders:
/// the fact the token memo's unordered key and Monge-Elkan's single grid
/// walk rest on (the argument is on `edit::jaro_slices`).
fn assert_jaro_symmetric(alphabet: u8, max_len: usize) {
    let strings = all_strings(alphabet, max_len);
    let mut scratch = SimScratch::new();
    for (i, a) in strings.iter().enumerate() {
        for b in &strings[i + 1..] {
            let (x, y) = (Syms::Ascii(a), Syms::Ascii(b));
            let ab = CharFamily::Jaro.score_syms(x, y, &mut scratch);
            let ba = CharFamily::Jaro.score_syms(y, x, &mut scratch);
            assert_eq!(ab[0].to_bits(), ba[0].to_bits(), "jaro {a:?} {b:?}");
            assert_eq!(ab[1].to_bits(), ba[1].to_bits(), "jaro_winkler {a:?} {b:?}");
        }
    }
}

#[test]
fn jaro_winkler_is_symmetric_to_the_bit() {
    assert_jaro_symmetric(2, 8);
    assert_jaro_symmetric(3, 5);
}

/// The full sweep, 7.2 M ordered pairs: run in release with
/// `-- --include-ignored`.
#[test]
#[ignore = "exhaustive; about 1.5 s in release"]
fn jaro_winkler_is_symmetric_to_the_bit_exhaustively() {
    assert_jaro_symmetric(2, 10);
    assert_jaro_symmetric(3, 6);
    assert_jaro_symmetric(4, 5);
}
