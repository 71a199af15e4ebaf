//! The Citations dataset: Citeseer × DBLP style bibliography matching
//! (1.82M × 2.51M tuples, 559K matches at full scale). The two sources
//! format the *same* publication very differently — abbreviated author
//! names, abbreviated venue names, missing months — which is exactly why
//! the paper reports key-based blocking recall of only 38.8% here while
//! rule-based blocking keeps 99.67%.

use crate::corrupt::{Corruptor, Dirtiness};
use crate::entity::{person_name, pick, sentence, JOURNALS, MONTHS, TOPIC_WORDS};
use crate::EmDataset;
use falcon_table::{AttrType, Schema, Table, Value};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Full-scale |A| (Citeseer side) from Table 1.
pub const FULL_A: usize = 1_823_978;
/// Full-scale |B| (DBLP side).
pub const FULL_B: usize = 2_512_927;
/// Full-scale match count.
pub const FULL_MATCHES: usize = 558_787;

#[derive(Clone)]
struct Paper {
    title: String,
    authors: Vec<String>,
    journal_full: String,
    journal_abbr: String,
    month: String,
    year: f64,
    pub_type: String,
}

fn make_paper(rng: &mut SmallRng) -> Paper {
    let n_title = rng.gen_range(4..9);
    let title = format!(
        "{} {}",
        sentence(rng, TOPIC_WORDS, n_title - 1),
        pick(rng, TOPIC_WORDS)
    );
    let n_auth = rng.gen_range(1..5);
    let authors = (0..n_auth).map(|_| person_name(rng)).collect();
    let (full, abbr) = JOURNALS[rng.gen_range(0..JOURNALS.len())];
    Paper {
        title,
        authors,
        journal_full: full.to_string(),
        journal_abbr: abbr.to_string(),
        month: pick(rng, MONTHS).to_string(),
        year: rng.gen_range(1985..2016) as f64,
        pub_type: ["article", "inproceedings"][rng.gen_range(0..2)].to_string(),
    }
}

fn schema() -> Schema {
    Schema::new([
        ("title", AttrType::Str),
        ("authors", AttrType::Str),
        ("journal", AttrType::Str),
        ("month", AttrType::Str),
        ("year", AttrType::Num),
        ("pub_type", AttrType::Str),
    ])
}

/// Citeseer-style rendering: full names, full venue, month often present.
fn render_a(rng: &mut SmallRng, c: &Corruptor, p: &Paper) -> Vec<Value> {
    let authors = p.authors.join(", ");
    vec![
        c.string_present(rng, &p.title),
        c.string(rng, &authors),
        c.string(rng, &p.journal_full),
        if rng.gen_bool(0.7) {
            Value::str(p.month.clone())
        } else {
            Value::Null
        },
        c.number(rng, p.year),
        Value::str(p.pub_type.clone()),
    ]
}

/// DBLP-style rendering: initialed author names, abbreviated venue, month
/// usually missing.
fn render_b(rng: &mut SmallRng, c: &Corruptor, p: &Paper) -> Vec<Value> {
    let authors: Vec<String> = p
        .authors
        .iter()
        .map(|full| {
            let mut parts = full.split_whitespace();
            let first = parts.next().unwrap_or("");
            let last = parts.next().unwrap_or("");
            if rng.gen_bool(0.8) {
                format!("{}. {}", &first[..1], last)
            } else {
                full.clone()
            }
        })
        .collect();
    let journal = if rng.gen_bool(0.75) {
        p.journal_abbr.clone()
    } else {
        p.journal_full.clone()
    };
    vec![
        c.string_present(rng, &p.title),
        c.string(rng, &authors.join("; ")),
        Value::str(journal),
        if rng.gen_bool(0.15) {
            Value::str(p.month.clone())
        } else {
            Value::Null
        },
        c.number(rng, p.year),
        Value::str(p.pub_type.clone()),
    ]
}

/// Generate Citations at `scale` (1.0 = paper sizes).
pub fn generate(scale: f64, seed: u64) -> EmDataset {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x43495445);
    let a_size = ((FULL_A as f64 * scale).round() as usize).max(12);
    let b_size = ((FULL_B as f64 * scale).round() as usize).max(16);
    let matches = ((FULL_MATCHES as f64 * scale).round() as usize)
        .max(4)
        .min(a_size.min(b_size));
    // A-side corruption is light-ish typographically; B differs mostly by
    // formatting. Cross-source dirt comes from the renderers.
    let c_a = Corruptor::new(Dirtiness {
        typo: 0.2,
        drop_token: 0.08,
        swap_tokens: 0.05,
        abbreviate: 0.05,
        missing: 0.03,
        numeric_jitter: 0.0,
        numeric_missing: 0.1,
    });
    let c_b = Corruptor::new(Dirtiness {
        typo: 0.15,
        drop_token: 0.05,
        swap_tokens: 0.03,
        abbreviate: 0.1,
        missing: 0.02,
        numeric_jitter: 0.0,
        numeric_missing: 0.05,
    });

    let mut a_rows: Vec<(Vec<Value>, Option<usize>)> = Vec::with_capacity(a_size);
    let mut b_rows: Vec<Vec<Value>> = Vec::with_capacity(b_size);

    // Matched papers appear in both sources with different formatting.
    for m in 0..matches {
        let p = make_paper(&mut rng);
        a_rows.push((render_a(&mut rng, &c_a, &p), Some(m)));
        b_rows.push(render_b(&mut rng, &c_b, &p));
    }
    // Unmatched tail on each side.
    while a_rows.len() < a_size {
        let p = make_paper(&mut rng);
        a_rows.push((render_a(&mut rng, &c_a, &p), None));
    }
    while b_rows.len() < b_size {
        let p = make_paper(&mut rng);
        b_rows.push(render_b(&mut rng, &c_b, &p));
    }
    a_rows.shuffle(&mut rng);
    // Shuffle B while tracking where each matched index lands.
    let mut b_perm: Vec<usize> = (0..b_rows.len()).collect();
    b_perm.shuffle(&mut rng);
    let mut b_pos = vec![0usize; b_rows.len()];
    for (new_pos, &old) in b_perm.iter().enumerate() {
        b_pos[old] = new_pos;
    }
    let b_shuffled: Vec<Vec<Value>> = b_perm.iter().map(|&old| b_rows[old].clone()).collect();

    let truth: Vec<(u32, u32)> = a_rows
        .iter()
        .enumerate()
        .filter_map(|(aid, (_, m))| m.map(|m| (aid as u32, b_pos[m] as u32)))
        .collect();
    let a = Table::new("citations_a", schema(), a_rows.into_iter().map(|(r, _)| r));
    let b = Table::new("citations_b", schema(), b_shuffled);
    EmDataset {
        name: "citations".into(),
        a,
        b,
        truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_truth_scale() {
        let d = generate(0.002, 1);
        assert!(d.a.len() < d.b.len());
        assert!(!d.truth.is_empty());
        for (aid, bid) in &d.truth {
            assert!((*aid as usize) < d.a.len());
            assert!((*bid as usize) < d.b.len());
        }
    }

    #[test]
    fn exact_keys_disagree_across_sources() {
        // The property that breaks KBB: matched pairs rarely share an exact
        // (journal, authors) key.
        let d = generate(0.002, 2);
        let jidx = d.a.schema().index_of("journal").unwrap();
        let aidx = d.a.schema().index_of("authors").unwrap();
        let mut same_key = 0;
        for (aid, bid) in &d.truth {
            let aj = d.a.value_ref(*aid, jidx).unwrap().render();
            let bj = d.b.value_ref(*bid, jidx).unwrap().render();
            let aa = d.a.value_ref(*aid, aidx).unwrap().render();
            let ba = d.b.value_ref(*bid, aidx).unwrap().render();
            if aj == bj && aa == ba {
                same_key += 1;
            }
        }
        let rate = same_key as f64 / d.truth.len() as f64;
        assert!(rate < 0.3, "exact-key agreement {rate}");
    }

    #[test]
    fn titles_stay_similar_across_sources() {
        use falcon_textsim::{SimContext, SimFunction, Tokenizer};
        let d = generate(0.002, 3);
        let tidx = d.a.schema().index_of("title").unwrap();
        let ctx = SimContext::empty();
        let sim = SimFunction::Jaccard(Tokenizer::Word);
        let mut sims = Vec::new();
        for (aid, bid) in d.truth.iter().take(100) {
            let at = d.a.value_ref(*aid, tidx).unwrap().render();
            let bt = d.b.value_ref(*bid, tidx).unwrap().render();
            if let Some(s) = sim.score_str(&at, &bt, &ctx) {
                sims.push(s);
            }
        }
        let avg = sims.iter().sum::<f64>() / sims.len() as f64;
        assert!(avg > 0.55, "avg matched title jaccard {avg}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(generate(0.001, 9).truth, generate(0.001, 9).truth);
    }
}
