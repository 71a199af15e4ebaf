//! The Products dataset: electronics products across two vendors
//! (2,554 × 22,074 tuples, 1,154 matches at full scale). The hardest of
//! the three datasets in the paper (F1 ≈ 82%): titles are dirty, brands
//! and product nouns are shared across many non-matching products, and
//! "sibling" products (same brand and noun, different model) act as hard
//! negatives.

use crate::corrupt::{Corruptor, Dirtiness};
use crate::entity::{
    model_number, pick, sentence, BRANDS, FILLER, PRODUCT_ADJECTIVES, PRODUCT_NOUNS,
};
use crate::EmDataset;
use falcon_table::{AttrType, Schema, Table, Value};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Full-scale sizes from Table 1.
pub const FULL_A: usize = 2_554;
/// Full-scale |B|.
pub const FULL_B: usize = 22_074;
/// Full-scale match count.
pub const FULL_MATCHES: usize = 1_154;

#[derive(Clone)]
struct Product {
    brand: String,
    modelno: String,
    title: String,
    price: f64,
    descr: String,
}

fn make_product(rng: &mut SmallRng) -> Product {
    let brand = pick(rng, BRANDS).to_string();
    let noun = pick(rng, PRODUCT_NOUNS).to_string();
    let modelno = model_number(rng);
    let n_adj = rng.gen_range(1..3);
    let adjs: Vec<&str> = (0..n_adj).map(|_| pick(rng, PRODUCT_ADJECTIVES)).collect();
    let title = format!("{} {} {} {}", brand, adjs.join(" "), noun, modelno);
    let price = rng.gen_range(10.0_f64..900.0).round();
    let descr = {
        let n = rng.gen_range(12..25);
        sentence(rng, FILLER, n)
    };
    Product {
        brand,
        modelno,
        title,
        price,
        descr,
    }
}

/// A sibling: same brand and noun family, different model and price — a
/// hard negative for title-similarity matching.
fn make_sibling(rng: &mut SmallRng, base: &Product) -> Product {
    let mut p = base.clone();
    p.modelno = model_number(rng);
    p.title = {
        let mut toks: Vec<&str> = base.title.split_whitespace().collect();
        let m = toks.len() - 1;
        toks[m] = &p.modelno;
        toks.join(" ")
    };
    p.price = (base.price + rng.gen_range(20.0..150.0)).round();
    p.descr = {
        let n = rng.gen_range(12..25);
        sentence(rng, FILLER, n)
    };
    p
}

fn schema() -> Schema {
    Schema::new([
        ("brand", AttrType::Str),
        ("modelno", AttrType::Str),
        ("title", AttrType::Str),
        ("price", AttrType::Num),
        ("descr", AttrType::Str),
    ])
}

fn row(p: &Product) -> Vec<Value> {
    vec![
        Value::str(p.brand.clone()),
        Value::str(p.modelno.clone()),
        Value::str(p.title.clone()),
        Value::num(p.price),
        Value::str(p.descr.clone()),
    ]
}

fn dirty_row(rng: &mut SmallRng, c: &Corruptor, p: &Product) -> Vec<Value> {
    vec![
        c.string(rng, &p.brand),
        c.string(rng, &p.modelno),
        c.string_present(rng, &p.title),
        c.number(rng, p.price),
        c.string(rng, &p.descr),
    ]
}

/// Generate Products at `scale` (1.0 = paper sizes).
pub fn generate(scale: f64, seed: u64) -> EmDataset {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x50524f44);
    let a_size = ((FULL_A as f64 * scale).round() as usize).max(8);
    let b_size = ((FULL_B as f64 * scale).round() as usize).max(16);
    let matches = ((FULL_MATCHES as f64 * scale).round() as usize)
        .max(4)
        .min(a_size.min(b_size));
    let corruptor = Corruptor::new(Dirtiness::medium());

    // B: the big, mostly-clean vendor catalog, with sibling clusters.
    let mut b_products: Vec<Product> = Vec::with_capacity(b_size);
    while b_products.len() < b_size {
        let p = make_product(&mut rng);
        // With some probability append 1-2 siblings as hard negatives.
        if b_products.len() + 1 < b_size && rng.gen_bool(0.15) {
            let sib = make_sibling(&mut rng, &p);
            b_products.push(p);
            b_products.push(sib);
        } else {
            b_products.push(p);
        }
    }

    // A: `matches` dirty copies of random B products plus unmatched ones.
    let mut b_ids: Vec<usize> = (0..b_size).collect();
    b_ids.shuffle(&mut rng);
    let matched_b: Vec<usize> = b_ids.into_iter().take(matches).collect();

    let mut a_rows: Vec<(Vec<Value>, Option<usize>)> = Vec::with_capacity(a_size);
    for &bid in &matched_b {
        a_rows.push((dirty_row(&mut rng, &corruptor, &b_products[bid]), Some(bid)));
    }
    while a_rows.len() < a_size {
        let p = make_product(&mut rng);
        a_rows.push((row(&p), None));
    }
    a_rows.shuffle(&mut rng);

    let truth: Vec<(u32, u32)> = a_rows
        .iter()
        .enumerate()
        .filter_map(|(aid, (_, bid))| bid.map(|b| (aid as u32, b as u32)))
        .collect();
    let a = Table::new("products_a", schema(), a_rows.into_iter().map(|(r, _)| r));
    let b = Table::new("products_b", schema(), b_products.iter().map(row));
    EmDataset {
        name: "products".into(),
        a,
        b,
        truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_scale() {
        let d = generate(0.05, 1);
        assert!((d.a.len() as i64 - (FULL_A as f64 * 0.05) as i64).abs() <= 1);
        assert!((d.b.len() as i64 - (FULL_B as f64 * 0.05) as i64).abs() <= 1);
        assert!(!d.truth.is_empty());
        assert!(d.truth.len() < d.a.len());
    }

    #[test]
    fn truth_pairs_valid() {
        let d = generate(0.03, 2);
        for (aid, bid) in &d.truth {
            assert!((*aid as usize) < d.a.len());
            assert!((*bid as usize) < d.b.len());
        }
        // Each A tuple matches at most one B product here.
        let mut aids: Vec<u32> = d.truth.iter().map(|(a, _)| *a).collect();
        aids.sort_unstable();
        aids.dedup();
        assert_eq!(aids.len(), d.truth.len());
    }

    #[test]
    fn matched_pairs_are_similar_unmatched_are_not() {
        use falcon_textsim::{SimContext, SimFunction, Tokenizer};
        let d = generate(0.03, 3);
        let ctx = SimContext::empty();
        let sim = SimFunction::Jaccard(Tokenizer::QGram(3));
        let tidx = d.a.schema().index_of("title").unwrap();
        let mut match_sims = Vec::new();
        for (aid, bid) in d.truth.iter().take(30) {
            let av = d.a.value_ref(*aid, tidx).unwrap().render();
            let bv = d.b.value_ref(*bid, tidx).unwrap().render();
            if let Some(s) = sim.score_str(&av, &bv, &ctx) {
                match_sims.push(s);
            }
        }
        let avg_match = match_sims.iter().sum::<f64>() / match_sims.len() as f64;
        assert!(avg_match > 0.5, "matched title sim {avg_match}");
        // Random (non-truth) pairs should be much less similar on average.
        let mut rnd_sims = Vec::new();
        for i in 0..30usize {
            let aid = (i % d.a.len()) as u32;
            let bid = ((i * 7 + 3) % d.b.len()) as u32;
            let av = d.a.value_ref(aid, tidx).unwrap().render();
            let bv = d.b.value_ref(bid, tidx).unwrap().render();
            if let Some(s) = sim.score_str(&av, &bv, &ctx) {
                rnd_sims.push(s);
            }
        }
        let avg_rnd = rnd_sims.iter().sum::<f64>() / rnd_sims.len() as f64;
        assert!(avg_match > avg_rnd + 0.2, "{avg_match} vs {avg_rnd}");
    }

    #[test]
    fn deterministic() {
        let d1 = generate(0.02, 9);
        let d2 = generate(0.02, 9);
        assert_eq!(d1.truth, d2.truth);
        assert_eq!(d1.a.rows()[0], d2.a.rows()[0]);
    }
}
