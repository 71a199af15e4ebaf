//! The drug-description matching workload of Section 11.1: two hospital
//! systems' medication tables (453K × 451K at deployment scale, 4.3M
//! matches). Drug strings are highly structured but formatted differently
//! across systems — full salt names vs abbreviations ("hydrochloride" vs
//! "hcl"), fused vs spaced dosages ("500 mg" vs "500mg"), form synonyms
//! ("tablet" vs "tab") — the regime where learned similarity rules shine
//! and privacy forces an in-house expert crowd.

use crate::corrupt::{Corruptor, Dirtiness};
use crate::entity::pick;
use crate::EmDataset;
use falcon_table::{AttrType, Schema, Table, Value};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Deployment-scale |A| from Section 11.1.
pub const FULL_A: usize = 453_000;
/// Deployment-scale |B|.
pub const FULL_B: usize = 451_000;

/// Generic drug name stems.
const STEMS: &[&str] = &[
    "metformin",
    "lisinopril",
    "atorvastatin",
    "amlodipine",
    "omeprazole",
    "losartan",
    "gabapentin",
    "sertraline",
    "levothyroxine",
    "azithromycin",
    "amoxicillin",
    "prednisone",
    "tramadol",
    "ibuprofen",
    "acetaminophen",
    "warfarin",
    "clopidogrel",
    "furosemide",
    "pantoprazole",
    "citalopram",
    "montelukast",
    "rosuvastatin",
    "escitalopram",
    "duloxetine",
];

/// Salt names with their common abbreviations.
const SALTS: &[(&str, &str)] = &[
    ("hydrochloride", "hcl"),
    ("sodium", "na"),
    ("potassium", "k"),
    ("sulfate", "so4"),
    ("calcium", "ca"),
    ("tartrate", "tart"),
];

/// Dose strengths in mg.
const DOSES: &[u32] = &[
    5, 10, 20, 25, 40, 50, 75, 100, 150, 200, 250, 300, 500, 750, 850, 1000,
];

/// Dosage forms with their abbreviations.
const FORMS: &[(&str, &str)] = &[
    ("tablet", "tab"),
    ("capsule", "cap"),
    ("solution", "sol"),
    ("injection", "inj"),
    ("suspension", "susp"),
    ("cream", "crm"),
];

/// Routes of administration.
const ROUTES: &[&str] = &[
    "oral",
    "intravenous",
    "topical",
    "subcutaneous",
    "ophthalmic",
];

#[derive(Clone)]
struct Drug {
    stem: String,
    salt: Option<usize>,
    dose_mg: u32,
    form: usize,
    route: String,
    ndc: String,
}

fn make_drug(rng: &mut SmallRng) -> Drug {
    Drug {
        stem: pick(rng, STEMS).to_string(),
        salt: rng.gen_bool(0.6).then(|| rng.gen_range(0..SALTS.len())),
        dose_mg: DOSES[rng.gen_range(0..DOSES.len())],
        form: rng.gen_range(0..FORMS.len()),
        route: pick(rng, ROUTES).to_string(),
        ndc: format!(
            "{:05}-{:04}-{:02}",
            rng.gen_range(10000..100000u32),
            rng.gen_range(0..10000u32),
            rng.gen_range(0..100u32)
        ),
    }
}

fn schema() -> Schema {
    Schema::new([
        ("description", AttrType::Str),
        ("ndc", AttrType::Str),
        ("strength_mg", AttrType::Num),
        ("route", AttrType::Str),
    ])
}

/// System-A style: long form, spaced dose, full salt names.
fn render_a(rng: &mut SmallRng, c: &Corruptor, d: &Drug) -> Vec<Value> {
    let salt = d.salt.map_or(String::new(), |i| format!(" {}", SALTS[i].0));
    let descr = format!("{}{} {} mg {}", d.stem, salt, d.dose_mg, FORMS[d.form].0);
    vec![
        c.string_present(rng, &descr),
        if rng.gen_bool(0.85) {
            Value::str(d.ndc.clone())
        } else {
            Value::Null
        },
        Value::num(f64::from(d.dose_mg)),
        Value::str(d.route.clone()),
    ]
}

/// System-B style: abbreviated salt/form, fused dose, NDC often absent or
/// reformatted.
fn render_b(rng: &mut SmallRng, c: &Corruptor, d: &Drug) -> Vec<Value> {
    let salt = d.salt.map_or(String::new(), |i| format!(" {}", SALTS[i].1));
    let descr = format!("{}{} {}mg {}", d.stem, salt, d.dose_mg, FORMS[d.form].1);
    let ndc = if rng.gen_bool(0.5) {
        Value::str(d.ndc.replace('-', ""))
    } else if rng.gen_bool(0.6) {
        Value::str(d.ndc.clone())
    } else {
        Value::Null
    };
    vec![
        c.string_present(rng, &descr),
        ndc,
        c.number(rng, f64::from(d.dose_mg)),
        Value::str(d.route.clone()),
    ]
}

/// Generate the drugs dataset at `scale` (1.0 = deployment sizes). About
/// 60% of `A` has a match in `B`.
pub fn generate(scale: f64, seed: u64) -> EmDataset {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x44525547);
    let a_size = ((FULL_A as f64 * scale).round() as usize).max(12);
    let b_size = ((FULL_B as f64 * scale).round() as usize).max(12);
    let matches = (a_size * 6 / 10).min(b_size);
    let c = Corruptor::new(Dirtiness::light());

    let mut a_rows: Vec<(Vec<Value>, Option<usize>)> = Vec::with_capacity(a_size);
    let mut b_rows: Vec<Vec<Value>> = Vec::with_capacity(b_size);
    for m in 0..matches {
        let d = make_drug(&mut rng);
        a_rows.push((render_a(&mut rng, &c, &d), Some(m)));
        b_rows.push(render_b(&mut rng, &c, &d));
    }
    while a_rows.len() < a_size {
        let d = make_drug(&mut rng);
        a_rows.push((render_a(&mut rng, &c, &d), None));
    }
    while b_rows.len() < b_size {
        let d = make_drug(&mut rng);
        b_rows.push(render_b(&mut rng, &c, &d));
    }
    a_rows.shuffle(&mut rng);
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
    EmDataset {
        name: "drugs".into(),
        a: Table::new("drugs_a", schema(), a_rows.into_iter().map(|(r, _)| r)),
        b: Table::new("drugs_b", schema(), b_shuffled),
        truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_truth() {
        let d = generate(0.002, 1);
        assert!(d.a.len() >= 900);
        assert!(!d.truth.is_empty());
        // ~60% of A matched.
        let ratio = d.truth.len() as f64 / d.a.len() as f64;
        assert!((0.5..0.7).contains(&ratio), "{ratio}");
    }

    #[test]
    fn formats_differ_across_systems() {
        let d = generate(0.001, 2);
        let didx = d.a.schema().index_of("description").unwrap();
        let mut exact = 0;
        for (aid, bid) in &d.truth {
            let av = d.a.value_ref(*aid, didx).unwrap().render();
            let bv = d.b.value_ref(*bid, didx).unwrap().render();
            if av == bv {
                exact += 1;
            }
        }
        // Fused doses + abbreviations: exact description agreement is rare.
        assert!(
            (exact as f64) < 0.2 * d.truth.len() as f64,
            "{exact}/{}",
            d.truth.len()
        );
    }

    #[test]
    fn matched_descriptions_stay_similar() {
        use falcon_textsim::{SimContext, SimFunction, Tokenizer};
        let d = generate(0.001, 3);
        let didx = d.a.schema().index_of("description").unwrap();
        let ctx = SimContext::empty();
        let sim = SimFunction::Jaccard(Tokenizer::QGram(3));
        let mut sims = Vec::new();
        for (aid, bid) in d.truth.iter().take(100) {
            let av = d.a.value_ref(*aid, didx).unwrap().render();
            let bv = d.b.value_ref(*bid, didx).unwrap().render();
            if let Some(s) = sim.score_str(&av, &bv, &ctx) {
                sims.push(s);
            }
        }
        let avg = sims.iter().sum::<f64>() / sims.len() as f64;
        // Abbreviated salts/forms and fused doses push q-gram overlap down
        // by design; matched pairs still sit clearly above random ones.
        assert!(avg > 0.4, "avg qgram jaccard {avg}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(generate(0.001, 7).truth, generate(0.001, 7).truth);
    }
}
