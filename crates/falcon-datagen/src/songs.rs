//! The Songs dataset: deduplicating a million-song catalog against itself
//! (1M × 1M tuples, 1.29M matches at full scale). Duplicate *clusters*
//! (the same song on multiple albums) produce more matches than tuples,
//! and remix/live "versions" of the same title are hard negatives — the
//! paper's crowd instructions (Figure 8) call these out explicitly.

use crate::corrupt::{Corruptor, Dirtiness};
use crate::entity::{person_name, pick, sentence, BAND_WORDS, SONG_WORDS};
use crate::EmDataset;
use falcon_table::{AttrType, Schema, Table, Value};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Full-scale table size from Table 1 (each side).
pub const FULL_SIZE: usize = 1_000_000;

/// Fraction of clusters that are "popular" (2 copies on each side, giving
/// 4 matches from 4 tuples). Chosen so matches/|A| ≈ 1.29 as in Table 1:
/// `(1 + 3p) / (1 + p) = 1.292` ⇒ `p ≈ 0.171`.
const POPULAR: f64 = 0.171;

#[derive(Clone)]
struct Song {
    title: String,
    release: String,
    artist: String,
    duration: f64,
    year: f64,
}

fn make_song(rng: &mut SmallRng) -> Song {
    let title = {
        let n = rng.gen_range(1..5);
        sentence(rng, SONG_WORDS, n)
    };
    let release = {
        let n = rng.gen_range(1..4);
        sentence(rng, SONG_WORDS, n)
    };
    let artist = if rng.gen_bool(0.4) {
        format!("the {}", pick(rng, BAND_WORDS))
    } else {
        person_name(rng)
    };
    Song {
        title,
        release,
        artist,
        duration: rng.gen_range(120.0_f64..420.0).round(),
        year: rng.gen_range(1960..2011) as f64,
    }
}

/// Same song on a different album (a true duplicate).
fn on_other_album(rng: &mut SmallRng, s: &Song) -> Song {
    let mut v = s.clone();
    v.release = {
        let n = rng.gen_range(1..4);
        sentence(rng, SONG_WORDS, n)
    };
    v
}

/// A different *version* of the song — remix/live/instrumental. Same
/// artist, annotated title, different year: a hard NEGATIVE.
fn version_of(rng: &mut SmallRng, s: &Song) -> Song {
    let tag = ["remix", "live", "instrumental", "acoustic"][rng.gen_range(0..4)];
    let mut v = s.clone();
    v.title = format!("{} ({tag})", s.title);
    v.year = (s.year + rng.gen_range(1..15) as f64).min(2010.0);
    v.duration = (s.duration + rng.gen_range(-30.0..60.0)).round();
    v
}

fn schema() -> Schema {
    Schema::new([
        ("title", AttrType::Str),
        ("release", AttrType::Str),
        ("artist_name", AttrType::Str),
        ("duration", AttrType::Num),
        ("year", AttrType::Num),
    ])
}

fn dirty_row(rng: &mut SmallRng, c: &Corruptor, s: &Song) -> Vec<Value> {
    vec![
        c.string_present(rng, &s.title),
        c.string(rng, &s.release),
        c.string(rng, &s.artist),
        c.number(rng, s.duration),
        c.number(rng, s.year),
    ]
}

/// Generate Songs at `scale` (1.0 = paper sizes).
pub fn generate(scale: f64, seed: u64) -> EmDataset {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x534f4e47);
    let size = ((FULL_SIZE as f64 * scale).round() as usize).max(16);
    let corruptor = Corruptor::new(Dirtiness::light());

    // Build clusters until both sides are full. Popular clusters put two
    // variants on each side; normal clusters one on each.
    let mut a_rows: Vec<(Vec<Value>, usize)> = Vec::with_capacity(size); // (row, cluster)
    let mut b_rows: Vec<(Vec<Value>, usize)> = Vec::with_capacity(size);
    let mut cluster = 0usize;
    while a_rows.len() < size && b_rows.len() < size {
        let song = make_song(&mut rng);
        let popular = rng.gen_bool(POPULAR) && a_rows.len() + 2 <= size && b_rows.len() + 2 <= size;
        let copies = if popular { 2 } else { 1 };
        for _ in 0..copies {
            let v = on_other_album(&mut rng, &song);
            a_rows.push((dirty_row(&mut rng, &corruptor, &v), cluster));
        }
        for _ in 0..copies {
            let v = on_other_album(&mut rng, &song);
            b_rows.push((dirty_row(&mut rng, &corruptor, &v), cluster));
        }
        // Occasionally add a non-matching "version" to one side.
        if rng.gen_bool(0.08) && a_rows.len() < size && b_rows.len() < size {
            let v = version_of(&mut rng, &song);
            cluster += 1; // its own cluster: never matches the original
            if rng.gen_bool(0.5) {
                a_rows.push((dirty_row(&mut rng, &corruptor, &v), cluster));
            } else {
                b_rows.push((dirty_row(&mut rng, &corruptor, &v), cluster));
            }
        }
        cluster += 1;
    }
    // Top up whichever side is short with fresh singletons.
    while a_rows.len() < size {
        let s = make_song(&mut rng);
        a_rows.push((dirty_row(&mut rng, &corruptor, &s), cluster));
        cluster += 1;
    }
    while b_rows.len() < size {
        let s = make_song(&mut rng);
        b_rows.push((dirty_row(&mut rng, &corruptor, &s), cluster));
        cluster += 1;
    }
    a_rows.shuffle(&mut rng);
    b_rows.shuffle(&mut rng);

    // Truth: all cross pairs within a cluster (ids `0..cluster`).
    let mut by_cluster: Vec<(Vec<u32>, Vec<u32>)> = vec![Default::default(); cluster];
    for (i, (_, c)) in a_rows.iter().enumerate() {
        by_cluster[*c].0.push(i as u32);
    }
    for (i, (_, c)) in b_rows.iter().enumerate() {
        by_cluster[*c].1.push(i as u32);
    }
    let mut truth = Vec::new();
    for (aids, bids) in by_cluster {
        for &a in &aids {
            for &b in &bids {
                truth.push((a, b));
            }
        }
    }
    truth.sort_unstable();

    let a = Table::new("songs_a", schema(), a_rows.into_iter().map(|(r, _)| r));
    let b = Table::new("songs_b", schema(), b_rows.into_iter().map(|(r, _)| r));
    EmDataset {
        name: "songs".into(),
        a,
        b,
        truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_ratio_near_paper() {
        let d = generate(0.01, 4);
        let ratio = d.truth.len() as f64 / d.a.len() as f64;
        // Paper: 1.292. Allow generator slack.
        assert!((1.0..1.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn sizes_equal_both_sides() {
        let d = generate(0.005, 5);
        assert_eq!(d.a.len(), d.b.len());
    }

    #[test]
    fn versions_are_not_matches() {
        let d = generate(0.01, 6);
        let tidx = d.a.schema().index_of("title").unwrap();
        // No truth pair may join a "(remix)"-style title with a clean one
        // of different annotation.
        for (aid, bid) in d.truth.iter().take(500) {
            let at = d.a.value_ref(*aid, tidx).unwrap().render();
            let bt = d.b.value_ref(*bid, tidx).unwrap().render();
            let a_tagged = at.contains('(');
            let b_tagged = bt.contains('(');
            assert_eq!(
                a_tagged, b_tagged,
                "version mixed into cluster: {at:?} vs {bt:?}"
            );
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(generate(0.005, 7).truth, generate(0.005, 7).truth);
    }
}
