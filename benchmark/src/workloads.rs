//! The four workloads: what each runs and why it was chosen.
//!
//! Every workload is one *pinned* EM problem, repeated: one seed for
//! datagen, the crowd and the driver, chosen (by `--instance`) from the
//! two listed per workload. Falcon's work per problem is chaotic in that
//! seed — the learned blocking rules decide how many pairs are probed and
//! scored, and they change with any label — so the problems below were
//! picked for the layer profile each workload is meant to have, and
//! medians are only comparable on the same problem (see README.md, "Seed
//! sensitivity"). `--seed` varies the bytes of the input files without
//! changing the tables they parse to.

use falcon::prelude::PlanKind;

/// `falcon-bench`'s laptop scales: fraction of the paper's full size that
/// `scale = 1` stands for (products 128 × 1.1K, songs 2K × 2K, citations
/// 2.7K × 3.8K).
fn base_scale(dataset: &str) -> f64 {
    match dataset {
        "products" => 0.05,
        "songs" => 0.002,
        "citations" => 0.0015,
        other => panic!("unknown dataset {other}"),
    }
}

/// One `A.csv, B.csv → matches.csv` job through `Falcon::try_run`.
#[derive(Debug, Clone)]
pub struct Pipeline {
    pub dataset: &'static str,
    /// Multiplier on [`base_scale`].
    pub scale: f64,
    pub plan: PlanKind,
    /// `FalconConfig::sample_size` (`falcon-bench`'s `standard_config`
    /// uses 8000).
    pub sample_size: usize,
    /// The output check fails below this F1.
    pub min_f1: f64,
    /// Random pairs the direct `gen_fvs` and forest-scoring calls score
    /// (`fv_throughput`'s 20 000).
    pub fixture_pairs: usize,
}

impl Pipeline {
    /// The `scale` argument of `falcon::datagen::generate`.
    pub fn datagen_scale(&self) -> f64 {
        base_scale(self.dataset) * self.scale
    }
}

/// Several tenants through `falcon::serve::serve` on one shared pool.
#[derive(Debug, Clone)]
pub struct Serve {
    pub tenants: usize,
    /// Distinct jobs; tenants are stamped out of templates round-robin so
    /// one solo run per template checks every tenant.
    pub templates: usize,
    /// `scale` argument of `falcon::datagen::generate("products", ..)`.
    pub datagen_scale: f64,
}

#[derive(Debug, Clone)]
pub enum Kind {
    Pipeline(Pipeline),
    Serve(Serve),
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Problem seeds of `--instance 1` (the default) and `--instance 2`
    /// (the alternate, to show a claim holds on a second problem).
    pub instances: [u64; 2],
    pub kind: Kind,
}

/// The workloads, in reporting order. `smoke` divides every scale by ten
/// (the unit-test mode: same code paths, seconds of work, F1 not checked).
pub fn all(smoke: bool) -> Vec<Workload> {
    let div = if smoke { 10.0 } else { 1.0 };
    let pipeline = |dataset, scale: f64, plan, min_f1: f64| {
        Kind::Pipeline(Pipeline {
            dataset,
            scale: scale / div,
            plan,
            sample_size: if smoke { 800 } else { 8000 },
            min_f1: if smoke { 0.0 } else { min_f1 },
            fixture_pairs: if smoke { 2_000 } else { 20_000 },
        })
    };
    vec![
        Workload {
            name: "songs2x_block",
            why: "large short-string tables, few candidates: index build and the blocking probe (apply_block_rules) are 65% of the wall",
            instances: [1, 12],
            kind: pipeline("songs", 2.0, PlanKind::BlockAndMatch, 0.90),
        },
        Workload {
            name: "products03x_matchonly",
            why: "forced MatchOnly plan: falcon-index and physical.rs never run; gen_fvs over the matching feature set is 98% of the wall",
            instances: [1, 2],
            kind: pipeline("products", 0.3, PlanKind::MatchOnly, 0.90),
        },
        Workload {
            name: "citations07x_mixed",
            why: "long multi-token strings, 16K candidates: the same layers in other proportions (gen_fvs_m 33%, probe 28%, active learning 20%)",
            instances: [1, 3],
            kind: pipeline("citations", 0.7, PlanKind::BlockAndMatch, 0.90),
        },
        Workload {
            name: "serve6_tiny",
            why: "tenants on a shared pool under a StageGate: the only workload with falcon-serve (gate hand-offs, rounds, placement) on the path",
            instances: [1, 4],
            kind: Kind::Serve(Serve {
                tenants: if smoke { 4 } else { 6 },
                templates: if smoke { 2 } else { 3 },
                // √10 only: a tenth of 51 × 441 leaves too few matches to learn from.
                datagen_scale: 0.02 / div.sqrt(),
            }),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_named_workloads_with_one_line_reasons() {
        let ws = all(false);
        assert_eq!(ws.len(), 4);
        let mut names: Vec<_> = ws.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
        for w in &ws {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert_eq!(
            ws.iter()
                .filter(|w| matches!(w.kind, Kind::Serve(_)))
                .count(),
            1
        );
    }

    /// `BENCHMARK.json` names exactly these workloads, with these reasons.
    #[test]
    fn benchmark_json_lists_the_same_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert_eq!(text.matches("\"why\"").count(), 4);
        for w in all(false) {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn smoke_shrinks_every_workload() {
        for (full, small) in all(false).iter().zip(all(true)) {
            match (&full.kind, &small.kind) {
                (Kind::Pipeline(f), Kind::Pipeline(s)) => {
                    assert!(s.datagen_scale() < f.datagen_scale());
                    assert!(s.sample_size < f.sample_size);
                }
                (Kind::Serve(f), Kind::Serve(s)) => {
                    assert!(s.tenants < f.tenants && s.datagen_scale < f.datagen_scale);
                }
                _ => panic!("smoke changed the kind of {}", full.name),
            }
        }
    }
}
