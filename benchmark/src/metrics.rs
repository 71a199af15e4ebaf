//! The metric tables: every name the benchmark may print, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists the same
//! names (a unit test keeps the two in step).

/// One metric the benchmark reports.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the reference median by which the metric may worsen
    /// before it counts as regressed; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

fn spec(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// Simulated seconds (crowd latency and cost-model machine time): a
/// different clock from wall `s`, so it gets its own unit and the two are
/// never summed.
pub const VIRTUAL_S: &str = "virtual_s";

/// What a user of the service sees. Reported on every workload.
pub fn end_to_end() -> Vec<MetricSpec> {
    let e = |name: &str, unit, better, bound| MetricSpec {
        bound: Some(bound),
        ..spec(name, unit, better)
    };
    vec![
        e("wall_s", "s", "lower", 0.25),
        e("setup_s", "s", "lower", 0.25),
        e("peak_alloc_bytes", "B", "lower", 0.10),
        e("crowd_dollars", "usd", "lower", 0.01),
        e("virtual_total_s", VIRTUAL_S, "lower", 0.02),
        e("virtual_unmasked_machine_s", VIRTUAL_S, "lower", 0.10),
        e("f1", "ratio", "higher", 0.01),
    ]
}

/// Single-layer metrics, named after the repo's modules. A metric whose
/// layer a workload bypasses reads 0 there.
pub fn per_layer() -> Vec<MetricSpec> {
    let mut v = Vec::new();
    for stage in crate::trace::DRIVER_STAGES {
        v.push(spec(format!("stage.{stage}.wall_s"), "s", "lower"));
        v.push(spec(format!("stage.{stage}.virtual_s"), VIRTUAL_S, "lower"));
        v.push(spec(format!("stage.{stage}.records"), "count", "lower"));
    }
    v.extend([
        // Benchmark-side spans around the driver call.
        spec("stage.ingest.wall_s", "s", "lower"),
        spec("stage.emit.wall_s", "s", "lower"),
        spec("stage.untraced.wall_s", "s", "lower"),
        spec("trace.wall_s", "s", "lower"),
        spec("trace.overhead_s", "s", "lower"),
        spec("table.csv_read.rows_per_s", "1/s", "higher"),
        spec("table.csv_read.peak_alloc_bytes", "B", "lower"),
        spec("tokens.profile_build.tuples_per_s", "1/s", "higher"),
        spec("index.build.tuples_per_s", "1/s", "higher"),
        spec("physical.probe.pairs_per_s", "1/s", "higher"),
        spec("fv.blocking.pairs_per_s", "1/s", "higher"),
        spec("fv.matching.pairs_per_s", "1/s", "higher"),
        spec("forest.train.examples_per_s", "1/s", "higher"),
        spec("forest.score.preds_per_s", "1/s", "higher"),
        spec("blocking.pairs_examined", "count", "lower"),
        spec("blocking.pruned_by_signature", "count", "higher"),
        spec("blocking.pruned_by_exact", "count", "lower"),
        spec("blocking.survived", "count", "lower"),
        spec("blocking.useful_ratio", "ratio", "higher"),
        spec("core.candidates", "count", "lower"),
        spec("core.rules_retained", "count", "higher"),
        spec("crowd.questions", "count", "lower"),
        spec("dataflow.segments", "count", "lower"),
        spec("serve.rounds", "count", "lower"),
        spec("serve.stages", "count", "lower"),
        spec("serve.utilization", "ratio", "higher"),
        spec("serve.p50_latency_virtual_s", VIRTUAL_S, "lower"),
        spec("serve.max_latency_virtual_s", VIRTUAL_S, "lower"),
        spec("serve.solo_sum_s", "s", "lower"),
        spec("serve.overhead_ratio", "ratio", "lower"),
    ]);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn names_and_units_fit_the_charset_and_are_unique() {
        let all: Vec<MetricSpec> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = std::collections::BTreeSet::new();
        for m in &all {
            assert!(valid_name(&m.name), "bad name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?}", m.unit);
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(seen.insert(m.name.clone()), "duplicate {:?}", m.name);
        }
        assert!(end_to_end().len() <= 16 && per_layer().len() <= 128);
        assert!(!valid_name("has space") && !valid_name("") && !valid_name(".dot"));
        assert!(!valid_unit("$"));
    }

    #[test]
    fn end_to_end_has_bounded_setup_and_no_bound_above_a_quarter() {
        let e = end_to_end();
        let setup = e.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        for m in &e {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25 && b <= setup.bound.unwrap());
        }
        assert!(per_layer().iter().all(|m| m.bound.is_none()));
    }

    /// `BENCHMARK.json` names exactly the metrics of these tables.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let section = |key: &str| -> &str {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let rest = &text[start..];
            &rest[..rest.find(']').expect("closing bracket")]
        };
        for (key, specs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let body = section(key);
            assert_eq!(body.matches("\"name\"").count(), specs.len(), "{key} count");
            for m in specs {
                let mut entry = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    m.name, m.unit, m.better
                );
                if let Some(b) = m.bound {
                    entry.push_str(&format!(", \"bound\": {b}"));
                }
                entry.push('}');
                assert!(body.contains(&entry), "{key} lacks {entry}");
            }
        }
    }
}
