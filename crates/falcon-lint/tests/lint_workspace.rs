//! The lint gate: the real workspace must be clean, and the seeded
//! violation fixture must trip every rule.

use falcon_lint::{scan_workspace, Rule};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = <root>/crates/falcon-lint.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn the_workspace_is_lint_clean() {
    let violations = scan_workspace(&workspace_root()).expect("scan");
    assert!(
        violations.is_empty(),
        "workspace violations:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn seeded_fixture_trips_every_rule() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad-workspace");
    let violations = scan_workspace(&fixture).expect("scan");
    // bad_op.rs: Instant::now + thread_rng + unwrap; the waived unwrap and
    // the #[cfg(test)] module must NOT be reported.
    // bad_runner.rs: RandomState + expect.
    // bad_retry.rs: SystemTime::now (the waived twin must NOT be reported).
    // bad_iter.rs: unordered hash iteration + float sum over one (the
    // blessed count and collect-then-sort shapes must NOT be reported);
    // an `env::var` knob outside the entropy needles' three crates.
    // bad_error.rs: DataflowError construction without job/phase (the
    // match pattern must NOT be reported).
    // bad_serve_error.rs: ServeError construction without tenant/round
    // (the match pattern must NOT be reported).
    // bad_indirect.rs: Instant::now behind two levels of calls.
    let count = |rule: Rule| violations.iter().filter(|v| v.rule == rule).count();
    assert_eq!(count(Rule::NoPanic), 2, "{violations:?}");
    assert_eq!(count(Rule::NoNondeterminism), 3, "{violations:?}");
    assert_eq!(count(Rule::SimTime), 2, "{violations:?}");
    assert_eq!(count(Rule::WallClockRetry), 1, "{violations:?}");
    assert_eq!(count(Rule::HashmapIterOrder), 1, "{violations:?}");
    assert_eq!(count(Rule::FloatReduceOrder), 1, "{violations:?}");
    assert_eq!(count(Rule::ErrorContext), 2, "{violations:?}");
    assert_eq!(count(Rule::SimTimeTransitive), 2, "{violations:?}");
    assert_eq!(violations.len(), 14, "{violations:?}");
    let retry_v = violations
        .iter()
        .find(|v| v.rule == Rule::WallClockRetry)
        .expect("wall-clock-retry violation");
    assert!(retry_v
        .file
        .ends_with("crates/falcon-crowd/src/bad_retry.rs"));
    assert_eq!(retry_v.token, "SystemTime::now");
    // Locations are reported precisely.
    let unwrap_v = violations
        .iter()
        .find(|v| v.token == ".unwrap()")
        .expect("unwrap violation");
    assert!(unwrap_v
        .file
        .ends_with("crates/falcon-core/src/ops/bad_op.rs"));
    assert_eq!(unwrap_v.line, 8);
    // The transitive pass names the function the taint flows through.
    let transitive: Vec<_> = violations
        .iter()
        .filter(|v| v.rule == Rule::SimTimeTransitive)
        .collect();
    assert!(transitive
        .iter()
        .all(|v| v.file.ends_with("crates/falcon-core/src/bad_indirect.rs")));
    assert!(transitive.iter().any(|v| v.token.contains("hidden_clock")));
    assert!(transitive.iter().any(|v| v.token.contains("measure")));
}

#[test]
fn seeded_fixture_matches_the_ci_expectation_file() {
    // The same contract CI's `--expect` self-test enforces, kept in-tree
    // so `cargo test` alone catches drift between fixture and manifest.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let fixture = manifest.join("tests/fixtures/bad-workspace");
    let expected_file = manifest.join("tests/fixtures/bad-workspace-expected.txt");
    let expected: std::collections::BTreeSet<String> = std::fs::read_to_string(&expected_file)
        .expect("expectation file")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect();
    let actual: std::collections::BTreeSet<String> = scan_workspace(&fixture)
        .expect("scan")
        .iter()
        .map(|v| {
            format!(
                "{}:{}:{}",
                v.file.display().to_string().replace('\\', "/"),
                v.line,
                v.rule.name()
            )
        })
        .collect();
    assert_eq!(expected, actual);
}
