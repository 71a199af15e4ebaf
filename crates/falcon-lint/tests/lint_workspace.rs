//! The lint gate: the real workspace must be clean, and the seeded
//! violation fixture must trip exactly the expected set — every rule.

use falcon_lint::{scan_workspace, ALL_RULES};
use std::collections::BTreeSet;
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
fn seeded_fixture_matches_the_ci_expectation_file() {
    // bad_iter.rs: unordered hash iteration + float sum over one (the
    // blessed count and collect-then-sort shapes must NOT be reported).
    // bad_error.rs / bad_serve_error.rs: error constructions without
    // their coordinates (the match patterns must NOT be reported).
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let fixture = manifest.join("tests/fixtures/bad-workspace");
    let expected_file = manifest.join("tests/fixtures/bad-workspace-expected.txt");
    let expected: BTreeSet<String> = std::fs::read_to_string(&expected_file)
        .expect("expectation file")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect();
    let actual: BTreeSet<String> = scan_workspace(&fixture)
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
    for rule in ALL_RULES {
        let suffix = format!(":{}", rule.name());
        assert!(
            expected.iter().any(|l| l.ends_with(&suffix)),
            "the fixture seeds no {} violation",
            rule.name()
        );
    }
}
