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

/// The first CHANGES.md entry number (`- PR <n>`) held to [`ENTRY_CAP`];
/// earlier entries predate the cap.
const FIRST_CAPPED_PR: u32 = 26;
/// Characters (not bytes) one CHANGES.md entry may take.
const ENTRY_CAP: usize = 1500;

/// Every CHANGES.md entry — a `- PR <n>` line plus any indented lines
/// under it — numbered [`FIRST_CAPPED_PR`] or later is at most
/// [`ENTRY_CAP`] characters: the log says what changed, the change's
/// description says the rest.
#[test]
fn changes_entries_fit_the_cap() {
    let text = std::fs::read_to_string(workspace_root().join("CHANGES.md")).expect("CHANGES.md");
    // (PR number, characters) per entry.
    let mut entries: Vec<(u32, usize)> = Vec::new();
    let mut open = false;
    for line in text.lines() {
        let chars = line.chars().count();
        if let Some(rest) = line.strip_prefix("- PR ") {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            let pr = digits.parse().expect("`- PR <n>` starts an entry");
            entries.push((pr, chars));
            open = true;
        } else if open && line.starts_with(char::is_whitespace) {
            if let Some((_, len)) = entries.last_mut() {
                *len += 1 + chars;
            }
        } else {
            open = false;
        }
    }
    assert!(
        entries.iter().any(|&(pr, _)| pr >= FIRST_CAPPED_PR),
        "no entry numbered {FIRST_CAPPED_PR} or later"
    );
    let over: Vec<_> = entries
        .iter()
        .filter(|&&(pr, len)| pr >= FIRST_CAPPED_PR && len > ENTRY_CAP)
        .collect();
    assert!(
        over.is_empty(),
        "CHANGES.md entries over {ENTRY_CAP} characters (PR, length): {over:?}"
    );
}
