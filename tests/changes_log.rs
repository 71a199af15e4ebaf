//! CHANGES.md stays a log: one short entry per change.

use std::path::Path;

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
    // CARGO_MANIFEST_DIR = <root>/crates/falcon.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../CHANGES.md");
    let text = std::fs::read_to_string(path).expect("CHANGES.md");
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
