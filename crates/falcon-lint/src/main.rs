//! `falcon-lint`: lint the workspace's library sources for the
//! hash-iteration order, float reduction order and error-context
//! invariants (clippy owns the rest; see the library docs).
//!
//! ```sh
//! cargo run -p falcon-lint               # lint the enclosing workspace
//! cargo run -p falcon-lint -- <root>     # lint an explicit workspace root
//! ```
//!
//! Prints one `file:line:col: [rule] ...` line per violation (the format
//! CI's problem matcher annotates) and exits `1` when any is found, `0`
//! otherwise.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        if arg.starts_with("--") {
            eprintln!("falcon-lint: unknown flag {arg}");
            return ExitCode::FAILURE;
        }
        root = Some(PathBuf::from(arg));
    }
    let root = root.unwrap_or_else(|| {
        // CARGO_MANIFEST_DIR = <root>/crates/falcon-lint.
        let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        manifest
            .parent()
            .and_then(Path::parent)
            .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
    });
    match falcon_lint::scan_workspace(&root) {
        Ok(violations) if violations.is_empty() => {
            println!("falcon-lint: ok ({})", root.display());
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                eprintln!("{v}");
            }
            eprintln!("falcon-lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("falcon-lint: cannot scan {}: {e}", root.display());
            ExitCode::FAILURE
        }
    }
}
