//! `falcon` — the command-line face of the EM service the paper's
//! Example 1 describes: "a user can just submit the two tables to be
//! matched ... and specify the crowdsourcing budget".
//!
//! ```text
//! falcon match a.csv b.csv --interactive [--out matches.csv]
//! falcon plan check a.csv b.csv [--budget pairs] [--nodes n]
//! falcon profile table.csv
//! falcon demo [products|songs|citations] [--scale f]
//! falcon serve jobs.manifest [--policy fair] [--nodes n] [--threads k]
//! ```

mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("match") => commands::cmd_match(&args[1..]),
        Some("plan") => commands::cmd_plan(&args[1..]),
        Some("profile") => commands::cmd_profile(&args[1..]),
        Some("demo") => commands::cmd_demo(&args[1..]),
        // `serve` distinguishes per-tenant failure (exit 3) from service
        // failure (exit 1): a cloud batch with one quarantined tenant
        // still produced every other tenant's result.
        Some("serve") => {
            return match commands::cmd_serve(&args[1..]) {
                Ok(code) => code,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("--help" | "-h" | "help") | None => {
            print!("{}", commands::USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}\n\n{}", commands::USAGE)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
