//! Regenerate the paper's tables and figures (EXPERIMENTS.md):
//!
//! ```text
//! cargo run --release -p falcon-bench --bin repro [-- --section <name>]...
//! ```
//!
//! Runs every section (or the named ones, in the given order) in full
//! mode and prints its markdown tables as each finishes; wall-clock cells
//! read `~value`. An unknown argument prints the section list and exits
//! with code 2.

use falcon_bench::{parse_args, timed, usage, Mode};
use std::io::Write as _;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sections = match parse_args(&args) {
        Ok(s) => s,
        Err(e) => {
            eprint!("repro: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    for sec in sections {
        let (out, wall) = timed(|| (sec.run)(Mode::Full));
        print!("{}", out.render(sec.name, true));
        println!("section wall: ~{wall:.1}s\n");
        let _ = std::io::stdout().flush();
    }
    ExitCode::SUCCESS
}
