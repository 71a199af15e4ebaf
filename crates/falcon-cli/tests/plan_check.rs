//! `falcon plan check` end to end: the binary on CSV tables written to a
//! temporary directory, its exit status and what it prints. Every finding
//! is printed once, as a `severity[code] span: message` line.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A directory holding `a.csv` (40 rows) and `b.csv` (`b_rows` rows).
struct Fixture(PathBuf);

impl Fixture {
    fn new(tag: &str, b_rows: usize) -> Fixture {
        let dir =
            std::env::temp_dir().join(format!("falcon_plan_check_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rows = |n: usize| {
            let mut csv = String::from("title,price\n");
            for i in 0..n {
                csv.push_str(&format!("useful gadget number {i},{i}\n"));
            }
            csv
        };
        std::fs::write(dir.join("a.csv"), rows(40)).unwrap();
        std::fs::write(dir.join("b.csv"), rows(b_rows)).unwrap();
        Fixture(dir)
    }

    fn plan_check(&self, extra: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_falcon"))
            .args(["plan", "check"])
            .arg(self.0.join("a.csv"))
            .arg(self.0.join("b.csv"))
            .args(extra)
            .output()
            .unwrap()
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every line the run printed, stdout then stderr.
fn lines(out: &Output) -> Vec<String> {
    let mut text = String::from_utf8_lossy(&out.stdout).into_owned();
    text.push_str(&String::from_utf8_lossy(&out.stderr));
    text.lines().map(str::to_string).collect()
}

#[test]
fn a_valid_pair_passes() {
    let out = Fixture::new("valid", 40).plan_check(&[]);
    assert_eq!(out.status.code(), Some(0), "{:?}", lines(&out));
    assert!(lines(&out)
        .iter()
        .any(|l| l.starts_with("plan check     : ok")));
}

#[test]
fn a_recall_unsafe_forced_filter_is_printed_once_with_its_code() {
    let out = Fixture::new("unsafe", 40).plan_check(&["--force-filter", "1:-1"]);
    assert_eq!(out.status.code(), Some(1), "{:?}", lines(&out));
    let naming: Vec<String> = lines(&out)
        .into_iter()
        .filter(|l| l.contains("recall-unsafe"))
        .collect();
    assert_eq!(naming.len(), 1, "{naming:?}");
    assert!(
        naming[0].starts_with("error[recall-unsafe-filter] feature 1: "),
        "{naming:?}"
    );
}

#[test]
fn an_empty_table_is_an_error_with_its_code() {
    let out = Fixture::new("empty", 0).plan_check(&[]);
    assert_eq!(out.status.code(), Some(1), "{:?}", lines(&out));
    assert!(
        lines(&out)
            .iter()
            .any(|l| l == "error[empty-table] table B: input table B is empty"),
        "{:?}",
        lines(&out)
    );
}
