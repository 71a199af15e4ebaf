//! EXPERIMENTS.md's measured tables are pasted from `results/repro.txt`:
//! the data rows of every table under a heading that says "Measured"
//! must appear in that file as consecutive lines, in order, so no number
//! in those tables — and no paper value — can be typed in by hand or go
//! stale when `repro.txt` is regenerated.

const EXPERIMENTS: &str = include_str!("../../../EXPERIMENTS.md");
const REPRO: &str = include_str!("../../../results/repro.txt");

/// The data rows (below the `| --- |` separator) of each table under a
/// heading containing "Measured", up to the next heading.
fn measured_tables(md: &str) -> Vec<Vec<&str>> {
    let (mut measured, mut body) = (false, false);
    let mut tables: Vec<Vec<&str>> = Vec::new();
    for line in md.lines() {
        if line.starts_with('#') {
            measured = line.contains("Measured");
        }
        if !line.starts_with('|') {
            body = false;
        } else if line.starts_with("| ---") || line.starts_with("|---") {
            body = true;
            tables.push(Vec::new());
        } else if measured && body {
            tables.last_mut().expect("a table").push(line);
        }
    }
    tables.retain(|t| !t.is_empty());
    tables
}

/// Is `rows` a run of consecutive lines of `repro.txt`?
fn in_repro(rows: &[&str]) -> bool {
    let lines: Vec<&str> = REPRO.lines().collect();
    lines.windows(rows.len()).any(|w| w == rows)
}

#[test]
fn every_measured_table_is_a_block_of_repro_txt() {
    let tables = measured_tables(EXPERIMENTS);
    let rows: usize = tables.iter().map(Vec::len).sum();
    assert!(rows >= 40, "only {rows} measured rows found");
    for t in &tables {
        assert!(in_repro(t), "not a block of results/repro.txt: {t:#?}");
    }
}

#[test]
fn changing_one_digit_of_any_cell_fails_the_check() {
    for t in measured_tables(EXPERIMENTS) {
        for (r, row) in t.iter().enumerate() {
            for (i, c) in row.char_indices().filter(|(_, c)| c.is_ascii_digit()) {
                let bumped = char::from(b'0' + (c as u8 - b'0' + 1) % 10);
                let mutated = format!("{}{bumped}{}", &row[..i], &row[i + 1..]);
                let mut t2 = t.clone();
                t2[r] = &mutated;
                assert!(!in_repro(&t2), "{mutated} would pass");
            }
        }
    }
}

#[test]
fn only_measured_headings_are_read() {
    let md = "## T\n| a |\n| --- |\n| 1 |\n### Measured\n| a |\n| --- |\n| 2 |\n\n| b |\n| --- |\n| 3 |\n## U\n| a |\n| --- |\n| 4 |\n";
    assert_eq!(measured_tables(md), [["| 2 |"], ["| 3 |"]]);
}
