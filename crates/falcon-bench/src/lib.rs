//! The harness behind `repro`, the binary that regenerates the paper's
//! §11 evidence (DESIGN.md §4): one problem-seed scheme (problem `p`
//! seeds datagen, the crowd and `FalconConfig::seed`, as `benchmark/`
//! does), one [`run`], one [`learn_sequence`], one [`Table`] of
//! deterministic and wall cells, and the [`SECTIONS`], each run in a
//! [`Mode`]: `Full` for `results/repro.txt`, `Quick` for the golden.

pub mod sections;

use falcon::core::features::{generate_features, FeatureLibrary};
use falcon::core::ops::al_matcher::{al_matcher, AlConfig};
use falcon::core::ops::eval_rules::eval_rules;
use falcon::core::ops::gen_fvs::gen_fvs;
use falcon::core::ops::get_blocking_rules::{get_blocking_rules, TOP_K_RULES};
use falcon::core::ops::sample_pairs::sample_pairs;
use falcon::core::ops::select_opt_seq::{select_opt_seq, SeqOutput};
use falcon::core::rules::Rule;
use falcon::core::timeline::Timeline;
use falcon::prelude::*;
use std::fmt::{Display, Write as _};
use std::time::Duration;

/// The three paper datasets in presentation order.
pub const DATASETS: [&str; 3] = ["products", "songs", "citations"];

/// How much of the experiment a section runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The published run: laptop scale, three problems per configuration.
    Full,
    /// A quarter of the tables, an eighth of the sample, problem 1.
    Quick,
}

impl Mode {
    /// The problems each configuration runs.
    pub fn problems(self) -> &'static [u64] {
        match self {
            Mode::Full => &[1, 2, 3],
            Mode::Quick => &[1],
        }
    }

    /// Multiplier on each dataset's [`base_scale`].
    pub fn scale(self) -> f64 {
        match self {
            Mode::Full => 1.0,
            Mode::Quick => 0.25,
        }
    }

    /// `FalconConfig::sample_size`.
    pub fn sample_size(self) -> usize {
        match self {
            Mode::Full => 8_000,
            Mode::Quick => 1_000,
        }
    }
}

/// Each dataset's laptop scale, as a fraction of the paper's full size:
/// roughly 128×1.1K (products), 2K×2K (songs), 2.7K×3.8K (citations).
pub fn base_scale(dataset: &str) -> f64 {
    falcon::datagen::default_scale(dataset).unwrap_or_else(|| panic!("unknown dataset {dataset}"))
}

/// Problem `p` of `dataset` at the mode's scale.
pub fn dataset(name: &str, mode: Mode, p: u64) -> EmDataset {
    falcon::datagen::generate(name, base_scale(name) * mode.scale(), p)
}

/// `benchmark/`'s configuration of problem `p`: a simulated 10-node
/// cluster, the mode's sample with fan-out 20 (the paper's 100 assumes
/// million-tuple tables), the blocking plan, driver seed `p`.
pub fn config(mode: Mode, p: u64) -> FalconConfig {
    FalconConfig {
        sample_size: mode.sample_size(),
        sample_fanout: 20,
        force_plan: Some(PlanKind::BlockAndMatch),
        seed: p,
        ..FalconConfig::default()
    }
}

/// One run (`rounds` workflow rounds, 0 = the plain plan) against the
/// paper's simulated crowd: random workers with `error`, 1.5 min per
/// round, seeded like the driver.
pub fn run(d: &EmDataset, cfg: FalconConfig, error: f64, rounds: usize) -> RunReport {
    let truth = GroundTruth::new(d.truth.iter().copied());
    let crowd = RandomWorkerCrowd::new(truth, error, cfg.seed);
    Falcon::new(cfg)
        .try_run_with(&d.a, &d.b, crowd, rounds, RunCtl::default())
        .unwrap_or_else(|e| panic!("run of {} failed: {e}", d.name))
}

/// What the blocking stage learns from problem `p`'s sample.
pub struct Learned {
    pub lib: FeatureLibrary,
    pub opt: SeqOutput,
    /// Rules `eval_rules` kept, in rank order.
    pub retained: Vec<Rule>,
}

/// The blocking stage up to its rule sequence — `sample_pairs` →
/// `gen_fvs` → `al_matcher` → `get_blocking_rules` → `eval_rules` →
/// `select_opt_seq` — with an oracle crowd, so that what follows measures
/// machine behaviour alone.
pub fn learn_sequence(cluster: &Cluster, d: &EmDataset, mode: Mode, p: u64) -> Learned {
    let truth = GroundTruth::new(d.truth.iter().copied());
    let mut session = CrowdSession::new(OracleCrowd::new(truth));
    let mut tl = Timeline::new();
    let lib = generate_features(&d.a, &d.b);
    let sample = sample_pairs(cluster, &d.a, &d.b, mode.sample_size(), 20, p).expect("sample");
    let fvs = gen_fvs(cluster, &d.a, &d.b, &sample.pairs, &lib.blocking)
        .expect("gen_fvs")
        .fvs;
    let higher: Vec<bool> = (lib.blocking.features.iter())
        .map(|f| f.sim.higher_is_similar())
        .collect();
    let al = al_matcher(
        cluster,
        &mut session,
        &mut tl,
        "al",
        &fvs,
        &higher,
        &AlConfig::default(),
        false,
        &[],
        p,
    )
    .expect("al");
    let ranked = get_blocking_rules(&al.forest, &fvs, TOP_K_RULES, &higher);
    let eval = eval_rules(&mut session, &mut tl, &ranked, &fvs.pairs, p);
    let opt = select_opt_seq(&ranked, &eval.retained);
    let retained = eval.retained.into_iter().map(|e| e.rule).collect();
    Learned { lib, opt, retained }
}

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A function of inputs, config and seed: pinned by the golden.
    Det(String),
    /// Measured on the host; rendered `~value`, masked by the golden.
    Wall(String),
}

/// A deterministic cell.
pub fn det(x: impl Display) -> Cell {
    Cell::Det(x.to_string())
}

/// Virtual seconds, to the millisecond.
pub fn secs(d: Duration) -> Cell {
    Cell::Det(format!("{:.3}", d.as_secs_f64()))
}

/// A fraction as a percentage with one decimal.
pub fn pct(x: f64) -> Cell {
    Cell::Det(format!("{:.1}", x * 100.0))
}

/// A wall-clock cell, rendered `~text`.
pub fn wall(text: impl Display) -> Cell {
    Cell::Wall(format!("~{text}"))
}

/// The median of `xs`; of an even count, the mean of the middle two.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
}

/// `(min, max)` of `xs`.
pub fn range(xs: &[f64]) -> (f64, f64) {
    (xs.iter()).fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)))
}

/// `median [min, max]` of `xs` at `prec` decimals, or the one value when
/// they all agree.
pub fn spread(xs: &[f64], prec: usize) -> Cell {
    let ((lo, hi), m) = (range(xs), median(xs));
    Cell::Det(if lo == hi {
        format!("{m:.prec$}")
    } else {
        format!("{m:.prec$} [{lo:.prec$}, {hi:.prec$}]")
    })
}

/// A titled table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// `header` names the columns, separated by `", "`.
    pub fn new(title: impl Into<String>, header: &str) -> Self {
        Self {
            title: title.into(),
            header: header.split(", ").map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row: `label`'s cells, then `cells`.
    pub fn row(&mut self, label: &[&dyn Display], cells: impl IntoIterator<Item = Cell>) {
        let row: Vec<Cell> = label.iter().map(det).chain(cells).collect();
        assert_eq!(row.len(), self.header.len(), "{}: row width", self.title);
        self.rows.push(row);
    }

    /// A markdown table under a `### title` line; wall cells read `~`
    /// unless `walls`.
    fn render(&self, out: &mut String, walls: bool) {
        let line = |cells: Vec<&str>| format!("| {} |\n", cells.join(" | "));
        let _ = write!(out, "\n### {}\n\n", self.title);
        out.push_str(&line(self.header.iter().map(String::as_str).collect()));
        out.push_str(&line(vec!["---"; self.header.len()]));
        for row in &self.rows {
            out.push_str(&line(
                row.iter()
                    .map(|c| match c {
                        Cell::Det(s) => s.as_str(),
                        Cell::Wall(s) if walls => s.as_str(),
                        Cell::Wall(_) => "~",
                    })
                    .collect(),
            ));
        }
    }
}

/// What a section produced: its tables and the shape claims it checked.
#[derive(Debug, Default)]
pub struct Output {
    pub tables: Vec<Table>,
    pub checks: Vec<&'static str>,
}

impl Output {
    /// Assert the shape claim `name` (EXPERIMENTS.md cites it by name).
    pub fn check(&mut self, name: &'static str, holds: bool) {
        assert!(
            holds,
            "shape `{name}` does not hold:{}",
            self.render("", true)
        );
        self.checks.push(name);
    }

    /// The section's text; wall cells read `~` unless `walls`.
    pub fn render(&self, section: &str, walls: bool) -> String {
        let mut out = String::new();
        if !section.is_empty() {
            let _ = writeln!(out, "## {section}");
        }
        for t in &self.tables {
            t.render(&mut out, walls);
        }
        if !self.checks.is_empty() {
            let _ = writeln!(out, "\nchecked: {}\n", self.checks.join(", "));
        }
        out
    }
}

/// One entry of `repro`'s section list.
pub struct Section {
    pub name: &'static str,
    pub about: &'static str,
    pub run: fn(Mode) -> Output,
}

pub use sections::SECTIONS;

/// `repro`'s usage text: the flag and the section list.
pub fn usage() -> String {
    let mut s = String::from("usage: repro [--section <name>]...  (default: every section)\n");
    for sec in &SECTIONS {
        let _ = writeln!(s, "  {:<9} {}", sec.name, sec.about);
    }
    s
}

/// `repro`'s command line: `--section <name>`, repeatable; none selects
/// every section. Anything else is an error.
pub fn parse_args(args: &[String]) -> Result<Vec<&'static Section>, String> {
    let mut picked = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg != "--section" {
            return Err(format!("unknown argument `{arg}`"));
        }
        let name = it.next().ok_or("`--section` needs a name")?;
        let sec = (SECTIONS.iter().find(|s| s.name == name))
            .ok_or_else(|| format!("unknown section `{name}`"))?;
        picked.push(sec);
    }
    Ok(if picked.is_empty() {
        SECTIONS.iter().collect()
    } else {
        picked
    })
}

/// Wall seconds `f` took, beside its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    #[expect(
        clippy::disallowed_methods,
        reason = "repro reports real wall time beside virtual time"
    )]
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn base_scales_known() {
        for d in DATASETS {
            assert!(base_scale(d) > 0.0);
        }
    }

    #[test]
    fn no_argument_selects_every_section_in_order() {
        let all = parse_args(&[]).unwrap();
        let names: Vec<_> = all.iter().map(|s| s.name).collect();
        let want: Vec<_> = SECTIONS.iter().map(|s| s.name).collect();
        assert_eq!(names, want);
    }

    #[test]
    fn sections_are_picked_in_the_given_order() {
        let picked = parse_args(&args("--section kbb --section table1")).unwrap();
        let names: Vec<_> = picked.iter().map(|s| s.name).collect();
        assert_eq!(names, ["kbb", "table1"]);
    }

    #[test]
    fn unknown_flags_sections_and_values_are_errors() {
        for bad in [
            "--scale 2",
            "--scael 2",
            "--runs three",
            "--section",
            "--section table3",
            "--section table2 --per-run",
            "table2",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn usage_lists_every_section() {
        let u = usage();
        for s in &SECTIONS {
            assert!(u.contains(s.name), "{}", s.name);
        }
    }

    #[test]
    fn spread_of_three_distinct_values() {
        assert_eq!(spread(&[3.0, 1.0, 2.5], 1), det("2.5 [1.0, 3.0]"));
        assert_eq!(spread(&[40.0, 10.0, 20.0, 30.0], 0), det("25 [10, 40]"));
    }

    #[test]
    fn spread_of_equal_values_is_the_value() {
        assert_eq!(spread(&[7.0, 7.0, 7.0], 2), det("7.00"));
        assert_eq!(spread(&[5.0], 0), det("5"));
    }

    #[test]
    fn wall_cells_are_masked_unless_asked_for() {
        let mut t = Table::new("t", "a, b");
        t.row(&[&1], [wall("2.50s")]);
        let out = Output {
            tables: vec![t],
            checks: vec!["x"],
        };
        assert!(out.render("s", true).contains("| 1 | ~2.50s |"));
        assert!(out.render("s", false).contains("| 1 | ~ |"));
        assert!(out.render("s", false).contains("checked: x"));
    }
}
