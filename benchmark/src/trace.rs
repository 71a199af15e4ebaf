//! Stage spans of one traced run, recorded from the benchmark's side of
//! the API: a [`StageGate`] that stamps the clock at every stage boundary
//! the driver reports and always answers `Continue`.
//!
//! The driver notifies the gate *after* each stage, so the span of a
//! stage runs from the previous notification (or the start of the run) to
//! its own. Whatever follows the last notification has no label and is
//! reported as untraced, together with any label this file does not know.

use falcon::core::stage::{StageControl, StageEvent, StageGate};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Driver stage labels, in pipeline order (`Timeline` segment labels).
pub const DRIVER_STAGES: [&str; 13] = [
    "gen_features",
    "sample_pairs",
    "gen_fvs_b",
    "al_matcher_b",
    "index_build",
    "get_block_rules",
    "eval_rules",
    "sel_opt_seq",
    "speculative_exec",
    "apply_block_rules",
    "gen_fvs_m",
    "al_matcher_m",
    "apply_matcher",
];

/// One stage boundary: the driver's event and when it arrived, measured
/// from the recorder's creation.
#[derive(Debug, Clone)]
pub struct Mark {
    pub at: Duration,
    pub label: String,
    pub virtual_dur: Duration,
    pub records: u64,
}

/// The recording gate. Create it immediately before the gated call.
pub struct Recorder {
    start: Instant,
    marks: Mutex<Vec<Mark>>,
}

impl Recorder {
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
            marks: Mutex::new(Vec::new()),
        }
    }

    /// Time since [`Recorder::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    pub fn marks(&self) -> Vec<Mark> {
        self.marks
            .lock()
            .expect("no thread panics while holding the marks lock")
            .clone()
    }
}

impl StageGate for Recorder {
    fn on_stage(&self, event: StageEvent) -> StageControl {
        let mark = Mark {
            at: self.start.elapsed(),
            label: event.label,
            virtual_dur: event.dur,
            records: event.records,
        };
        self.marks
            .lock()
            .expect("no thread panics while holding the marks lock")
            .push(mark);
        StageControl::Continue
    }
}

/// Totals of one stage label over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTotals {
    pub wall_s: f64,
    pub virtual_s: f64,
    pub records: u64,
}

/// Spans of one run folded by label.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Spans {
    /// Known driver stages only.
    pub stages: BTreeMap<&'static str, StageTotals>,
    /// `total − Σ stages`: the unlabelled tail plus unknown labels.
    pub untraced_s: f64,
}

/// Fold `marks` of a run that took `total` on the recorder's clock.
pub fn fold(marks: &[Mark], total: Duration) -> Spans {
    let mut spans = Spans::default();
    let mut prev = Duration::ZERO;
    let mut labelled = 0.0;
    for m in marks {
        let wall = m.at.saturating_sub(prev).as_secs_f64();
        prev = m.at;
        if let Some(stage) = DRIVER_STAGES.iter().find(|s| **s == m.label) {
            let t = spans.stages.entry(stage).or_default();
            t.wall_s += wall;
            t.virtual_s += m.virtual_dur.as_secs_f64();
            t.records += m.records;
            labelled += wall;
        }
    }
    spans.untraced_s = total.as_secs_f64() - labelled;
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(at_ms: u64, label: &str, virtual_s: u64, records: u64) -> Mark {
        Mark {
            at: Duration::from_millis(at_ms),
            label: label.to_string(),
            virtual_dur: Duration::from_secs(virtual_s),
            records,
        }
    }

    #[test]
    fn spans_plus_untraced_sum_to_the_traced_wall() {
        let marks = [
            mark(10, "gen_features", 0, 0),
            mark(250, "sample_pairs", 3, 4000),
            mark(300, "al_matcher_b", 90, 0),
            mark(420, "al_matcher_b", 1, 0),
            mark(500, "not_a_known_label", 7, 9),
            mark(900, "apply_matcher", 2, 600),
        ];
        let total = Duration::from_millis(1000);
        let spans = fold(&marks, total);
        let sum: f64 = spans.stages.values().map(|t| t.wall_s).sum();
        assert!((sum + spans.untraced_s - total.as_secs_f64()).abs() < 1e-12);
        // 80 ms under the unknown label + 100 ms after the last mark.
        assert!((spans.untraced_s - 0.180).abs() < 1e-12);
        let al = spans.stages["al_matcher_b"];
        assert!((al.wall_s - 0.170).abs() < 1e-12);
        assert_eq!((al.virtual_s, al.records), (91.0, 0));
        assert_eq!(spans.stages["sample_pairs"].records, 4000);
        assert!(!spans.stages.contains_key("gen_fvs_m"));
    }

    #[test]
    fn a_run_without_marks_is_all_untraced() {
        let spans = fold(&[], Duration::from_secs(2));
        assert!(spans.stages.is_empty());
        assert_eq!(spans.untraced_s, 2.0);
    }

    #[test]
    fn the_gate_records_and_continues() {
        use falcon::core::stage::StageKind;
        let rec = Recorder::start();
        let verdict = rec.on_stage(StageEvent {
            label: "gen_fvs_m".into(),
            kind: StageKind::Machine,
            dur: Duration::from_secs(5),
            tasks: 4,
            records: 77,
        });
        assert_eq!(verdict, StageControl::Continue);
        let marks = rec.marks();
        assert_eq!(marks.len(), 1);
        assert_eq!(
            (marks[0].label.as_str(), marks[0].records),
            ("gen_fvs_m", 77)
        );
        assert!(marks[0].at <= rec.elapsed());
    }
}
