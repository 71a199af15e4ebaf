//! Execution timeline: machine vs crowd segments and the "mask machine
//! time under crowd time" accounting of Section 10.2.
//!
//! Model: every crowd round of virtual duration `D` contributes `D` of
//! *masking capacity* — cluster time that would otherwise be idle. Machine
//! tasks scheduled by the optimizer during crowdsourcing run against that
//! capacity: the portion covered by capacity costs nothing toward total
//! time; only the *excess* does. This reproduces the paper's reported
//! quantities exactly:
//!
//! * machine time `t_m` — all machine work, masked or not,
//! * crowd time `t_c` — sum of crowd-round latencies,
//! * unmasked machine time `t_u` — machine work not covered by capacity,
//! * total time — `t_c + t_u`.
//!
//! One rule: every duration recorded here is virtual — a crowd round's
//! simulated latency or a machine stage's [`StageCost`], priced from its
//! records — so a timeline is a function of the inputs, the config and
//! the seed, never of the host's speed or core count. The recorders take
//! no `Duration` a caller could have measured.

use crate::stage::{
    CancelReason, GateHandle, StageControl, StageCost, StageEvent, StageGate, StageKind,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// One recorded segment.
#[derive(Debug, Clone, PartialEq)]
pub enum Segment {
    /// Machine work on the critical path (never masked).
    Machine {
        /// Operator label.
        label: String,
        /// Simulated duration.
        dur: Duration,
    },
    /// A crowd round (virtual latency); adds masking capacity.
    Crowd {
        /// Operator label.
        label: String,
        /// Virtual latency.
        dur: Duration,
    },
    /// Machine work scheduled during crowdsourcing; only `excess` reaches
    /// the critical path.
    MaskedMachine {
        /// Operator label.
        label: String,
        /// Full duration of the work.
        dur: Duration,
        /// Portion not covered by masking capacity.
        excess: Duration,
    },
}

impl Segment {
    /// Label of the segment.
    pub fn label(&self) -> &str {
        match self {
            Segment::Machine { label, .. }
            | Segment::Crowd { label, .. }
            | Segment::MaskedMachine { label, .. } => label,
        }
    }
}

/// A run's timeline.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    segments: Vec<Segment>,
    capacity: Duration,
    /// Optional stage-boundary callback (`falcon-serve`'s lease
    /// protocol). Detached before a timeline is embedded in a report.
    gate: Option<GateHandle>,
    /// Set when the gate returned [`StageControl::Cancel`]: the driver
    /// must unwind at its next cancellation point. Sticky until taken.
    cancel: Option<CancelReason>,
}

impl Timeline {
    /// Fresh empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh timeline that notifies (and, for machine stages, blocks
    /// on) `gate` at every stage boundary. See [`StageGate`].
    pub fn with_gate(gate: Arc<dyn StageGate>) -> Self {
        Self {
            gate: Some(GateHandle::new(gate)),
            ..Self::default()
        }
    }

    /// Drop the stage gate, turning this back into a plain record.
    /// Called before a timeline is moved into a `RunReport` so reports
    /// never hold scheduler handles.
    pub fn detach_gate(&mut self) {
        self.gate = None;
    }

    /// The scheduler's pending cancellation, if the gate returned
    /// [`StageControl::Cancel`] at any stage boundary so far. Sticky:
    /// once set it stays set, so every later cancellation point sees it.
    pub fn cancel_reason(&self) -> Option<CancelReason> {
        self.cancel
    }

    fn notify(&mut self, label: &str, kind: StageKind, dur: Duration, cost: &StageCost) {
        if let Some(gate) = &self.gate {
            let (tasks, records) = cost.event_shape();
            let event = StageEvent {
                label: label.to_string(),
                kind,
                dur,
                tasks,
                records,
            };
            if let StageControl::Cancel(reason) = gate.on_stage(event, cost) {
                self.cancel.get_or_insert(reason);
            }
        }
    }

    /// Record unmaskable machine work at its deterministic price.
    pub fn machine(&mut self, label: impl Into<String>, cost: StageCost) {
        let label = label.into();
        let dur = cost.dur();
        self.segments.push(Segment::Machine {
            label: label.clone(),
            dur,
        });
        self.notify(&label, StageKind::Machine, dur, &cost);
    }

    /// Record a crowd round; its latency becomes masking capacity.
    pub fn crowd(&mut self, label: impl Into<String>, dur: Duration) {
        let label = label.into();
        self.capacity += dur;
        self.segments.push(Segment::Crowd {
            label: label.clone(),
            dur,
        });
        self.notify(&label, StageKind::CrowdWait, dur, &StageCost::default());
    }

    /// Record machine work the optimizer scheduled during crowdsourcing.
    /// Consumes capacity; returns the excess that reached the critical
    /// path (zero when fully masked).
    pub fn masked_machine(&mut self, label: impl Into<String>, cost: StageCost) -> Duration {
        let label = label.into();
        let dur = cost.dur();
        let covered = dur.min(self.capacity);
        self.capacity -= covered;
        let excess = dur - covered;
        self.segments.push(Segment::MaskedMachine {
            label: label.clone(),
            dur,
            excess,
        });
        self.notify(&label, StageKind::MaskedMachine, dur, &cost);
        excess
    }

    /// Remaining masking capacity.
    pub fn remaining_capacity(&self) -> Duration {
        self.capacity
    }

    /// Total crowd time `t_c`.
    pub fn crowd_time(&self) -> Duration {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Crowd { dur, .. } => *dur,
                _ => Duration::ZERO,
            })
            .sum()
    }

    /// Total machine time `t_m` (masked work counted in full).
    pub fn machine_time(&self) -> Duration {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Machine { dur, .. } => *dur,
                Segment::MaskedMachine { dur, .. } => *dur,
                Segment::Crowd { .. } => Duration::ZERO,
            })
            .sum()
    }

    /// Unmasked machine time `t_u`.
    pub fn unmasked_machine_time(&self) -> Duration {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Machine { dur, .. } => *dur,
                Segment::MaskedMachine { excess, .. } => *excess,
                Segment::Crowd { .. } => Duration::ZERO,
            })
            .sum()
    }

    /// Total run time `t_c + t_u`.
    pub fn total_time(&self) -> Duration {
        self.crowd_time() + self.unmasked_machine_time()
    }

    /// Per-label total durations (crowd + machine), for the Table 4
    /// per-operator breakdown.
    pub fn by_operator(&self) -> BTreeMap<String, Duration> {
        let mut map: BTreeMap<String, Duration> = BTreeMap::new();
        for s in &self.segments {
            let d = match s {
                Segment::Machine { dur, .. } => *dur,
                Segment::Crowd { dur, .. } => *dur,
                Segment::MaskedMachine { excess, .. } => *excess,
            };
            *map.entry(s.label().to_string()).or_default() += d;
        }
        map
    }

    /// All segments, in order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }
}

/// Driver-level cancellation point: when the stage gate has requested
/// cancellation, finalize the crowd journal — so the tenant can resume
/// later without re-asking a single crowd question — and unwind with
/// [`FalconError::Cancelled`](crate::error::FalconError). Operators with
/// long crowd loops call this between iterations so a cancelled tenant
/// stops asking questions promptly instead of running its loop dry.
pub fn check_cancel<C: falcon_crowd::Crowd>(
    timeline: &Timeline,
    session: &mut falcon_crowd::CrowdSession<C>,
) -> Result<(), crate::error::FalconError> {
    if let Some(reason) = timeline.cancel_reason() {
        session.finalize_journal();
        return Err(crate::error::FalconError::Cancelled { reason });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: u64) -> Duration {
        Duration::from_secs(v)
    }

    /// A machine stage priced at `v` seconds: a local pass over as many
    /// records as that takes.
    fn m(v: u64) -> StageCost {
        let cost =
            StageCost::local((s(v).as_nanos() / falcon_dataflow::PER_RECORD.as_nanos()) as usize);
        assert_eq!(cost.dur(), s(v));
        cost
    }

    #[test]
    fn masking_consumes_capacity() {
        let mut t = Timeline::new();
        t.crowd("al_matcher", s(100));
        assert_eq!(t.masked_machine("build_indexes", m(60)), Duration::ZERO);
        assert_eq!(t.remaining_capacity(), s(40));
        // Next task exceeds capacity by 10.
        assert_eq!(t.masked_machine("speculative", m(50)), s(10));
        assert_eq!(t.remaining_capacity(), Duration::ZERO);
        assert_eq!(t.crowd_time(), s(100));
        assert_eq!(t.machine_time(), s(110));
        assert_eq!(t.unmasked_machine_time(), s(10));
        assert_eq!(t.total_time(), s(110));
    }

    #[test]
    fn unmasked_machine_counts_fully() {
        let mut t = Timeline::new();
        t.machine("apply_blocking_rules", m(30));
        t.crowd("eval_rules", s(20));
        assert_eq!(t.machine_time(), s(30));
        assert_eq!(t.unmasked_machine_time(), s(30));
        assert_eq!(t.total_time(), s(50));
    }

    #[test]
    fn capacity_accumulates_across_rounds() {
        let mut t = Timeline::new();
        t.crowd("al", s(10));
        t.crowd("al", s(10));
        assert_eq!(t.masked_machine("idx", m(15)), Duration::ZERO);
        assert_eq!(t.remaining_capacity(), s(5));
    }

    #[test]
    fn by_operator_aggregates() {
        let mut t = Timeline::new();
        t.crowd("al_matcher", s(5));
        t.crowd("al_matcher", s(5));
        t.machine("apply", m(7));
        t.masked_machine("apply", m(3)); // fully masked -> 0 excess
        let by = t.by_operator();
        assert_eq!(by["al_matcher"], s(10));
        assert_eq!(by["apply"], s(7));
    }

    #[test]
    fn no_capacity_means_no_masking() {
        let mut t = Timeline::new();
        assert_eq!(t.masked_machine("x", m(9)), s(9));
        assert_eq!(t.total_time(), s(9));
    }
}
