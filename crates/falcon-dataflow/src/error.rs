//! Typed failures surfaced by the dataflow engine.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Which phase of a job a task belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// The map side of a map-shuffle-reduce job.
    Map,
    /// The reduce side of a map-shuffle-reduce job.
    Reduce,
    /// A map-only job (no shuffle or reduce).
    MapOnly,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Map => "map",
            Self::Reduce => "reduce",
            Self::MapOnly => "map-only",
        })
    }
}

/// An error produced while executing a MapReduce job.
///
/// The engine runs user map/reduce closures on worker threads; a panic on
/// any worker aborts the job and is reported as a value instead of being
/// propagated, so operators can attach context and drivers can fail a
/// whole workflow cleanly. Every task-level failure carries its full
/// coordinates — job number, phase, split index and attempt count — so a
/// post-retry-exhaustion failure is diagnosable from the error alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataflowError {
    /// A worker panicked while running a task, and the attempt budget (1
    /// without a fault plan) did not allow a successful re-execution.
    WorkerPanicked {
        /// Cluster-wide job number (submission order).
        job: u64,
        /// Which phase lost the task.
        phase: Phase,
        /// Split / partition index of the failed task.
        task: usize,
        /// Attempts consumed, injected failures included.
        attempts: u32,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// Fault injection failed every allowed attempt of a task — the
    /// simulated analogue of a Hadoop job failing after
    /// `mapred.*.max.attempts` re-executions.
    AttemptsExhausted {
        /// Cluster-wide job number (submission order).
        job: u64,
        /// Which phase the task belonged to.
        phase: Phase,
        /// Split / partition index of the failed task.
        task: usize,
        /// The attempt budget that was exhausted.
        attempts: u32,
    },
    /// A reduce partition disappeared before its worker could claim it —
    /// an engine invariant violation, never expected in practice.
    PartitionMissing {
        /// Cluster-wide job number (submission order).
        job: u64,
        /// Which phase lost the partition (always [`Phase::Reduce`]).
        phase: Phase,
        /// Index of the missing partition.
        partition: usize,
    },
}

impl DataflowError {
    /// The job this error is located at. Exhaustive, like [`Self::phase`]:
    /// a variant without the coordinate does not compile.
    pub fn job(&self) -> u64 {
        match self {
            Self::WorkerPanicked { job, .. }
            | Self::AttemptsExhausted { job, .. }
            | Self::PartitionMissing { job, .. } => *job,
        }
    }

    /// The phase of [`Self::job`] this error is located at.
    pub fn phase(&self) -> Phase {
        match self {
            Self::WorkerPanicked { phase, .. }
            | Self::AttemptsExhausted { phase, .. }
            | Self::PartitionMissing { phase, .. } => *phase,
        }
    }

    /// The task (split) index the error is anchored to, when it has one.
    pub fn task_index(&self) -> Option<usize> {
        match self {
            Self::WorkerPanicked { task, .. } | Self::AttemptsExhausted { task, .. } => Some(*task),
            Self::PartitionMissing { .. } => None,
        }
    }
}

impl fmt::Display for DataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::WorkerPanicked {
                job,
                phase,
                task,
                attempts,
                message,
            } => {
                write!(
                    f,
                    "job {job}: {phase} task {task} panicked after {attempts} attempt(s): {message}"
                )
            }
            Self::AttemptsExhausted {
                job,
                phase,
                task,
                attempts,
            } => {
                write!(
                    f,
                    "job {job}: {phase} task {task} failed all {attempts} attempt(s)"
                )
            }
            Self::PartitionMissing {
                job,
                phase,
                partition,
            } => {
                write!(
                    f,
                    "job {job}: {phase} partition {partition} was already taken"
                )
            }
        }
    }
}

impl std::error::Error for DataflowError {}
