//! The top-level error type surfaced by Falcon's operators and driver.

use crate::analyze::Diagnostic;
use crate::physical::BlockingError;
use crate::stage::CancelReason;
use falcon_crowd::JournalError;
use falcon_dataflow::DataflowError;
use falcon_index::IndexError;
use falcon_table::TupleId;
use std::fmt;

/// Any failure an operator or the end-to-end driver can report.
///
/// Operators return this instead of panicking so that a malformed input or
/// a lost worker fails one workflow, not the whole service — the
/// "hands-off" requirement of the paper means nobody is watching a
/// terminal for a backtrace.
#[derive(Debug, Clone, PartialEq)]
pub enum FalconError {
    /// The dataflow engine lost a worker or an engine invariant broke.
    Dataflow(DataflowError),
    /// The blocking executor rejected or failed the candidate-set job.
    Blocking(BlockingError),
    /// An index could not be built from its filter spec.
    Index(IndexError),
    /// Static plan analysis rejected the run before any job started (or,
    /// for the optimizer's rule sequence, before any index was built from
    /// it): the error-severity [`Diagnostic`]s.
    Plan(Vec<Diagnostic>),
    /// An operator received a pair referencing a tuple id absent from the
    /// named table.
    UnknownTupleId {
        /// `"A"` or `"B"`.
        table: &'static str,
        /// The offending id.
        id: TupleId,
    },
    /// An operator that needs a non-empty input got an empty one.
    EmptyInput {
        /// What was empty (e.g. `"feature vectors"`).
        what: &'static str,
    },
    /// The checkpoint journal of a resumable run could not be opened,
    /// replayed or written.
    Journal {
        /// The underlying [`JournalError`], rendered (kept as text so
        /// `FalconError` stays `Clone + PartialEq`).
        message: String,
    },
    /// A gated run was cancelled by its scheduler (deadline, quota,
    /// shutdown, or a simulated service crash). The driver unwound at a
    /// stage boundary with its crowd journal finalized, so the run can
    /// be resumed from that journal without re-asking the crowd.
    Cancelled {
        /// Why the scheduler cancelled the run.
        reason: CancelReason,
    },
}

impl fmt::Display for FalconError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Dataflow(e) => write!(f, "dataflow failure: {e}"),
            Self::Blocking(e) => write!(f, "blocking failure: {e}"),
            Self::Index(e) => write!(f, "index build failure: {e}"),
            Self::Plan(errors) => {
                write!(f, "plan analysis rejected the run: ")?;
                for (i, e) in errors.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e:#}")?;
                }
                Ok(())
            }
            Self::UnknownTupleId { table, id } => {
                write!(f, "pair references id {id} absent from table {table}")
            }
            Self::EmptyInput { what } => write!(f, "operator input {what:?} is empty"),
            Self::Journal { message } => write!(f, "checkpoint journal failure: {message}"),
            Self::Cancelled { reason } => write!(f, "run cancelled by scheduler: {reason}"),
        }
    }
}

impl std::error::Error for FalconError {}

impl From<DataflowError> for FalconError {
    fn from(e: DataflowError) -> Self {
        Self::Dataflow(e)
    }
}

impl From<BlockingError> for FalconError {
    fn from(e: BlockingError) -> Self {
        Self::Blocking(e)
    }
}

impl From<IndexError> for FalconError {
    fn from(e: IndexError) -> Self {
        Self::Index(e)
    }
}

impl From<JournalError> for FalconError {
    fn from(e: JournalError) -> Self {
        Self::Journal {
            message: e.to_string(),
        }
    }
}
